"""The same-work check (`tools/samework.py`) against copies of this tree."""

import importlib.util
import os
import shutil

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "samework", os.path.join(REPO, "tools", "samework.py"))
samework = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samework)


def copy_of_this_tree(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(REPO, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_a_copy_of_this_tree_reads_identical(tmp_path, capsys):
    assert samework.main([str(copy_of_this_tree(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "sampled_beta5/metrics.csv" in out and "test.hyp" in out
    assert out.rstrip().endswith("outputs differ") and "\n0 of " in out


def test_a_perturbed_constant_reads_different(tmp_path, capsys):
    tree = copy_of_this_tree(tmp_path)
    path = tree / "src" / "roundtrip" / "autodiff.py"
    text = path.read_text()
    assert "LN_EPSILON = 1e-6\n" in text
    path.write_text(text.replace("LN_EPSILON = 1e-6\n", "LN_EPSILON = 2e-6\n"))
    assert samework.main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "pre/checkpoint-0000012.npz:param/E" in out and "max rel" in out


def test_text_outputs_compare_number_by_number():
    assert samework._compare_text("a,1.0\n", "a,1.0\n") == "identical"
    assert samework._compare_text("a,1.0\n", "a,1.5\n") == \
        "max abs 5.000e-01, max rel 3.333e-01"
    assert samework._compare_text("a\nb,1\n", "a\nc,1\n") == "text differs from line 2"


def test_json_headers_compare_key_by_key():
    this = '{"version": 1, "config": {"d_emb": 8}, "meta": {"update": 4}}'
    other = '{"version": 1, "config": {"d_emb": 8, "layer_norm": true}, "meta": {"update": 5}}'
    assert samework._compare_text(this, other) == \
        "keys differ: config.layer_norm (other tree only), meta.update"
    assert samework._compare_text(other, this) == \
        "keys differ: config.layer_norm (this tree only), meta.update"


@pytest.mark.skipif(not os.path.isdir(os.path.join(REPO, ".git")),
                    reason="needs the repository's git history")
def test_a_revision_unpacks_with_git_archive(tmp_path):
    tree = samework._unpack("HEAD", str(tmp_path))
    assert os.path.isfile(os.path.join(tree, "src", "roundtrip", "model.py"))
    assert not os.path.exists(os.path.join(tree, ".git"))
