"""End-to-end command-line behavior and config round-trips."""

import argparse
import ast
import contextlib
import csv
import io
import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import checkpoint as ckpt_io
from roundtrip import cli, evaluation, verification
from roundtrip.cli import main
from roundtrip.config import RunConfig, load_config, parse_config, serialize_config
from roundtrip.data import (ParallelPair, TaggedSentence, Vocab,
                            build_bidirectional_corpus, make_batch)
from roundtrip.evaluation import corpus_bleu, decode_corpus
from roundtrip.model import ModelParams
from roundtrip.synth import generate_corpus, translate_tokens
from roundtrip.verification import ComponentReport


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def corpus_dir(tmp_path):
    out = str(tmp_path / "corpus")
    assert run_cli("synth", "--task", "copy", "--size", "60", "--vocab", "10",
                   "--seed", "3", "--out-dir", out, "--dev-size", "10",
                   "--test-size", "10", "--min-len", "2", "--max-len", "4") == 0
    return out


def write_config(tmp_path, corpus, **extra):
    cfg = RunConfig(d_emb=16, d_hidden=16, d_attention=16, batch_size=16,
                    checkpoint_interval=10, max_updates=20, dropout=0.1,
                    seed=1, eval_bleu=False,
                    train_src=f"{corpus}/train.l1", train_tgt=f"{corpus}/train.l2",
                    dev_src=f"{corpus}/dev.l1", dev_tgt=f"{corpus}/dev.l2")
    for k, v in extra.items():
        setattr(cfg, k, v)
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
    return path


class TestSynth:
    def test_deterministic(self, tmp_path):
        a, _ = generate_corpus("reversal", 50, 16, seed=9)
        b, _ = generate_corpus("reversal", 50, 16, seed=9)
        assert a == b

    def test_reversal_targets_are_reversed_sources(self):
        splits, _ = generate_corpus("reversal", 30, 16, seed=1)
        src, tgt = splits["train"]
        for s, t in zip(src, tgt):
            assert t.split() == s.split()[::-1]

    def test_cipher_is_involution(self):
        splits, cipher = generate_corpus("cipher", 30, 15, seed=2)
        src, tgt = splits["train"]
        for s, t in zip(src, tgt):
            once = translate_tokens("cipher", s.split(), cipher)
            twice = translate_tokens("cipher", once, cipher)
            assert t.split() == once
            assert twice == s.split()

    def test_splits_disjoint(self):
        splits, _ = generate_corpus("copy", 200, 8, seed=4, dev_size=50,
                                    test_size=50)
        train = set(splits["train"][0])
        dev = set(splits["dev"][0])
        test = set(splits["test"][0])
        assert not (train & dev) and not (train & test) and not (dev & test)

    def test_invalid_task_exits_nonzero(self, tmp_path):
        assert run_cli("synth", "--task", "nope", "--size", "5",
                       "--out-dir", str(tmp_path)) == 1


class TestTrainCommands:
    def test_bpe_pipeline_wired(self, tmp_path, corpus_dir, monkeypatch):
        # one merge, ("w", "0"), splits every word of the corpus in two, so
        # no whole word is a vocabulary token
        scored = []

        def spy_bleu(hyps, refs):
            scored.append((hyps, refs))
            return corpus_bleu(hyps, refs)

        monkeypatch.setattr(evaluation, "corpus_bleu", spy_bleu)
        cfg_path = write_config(tmp_path, corpus_dir, bpe_merges=1, eval_bleu=True,
                                max_updates=4, checkpoint_interval=4)
        out = str(tmp_path / "bpe-run")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        assert not [f for _, _, files in os.walk(tmp_path) for f in files
                    if f == "bpe.merges"]
        ckpt = os.path.join(out, "checkpoint-0000004.npz")
        _, vocab, _ = ckpt_io.load(ckpt)
        assert vocab.merges == [("w", "0")] and vocab.tags == ["<l1>", "<l2>"]

        # dev BLEU scores words against word references
        dev_refs = [" ".join(line.split()) for line in
                    open(f"{corpus_dir}/dev.l2").read().splitlines()]
        assert len(scored) == 2 and scored[0][1] == dev_refs
        assert not any("@@" in line for hyps, refs in scored for line in hyps + refs)

        # translate reads raw words, whose pieces are all known, and writes words
        seen = []

        def spy_decode(params, vocab, pairs, config):
            seen.append(make_batch(vocab, pairs).src_ids)
            return decode_corpus(params, vocab, pairs, config)

        monkeypatch.setattr(cli, "decode_corpus", spy_decode)
        inp = tmp_path / "input.txt"
        inp.write_text(open(f"{corpus_dir}/dev.l1").read())
        hyp = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", hyp, "--src-lang", "l1", "--beam", "1") == 0
        assert "w05" not in vocab.token_to_id
        assert vocab.unk not in seen[0]
        assert "@@" not in open(hyp).read()

    def test_dev_bleu_logged_when_enabled(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir, eval_bleu=True,
                                max_updates=10, checkpoint_interval=10)
        out = str(tmp_path / "bleu-run")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        body = open(os.path.join(out, "bleu.csv")).read()
        assert "l1-l2" in body and "l2-l1" in body

    def test_a_fresh_run_starts_its_logs_anew(self, tmp_path, corpus_dir):
        # a second run into the same out_dir leaves the logs of one run
        cfg_path = write_config(tmp_path, corpus_dir, eval_bleu=True,
                                max_updates=4, checkpoint_interval=2)
        out = str(tmp_path / "twice")
        for _ in range(2):
            assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        with open(os.path.join(out, "metrics.csv"), newline="") as fh:
            assert [row["update"] for row in csv.DictReader(fh)] == ["2", "4"]
        with open(os.path.join(out, "bleu.csv"), newline="") as fh:
            assert [row["update"] for row in csv.DictReader(fh)] == ["2", "2", "4", "4"]

    def test_readme_names_every_file_training_writes(self, tmp_path, corpus_dir):
        # with dev BLEU and BPE on, training writes each file the README's
        # list names, one per checkpoint, and nothing else
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme, encoding="utf-8").read()
        section = text.split("## Files written by training", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"^- `([^`]+)`", section, flags=re.M))
        cfg_path = write_config(tmp_path, corpus_dir, eval_bleu=True, bpe_merges=20)
        out = str(tmp_path / "run")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        written = sorted(os.listdir(out))
        assert [f for f in written if f.startswith("checkpoint")] == [
            "checkpoint-0000010.npz", "checkpoint-0000020.npz"]
        assert {re.sub(r"\d{7}", "XXXXXXX", f) for f in written} == named

    def test_train_then_finetune(self, tmp_path, corpus_dir):
        # pretraining runs without reconstruction whatever the config says
        cfg_path = write_config(tmp_path, corpus_dir, recon_mode="sampled")
        out = str(tmp_path / "pre")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        assert "recon_mode=none\n" in open(os.path.join(out, "config.txt")).read()
        ckpts = sorted(f for f in os.listdir(out) if f.startswith("checkpoint"))
        assert len(ckpts) == 2
        init = os.path.join(out, ckpts[-1])
        ft_out = str(tmp_path / "ft")
        assert run_cli("finetune", "--config", cfg_path, "--out-dir", ft_out,
                       "--init-checkpoint", init, "--recon-mode", "sampled",
                       "--max-updates", "10") == 0
        assert os.path.exists(os.path.join(ft_out, "metrics.csv"))

    def test_finetune_demands_init_checkpoint_flag(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir)
        assert run_cli("finetune", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "x")) == 1

    def test_missing_corpus_exits_one(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir, train_src="/nonexistent")
        assert run_cli("train", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("split,named", [("train", "training"), ("dev", "dev")])
    def test_empty_corpus_rejected_before_training(self, tmp_path, corpus_dir,
                                                   capsys, split, named):
        for side in ("l1", "l2"):
            open(f"{corpus_dir}/{split}.{side}", "w").close()
        cfg_path = write_config(tmp_path, corpus_dir)
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"the {named} corpus has no pairs" in err
        assert not list(out.glob("*.npz"))

    def test_checkpoint_without_tags_or_merges_still_loads(self, tmp_path, corpus_dir):
        # a checkpoint written before the header carried the vocab's tags and
        # merges: no merges, and the two tokens after the reserved ones are tags
        cfg_path = write_config(tmp_path, corpus_dir, max_updates=4,
                                checkpoint_interval=4)
        out = str(tmp_path / "pre")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        ckpt = os.path.join(out, "checkpoint-0000004.npz")
        with np.load(ckpt) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["__header__"]))
        del header["tags"], header["merges"]
        arrays["__header__"] = np.array(json.dumps(header))
        with open(ckpt, "wb") as fh:
            np.savez(fh, **arrays)
        _, vocab, _ = ckpt_io.load(ckpt)
        assert vocab.tags == ["<l1>", "<l2>"] and vocab.merges == []

        inp = tmp_path / "input.txt"
        inp.write_text("w01 w02\n<l2> w03 w04\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "hyp"), "--src-lang", "l1") == 0
        assert run_cli("score", "--hyp", f"{corpus_dir}/dev.l2",
                       "--ref", f"{corpus_dir}/dev.l2", "--src", f"{corpus_dir}/dev.l1",
                       "--checkpoint", ckpt) == 0
        assert run_cli("finetune", "--config", cfg_path, "--out-dir", str(tmp_path / "ft"),
                       "--init-checkpoint", ckpt, "--recon-mode", "none",
                       "--max-updates", "1") == 0

    def test_hidden_mode_accepted(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir)
        out = str(tmp_path / "pre")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        ckpts = sorted(f for f in os.listdir(out) if f.startswith("checkpoint"))
        init = os.path.join(out, ckpts[-1])
        assert run_cli("finetune", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "hid"),
                       "--init-checkpoint", init, "--recon-mode", "hidden",
                       "--max-updates", "10") == 0


class TestTranslate:
    def test_copy_model_identity_and_flags(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        sentences = [" ".join(p.source.tokens) for p in data["train"][:5]]
        inp.write_text("\n".join(sentences) + "\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1") == 0
        hyps = open(out).read().splitlines()
        assert hyps == sentences  # copy task: output equals input

    def test_tagged_input_lines(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        sent = " ".join(data["train"][0].source.tokens)
        inp.write_text(f"<l1> {sent}\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out) == 0
        assert open(out).read().splitlines() == [sent]

    def test_beam_flag_honored(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        sent = " ".join(data["train"][0].source.tokens)
        inp.write_text(sent + "\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1", "--beam", "3") == 0
        assert open(out).read().splitlines() == [sent]

    def test_precision_flag_does_not_leak(self, tmp_path, copy_model, fp64):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        inp.write_text(" ".join(data["train"][0].source.tokens) + "\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "hyp.txt"), "--src-lang", "l1") == 0
        assert ad.default_dtype() == np.float64

    def test_empty_line_warns_and_emits_empty(self, tmp_path, copy_model, capsys):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        sent = " ".join(data["train"][0].source.tokens)
        inp.write_text(f"{sent}\n\n{sent}\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1") == 0
        lines = open(out).read().splitlines()
        assert lines == [sent, "", sent]
        assert "empty" in capsys.readouterr().err

    def test_unknown_language_errors(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        inp.write_text("w01 w02\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "o"), "--src-lang", "zz") == 1

    def test_untagged_without_flag_errors(self, tmp_path, copy_model):
        params, vocab, _ = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        inp.write_text("w01 w02\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "o")) == 1

    def test_bracketed_word_is_not_a_language(self, tmp_path):
        pairs = [ParallelPair(TaggedSentence("l1", ("<br>", "a")),
                              TaggedSentence("l2", ("b", "<br>")))]
        vocab = Vocab.build(build_bidirectional_corpus(pairs))
        params = ModelParams(RunConfig(d_emb=8, d_hidden=8, d_attention=8)
                             .model_config(len(vocab)), np.random.default_rng(0))
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        inp.write_text("<br> a\n")
        out = str(tmp_path / "o")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "br") == 1
        # untagged: the line's "<br>" is a word of an l1 source
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out) == 1
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1") == 0

    def test_reserved_token_is_not_a_language_tag(self, tmp_path, copy_model):
        params, vocab, _ = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        inp = tmp_path / "input.txt"
        inp.write_text("<eos> w01 w02\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("precision, dtype", [("fp32", np.float32),
                                              ("fp64", np.float64)])
def test_translate_and_score_compute_in_the_checkpoints_precision(
        tmp_path, copy_model, monkeypatch, precision, dtype):
    _, vocab, data = copy_model
    with ad.using_dtype(precision):
        params = ModelParams(RunConfig(d_emb=8, d_hidden=8, d_attention=8)
                             .model_config(len(vocab)), np.random.default_rng(0))
    ckpt = str(tmp_path / "model.npz")
    ckpt_io.save(ckpt, params, vocab)
    seen = []

    def spy(fn):
        def wrapped(params, *args, **kwargs):
            seen.append((fn.__name__, {t.data.dtype for _, t in params.named_parameters()},
                         ad.default_dtype()))
            return fn(params, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "decode_corpus", spy(decode_corpus))
    monkeypatch.setattr(cli, "perplexity", spy(evaluation.perplexity))
    src, ref = tmp_path / "src.txt", tmp_path / "ref.txt"
    src.write_text(" ".join(data["dev"][0].source.tokens) + "\n")
    ref.write_text(" ".join(data["dev"][0].target.tokens) + "\n")
    assert run_cli("translate", "--checkpoint", ckpt, "--input", str(src),
                   "--output", str(tmp_path / "hyp.txt"), "--src-lang", "l1") == 0
    assert run_cli("score", "--hyp", str(ref), "--ref", str(ref), "--src", str(src),
                   "--checkpoint", ckpt) == 0
    assert seen == [("decode_corpus", {np.dtype(dtype)}, dtype),
                    ("perplexity", {np.dtype(dtype)}, dtype)]


def _write_bleu_runs(run_dir, rows):
    run_dir.mkdir()
    with open(run_dir / "bleu.csv", "w") as fh:
        fh.write("direction,seed,update,bleu\n")
        fh.writelines(f"{d},{seed},10,{b}\n" for d, seed, b in rows)
    return str(run_dir)


class TestScore:
    def test_report_refuses_a_direction_on_one_side_only(self, tmp_path, capsys):
        base = _write_bleu_runs(tmp_path / "base", [("l1-l2", 1, 30.0), ("l1-l2", 2, 31.0)])
        treat = _write_bleu_runs(tmp_path / "treat", [
            ("l1-l2", 1, 30.5), ("l1-l2", 2, 31.5), ("l2-l1", 1, 20.0), ("l2-l1", 2, 21.0)])
        for args in ((base, treat), (treat, base)):
            assert run_cli("score", "--report", *args) == 1
            captured = capsys.readouterr()
            assert "l2-l1" in captured.err and "direction" not in captured.out

    @pytest.mark.parametrize("csv_out", [False, True])
    def test_report_refuses_a_run_without_bleu_rows(self, tmp_path, capsys, csv_out):
        base = _write_bleu_runs(tmp_path / "base", [])
        treat = _write_bleu_runs(tmp_path / "treat", [("l1-l2", 1, 30.5), ("l1-l2", 2, 31.5)])
        out_csv = tmp_path / "delta.csv"
        extra = ("--csv-out", str(out_csv)) if csv_out else ()
        assert run_cli("score", "--report", base, treat, *extra) == 1
        assert "no BLEU rows" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_unknown_language_errors(self, tmp_path, copy_model, capsys):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        text = tmp_path / "text.txt"
        text.write_text(" ".join(data["dev"][0].source.tokens) + "\n")
        assert run_cli("score", "--hyp", str(text), "--ref", str(text),
                       "--src", str(text), "--checkpoint", ckpt,
                       "--src-lang", "en") == 1
        captured = capsys.readouterr()
        assert "'en'" in captured.err and "perplexity" not in captured.out
        assert "BLEU" not in captured.out

    def test_src_and_checkpoint_go_together(self, tmp_path, copy_model, capsys):
        params, vocab, _ = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        text = tmp_path / "text.txt"
        text.write_text("w1 w2\n")
        for flag, value in (("--src", str(text)), ("--checkpoint", ckpt)):
            assert run_cli("score", "--hyp", str(text), "--ref", str(text),
                           flag, value) == 1
            captured = capsys.readouterr()
            assert "go together" in captured.err and "BLEU" not in captured.out

    def test_identical_files_score_100(self, tmp_path, capsys):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\ne f g h\n")
        assert run_cli("score", "--hyp", str(f), "--ref", str(f)) == 0
        assert "BLEU = 100.00" in capsys.readouterr().out

    def test_length_mismatch_exits_one(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one line\n")
        b.write_text("one line\nsecond line\n")
        assert run_cli("score", "--hyp", str(a), "--ref", str(b)) == 1

    def test_empty_ref_exits_one(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("")
        b.write_text("")
        assert run_cli("score", "--hyp", str(a), "--ref", str(b)) == 1

    def test_delta_report_from_run_dirs(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        treat_dir = tmp_path / "treat"
        for d, scores in ((base_dir, (33.60, 33.50)), (treat_dir, (33.92, 33.82))):
            d.mkdir()
            with open(d / "bleu.csv", "w") as fh:
                fh.write("direction,seed,bleu\n")
                for seed, s in enumerate(scores, 1):
                    fh.write(f"l1-l2,{seed},{s}\n")
        assert run_cli("score", "--report", str(base_dir), str(treat_dir)) == 0
        out = capsys.readouterr().out
        assert "l1-l2" in out and "+0.32" in out

    def test_csv_row_written(self, tmp_path):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\n")
        csv_path = tmp_path / "scores.csv"
        assert run_cli("score", "--hyp", str(f), "--ref", str(f),
                       "--csv-out", str(csv_path)) == 0
        body = csv_path.read_text()
        assert "bleu" in body and "100.0000" in body

    def test_perplexity_with_checkpoint(self, tmp_path, copy_model, capsys):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab)
        src = tmp_path / "src.txt"
        ref = tmp_path / "ref.txt"
        src.write_text("\n".join(" ".join(p.source.tokens)
                                 for p in data["dev"][:6]) + "\n")
        ref.write_text("\n".join(" ".join(p.target.tokens)
                                 for p in data["dev"][:6]) + "\n")
        assert run_cli("score", "--hyp", str(ref), "--ref", str(ref),
                       "--src", str(src), "--checkpoint", ckpt) == 0
        out = capsys.readouterr().out
        assert "perplexity = " in out
        assert float(out.split("perplexity = ")[1].split()[0]) < len(vocab)

    def test_report_csv_out(self, tmp_path):
        base_dir = tmp_path / "base"
        treat_dir = tmp_path / "treat"
        for d, scores in ((base_dir, (30.0, 31.0)), (treat_dir, (30.5, 31.5))):
            d.mkdir()
            with open(d / "bleu.csv", "w") as fh:
                fh.write("direction,seed,bleu\nl1-l2,1,{}\nl1-l2,2,{}\n"
                         .format(*scores))
        out_csv = tmp_path / "delta.csv"
        assert run_cli("score", "--report", str(base_dir), str(treat_dir),
                       "--csv-out", str(out_csv)) == 0
        assert "delta_mean" in out_csv.read_text()

    def test_report_csv_out_appends(self, tmp_path):
        # two reports into one file: one header, then both tables' rows
        dirs = []
        for name, scores in (("base", (30.0, 31.0)), ("treat", (30.5, 31.5)),
                             ("other", (29.0, 30.0))):
            d = tmp_path / name
            d.mkdir()
            (d / "bleu.csv").write_text("direction,seed,bleu\nl1-l2,1,{}\nl1-l2,2,{}\n"
                                        .format(*scores))
            dirs.append(str(d))
        out_csv = tmp_path / "delta.csv"
        for treat in dirs[1:]:
            assert run_cli("score", "--report", dirs[0], treat,
                           "--csv-out", str(out_csv)) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["direction"], r["delta_mean"]) for r in rows] == \
            [("l1-l2", "0.5"), ("l1-l2", "-1.0")]
        assert out_csv.read_text().count("delta_mean") == 1

    def test_csv_out_refuses_a_file_of_another_header(self, tmp_path, capsys):
        # a --hyp/--ref score, then a --report into the same file
        text = tmp_path / "text.txt"
        text.write_text("w1 w2\n")
        base = _write_bleu_runs(tmp_path / "base", [("l1-l2", 1, 30.0), ("l1-l2", 2, 31.0)])
        treat = _write_bleu_runs(tmp_path / "treat", [("l1-l2", 1, 30.5), ("l1-l2", 2, 31.5)])
        out_csv = tmp_path / "x.csv"
        assert run_cli("score", "--hyp", str(text), "--ref", str(text),
                       "--csv-out", str(out_csv)) == 0
        before = out_csv.read_bytes()
        capsys.readouterr()
        assert run_cli("score", "--report", base, treat, "--csv-out", str(out_csv)) == 1
        err = capsys.readouterr().err
        assert "hyp,ref,bleu" in err and "direction,baseline_mean" in err
        assert out_csv.read_bytes() == before


@pytest.fixture(scope="class")
def gradcheck_seed0():
    """The exit code and report of one `gradcheck --seed 0` run, shared by the
    tests that read it: the fp64 suite takes several seconds a run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli("gradcheck", "--seed", "0")
    return code, out.getvalue()


class TestGradcheckCommand:
    def test_passes_and_exit_zero(self, gradcheck_seed0):
        code, out = gradcheck_seed0
        assert code == 0
        assert "PASS" in out
        assert "end_to_end_lt_lr" in out

    def test_failing_check_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite",
                            lambda seed: [ComponentReport("tanh", 0.5)])
        assert run_cli("gradcheck", "--seed", "0") == 2
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_backward_fails_its_checks(self, monkeypatch):
        # negative control: a tanh whose backward is 1.5x too large fails its
        # own check and that of the decoder step, which runs tanh inside; the
        # fused cell computes its own tanh and still passes
        def skewed_tanh(a):
            out = ad.Tensor(np.tanh(a.data))
            y = out.data
            return ad.record(out, (a,), lambda g: (1.5 * (1.0 - y * y) * g,))

        monkeypatch.setattr(ad, "tanh", skewed_tanh)
        with ad.using_dtype("fp64"):
            reports = {r.name: r for r in verification.primitive_checks(0)}
            step = verification.decode_step_check(0)
        assert not reports["tanh"].ok and not step.ok
        cell = [r for name, r in reports.items() if name.startswith("lstm_cell")]
        assert len(cell) == 8 and all(r.ok for r in cell)

    def test_repeated_runs_identical_report(self, gradcheck_seed0, capsys):
        run_cli("gradcheck", "--seed", "0")
        assert capsys.readouterr().out == gradcheck_seed0[1]


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig(d_emb=32, beta=0.5, recon_mode="hidden", recon_dropout=False,
                        train_src="/data/x")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("no_such_key=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            parse_config("batch_size=lots\n")
        with pytest.raises(ValueError):
            parse_config("eval_bleu=maybe\n")

    def test_retired_layer_norm_true_is_ignored(self):
        # config.txt files written while the cell's layer norm was optional
        assert parse_config("layer_norm=true\n") == RunConfig()
        assert "layer_norm" not in serialize_config(RunConfig())

    def test_retired_layer_norm_false_is_refused(self):
        with pytest.raises(ValueError, match="line 2: layer_norm may only be true, got "
                                             "'false'; the unnormalized LSTM cell is gone"):
            parse_config("d_emb=8\nlayer_norm=false\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nbatch_size=12\n")
        assert cfg.batch_size == 12

    def test_invalid_enums_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(precision="fp16")
        with pytest.raises(ValueError):
            RunConfig(recon_mode="both")

    def test_overrides_are_validated(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch_size=12\n")
        cfg = load_config(str(path), seed=4, max_updates=None)
        assert (cfg.batch_size, cfg.seed, cfg.max_updates) == (12, 4, 0)
        with pytest.raises(ValueError, match="recon_mode"):
            load_config(str(path), recon_mode="bogus")

    def test_readme_lists_every_config_key(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme, encoding="utf-8").read()
        section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`([a-z_][a-z0-9_]*)`", section))
        assert named == {f.name for f in fields(RunConfig)}

    def test_every_config_key_and_option_is_read(self):
        # a key or flag that no program code reads is an option nothing uses
        src = os.path.join(os.path.dirname(__file__), "..", "src", "roundtrip")
        read = set()
        for name in os.listdir(src):
            if name.endswith(".py"):
                tree = ast.parse(open(os.path.join(src, name), encoding="utf-8").read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "getattr" and len(node.args) > 1
                          and isinstance(node.args[1], ast.Constant)):
                        read.add(node.args[1].value)
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in subparsers.choices.values() for a in p._actions
                 if a.dest != "help"}
        assert {f.name for f in fields(RunConfig)} - read == set()
        assert dests - read == set()


def test_usage_error_exits_one():
    assert run_cli("train") == 1  # missing --config
