"""Same-work check: run one fixed, seeded recipe at this tree and at another,
and compare everything the two runs write.

    python3 tools/samework.py REV

REV is a git revision of this repository, unpacked with `git archive` into a
temporary directory (nothing is fetched and `.git` is not written), or a
directory that holds a tree (`REV/src/roundtrip`). "This tree" is the one
this script sits in, uncommitted edits included.

Each tree runs the recipe in one process of its own, with one BLAS thread,
calling `roundtrip.cli.main` once per step: a synthetic corpus, a pretrain,
sampled fine-tunes at beta 0 and beta 0.5, one at beta 0.5 with
`recon_dropout=false`, a hidden fine-tune, a BPE pretrain, a beam-5
`translate` and `score --src --checkpoint`. Every step
runs in the tree's own working directory with relative paths, and its
standard output is kept as `<step>.out`.

For every file written (logs, hypotheses, step outputs) and every `param/*`
and `state/*` array of every checkpoint, the check prints `identical`, or
else the largest absolute difference and the largest relative one. Two logs
compare number by number, relative to the larger magnitude of each pair;
two arrays compare relative to the larger of their largest magnitudes. Two
checkpoint headers, JSON objects, name the dotted keys whose values differ or
that one tree alone holds. The exit status is 0 only when everything is
identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one fixed size, small enough for the check's own test to run in seconds
CORPUS = ["--task", "reversal", "--size", "64", "--vocab", "12", "--seed", "3",
          "--dev-size", "12", "--test-size", "12", "--min-len", "3", "--max-len", "6",
          "--out-dir", "data"]
MODEL = {"d_emb": 8, "d_hidden": 8, "d_attention": 8, "dropout": 0.1,
         "batch_size": 16, "lr": 0.01, "lr_finetune": 0.01, "seed": 1,
         "eval_bleu": "true", "train_src": "data/train.l1", "train_tgt": "data/train.l2",
         "dev_src": "data/dev.l1", "dev_tgt": "data/dev.l2"}
PRETRAIN_UPDATES = 12
FINETUNE_UPDATES = 4
PRETRAINED = f"pre/checkpoint-{PRETRAIN_UPDATES:07d}.npz"


def _write_config(path: str, **keys) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in {**MODEL, **keys}.items())
    return path


def run_recipe() -> None:
    """Run every step in the current directory with the `roundtrip` on the
    path; each step's standard output goes to `<step>.out`."""
    from roundtrip.cli import main

    pre = _write_config("pre.cfg", max_updates=PRETRAIN_UPDATES,
                        checkpoint_interval=PRETRAIN_UPDATES // 2)
    bpe = _write_config("bpe.cfg", max_updates=FINETUNE_UPDATES,
                        checkpoint_interval=FINETUNE_UPDATES, bpe_merges=10)
    finetune = {"max_updates": FINETUNE_UPDATES, "checkpoint_interval": FINETUNE_UPDATES}
    beta0 = _write_config("beta0.cfg", beta=0.0, **finetune)
    beta5 = _write_config("beta5.cfg", beta=0.5, **finetune)
    nodrop = _write_config("nodrop.cfg", beta=0.5, recon_dropout="false", **finetune)
    init = ["--init-checkpoint", PRETRAINED]
    steps = [
        ("synth", ["synth", *CORPUS]),
        ("pretrain", ["train", "--config", pre, "--out-dir", "pre"]),
        ("sampled_beta0", ["finetune", "--config", beta0, *init,
                           "--recon-mode", "sampled", "--out-dir", "sampled_beta0"]),
        ("sampled_beta5", ["finetune", "--config", beta5, *init,
                           "--recon-mode", "sampled", "--out-dir", "sampled_beta5"]),
        ("sampled_nodrop", ["finetune", "--config", nodrop, *init,
                            "--recon-mode", "sampled", "--out-dir", "sampled_nodrop"]),
        ("hidden", ["finetune", "--config", beta0, *init,
                    "--recon-mode", "hidden", "--out-dir", "hidden"]),
        ("bpe_pretrain", ["train", "--config", bpe, "--out-dir", "bpe"]),
        ("translate", ["translate", "--checkpoint", PRETRAINED, "--input", "data/test.l1",
                       "--src-lang", "l1", "--output", "test.hyp", "--beam", "5"]),
        ("score", ["score", "--hyp", "test.hyp", "--ref", "data/test.l2",
                   "--src", "data/test.l1", "--checkpoint", PRETRAINED]),
    ]
    for name, argv in steps:
        with open(f"{name}.out", "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                code = main(argv)
        if code != 0:
            raise SystemExit(f"step {name} exited {code}")


def _unpack(rev: str, into: str) -> str:
    """The tree REV names: itself if it is a directory, else a `git archive`
    of the revision unpacked under `into`."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    tree = os.path.join(into, "tree")
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def _start(tree: str, workdir: str) -> subprocess.Popen:
    if not os.path.isdir(os.path.join(tree, "src", "roundtrip")):
        raise SystemExit(f"{tree} holds no src/roundtrip")
    os.makedirs(workdir)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([os.path.join(tree, "src"),
                                          os.path.dirname(os.path.abspath(__file__))])}
    command = [sys.executable, "-c", "import samework; samework.run_recipe()"]
    return subprocess.Popen(command, cwd=workdir, env=env, stderr=subprocess.PIPE, text=True)


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _diff_numbers(a: np.ndarray, b: np.ndarray, per_element: bool) -> str:
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff = np.abs(a - b)
    if per_element:
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    else:
        scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
        rel = diff / scale if scale > 0 else diff
    return f"max abs {diff.max():.3e}, max rel {rel.max():.3e}"


def _json_keys(a, b, prefix: str = "") -> list[str]:
    """The dotted keys of two JSON trees whose values differ or that one tree
    alone holds; `a` is this tree's."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if json.dumps(a) == json.dumps(b) else [prefix]
    out = []
    for key in sorted(set(a) | set(b)):
        name = f"{prefix}.{key}" if prefix else key
        if key not in b:
            out.append(f"{name} (this tree only)")
        elif key not in a:
            out.append(f"{name} (other tree only)")
        else:
            out.extend(_json_keys(a[key], b[key], name))
    return out


def _json_object(text: str) -> dict | None:
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _compare_text(a: str, b: str) -> str:
    """`identical`; or, for two JSON objects (a checkpoint's header), the keys
    whose values differ; or the numeric difference of two texts that differ
    only in their numbers; or the first line at which the words differ."""
    if a == b:
        return "identical"
    ja, jb = _json_object(a), _json_object(b)
    keys = _json_keys(ja, jb) if ja is not None and jb is not None else []
    if keys:
        return "keys differ: " + ", ".join(keys)
    if _NUMBER.split(a) == _NUMBER.split(b):
        na = np.array([float(x) for x in _NUMBER.findall(a)])
        nb = np.array([float(x) for x in _NUMBER.findall(b)])
        return _diff_numbers(na, nb, per_element=True)
    la, lb = a.splitlines(), b.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    return f"text differs from line {first + 1}"


def _compare_checkpoint(a_path: str, b_path: str) -> list[tuple[str, str]]:
    with np.load(a_path) as a, np.load(b_path) as b:
        out = []
        for key in sorted(set(a.files) | set(b.files)):
            if key not in a.files or key not in b.files:
                out.append((key, "missing in one tree"))
            elif a[key].dtype.kind == "U":
                out.append((key, _compare_text(str(a[key]), str(b[key]))))
            elif a[key].shape != b[key].shape or a[key].dtype != b[key].dtype:
                out.append((key, f"shape or dtype differs: {a[key].shape} {a[key].dtype} "
                                 f"vs {b[key].shape} {b[key].dtype}"))
            elif a[key].tobytes() == b[key].tobytes():
                out.append((key, "identical"))
            else:
                out.append((key, _diff_numbers(a[key], b[key], per_element=False)))
    return out


def compare(a_root: str, b_root: str) -> list[tuple[str, str]]:
    """(name, verdict) for every file and checkpoint array of two runs."""
    results = []
    for rel in sorted(_files(a_root) | _files(b_root)):
        a_path, b_path = os.path.join(a_root, rel), os.path.join(b_root, rel)
        if not (os.path.exists(a_path) and os.path.exists(b_path)):
            results.append((rel, "missing in one tree"))
        elif rel.endswith(".npz"):
            results.extend((f"{rel}:{key}", verdict)
                           for key, verdict in _compare_checkpoint(a_path, b_path))
        else:
            with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
                results.append((rel, _compare_text(fa.read(), fb.read())))
    return results


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="samework-") as tmp:
        other = _unpack(argv[0], tmp)
        runs = {"this": os.path.join(tmp, "this"), "other": os.path.join(tmp, "other")}
        procs = {name: _start(tree, runs[name])
                 for name, tree in (("this", REPO), ("other", other))}
        failed = False
        for name, proc in procs.items():
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"the recipe failed in the {name} tree:\n{err}", file=sys.stderr)
                failed = True
        if failed:
            return 2
        results = compare(runs["this"], runs["other"])

    differing = [(name, verdict) for name, verdict in results if verdict != "identical"]
    print(f"same work: this tree ({REPO}) against {argv[0]}")
    checkpoints: dict[str, list[str]] = {}
    for name, verdict in results:
        path, _, key = name.partition(":")
        if key:
            checkpoints.setdefault(path, []).append(verdict)
        if not key or verdict != "identical":
            print(f"  {name:<44} {verdict}")
    for path, verdicts in checkpoints.items():
        same = verdicts.count("identical")
        print(f"  {path:<44} {same} of {len(verdicts)} arrays identical")
    print(f"{len(differing)} of {len(results)} outputs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
