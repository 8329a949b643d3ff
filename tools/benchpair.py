"""Benchmark pairs: run perfbench/run.py at another tree and at this one, in
turn, and write one trajectory point.

    python3 tools/benchpair.py REV OUT

REV is a git revision of this repository or a directory holding a tree, as
`tools/samework.py` takes it; it is the parent side. "This tree" is the one
this script sits in, uncommitted edits included; it is the change side.

For seeds 1-10 and every workload in BENCHMARK.json, the two sides run
`perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
one after the other, the parent first on odd seeds and the change first on
even seeds. One traced rev32 seed-1 pair follows, for the node counts. Each
run is a process of its own, started in its tree's root, one at a time.

OUT is a JSON file with the fields the committed `BENCH_*.json` share:
`what`, `command`, `parent_commit`, `change_commit`, `change_src_tree`
(the git tree hash of this tree's `src/`), `machine`, `summary`, `runs`,
and `nodes_per_update_traced_rev32_seed1`. Per workload and end-to-end
metric, `summary` gives each side's quartiles, the ratio of the medians
(change over parent), in how many seeds the change read better and
`by_seed`, each side's values in seed order.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np

from samework import REPO, _unpack

SEEDS = range(1, 11)
TRACED = ("rev32", 1)
PHASES = ("pretrain", "sampled", "hidden")


def _git(*args: str, env: dict | None = None) -> str | None:
    done = subprocess.run(["git", "-C", REPO, *args], capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})
    return done.stdout.strip() if done.returncode == 0 else None


def _src_tree() -> str | None:
    """The git tree hash of this tree's src/, uncommitted edits included."""
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        env = {"GIT_INDEX_FILE": os.path.join(tmp, "index")}
        if _git("add", "-A", "src", env=env) is None:
            return None
        return _git("write-tree", "--prefix=src/", env=env)


def run_perfbench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one perfbench run in `tree`."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def plan(workloads: list[str]) -> list[tuple[str, str, int, int]]:
    """(side, workload, seed, trace) of every run, in run order."""
    runs = []
    for seed in SEEDS:
        for workload in workloads:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            runs += [(side, workload, seed, 0) for side in sides]
    return runs + [(side, *TRACED, 1) for side in ("parent", "change")]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: quartiles of each side, median ratio (change
    over parent), the seeds in which the change read better and each side's
    values in seed order."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        summary[workload] = {}
        for m in end_to_end:
            values = {side: {r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                             for r in runs if (r["workload"], r["side"], r["trace"])
                             == (workload, side, 0)}
                      for side in ("parent", "change")}
            parent, change = values["parent"], values["change"]
            quartiles = {side: [round(float(q), 4) for q in
                                np.percentile(list(v.values()), [25, 50, 75])]
                         for side, v in values.items()}
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (change[s] - parent[s]) > 0 for s in parent)
            summary[workload][m["name"]] = {
                "better": m["better"], "bound": m["bound"],
                "parent_q1_median_q3": quartiles["parent"],
                "change_q1_median_q3": quartiles["change"],
                "median_ratio": round(quartiles["change"][1] / quartiles["parent"][1], 4),
                "change_wins": f"{wins}/{len(parent)}",
                "by_seed": {side: [v[s] for s in sorted(v)] for side, v in values.items()}}
    return summary


def node_counts(runs: list[dict]) -> dict:
    traced = {r["side"]: r["result"]["metrics"] for r in runs if r["trace"]}
    return {p: {side: round(traced[side][f"autodiff.nodes_per_update.{p}"]["value"], 3)
                for side in ("parent", "change")} for p in PHASES}


def main(argv=None, runner=run_perfbench) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev, out_path = argv
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(REPO, "perfbench", "run.py"), encoding="utf-8") as fh:
        blas = re.search(r"^BLAS_THREADS = (\d+)", fh.read(), re.M)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    head = _git("rev-parse", "HEAD")
    edited = _git("status", "--porcelain", "--", "src")
    point = {
        "what": f"perfbench/run.py at {rev} (parent) and at this tree (change), each from "
                f"its own tree, alternating which runs first (odd seeds: parent first; "
                f"even seeds: change first); seeds {SEEDS[0]}-{SEEDS[-1]} on "
                f"{', '.join(workloads)}, then one traced {TRACED[0]} seed-{TRACED[1]} pair",
        "command": f"python3 perfbench/run.py --workload <{'|'.join(workloads)}> "
                   f"--seed <s> --seconds {seconds} --trace <0|1>",
        "parent_commit": _git("rev-parse", rev) or rev,
        "change_commit": f"uncommitted changes on {head}" if edited else head,
        "change_src_tree": _src_tree(),
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(),
                    "blas_threads": int(blas.group(1)) if blas else None},
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {"parent": _unpack(rev, tmp), "change": REPO}
        for side, workload, seed, trace in plan(workloads):
            result = runner(trees[side], workload, seed, seconds, trace)
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "trace": trace, "result": result})
            print(f"{side} {workload} seed {seed} trace {trace}: correct "
                  f"{result['correct']}, failed {result['failed']}",
                  file=sys.stderr, flush=True)
    point["nodes_per_update_traced_rev32_seed1"] = node_counts(runs)
    point["summary"] = summarize(runs, bench["end_to_end"])
    point["runs"] = runs
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
