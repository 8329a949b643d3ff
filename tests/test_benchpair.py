"""The benchmark-pair tool (`tools/benchpair.py`) with a fake perfbench run."""

import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
import benchpair  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# per side and metric, the value each seed 1-10 reads, on every workload
VALUES = {
    "parent": {"setup_s": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
               "pretrain_tok_s": [100.0, 200.0, 300.0, 400.0, 500.0,
                                  600.0, 700.0, 800.0, 900.0, 1000.0]},
    "change": {"setup_s": [0.05, 0.25, 0.2, 0.5, 0.45, 0.55, 0.65, 0.85, 0.95, 0.75],
               "pretrain_tok_s": [110.0, 190.0, 310.0, 390.0, 520.0,
                                  590.0, 720.0, 780.0, 880.0, 1010.0]},
}
NODES = {"parent": 400.0, "change": 300.0}


def fake_perfbench(calls, parent_tree):
    def run(tree, workload, seed, seconds, trace):
        side = "parent" if tree == parent_tree else "change"
        calls.append((side, workload, seed, seconds, trace))
        if trace:
            metrics = {f"autodiff.nodes_per_update.{p}": NODES[side] + i
                       for i, p in enumerate(benchpair.PHASES)}
        else:
            metrics = {m["name"]: VALUES[side].get(m["name"], [1.0] * 10)[seed - 1]
                       for m in BENCH["end_to_end"]}
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return run


@pytest.fixture
def point(tmp_path):
    calls = []
    parent = tmp_path / "parent"
    parent.mkdir()
    out = tmp_path / "bench.json"
    assert benchpair.main([str(parent), str(out)],
                          runner=fake_perfbench(calls, str(parent))) == 0
    return json.loads(out.read_text()), calls


def test_runs_alternate_odd_seeds_parent_first(point):
    data, calls = point
    want = []
    for seed in range(1, 11):
        for workload in WORKLOADS:
            sides = ["parent", "change"] if seed % 2 else ["change", "parent"]
            want += [(side, workload, seed, BENCH["run_seconds"], 0) for side in sides]
    want += [("parent", "rev32", 1, BENCH["run_seconds"], 1),
             ("change", "rev32", 1, BENCH["run_seconds"], 1)]
    assert calls == want
    assert [(r["side"], r["workload"], r["seed"], r["trace"]) for r in data["runs"]] == \
        [(side, w, s, t) for side, w, s, _, t in want]


def test_summary_arithmetic(point):
    data, _ = point
    for workload in WORKLOADS:
        setup = data["summary"][workload]["setup_s"]
        assert setup == {"better": "lower", "bound": 0.25,
                         "parent_q1_median_q3": [0.325, 0.55, 0.775],
                         "change_q1_median_q3": [0.3, 0.525, 0.725],
                         "median_ratio": 0.9545, "change_wins": "6/10",
                         "by_seed": {side: VALUES[side]["setup_s"]
                                     for side in ("parent", "change")}}
        rate = data["summary"][workload]["pretrain_tok_s"]
        assert rate["parent_q1_median_q3"] == [325.0, 550.0, 775.0]
        assert rate["change_q1_median_q3"] == [330.0, 555.0, 765.0]
        assert (rate["median_ratio"], rate["change_wins"]) == (1.0091, "5/10")
    assert data["nodes_per_update_traced_rev32_seed1"] == {
        "pretrain": {"parent": 400.0, "change": 300.0},
        "sampled": {"parent": 401.0, "change": 301.0},
        "hidden": {"parent": 402.0, "change": 302.0}}


def test_field_set(point):
    data, _ = point
    assert set(data) == {"what", "command", "parent_commit", "change_commit",
                         "change_src_tree", "machine", "summary", "runs",
                         "nodes_per_update_traced_rev32_seed1"}
    assert set(data["machine"]) == {"nproc", "numpy", "python", "blas_threads"}
    assert set(data["summary"]) == set(WORKLOADS)
    for per_metric in data["summary"].values():
        assert set(per_metric) == {m["name"] for m in BENCH["end_to_end"]}
    assert f"--seconds {BENCH['run_seconds']}" in data["command"]
