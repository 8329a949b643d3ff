"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs end to end at a small size, and negative controls show
that the checks fail on a corrupted forward pass, on a corrupted gradient
and on loss terms that do not add up to the objective or to the logged
interval means.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_run_completes(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_small_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "v4096", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["autodiff.nodes_per_update.sampled"] > metrics[
        "autodiff.nodes_per_update.pretrain"] > 0
    assert 0 < metrics["trace.span_coverage_frac"] <= 1
    assert 0 < metrics["trace.overhead_frac"] < 0.05


def test_run_without_the_toolkit_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rev32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- negative controls ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_model():
    setup = workloads.set_up(workloads.small(workloads.WORKLOADS["rev32"]), 1)
    from roundtrip import autodiff as ad
    from roundtrip.config import RunConfig
    from roundtrip.data import build_bidirectional_corpus, make_batch
    from roundtrip.model import ModelParams

    cfg = RunConfig(seed=1)
    with ad.using_dtype("fp32"):
        params = ModelParams(cfg.model_config(len(setup.vocab)), np.random.default_rng(1))
    dev = build_bidirectional_corpus(setup.data["dev"])
    return params, make_batch(setup.vocab, dev[:8]), dev, setup.vocab, cfg


def _tanh(scale_forward: float, scale_backward: float):
    from roundtrip import autodiff as ad

    def tanh(a):
        out = ad.Tensor(scale_forward * np.tanh(a.data))
        y = np.tanh(a.data)
        return ad.record(out, (a,), lambda g: (scale_backward * scale_forward
                                                * (1.0 - y * y) * g,))
    return tanh


def _run_checks(small_model):
    import checks
    from roundtrip import autodiff as ad

    params, batch, dev, vocab, cfg = small_model
    found = checks.Checks()
    with ad.using_dtype("fp32"):
        checks.reference_checks(found, "pretrain", params, None, batch, vocab, cfg)
        checks.finite_difference_check(found, "sampled", params, None, dev, vocab, cfg, 1)
    return {name: ok for name, ok, _ in found.results}


def test_checks_pass_on_the_program(small_model):
    assert all(_run_checks(small_model).values())


def test_corrupted_forward_fails_the_reference_check(small_model, monkeypatch):
    from roundtrip import autodiff as ad

    # a consistent but wrong tanh: the gradient matches the corrupted forward
    monkeypatch.setattr(ad, "tanh", _tanh(1.01, 1.0))
    results = _run_checks(small_model)
    assert not results["pretrain.reference.translation_loss"]
    assert results["sampled.finite_difference"]


def test_corrupted_gradient_fails_the_finite_difference_check(small_model, monkeypatch):
    from roundtrip import autodiff as ad

    monkeypatch.setattr(ad, "tanh", _tanh(1.0, 1.01))
    results = _run_checks(small_model)
    assert results["pretrain.reference.translation_loss"]
    assert not results["sampled.finite_difference"]


def _observe_interval(monkeypatch, objective_term: float, row_l_r: float) -> bool:
    """Two updates whose loss terms are l_t = 2 and l_r = 0.5, with the
    objective and the row's interval mean of l_r as given; the result of the
    interval check."""
    import checks
    import session
    import tracer
    from roundtrip import autodiff as ad
    from roundtrip import training

    def compute_losses(trainer, batch, update, train=True):
        objective = ad.Tensor(np.asarray(2.0 + objective_term, dtype=np.float32))
        return (objective, training.LossBreakdown(2.0, 0.5, 2.5),
                (2.0 * 10, 10.0, 0.5 * 4, 4.0))

    monkeypatch.setattr(training.Trainer, "compute_losses", compute_losses)
    found = checks.Checks()
    obs = session._Observer(found)
    with tracer.rebound(obs.bindings()):
        for update in range(2):
            training.Trainer.compute_losses(None, SimpleNamespace(target_tokens=10), update)
    obs.end_interval(None, {"update": 2, "l_t": 2.0, "l_r": row_l_r})
    assert obs.tokens == 20 and len(found.results) == 1
    return found.results[0][1]


def test_interval_check_passes_on_consistent_losses(monkeypatch):
    assert _observe_interval(monkeypatch, objective_term=0.5, row_l_r=0.5)


def test_interval_check_fails_on_a_misnormalized_row(monkeypatch):
    assert not _observe_interval(monkeypatch, objective_term=0.5, row_l_r=0.25)


def test_interval_check_fails_on_an_objective_other_than_the_sum(monkeypatch):
    assert not _observe_interval(monkeypatch, objective_term=1.0, row_l_r=0.5)


def test_rebound_restores_the_originals():
    import tracer

    owner = SimpleNamespace(a=1, b=2)
    with pytest.raises(RuntimeError):
        with tracer.rebound([(owner, "a", 10), (owner, "b", 20)]):
            assert (owner.a, owner.b) == (10, 20)
            raise RuntimeError
    assert (owner.a, owner.b) == (1, 2)
