"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 7 runs the full toy-scale protocol (reversal task, vocab 32, 2k
pairs, d=64, 3 seeds) once in a module fixture and is asserted in three
parts. Part (c) is the memorization signature: it compares per-token
reconstruction cross-entropy in nats, which has a true zero, because the
toy task is fully learnable and the sampled round trip ends near the
perplexity floor of 1, where no perplexity can be 2x lower.
"""

import contextlib
import functools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import checkpoint as ckpt_io
from roundtrip.config import RunConfig
from roundtrip.data import (ParallelPair, TaggedSentence, Vocab,
                            build_bidirectional_corpus, make_batch)
from roundtrip.evaluation import DecodeConfig, corpus_bleu, evaluate_bleu, greedy_decode
from roundtrip.model import ModelConfig, ModelParams, encode
from roundtrip.sampling import (GumbelNoiseSource, STGSConfig, gumbel_max_step,
                                sample_gumbel, sample_translation)
from roundtrip.training import (LrScheduler, Trainer, hidden_reconstruction_loss,
                                reconstruction_loss, translation_loss)
from roundtrip.verification import run_suite

from conftest import pairs_from_lines, softmax, toy_task


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# -- 1: gradient suite ------------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    reports = run_suite(seed=0)
    elapsed = time.time() - t0
    worst = max(r.max_rel_err for r in reports)
    ok = all(r.ok for r in reports) and elapsed < 60.0
    assert report("1 gradient-suite", ok,
                  f"max_rel_err={worst:.2e} over {len(reports)} components, "
                  f"{elapsed:.1f}s")


# -- 2: Gumbel-Max distributional correctness -------------------------------

def test_criterion_2_gumbel_max_distribution():
    t0 = time.time()
    logits = np.array([0.8, -0.4, 1.5, 0.0])
    n = 100_000
    noise = sample_gumbel((n, 4), 1.0, np.random.default_rng(123))
    ids = gumbel_max_step(np.tile(logits, (n, 1)), noise)
    freq = np.bincount(ids, minlength=4) / n
    probs = softmax(logits)
    gap = float(np.abs(freq - probs).max())
    elapsed = time.time() - t0
    ok = gap < 0.01 and elapsed < 10.0
    assert report("2 gumbel-max", ok, f"max |freq-softmax|={gap:.4f}, {elapsed:.1f}s")


# -- 3: greedy equivalence ---------------------------------------------------

def test_criterion_3_greedy_equivalence():
    with ad.using_dtype("fp64"):
        cfg = ModelConfig(vocab_size=14, d_emb=8, d_hidden=8, d_attention=8,
                          dropout=0.0)
        params = ModelParams(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(99)
        mismatches = 0
        checked = 0
        for _ in range(25):
            lens = rng.integers(1, 7, size=8)
            width = int(lens.max()) + 2
            src_ids = np.zeros((8, width), dtype=np.int64)
            src_mask = np.zeros((8, width))
            for b, m in enumerate(lens):
                row = [4] + list(rng.integers(6, 14, size=m)) + [2]
                src_ids[b, : len(row)] = row
                src_mask[b, : len(row)] = 1.0
            memory = encode(params, src_ids, src_mask)
            seq = sample_translation(params, memory, GumbelNoiseSource(0.0, 0),
                                     STGSConfig(tau=2.0), bos_id=1, eos_id=2)
            greedy = greedy_decode(params, src_ids, src_mask, bos_id=1, eos_id=2)
            for b in range(8):
                checked += 1
                if seq.token_ids(b) != greedy[b]:
                    mismatches += 1
    ok = checked == 200 and mismatches == 0
    assert report("3 greedy-equivalence", ok,
                  f"{checked} sentences, {mismatches} mismatches")


# -- 4: objective decomposition ----------------------------------------------

def test_criterion_4_objective_decomposition():
    from roundtrip.data import Batch

    with ad.using_dtype("fp64"):
        cfg = ModelConfig(vocab_size=10, d_emb=6, d_hidden=6, d_attention=6,
                          dropout=0.0)
        params = ModelParams(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(17)
        bad = 0
        for i in range(100):
            lens = rng.integers(1, 5, size=2)
            width = int(lens.max()) + 2
            src_ids = np.zeros((2, width), dtype=np.int64)
            src_mask = np.zeros((2, width))
            for b, m in enumerate(lens):
                row = [4] + list(rng.integers(6, 10, size=m)) + [2]
                src_ids[b, : len(row)] = row
                src_mask[b, : len(row)] = 1.0
            batch = Batch(src_ids, src_mask, src_ids.copy(), src_mask.copy())
            l_t, *_ = translation_loss(params, batch, bos_id=1)
            l_r, *_ = reconstruction_loss(
                params, batch, GumbelNoiseSource(0.5, i), STGSConfig(tau=2.0),
                bos_id=1, eos_id=2, phase="finetune")
            combined = ad.add(l_t, l_r)
            if float(combined.data) != float(l_t.data) + float(l_r.data):
                bad += 1
    assert report("4 decomposition", bad == 0, f"{bad}/100 batches inexact")


# -- 5: parameter-count invariants -------------------------------------------

def test_criterion_5_parameter_counts(tmp_path):
    data, vocab = toy_task(size=40, dev_size=8, test_size=8)
    base_cfg = dict(d_emb=16, d_hidden=16, d_attention=16, batch_size=16,
                    checkpoint_interval=4, max_updates=4, dropout=0.0,
                    eval_bleu=False, seed=1)
    pre = Trainer(RunConfig(**base_cfg), vocab, data["train"], data["dev"],
                  "pretrain", str(tmp_path / "pre"))
    init = pre.run().final_checkpoint
    n_base = pre.num_trainable_params()
    sampled = Trainer(RunConfig(**base_cfg, recon_mode="sampled"), vocab,
                      data["train"], data["dev"], "finetune",
                      str(tmp_path / "s"), init_checkpoint=init)
    hidden = Trainer(RunConfig(**base_cfg, recon_mode="hidden"), vocab,
                     data["train"], data["dev"], "finetune",
                     str(tmp_path / "h"), init_checkpoint=init)
    d_sampled = sampled.num_trainable_params() - n_base
    d_hidden = hidden.num_trainable_params() - n_base
    ok = d_sampled == 0 and d_hidden > 0
    assert report("5 parameter-counts", ok,
                  f"sampled adds {d_sampled}, hidden adds {d_hidden}")


# -- 6: schedule conformance ---------------------------------------------------

def test_criterion_6_schedule_conformance():
    sched = LrScheduler(0.001, decay=0.7, patience_decay=4, patience_stop=10)
    trace = [10.0] + [11.0] * 10  # one improvement, then stale forever
    lrs, stopped_at = [], None
    for i, ppl in enumerate(trace):
        sched.observe(ppl)
        lrs.append(sched.lr)
        if sched.should_stop and stopped_at is None:
            stopped_at = i
    ok = (lrs[3] == 0.001 and math.isclose(lrs[4], 0.0007)
          and stopped_at == 10 and math.isclose(LrScheduler(0.0001).lr, 0.0001))
    assert report("6 schedule", ok,
                  f"lr after 4 stale={lrs[4]:.5f}, stop at index {stopped_at}, "
                  f"finetune lr=0.0001")


# -- 7: toy-task dynamics ------------------------------------------------------

PROTOCOL = dict(task="reversal", pairs=2000, vocab=32, d=64, seeds=(1, 2, 3),
                data_seed=11, min_len=5, max_len=12, dev_size=120, test_size=120,
                pretrain_updates=750, pretrain_interval=150,
                finetune_updates=300, finetune_interval=100, tau=2.0, beta=0.0,
                hidden_updates=2000)
# The hidden arm's reconstructors start from fresh weights at `lr` and decay
# on their own training loss. The arm trains until they have converged in
# the toolkit's terms, i.e. their rate has decayed to `lr_finetune`, the rate
# for converged weights, or until `hidden_updates`, a cap that keeps the
# protocol's serial cost inside 7a's bound (per-seed traces in CHANGES.md).


def reconstructor_nll(trainer, corpus, batch_size=48):
    """Eval-mode NLL per source token of each hidden reconstructor
    (encoder side, decoder side) over `corpus`."""
    out = []
    for w_enc, w_dec in ((1.0, 0.0), (0.0, 1.0)):
        total = tokens = 0.0
        for i in range(0, len(corpus), batch_size):
            batch = make_batch(trainer.vocab, corpus[i: i + batch_size])
            _, recon_sum, n, *_ = hidden_reconstruction_loss(
                trainer.params, batch, trainer.aux, trainer.vocab.bos,
                w_enc=w_enc, w_dec=w_dec)
            total += recon_sum
            tokens += n
        out.append(total / tokens)
    return out


@pytest.fixture(scope="module")
def dynamics(tmp_path_factory):
    """Runs the full 3-seed protocol once: pretrain, sampled ft, hidden ft.

    Each seed's pretrain and each fine-tune arm is one task; the tasks run
    in worker processes, one per available core, with single-threaded BLAS.
    A task's result depends only on its seed and arm, so the schedule does
    not change what is measured.
    """
    root = tmp_path_factory.mktemp("dynamics")
    P = PROTOCOL
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cores, 2 * len(P["seeds"]))
    t0 = time.time()
    runs = {seed: {} for seed in P["seeds"]}
    with _single_threaded_blas(), ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        pre = {pool.submit(_pretrain_task, str(root), seed): seed
               for seed in P["seeds"]}
        arms = {}

        def submit(seed, mode, updates):
            fut = pool.submit(_finetune_task, str(root), seed, mode, updates,
                              runs[seed]["final_checkpoint"])
            arms[fut] = (seed, mode)

        # hidden arms are the longest tasks: each is queued as soon as its
        # pretrain ends, and the short sampled arms fill in behind them
        for done in as_completed(pre):
            seed = pre[done]
            runs[seed].update(done.result())
            submit(seed, "hidden", P["hidden_updates"])
        for seed in P["seeds"]:
            submit(seed, "sampled", P["finetune_updates"])
        for done in as_completed(arms):
            seed, mode = arms[done]
            runs[seed][mode] = {**done.result(),
                                "dev_ppl_pre": runs[seed]["dev_ppl_trace"][-1]}
    cost = sum(r["seconds"] + r["sampled"]["seconds"] + r["hidden"]["seconds"]
               for r in runs.values())
    return {"runs": runs, "elapsed": time.time() - t0, "cost": cost,
            "workers": workers}


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _single_threaded_blas():
    """Spawned workers read the BLAS thread count from the environment."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update({k: "1" for k in _BLAS_THREAD_VARS})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@functools.lru_cache(maxsize=1)
def _protocol_data():
    from roundtrip.synth import generate_corpus

    P = PROTOCOL
    splits, _ = generate_corpus(P["task"], P["pairs"], P["vocab"], P["data_seed"],
                                dev_size=P["dev_size"], test_size=P["test_size"],
                                min_len=P["min_len"], max_len=P["max_len"])
    data = {k: pairs_from_lines(*v) for k, v in splits.items()}
    vocab = Vocab.build(build_bidirectional_corpus(data["train"]))
    return data, vocab


def _bleu_pair(params, vocab, pairs):
    fwd = evaluate_bleu(params, vocab, pairs, DecodeConfig())
    rev = evaluate_bleu(params, vocab, [p.swapped() for p in pairs], DecodeConfig())
    return fwd, rev


def _pretrain_task(root, seed):
    """One seed's pretraining, with the dev BLEU trace at each checkpoint."""
    t0 = time.time()
    P = PROTOCOL
    data, vocab = _protocol_data()
    with ad.using_dtype("fp32"):
        cfg = RunConfig(d_emb=P["d"], d_hidden=P["d"], d_attention=P["d"],
                        batch_size=48, checkpoint_interval=P["pretrain_interval"],
                        max_updates=P["pretrain_updates"], seed=seed,
                        eval_bleu=False)
        pre = Trainer(cfg, vocab, data["train"], data["dev"], "pretrain",
                      os.path.join(root, f"pre{seed}"))
        dev_bleu_trace = []
        result = pre.run(on_checkpoint=lambda tr, row: dev_bleu_trace.append(
            sum(_bleu_pair(tr.params, vocab, data["dev"])) / 2))
        return {"dev_bleu_trace": dev_bleu_trace,
                "dev_ppl_trace": [m["dev_ppl"] for m in result.metrics],
                "base_bleu": _bleu_pair(pre.params, vocab, data["test"]),
                "final_checkpoint": result.final_checkpoint,
                "seconds": time.time() - t0}


def _finetune_task(root, seed, mode, updates, init_checkpoint):
    """One fine-tune arm of one seed, from that seed's final pretrain checkpoint."""
    t0 = time.time()
    P = PROTOCOL
    data, vocab = _protocol_data()
    with ad.using_dtype("fp32"):
        c = RunConfig(d_emb=P["d"], d_hidden=P["d"], d_attention=P["d"],
                      batch_size=48, checkpoint_interval=P["finetune_interval"],
                      max_updates=updates, seed=seed,
                      recon_mode=mode, tau=P["tau"], beta=P["beta"],
                      eval_bleu=False)
        tr = Trainer(c, vocab, data["train"], data["dev"], "finetune",
                     os.path.join(root, f"{mode}{seed}"),
                     init_checkpoint=init_checkpoint)
        metrics = _run_hidden_arm(tr) if mode == "hidden" else tr.run().metrics
        arm = {
            "recon_nll": [m["l_r"] for m in metrics],
            "recon_ppl": [float(np.exp(m["l_r"])) for m in metrics],
            "dev_ppl": [m["dev_ppl"] for m in metrics],
            "bleu": _bleu_pair(tr.params, vocab, data["test"]),
        }
        if mode == "hidden":
            arm["side_nll"] = reconstructor_nll(tr, tr.train_corpus)
            arm["updates"] = tr.update
        arm["seconds"] = time.time() - t0
        return arm


def _run_hidden_arm(tr):
    """Trains one checkpoint interval at a time until the reconstructors'
    rate has decayed to `lr_finetune` or the arm reaches `max_updates`."""
    metrics = []
    while (tr.update < tr.cfg.max_updates
           and tr.aux_scheduler.lr > tr.cfg.lr_finetune):
        step = tr.run(max_updates=tr.update + tr.cfg.checkpoint_interval)
        metrics += step.metrics
        if step.stopped_early:
            break
    return metrics


def test_dynamics_dev_perplexity_decreases_early(dynamics):
    # baseline training improves dev perplexity over the first checkpoints
    traces = np.array([dynamics["runs"][s]["dev_ppl_trace"][:3]
                       for s in PROTOCOL["seeds"]])
    mean3 = traces.mean(axis=0)
    assert mean3[0] > mean3[1] > mean3[2]


def test_criterion_7a_baseline_plateaus(dynamics):
    traces = [dynamics["runs"][s]["dev_bleu_trace"] for s in PROTOCOL["seeds"]]
    mean_trace = np.mean(traces, axis=0)
    tail = mean_trace[-3:]
    spread = float(tail.max() - tail.min())
    # the bound is on the protocol's serial cost, the sum of its tasks' run
    # times, so that it does not widen with the number of workers
    ok = spread <= 2.0 and tail.mean() >= 50.0
    ok = ok and dynamics["cost"] < 1800.0
    assert report("7a plateau", ok,
                  f"dev BLEU trace={np.round(mean_trace, 2).tolist()}, "
                  f"last-3 spread={spread:.2f}, protocol cost "
                  f"{dynamics['cost']:.0f}s (wall {dynamics['elapsed']:.0f}s "
                  f"on {dynamics['workers']} workers)")


def test_criterion_7b_sampled_reconstruction(dynamics):
    runs = dynamics["runs"]
    deltas = []
    for s in PROTOCOL["seeds"]:
        for i in (0, 1):
            deltas.append(runs[s]["sampled"]["bleu"][i] - runs[s]["base_bleu"][i])
    mean_delta = float(np.mean(deltas))
    recon = np.mean([runs[s]["sampled"]["recon_ppl"] for s in PROTOCOL["seeds"]],
                    axis=0)
    monotone = bool(np.all(np.diff(recon) < 0))
    ok = mean_delta >= -0.5 and monotone
    assert report("7b sampled-recon", ok,
                  f"paired dBLEU={mean_delta:+.3f}, mean recon ppl trace="
                  f"{np.round(recon, 4).tolist()} strictly decreasing={monotone}")


def test_criterion_7c_hidden_memorization_signature(dynamics):
    # HIDDEN's training reconstruction cross-entropy (nats per source token,
    # mean over seeds at each arm's final checkpoint) must reach at most half
    # of the sampled variant's, while its dev perplexity does not improve 2x.
    runs, seeds = dynamics["runs"], PROTOCOL["seeds"]
    sampled = [runs[s]["sampled"]["recon_nll"][-1] for s in seeds]
    hidden = [runs[s]["hidden"]["recon_nll"][-1] for s in seeds]
    sides = [runs[s]["hidden"]["side_nll"] for s in seeds]
    sampled_final = float(np.mean(sampled))
    hidden_final = float(np.mean(hidden))
    dev_ratio = float(np.mean(
        [runs[s]["hidden"]["dev_ppl_pre"] / runs[s]["hidden"]["dev_ppl"][-1]
         for s in seeds]))
    two_x_lower = hidden_final <= 0.5 * sampled_final
    dev_not_improved = dev_ratio < 2.0
    ok = two_x_lower and dev_not_improved
    report("7c hidden-signature", ok,
           f"hidden recon l_r={hidden_final:.4f} nats vs sampled={sampled_final:.4f} "
           f"(needs <= {0.5 * sampled_final:.4f}); per seed {list(seeds)}: "
           f"hidden={np.round(hidden, 4).tolist()}, "
           f"sampled={np.round(sampled, 4).tolist()}, "
           f"enc/dec reconstructor eval NLL="
           f"{[np.round(sd, 4).tolist() for sd in sides]}, "
           f"hidden updates={[runs[s]['hidden']['updates'] for s in seeds]}; "
           f"dev improvement ratio={dev_ratio:.3f}")
    assert two_x_lower, (
        f"hidden training recon cross-entropy {hidden_final:.4f} nats is not 2x "
        f"below the sampled variant's {sampled_final:.4f}")
    assert dev_not_improved


# -- 8: BLEU correctness -------------------------------------------------------

def test_criterion_8_bleu_correctness():
    hand = corpus_bleu(["a b c d"], ["a b c d e"])
    ident = corpus_bleu(["x y z w", "q r s t"], ["x y z w", "q r s t"])
    disjoint = corpus_bleu(["a b c d"], ["w x y z"])
    ok = (abs(hand - 77.88) < 0.01 and ident == 100.0 and disjoint == 0.0)
    assert report("8 bleu", ok,
                  f"brevity case={hand:.4f} (needs 77.88±0.01), identity={ident}, "
                  f"disjoint={disjoint}")


# -- 9: checkpoint round-trip --------------------------------------------------

def test_criterion_9_checkpoint_roundtrip(tmp_path):
    data, vocab = toy_task(size=60, dev_size=10, test_size=10, seed=8)
    kw = dict(d_emb=16, d_hidden=16, d_attention=16, batch_size=12,
              checkpoint_interval=30, dropout=0.1, seed=4, eval_bleu=False)

    losses_a = []
    trainer_a = Trainer(RunConfig(**kw, max_updates=130), vocab, data["train"],
                        data["dev"], "pretrain", str(tmp_path / "a"))
    orig_a = trainer_a.compute_losses
    trainer_a.compute_losses = lambda b, u, train=True: _spy(orig_a, losses_a, b, u, train)
    result_a = trainer_a.run()
    ckpt30 = result_a.checkpoints[0]

    params_a, vocab_a, _ = ckpt_io.load(ckpt30)
    params_b, _, _ = ckpt_io.load(ckpt30)
    bit_exact = all(np.array_equal(t1.data, t2.data) for (_, t1), (_, t2)
                    in zip(params_a.named_parameters(), params_b.named_parameters()))

    losses_b = []
    trainer_b = Trainer(RunConfig(**kw, max_updates=130), vocab, data["train"],
                        data["dev"], "pretrain", str(tmp_path / "b"))
    trainer_b.restore(ckpt30)
    orig_b = trainer_b.compute_losses
    trainer_b.compute_losses = lambda b, u, train=True: _spy(orig_b, losses_b, b, u, train)
    trainer_b.run()

    tail_a = [l for u, l in losses_a if u >= 30][:100]
    tail_b = [l for u, l in losses_b][:100]
    resume_exact = tail_a == tail_b and len(tail_a) == 100
    ok = bit_exact and resume_exact
    assert report("9 checkpoint", ok,
                  f"bit_exact={bit_exact}, resumed 100 losses exact={resume_exact}")


def _spy(fn, sink, batch, update, train):
    out = fn(batch, update, train=train)
    sink.append((update, float(out[0].data)))
    return out


# -- 10: bidirectional corpus ---------------------------------------------------

def test_criterion_10_bidirectional_corpus():
    pairs = [ParallelPair(TaggedSentence("sw", (f"s{i}",)),
                          TaggedSentence("en", (f"t{i}",)))
             for i in range(60_570)]
    doubled = build_bidirectional_corpus(pairs)
    count_ok = len(doubled) == 121_140

    rng = np.random.default_rng(0)
    rand_pairs = []
    for _ in range(1000):
        n, m = rng.integers(1, 6), rng.integers(1, 6)
        rand_pairs.append(ParallelPair(
            TaggedSentence("aa", tuple(f"w{i}" for i in rng.integers(0, 20, n))),
            TaggedSentence("bb", tuple(f"v{i}" for i in rng.integers(0, 20, m)))))
    out = build_bidirectional_corpus(rand_pairs)
    involution_ok = all(out[1000 + i].swapped() == rand_pairs[i] and
                        out[1000 + i] == rand_pairs[i].swapped()
                        for i in range(1000))
    ok = count_ok and involution_ok
    assert report("10 bidirectional", ok,
                  f"60570->121140={count_ok}, involution on 1k pairs={involution_ok}")
