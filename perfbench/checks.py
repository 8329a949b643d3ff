"""Correctness checks run inside every benchmark session.

Each check is one operation of the run: it records a pass or a failure with
a one-line reason, and a failed check fails the run.
"""

from __future__ import annotations

import numpy as np

import reference
from roundtrip import autodiff as ad
from roundtrip.data import make_batch
from roundtrip.evaluation import greedy_decode
from roundtrip.model import ModelParams
from roundtrip.sampling import GumbelNoiseSource, STGSConfig
from roundtrip.training import (HiddenReconstructorParams, hidden_reconstruction_loss,
                                reconstruction_loss, translation_loss)

# fp32 losses against the float64 reference: the program accumulates a few
# hundred fp32 terms, whose rounding stays far below this
LOSS_RTOL = 1e-5
# a greedy step whose top two reference logits are closer than this may
# legitimately go either way in fp32
TIE_GAP = 1e-3
# fp64 directional derivative against the five-point central difference of
# step FD_STEP. The sampled objective at V=4096 bends sharply along a random
# direction: there the two-point difference misses FD_RTOL at every step that
# rounding allows, and this one meets it by more than 10x.
FD_RTOL = 1e-6
FD_STEP = 1e-6


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def caps_of(src_mask: np.ndarray, factor: int = 2, offset: int = 5) -> np.ndarray:
    content = src_mask.sum(axis=1).astype(int) - 2
    return factor * np.maximum(content, 1) + offset


def hypothesis_ends(rows, caps, eos_id) -> tuple[bool, str]:
    """Every decoded row ends at EOS or has exactly its cap's length."""
    for b, row in enumerate(rows):
        if not row or (row[-1] != eos_id and len(row) != caps[b]):
            return False, f"row {b} of length {len(row)} (cap {caps[b]}) ends with {row[-1:]}"
    return True, ""


def close(program: float, ref: float) -> tuple[bool, str]:
    ok = abs(program - ref) <= LOSS_RTOL * max(abs(ref), 1e-2)
    return ok, f"program {program:.7g} vs reference {ref:.7g}"


def _same_paths(program_rows, ref_rows, ref_gaps) -> tuple[bool, str]:
    """Rows agree up to their first difference, and any difference falls on
    a step the reference sees as a near tie."""
    for b, (p, r) in enumerate(zip(program_rows, ref_rows)):
        for t in range(max(len(p), len(r))):
            if t >= len(p) or t >= len(r) or p[t] != r[t]:
                if t < len(r) and ref_gaps[b][t] < TIE_GAP and t < len(p):
                    break
                return False, f"row {b} differs at step {t}: {p[:t + 1]} vs {r[:t + 1]}"
    return True, ""


def reference_checks(checks: Checks, phase: str, params, aux, batch, vocab, cfg) -> None:
    """Eval-mode losses and greedy outputs against the reference forward."""
    P = reference.weights(params.named_parameters())
    bos, eos = vocab.bos, vocab.eos
    l_t = float(translation_loss(params, batch, bos)[0].data)
    checks.record(f"{phase}.reference.translation_loss",
                  *close(l_t, reference.translation_nll(P, batch, bos)))
    if phase == "sampled":
        stgs = STGSConfig(cfg.tau, cfg.max_len_factor, cfg.max_len_offset)
        l_r, _, _, sampled = reconstruction_loss(
            params, batch, GumbelNoiseSource(0.0), stgs, bos, eos, phase="finetune")
        rows = [sampled.token_ids(b) for b in range(batch.size)]
        ref_rows, gaps = reference.greedy(P, batch.src_ids, batch.src_mask, bos, eos,
                                          caps_of(batch.src_mask, cfg.max_len_factor,
                                                  cfg.max_len_offset))
        checks.record("sampled.reference.sample", *_same_paths(rows, ref_rows, gaps))
        checks.record("sampled.reference.reconstruction_loss",
                      *close(float(l_r.data),
                              reference.reconstruction_nll(P, batch, rows, bos)))
    if phase == "hidden":
        P.update(reference.weights(aux.named_parameters()))
        recon = hidden_reconstruction_loss(params, batch, aux, bos, cfg.hidden_weight_enc,
                                           cfg.hidden_weight_dec)[0]
        checks.record("hidden.reference.hidden_reconstruction_loss",
                      *close(float(recon.data),
                              reference.hidden_reconstruction(
                                  P, batch, bos, cfg.hidden_weight_enc,
                                  cfg.hidden_weight_dec)))
    if phase == "decode":
        rows = greedy_decode(params, batch.src_ids, batch.src_mask, bos, eos)
        ref_rows, gaps = reference.greedy(P, batch.src_ids, batch.src_mask, bos, eos,
                                          caps_of(batch.src_mask))
        checks.record("decode.reference.greedy", *_same_paths(rows, ref_rows, gaps))


def _fp64_copy(named, make):
    """A float64 twin of a parameter set, built by `make` and filled by name."""
    with ad.using_dtype("fp64"):
        twin = make()
    src = dict(named)
    for name, t in twin.named_parameters():
        t.data = np.asarray(src[name].data, dtype=np.float64).copy()
    return twin


def objective(phase: str, params, aux, batch, vocab, cfg, seed: int):
    """The phase's training objective as `Trainer.compute_losses` builds it,
    with the sampler in its soft-forward form and run to the cap, which makes
    it smooth; the straight-through estimator shares its backward."""
    rng = np.random.default_rng([seed, 0xFD])
    l_t = translation_loss(params, batch, vocab.bos, train=True, rng=rng)[0]
    if phase == "pretrain":
        return l_t
    if phase == "sampled":
        l_r = reconstruction_loss(
            params, batch, GumbelNoiseSource(cfg.beta, (seed, 0xFD)),
            STGSConfig(cfg.tau, cfg.max_len_factor, cfg.max_len_offset),
            vocab.bos, vocab.eos, phase="finetune", train=cfg.recon_dropout, rng=rng,
            soft_forward=True, stop_on_eos=False)[0]
        return ad.add(l_t, l_r)
    l_r, _, _, l_t, _, _ = hidden_reconstruction_loss(
        params, batch, aux, vocab.bos, cfg.hidden_weight_enc, cfg.hidden_weight_dec,
        train=True, rng=rng)
    return ad.add(l_t, l_r)


def finite_difference_check(checks: Checks, phase: str, params, aux, pairs, vocab,
                            cfg, seed: int) -> None:
    """<grad L, v> from the tape against a central difference along v, in
    fp64, on a batch of the two shortest pairs: the soft-forward sampler
    feeds itself for up to its cap, and a short cap keeps that recurrence
    shallow enough for a central difference to resolve its derivative."""
    p64 = _fp64_copy(params.named_parameters(),
                     lambda: ModelParams(params.config, np.random.default_rng(0)))
    a64 = None
    named = list(p64.named_parameters())
    if aux is not None:
        a64 = _fp64_copy(aux.named_parameters(),
                         lambda: HiddenReconstructorParams(params.config,
                                                           np.random.default_rng(0)))
        named += a64.named_parameters()
    with ad.using_dtype("fp64"):
        batch = make_batch(vocab, sorted(pairs, key=lambda p: len(p.source))[:2])
        rng = np.random.default_rng([seed, 0xD1])
        direction = [rng.standard_normal(t.data.shape) for _, t in named]

        def loss() -> float:
            return float(objective(phase, p64, a64, batch, vocab, cfg, seed).data)

        for _, t in named:
            t.grad = None
        with ad.Tape() as tape:
            out = objective(phase, p64, a64, batch, vocab, cfg, seed)
        ad.backward(tape, out)
        analytic = sum(float((t.grad * v).sum()) for (_, t), v in zip(named, direction))
        base = [t.data.copy() for _, t in named]
        values = {}
        for k in (-2, -1, 1, 2):
            for (_, t), b, v in zip(named, base, direction):
                t.data = b + k * FD_STEP * v
            values[k] = loss()
        for (_, t), b in zip(named, base):
            t.data = b
        numeric = (8 * (values[1] - values[-1]) - (values[2] - values[-2])) / (12 * FD_STEP)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
    checks.record(f"{phase}.finite_difference", err < FD_RTOL,
                  f"<grad, v> {analytic:.10g} vs central difference {numeric:.10g} "
                  f"(relative error {err:.2e})")
