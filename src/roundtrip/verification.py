"""Finite-difference verification suite run at fp64.

Covers every differentiable primitive, one full decoder step, the tempered
softmax surrogate of the sampler, and the end-to-end combined objective on a
two-sentence batch. The sampler runs in soft-forward mode with termination at
the cap, which makes the checked function smooth; the straight-through
estimator shares that backward code path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .data import Batch
from .model import (ModelConfig, ModelParams, decode_step, encode,
                    init_decoder_state, prepare_memory)
from .sampling import GumbelNoiseSource, STGSConfig, sample_gumbel, stgs_combine
from .training import reconstruction_loss, translation_loss

TOLERANCE = 1e-5


@dataclass
class ComponentReport:
    name: str
    max_rel_err: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < TOLERANCE


def check_over_params(build_loss, named_params, h: float = 1e-5) -> float:
    """Max grad_check error over a set of parameters of one loss closure.

    build_loss() must read the parameter tensors in place, so perturbing a
    tensor's data perturbs the loss.
    """
    worst = 0.0
    for _, p in named_params:
        err = grad_check(lambda _t: build_loss(), p, h)
        worst = max(worst, err)
    return worst


def primitive_checks(seed: int = 0) -> list[ComponentReport]:
    rng = np.random.default_rng([seed, 3])
    reports = []

    def check(name, f, point, h=1e-5):
        reports.append(ComponentReport(name, grad_check(f, point, h)))

    v6 = rng.standard_normal(6)
    check("stable_softmax",
          lambda x: ad.reduce_sum(ad.mul(ad.stable_softmax(x), ad.constant(v6))),
          Tensor(rng.standard_normal(6), requires_grad=True))

    gain = Tensor(rng.standard_normal(6), requires_grad=True)
    bias = Tensor(rng.standard_normal(6), requires_grad=True)
    x36 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    w36 = ad.constant(rng.standard_normal((3, 6)))
    check("layer_norm",
          lambda x: ad.reduce_sum(ad.mul(ad.layer_norm(x, gain, bias, 1e-6), w36)),
          x36)
    ln_in = ad.constant(rng.standard_normal((3, 6)))
    check("layer_norm_gain",
          lambda g: ad.reduce_sum(ad.mul(ad.layer_norm(ln_in, g, bias, 1e-6), w36)),
          gain)

    m64 = ad.constant(rng.standard_normal((6, 4)))
    w54 = ad.constant(rng.standard_normal((5, 4)))
    check("matmul",
          lambda x: ad.reduce_sum(ad.mul(ad.matmul(x, m64), w54)),
          Tensor(rng.standard_normal((5, 6)), requires_grad=True))
    m46 = ad.constant(rng.standard_normal((4, 6)))
    check("matmul_t",
          lambda x: ad.reduce_sum(ad.matmul_t(x, m46)),
          Tensor(rng.standard_normal((5, 6)), requires_grad=True))
    b3 = ad.constant(rng.standard_normal((2, 4, 3)))
    check("bmm", lambda x: ad.reduce_sum(ad.bmm(x, b3)),
          Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True))
    bias6 = ad.constant(rng.standard_normal(6))
    w46a = ad.constant(rng.standard_normal((4, 6)))
    check("add", lambda x: ad.reduce_sum(ad.mul(ad.add(x, bias6), w46a)),
          Tensor(rng.standard_normal((4, 6)), requires_grad=True))
    w46 = ad.constant(rng.standard_normal((4, 6)))
    check("mul", lambda x: ad.reduce_sum(ad.mul(x, w46)),
          Tensor(rng.standard_normal((4, 6)), requires_grad=True))
    v8a = ad.constant(rng.standard_normal(8))
    check("tanh", lambda x: ad.reduce_sum(ad.mul(ad.tanh(x), v8a)),
          Tensor(rng.standard_normal(8), requires_grad=True))
    v8b = ad.constant(rng.standard_normal(8))
    check("sigmoid", lambda x: ad.reduce_sum(ad.mul(ad.sigmoid(x), v8b)),
          Tensor(rng.standard_normal(8), requires_grad=True))
    tail = ad.constant(rng.standard_normal((3, 2)))
    w35 = ad.constant(rng.standard_normal((3, 5)))
    check("concat",
          lambda x: ad.reduce_sum(ad.mul(ad.concat([x, tail], axis=-1), w35)),
          Tensor(rng.standard_normal((3, 3)), requires_grad=True))
    ids = np.array([0, 2, 1, 2])
    w43 = ad.constant(rng.standard_normal((4, 3)))
    check("embedding",
          lambda E: ad.reduce_sum(ad.mul(ad.embedding(E, ids), w43)),
          Tensor(rng.standard_normal((4, 3)), requires_grad=True))
    targets = np.array([1, 3, 0])
    check("cross_entropy",
          lambda x: ad.reduce_sum(ad.cross_entropy(x, targets)),
          Tensor(rng.standard_normal((3, 5)), requires_grad=True))

    def dropped(x):
        r = np.random.default_rng(7)  # identical mask on every evaluation
        return ad.reduce_sum(ad.dropout(x, 0.4, r, train=True))

    check("dropout", dropped, Tensor(rng.standard_normal(10), requires_grad=True))
    return reports


def tiny_model(seed: int = 0, vocab: int = 9, d: int = 4) -> ModelParams:
    config = ModelConfig(vocab_size=vocab, d_emb=d, d_hidden=d, d_attention=d,
                         dropout=0.0, layer_norm=True)
    return ModelParams(config, np.random.default_rng([seed, 77]))


def decode_step_check(seed: int = 0) -> ComponentReport:
    params = tiny_model(seed, vocab=7, d=4)
    rng = np.random.default_rng([seed, 5])
    src_ids = np.array([[4, 5, 6, 2]])
    src_mask = np.ones((1, 4))
    fixed = ad.constant(rng.standard_normal((1, 7)))
    prev = np.array([1])

    def build_loss() -> Tensor:
        enc = encode(params, src_ids, src_mask)
        memory = prepare_memory(params.dec, enc)
        state = init_decoder_state(params.dec, memory)
        logits, _ = decode_step(params.dec, state, memory, prev_ids=prev)
        return ad.reduce_sum(ad.mul(logits, fixed))

    err = check_over_params(build_loss, params.named_parameters())
    return ComponentReport("decode_step", err)


def stgs_soft_check(seed: int = 0) -> ComponentReport:
    rng = np.random.default_rng([seed, 9])
    noise = sample_gumbel((3, 6), 1.0, np.random.default_rng([seed, 10]))
    fixed = ad.constant(rng.standard_normal((3, 6)))

    def f(logits: Tensor) -> Tensor:
        st, _ = stgs_combine(logits, noise, tau=2.0, soft_forward=True)
        return ad.reduce_sum(ad.mul(st, fixed))

    point = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    return ComponentReport("stgs_soft_path", grad_check(f, point, 1e-5))


def end_to_end_check(seed: int = 0, corrupt: bool = False) -> ComponentReport:
    """Combined objective on a 2-sentence batch, sampler in soft-forward mode."""
    params = tiny_model(seed, vocab=9, d=4)
    # rows: [tag, w, w, eos]; two different lengths exercise masking
    src_ids = np.array([[4, 6, 7, 2], [5, 8, 2, 0]])
    src_mask = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]])
    tgt_ids = np.array([[5, 7, 6, 2], [4, 8, 2, 0]])
    tgt_mask = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]])
    batch = Batch(src_ids, src_mask, tgt_ids, tgt_mask)
    stgs = STGSConfig(tau=2.0, max_len_factor=1, max_len_offset=2)

    def build_loss() -> Tensor:
        l_t, _, _, _, _ = translation_loss(params, batch, bos_id=1)
        noise = GumbelNoiseSource(0.5, (seed, 21))
        l_r, _, _, _ = reconstruction_loss(
            params, batch, noise, stgs, bos_id=1, eos_id=2, phase="finetune",
            soft_forward=True, stop_on_eos=False)
        loss = ad.add(l_t, l_r)
        if corrupt:
            skewed = Tensor(loss.data.copy())
            ad.record(skewed, (loss,), lambda g: (1.5 * g,))
            loss = skewed
        return loss

    err = check_over_params(build_loss, params.named_parameters())
    return ComponentReport("end_to_end_lt_lr", err)


def run_suite(seed: int = 0, corrupt: bool = False) -> list[ComponentReport]:
    """Full fp64 gradient suite; `corrupt` skews one backward as a negative control."""
    with ad.using_dtype("fp64"):
        reports = primitive_checks(seed)
        reports.append(decode_step_check(seed))
        reports.append(stgs_soft_check(seed))
        reports.append(end_to_end_check(seed, corrupt=corrupt))
    return reports


def format_suite(reports: list[ComponentReport]) -> str:
    lines = []
    for r in reports:
        flag = "ok" if r.ok else "FAIL"
        lines.append(f"{r.name:<20} max_rel_err={r.max_rel_err:.3e}  [{flag}]")
    return "\n".join(lines)
