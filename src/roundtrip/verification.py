"""Finite-difference verification suite run at fp64.

Covers every differentiable primitive, the encoder over a one-token source,
one full decoder step, the tempered softmax surrogate of the sampler, and the
end-to-end combined objective on a two-sentence batch. The sampler runs in
soft-forward mode with termination at the cap, which makes the checked
function smooth; the straight-through estimator shares that backward code
path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .data import Batch
from .model import ModelConfig, ModelParams, decode_step, encode, init_decoder_state
from .sampling import GumbelNoiseSource, STGSConfig, sample_gumbel, stgs_embed
from .training import reconstruction_loss, translation_loss

TOLERANCE = 1e-5


@dataclass
class ComponentReport:
    name: str
    max_rel_err: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < TOLERANCE


def check_over_params(build_loss, named_params) -> float:
    """Max grad_check error over a set of parameters of one loss closure.

    build_loss() must read the parameter tensors in place, so perturbing a
    tensor's data perturbs the loss.
    """
    worst = 0.0
    for _, p in named_params:
        err = grad_check(lambda _t: build_loss(), p)
        worst = max(worst, err)
    return worst


def primitive_checks(seed: int = 0) -> list[ComponentReport]:
    rng = np.random.default_rng([seed, 3])
    reports = []

    def check(name, f, point):
        reports.append(ComponentReport(name, grad_check(f, point)))

    aff = [Tensor(rng.standard_normal(shape), requires_grad=True)
           for shape in ((2, 5, 6), (6, 4), (4,))]
    w_a = ad.constant(rng.standard_normal((2, 5, 4)))
    for name, point in zip(("x", "W", "b"), aff):
        check(f"affine.{name}", lambda _t: ad.reduce_sum(ad.mul(ad.affine(*aff), w_a)), point)
    w_ws = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    v_ws = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    w23 = ad.constant(rng.standard_normal((2, 3)))
    for name, point in (("weights", w_ws), ("values", v_ws)):
        check(f"weighted_sum.{name}",
              lambda _t: ad.reduce_sum(ad.mul(ad.weighted_sum(w_ws, v_ws), w23)), point)
    att = [Tensor(rng.standard_normal(shape), requires_grad=True)
           for shape in ((2, 4), (4, 5), (2, 3, 5), (5,))]
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])  # one masked position
    w23b = ad.constant(rng.standard_normal((2, 3)))
    for name, point in zip(("h", "w_query", "keys", "v"), att):
        check(f"attention.{name}",
              lambda _t: ad.reduce_sum(ad.mul(ad.attention(*att, mask), w23b)), point)
    bias6 = ad.constant(rng.standard_normal(6))
    w46a = ad.constant(rng.standard_normal((4, 6)))
    check("add", lambda x: ad.reduce_sum(ad.mul(ad.add(x, bias6), w46a)),
          Tensor(rng.standard_normal((4, 6)), requires_grad=True))
    w46 = ad.constant(rng.standard_normal((4, 6)))
    check("mul", lambda x: ad.reduce_sum(ad.mul(x, w46)),
          Tensor(rng.standard_normal((4, 6)), requires_grad=True))
    v4 = ad.constant(rng.standard_normal(4))
    check("scalar_mul", lambda x: ad.reduce_sum(ad.mul(ad.scalar_mul(x, -1.7), v4)),
          Tensor(rng.standard_normal(4), requires_grad=True))
    check("reduce_sum", lambda x: ad.reduce_sum(x),
          Tensor(rng.standard_normal((2, 3)), requires_grad=True))
    v8a = ad.constant(rng.standard_normal(8))
    check("tanh", lambda x: ad.reduce_sum(ad.mul(ad.tanh(x), v8a)),
          Tensor(rng.standard_normal(8), requires_grad=True))
    tail = ad.constant(rng.standard_normal((3, 2)))
    w35 = ad.constant(rng.standard_normal((3, 5)))
    check("concat",
          lambda x: ad.reduce_sum(ad.mul(ad.concat([x, tail], axis=-1), w35)),
          Tensor(rng.standard_normal((3, 3)), requires_grad=True))
    other = ad.constant(rng.standard_normal((2, 3)))
    w232 = ad.constant(rng.standard_normal((2, 3, 2)))
    check("stack",
          lambda x: ad.reduce_sum(ad.mul(ad.stack([x, other], axis=-1), w232)),
          Tensor(rng.standard_normal((2, 3)), requires_grad=True))
    ids = np.array([0, 2, 1, 2])
    w43 = ad.constant(rng.standard_normal((4, 3)))
    check("embedding",
          lambda E: ad.reduce_sum(ad.mul(ad.embedding(E, ids), w43)),
          Tensor(rng.standard_normal((4, 3)), requires_grad=True))
    out = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    E = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    targets, row_mask = np.array([1, 3, 0]), np.array([1.0, 0.0, 1.0])
    for name, point in (("out", out), ("E", E)):
        check(f"readout_nll.{name}",
              lambda _t: ad.readout_nll(out, E, targets, row_mask), point)

    def dropped(x):
        r = np.random.default_rng(7)  # identical mask on every evaluation
        return ad.reduce_sum(ad.dropout(x, 0.4, r))

    check("dropout", dropped, Tensor(rng.standard_normal(10), requires_grad=True))
    reports.extend(lstm_cell_checks(rng))
    return reports


def lstm_cell_checks(rng: np.random.Generator) -> list[ComponentReport]:
    """The fused cell over each of its inputs, with a `keep` column that
    carries one row's state through. Both outputs feed the loss, which uses
    no other nonlinearity, so the check depends on the cell alone."""
    B, d_in, n = 3, 5, 4

    def param(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    inputs = {"x": param(B, d_in), "h": param(B, n), "c": param(B, n),
              "Wx": param(d_in, 4 * n), "Wh": param(n, 4 * n), "b": param(4 * n),
              "gain": param(4 * n), "bias": param(4 * n)}
    keep = np.array([[1.0], [0.0], [1.0]])
    w_h = ad.constant(rng.standard_normal((B, n)))
    w_c = ad.constant(rng.standard_normal((B, n)))

    def loss() -> Tensor:
        h, c = ad.lstm_cell(*inputs.values(), keep=keep)
        return ad.add(ad.reduce_sum(ad.mul(h, w_h)), ad.reduce_sum(ad.mul(c, w_c)))

    return [ComponentReport(f"lstm_cell.{name}", grad_check(lambda _t: loss(), t))
            for name, t in inputs.items()]


def tiny_model(seed: int = 0, vocab: int = 9, d: int = 4) -> ModelParams:
    config = ModelConfig(vocab_size=vocab, d_emb=d, d_hidden=d, d_attention=d, dropout=0.0)
    return ModelParams(config, np.random.default_rng([seed, 77]))


def decode_step_check(seed: int = 0) -> ComponentReport:
    params = tiny_model(seed, vocab=7, d=4)
    src_ids = np.array([[4, 5, 6, 2]])
    src_mask = np.ones((1, 4))
    target, prev = np.array([3]), np.array([1])

    def build_loss() -> Tensor:
        memory = encode(params, src_ids, src_mask)
        state = init_decoder_state(params.dec, memory)
        out, _ = decode_step(params.dec, state, memory, prev_ids=prev)
        return ad.readout_nll(out, params.dec.E, target, np.ones(1))

    err = check_over_params(build_loss, params.named_parameters())
    return ComponentReport("decode_step", err)


def encode_one_token_check(seed: int = 0) -> ComponentReport:
    """The encoder over a one-token source (S=1) whose second row is padding."""
    params = tiny_model(seed, vocab=7, d=4)
    rng = np.random.default_rng([seed, 6])
    src_ids = np.array([[4], [0]])
    src_mask = np.array([[1.0], [0.0]])
    w_ann = ad.constant(rng.standard_normal((2, 1, 8)))
    w_sum = ad.constant(rng.standard_normal((2, 8)))

    def build_loss() -> Tensor:
        memory = encode(params, src_ids, src_mask)
        return ad.add(ad.reduce_sum(ad.mul(memory.annotations, w_ann)),
                      ad.reduce_sum(ad.mul(memory.summary, w_sum)))

    encoder = [(n, p) for n, p in params.named_parameters() if not n.startswith("dec.")]
    return ComponentReport("encode_one_token", check_over_params(build_loss, encoder))


def stgs_soft_checks(seed: int = 0) -> list[ComponentReport]:
    """The sampler's soft embedding, over the decoder output and over E."""
    rng = np.random.default_rng([seed, 9])
    noise = sample_gumbel((3, 6), 1.0, np.random.default_rng([seed, 10]))
    out = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    E = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    fixed = ad.constant(rng.standard_normal((3, 4)))

    def loss() -> Tensor:
        emb, _ = stgs_embed(out, E, noise, tau=2.0, soft_forward=True)
        return ad.reduce_sum(ad.mul(emb, fixed))

    return [ComponentReport(f"stgs_soft_path.{name}", grad_check(lambda _t: loss(), t))
            for name, t in (("out", out), ("E", E))]


def end_to_end_check(seed: int = 0) -> ComponentReport:
    """Combined objective on a 2-sentence batch, sampler in soft-forward mode,
    built as training builds it: one encoding of the source feeds both the
    translation pass and the sampler."""
    params = tiny_model(seed, vocab=9, d=4)
    # rows: [tag, w, w, eos]; two different lengths exercise masking
    src_ids = np.array([[4, 6, 7, 2], [5, 8, 2, 0]])
    src_mask = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]])
    tgt_ids = np.array([[5, 7, 6, 2], [4, 8, 2, 0]])
    tgt_mask = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]])
    batch = Batch(src_ids, src_mask, tgt_ids, tgt_mask)
    stgs = STGSConfig(tau=2.0, max_len_factor=1, max_len_offset=2)

    def build_loss() -> Tensor:
        l_t, _, _, memory, _ = translation_loss(params, batch, bos_id=1)
        noise = GumbelNoiseSource(0.5, (seed, 21))
        l_r, _, _, _ = reconstruction_loss(
            params, batch, noise, stgs, bos_id=1, eos_id=2, phase="finetune",
            soft_forward=True, stop_on_eos=False, memory=memory)
        return ad.add(l_t, l_r)

    err = check_over_params(build_loss, params.named_parameters())
    return ComponentReport("end_to_end_lt_lr", err)


def run_suite(seed: int = 0) -> list[ComponentReport]:
    """Full fp64 gradient suite."""
    with ad.using_dtype("fp64"):
        reports = primitive_checks(seed)
        reports.append(encode_one_token_check(seed))
        reports.append(decode_step_check(seed))
        reports.extend(stgs_soft_checks(seed))
        reports.append(end_to_end_check(seed))
    return reports


def format_suite(reports: list[ComponentReport]) -> str:
    lines = []
    for r in reports:
        flag = "ok" if r.ok else "FAIL"
        lines.append(f"{r.name:<22} max_rel_err={r.max_rel_err:.3e}  [{flag}]")
    return "\n".join(lines)
