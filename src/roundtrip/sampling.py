"""Gumbel-Max sampling of translations with straight-through gradients.

The decoder self-feeds: step t consumes the embedding of its own step t-1
sample, the sampled token's row on the forward pass and the soft (tempered
softmax of the same perturbed logits) embedding on the backward pass. Noise
is redrawn i.i.d. per step and position and is treated as a constant in
differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ModelParams, Memory, decode_step, init_decoder_state, length_caps

UNIFORM_CLAMP = 1e-12


@dataclass
class GumbelNoiseSource:
    """Scaled Gumbel(0, beta) noise; at beta=0 it draws none (greedy path)."""

    beta: float
    rng_seed: int | tuple = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        seed = self.rng_seed if isinstance(self.rng_seed, (list, tuple)) else [self.rng_seed]
        self.rng = np.random.default_rng(list(seed))

    def draw(self, shape) -> np.ndarray | None:
        return None if self.beta == 0.0 else sample_gumbel(shape, self.beta, self.rng)


@dataclass
class STGSConfig:
    tau: float = 2.0
    max_len_factor: int = 2
    max_len_offset: int = 5

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


def sample_gumbel(shape, beta: float, rng: np.random.Generator) -> np.ndarray:
    """-beta * log(-log u) with u clamped away from {0, 1}."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    dtype = ad.default_dtype()
    if beta == 0.0:
        return np.zeros(shape, dtype=dtype)
    u = rng.random(shape).astype(dtype)
    # 1 - UNIFORM_CLAMP rounds to 1.0 in float32, where -log(-log u) is +inf
    top = min(dtype.type(1.0 - UNIFORM_CLAMP), np.nextafter(dtype.type(1), dtype.type(0)))
    u = np.clip(u, UNIFORM_CLAMP, top)
    return -beta * np.log(-np.log(u))


def _perturbed(logits: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """logits + noise, for finite logits of the noise's shape; with no noise
    the logits themselves."""
    if noise is not None and logits.shape != noise.shape:
        raise ValueError("logits and noise shapes must match")
    if not np.all(np.isfinite(logits)):
        raise ValueError("gumbel_max_step on non-finite logits")
    return logits if noise is None else logits + noise


def gumbel_max_step(logits: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """Ids of argmax(logits + noise) over the last axis; ties go to the lowest id."""
    return _perturbed(logits, noise).argmax(axis=-1)


def stgs_embed(out: Tensor, E: Tensor, noise: np.ndarray | None, tau: float,
               soft_forward: bool = False) -> tuple[Tensor, np.ndarray]:
    """Straight-through embedding of one token per row, sampled from the
    tied readout's logits out @ E.T, perturbed by `noise` unless it is None.

    Returns (embedding, ids). The forward value is the sampled token's row of
    E; the logits' gradient is exactly that of softmax((logits+noise)/tau) @ E,
    while E's embedding term is the row scatter a lookup gives. With
    soft_forward=True the forward value is that soft embedding itself, and
    E's embedding term its own, which makes the whole sampling path
    finite-difference checkable. E is listed twice among the inputs, so its
    embedding term reaches E.grad before its readout term.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    out_data, E_data = out.data, E.data
    # the perturbed logits become the tempered softmax in place
    soft = _perturbed(np.asarray(out_data @ E_data.T, dtype=ad.default_dtype()), noise)
    ids = soft.argmax(axis=-1)
    soft /= tau
    soft -= soft.max(axis=-1, keepdims=True)
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=-1, keepdims=True)

    emb = Tensor(soft @ E_data if soft_forward else E_data[ids])

    def bwd(g):
        g_dist = g @ E_data.T
        inner = (g_dist * soft).sum(axis=-1, keepdims=True)
        if soft_forward:
            gE = soft.T @ g
        else:
            gE = np.zeros_like(E_data)
            np.add.at(gE, ids, g)
        # the logits' gradient soft * (g_dist - inner) / tau, formed in g_dist
        g_dist -= inner
        g_dist *= soft
        g_dist /= tau
        return g_dist @ E_data, gE, g_dist.T @ out_data

    return ad.record(emb, (out, E, E), bwd), ids


@dataclass
class SampledSequence:
    """Per-step straight-through samples plus bookkeeping for the return pass."""

    steps: list[Tensor]            # each (B, d_emb): the sampled tokens' embeddings
    ids: np.ndarray                # (B, T) the sampled token ids
    mask: np.ndarray               # (B, T) 1.0 up to and including EOS/cap
    lengths: np.ndarray            # (B,)
    truncated: np.ndarray          # (B,) bool: cap hit before EOS

    def token_ids(self, row: int) -> list[int]:
        return self.ids[row, :self.lengths[row]].tolist()


def sample_translation(params: ModelParams, memory: Memory,
                       noise: GumbelNoiseSource, cfg: STGSConfig, bos_id: int,
                       eos_id: int, train: bool = False,
                       rng: np.random.Generator | None = None,
                       soft_forward: bool = False,
                       stop_on_eos: bool = True) -> SampledSequence:
    """Decode from the source's `memory` (`prepare_memory` of `params.dec`)
    by feeding back the model's own straight-through samples.

    Step 0 consumes BOS; a trained model then emits the target language tag.
    Each sentence stops at its first EOS or at its `length_caps` cap.
    """
    B = memory.mask.shape[0]
    state = init_decoder_state(params.dec, memory)

    caps = length_caps(memory.mask, cfg.max_len_factor, cfg.max_len_offset)

    done = np.zeros(B, dtype=bool)
    truncated = np.zeros(B, dtype=bool)
    lengths = np.zeros(B, dtype=int)
    steps: list[Tensor] = []
    ids: list[np.ndarray] = []

    prev_ids: np.ndarray | None = np.full(B, bos_id, dtype=np.int64)
    prev_emb: Tensor | None = None
    for t in range(int(caps.max())):
        out, state = decode_step(params.dec, state, memory, prev_ids=prev_ids,
                                 prev_emb=prev_emb, train=train, rng=rng)
        emb, hard_ids = stgs_embed(out, params.dec.E, noise.draw((B, params.config.vocab_size)),
                                   cfg.tau, soft_forward=soft_forward)
        steps.append(emb)
        ids.append(hard_ids)
        active = ~done
        lengths[active] = t + 1
        if stop_on_eos:
            done |= active & (hard_ids == eos_id)
        at_cap = active & (caps <= t + 1)
        truncated |= at_cap & ~done
        done |= at_cap
        if done.all():
            break
        prev_ids, prev_emb = None, emb

    T = len(steps)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(ad.default_dtype())
    return SampledSequence(steps, np.stack(ids, axis=1), mask, lengths, truncated)
