"""Gumbel-Max sampling of translations with straight-through gradients.

The decoder self-feeds: step t consumes its own step t-1 sample, hard on the
forward pass and soft (tempered softmax of the same perturbed logits) on the
backward pass. Noise is redrawn i.i.d. per step and position and is treated
as a constant in differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import (ModelParams, decode_step, encode, init_decoder_state,
                    length_caps, prepare_memory)

UNIFORM_CLAMP = 1e-12


@dataclass
class GumbelNoiseSource:
    """Scaled Gumbel(0, beta) noise; beta=0 is exactly zero (greedy path)."""

    beta: float
    rng_seed: int | tuple = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        seed = self.rng_seed if isinstance(self.rng_seed, (list, tuple)) else [self.rng_seed]
        self.rng = np.random.default_rng(list(seed))

    def draw(self, shape) -> np.ndarray:
        return sample_gumbel(shape, self.beta, self.rng)


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


def gumbel_max_step(logits: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One-hot at argmax(logits + noise); ties go to the lowest index."""
    if logits.shape != noise.shape:
        raise ValueError("logits and noise shapes must match")
    if not np.all(np.isfinite(logits)):
        raise ValueError("gumbel_max_step on non-finite logits")
    perturbed = logits + noise
    idx = perturbed.argmax(axis=-1)
    hard = np.zeros_like(perturbed)
    np.put_along_axis(hard, idx[..., None], 1.0, axis=-1)
    return hard


def stgs_combine(logits: Tensor, noise: np.ndarray, tau: float,
                 soft_forward: bool = False) -> tuple[Tensor, np.ndarray]:
    """Hard one-hot forward, tempered-softmax backward.

    Returns (token_value, soft_distribution). The gradient of the token value
    w.r.t. logits is exactly the gradient of softmax((logits+noise)/tau); with
    soft_forward=True the forward value is the soft distribution itself, which
    makes the whole sampling path finite-difference checkable.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    hard = gumbel_max_step(logits.data, noise)
    z = (logits.data + noise) / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    soft = e / e.sum(axis=-1, keepdims=True)

    out = Tensor(soft if soft_forward else hard)

    def bwd(g):
        inner = (g * soft).sum(axis=-1, keepdims=True)
        return (soft * (g - inner) / tau,)

    ad.record(out, (logits,), bwd)
    return out, soft


@dataclass
class SampledSequence:
    """Per-step straight-through samples plus bookkeeping for the return pass."""

    steps: list[Tensor]            # each (B, V): hard one-hot forward values
    soft: list[np.ndarray]         # each (B, V): the softmax surrogates
    mask: np.ndarray               # (B, T) 1.0 up to and including EOS/cap
    lengths: np.ndarray            # (B,)
    truncated: np.ndarray          # (B,) bool: cap hit before EOS

    def token_ids(self, row: int) -> list[int]:
        return [int(self.steps[t].data[row].argmax())
                for t in range(int(self.lengths[row]))]


def sample_translation(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
                       noise: GumbelNoiseSource, cfg: STGSConfig, bos_id: int,
                       eos_id: int, train: bool = False,
                       rng: np.random.Generator | None = None,
                       soft_forward: bool = False,
                       stop_on_eos: bool = True) -> SampledSequence:
    """Decode by feeding back the model's own straight-through samples.

    Step 0 consumes BOS; a trained model then emits the target language tag.
    Each sentence stops at its first EOS or at its `length_caps` cap.
    """
    B = src_ids.shape[0]
    enc = encode(params, src_ids, src_mask, train=train, rng=rng)
    memory = prepare_memory(params.dec, enc)
    state = init_decoder_state(params.dec, memory)

    caps = length_caps(src_mask, cfg.max_len_factor, cfg.max_len_offset)

    done = np.zeros(B, dtype=bool)
    truncated = np.zeros(B, dtype=bool)
    lengths = np.zeros(B, dtype=int)
    steps: list[Tensor] = []
    softs: list[np.ndarray] = []

    prev_ids: np.ndarray | None = np.full(B, bos_id, dtype=np.int64)
    prev_dist: Tensor | None = None
    for t in range(int(caps.max())):
        logits, state = decode_step(params.dec, state, memory, prev_ids=prev_ids,
                                    prev_dist=prev_dist, train=train, rng=rng)
        g = noise.draw(logits.shape)
        st, soft = stgs_combine(logits, g, cfg.tau, soft_forward=soft_forward)
        steps.append(st)
        softs.append(soft)

        hard_ids = (logits.data + g).argmax(axis=-1)
        active = ~done
        lengths[active] = t + 1
        if stop_on_eos:
            done |= active & (hard_ids == eos_id)
        at_cap = active & (caps <= t + 1)
        truncated |= at_cap & ~done
        done |= at_cap
        if done.all():
            break
        prev_ids, prev_dist = None, st

    T = len(steps)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(ad.default_dtype())
    return SampledSequence(steps, softs, mask, lengths, truncated)
