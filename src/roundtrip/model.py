"""Attentional LSTM encoder-decoder with tied embeddings.

One parameter set serves both translation directions; the first source token
is a language tag and the decoder is trained to emit the matching target tag
before the sentence. The output projection is the embedding matrix itself
(same storage), so the tying invariant holds bit-for-bit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LN_EPSILON = 1e-6


@dataclass
class ModelConfig:
    vocab_size: int
    d_emb: int = 64
    d_hidden: int = 64
    d_attention: int = 64
    dropout: float = 0.2
    layer_norm: bool = True


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


class LstmCellParams:
    """Single LSTM cell; gate order (input, forget, cell, output)."""

    def __init__(self, rng, d_in: int, d_hidden: int, layer_norm: bool):
        h = d_hidden
        self.Wx = Tensor(_xavier(rng, d_in, 4 * h), requires_grad=True)
        self.Wh = Tensor(_xavier(rng, h, 4 * h), requires_grad=True)
        bias = np.zeros(4 * h)
        if not layer_norm:
            bias[h: 2 * h] = 1.0  # forget-gate bias
        self.b = Tensor(bias, requires_grad=True)
        if layer_norm:
            ln_bias = np.zeros(4 * h)
            ln_bias[h: 2 * h] = 1.0
            self.ln_gain = Tensor(np.ones(4 * h), requires_grad=True)
            self.ln_bias = Tensor(ln_bias, requires_grad=True)
        else:
            self.ln_gain = None
            self.ln_bias = None
        self.d_hidden = h

    def named(self, prefix: str):
        yield f"{prefix}.Wx", self.Wx
        yield f"{prefix}.Wh", self.Wh
        yield f"{prefix}.b", self.b
        if self.ln_gain is not None:
            yield f"{prefix}.ln_gain", self.ln_gain
            yield f"{prefix}.ln_bias", self.ln_bias

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        pre = ad.add(ad.add(ad.matmul(x, self.Wx), ad.matmul(h, self.Wh)), self.b)
        if self.ln_gain is not None:
            pre = ad.layer_norm(pre, self.ln_gain, self.ln_bias, LN_EPSILON)
        n = self.d_hidden
        i = ad.sigmoid(ad.slice_axis(pre, 0, n))
        f = ad.sigmoid(ad.slice_axis(pre, n, 2 * n))
        g = ad.tanh(ad.slice_axis(pre, 2 * n, 3 * n))
        o = ad.sigmoid(ad.slice_axis(pre, 3 * n, 4 * n))
        c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
        h_new = ad.mul(o, ad.tanh(c_new))
        return h_new, c_new


class AttentionParams:
    """Single-hidden-layer MLP attention with tanh."""

    def __init__(self, rng, d_ann: int, d_query: int, d_att: int):
        self.w_ann = Tensor(_xavier(rng, d_ann, d_att), requires_grad=True)
        self.w_query = Tensor(_xavier(rng, d_query, d_att), requires_grad=True)
        self.bias = Tensor(np.zeros(d_att), requires_grad=True)
        self.v = Tensor(_xavier(rng, d_att, 1)[:, 0], requires_grad=True)

    def named(self, prefix: str):
        yield f"{prefix}.w_ann", self.w_ann
        yield f"{prefix}.w_query", self.w_query
        yield f"{prefix}.bias", self.bias
        yield f"{prefix}.v", self.v


class DecoderParams:
    """Attentional decoder over a memory of d_ann-wide annotation vectors.

    `E` is the decoder's tied embedding and output projection. It is held by
    reference, may be shared with an encoder, and is listed by the owner
    that made it, not by `named`.
    """

    def __init__(self, rng, config: ModelConfig, E: Tensor, d_ann: int):
        d_emb, d_hidden = config.d_emb, config.d_hidden
        self.cell = LstmCellParams(rng, d_emb + d_ann, d_hidden, config.layer_norm)
        self.att = AttentionParams(rng, d_ann, d_hidden, config.d_attention)
        self.w_init_h = Tensor(_xavier(rng, d_ann, d_hidden), requires_grad=True)
        self.b_init_h = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w_init_c = Tensor(_xavier(rng, d_ann, d_hidden), requires_grad=True)
        self.b_init_c = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w_out = Tensor(_xavier(rng, d_hidden + d_ann, d_emb), requires_grad=True)
        self.b_out = Tensor(np.zeros(d_emb), requires_grad=True)
        self.E = E
        self.dropout = config.dropout
        self.d_ann = d_ann

    def named(self, prefix: str):
        yield from self.cell.named(f"{prefix}.cell")
        yield from self.att.named(f"{prefix}.att")
        yield f"{prefix}.w_init_h", self.w_init_h
        yield f"{prefix}.b_init_h", self.b_init_h
        yield f"{prefix}.w_init_c", self.w_init_c
        yield f"{prefix}.b_init_c", self.b_init_c
        yield f"{prefix}.w_out", self.w_out
        yield f"{prefix}.b_out", self.b_out


class ModelParams:
    """All trainable weights; embedding matrix doubles as output projection."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.E = Tensor(_xavier(rng, config.vocab_size, config.d_emb), requires_grad=True)
        self.enc_fwd = LstmCellParams(rng, config.d_emb, config.d_hidden, config.layer_norm)
        self.enc_bwd = LstmCellParams(rng, config.d_emb, config.d_hidden, config.layer_norm)
        self.dec = DecoderParams(rng, config, self.E, 2 * config.d_hidden)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("E", self.E)]
        out.extend(self.enc_fwd.named("enc_fwd"))
        out.extend(self.enc_bwd.named("enc_bwd"))
        out.extend(self.dec.named("dec"))
        return out


@dataclass
class EncoderOutput:
    annotations: Tensor           # (B, S, 2*d_hidden)
    mask: np.ndarray              # (B, S) 0/1
    summary: Tensor               # (B, 2*d_hidden) final fwd/bwd states


@dataclass
class Memory:
    """Encoder output plus the precomputed attention keys for one decoder."""

    annotations: Tensor
    ann_keys: Tensor              # (B, S, d_att)
    mask: np.ndarray
    summary: Tensor
    neg_inf: Tensor = field(init=False)

    def __post_init__(self):
        bias = (1.0 - self.mask) * -1e9
        self.neg_inf = ad.constant(bias)


@dataclass
class DecoderState:
    h: Tensor
    cell: Tensor


def _masked_carry(new: Tensor, old: Tensor, mask_col: np.ndarray) -> Tensor:
    m = ad.constant(mask_col)
    inv = ad.constant(1.0 - mask_col)
    return ad.add(ad.mul(new, m), ad.mul(old, inv))


def _embed_step(E: Tensor, ids: np.ndarray | None, dist: Tensor | None) -> Tensor:
    """Previous-token embedding: hard id lookup or distribution-weighted rows."""
    if dist is not None:
        return ad.matmul(dist, E)
    return ad.embedding(E, ids)


def encode(params: ModelParams, src_ids: np.ndarray | None, src_mask: np.ndarray,
           src_dists: Sequence[Tensor] | None = None, train: bool = False,
           rng: np.random.Generator | None = None) -> EncoderOutput:
    """Bi-directional encoder; accepts hard ids or per-position distributions.

    Masked positions never update the recurrent state, so final states equal
    the states at each sentence's own last valid token.
    """
    B, S = src_mask.shape
    if S == 0 or not src_mask.any():
        raise ValueError("cannot encode an empty source")
    cfg = params.config
    p_drop = cfg.dropout if train else 0.0

    embs = []
    for t in range(S):
        if src_dists is not None:
            e = _embed_step(params.E, None, src_dists[t])
        else:
            e = _embed_step(params.E, src_ids[:, t], None)
        if p_drop:
            e = ad.dropout(e, p_drop, rng)
        embs.append(e)

    def run(cell: LstmCellParams, order):
        h = ad.constant(np.zeros((B, cfg.d_hidden)))
        c = ad.constant(np.zeros((B, cfg.d_hidden)))
        states = [None] * S
        for t in order:
            m = src_mask[:, t: t + 1]
            h_new, c_new = cell.step(embs[t], h, c)
            h = _masked_carry(h_new, h, m)
            c = _masked_carry(c_new, c, m)
            states[t] = h
        return states, h

    fwd_states, fwd_final = run(params.enc_fwd, range(S))
    bwd_states, bwd_final = run(params.enc_bwd, range(S - 1, -1, -1))

    per_pos = [ad.concat([f, b], axis=-1) for f, b in zip(fwd_states, bwd_states)]
    if p_drop:
        per_pos = [ad.dropout(a, p_drop, rng) for a in per_pos]
    annotations = ad.stack(per_pos, axis=1)
    summary = ad.concat([fwd_final, bwd_final], axis=-1)
    return EncoderOutput(annotations, src_mask, summary)


def prepare_memory(dec: DecoderParams, enc: EncoderOutput) -> Memory:
    keys = ad.add(ad.matmul(enc.annotations, dec.att.w_ann), dec.att.bias)
    return Memory(enc.annotations, keys, enc.mask, enc.summary)


def init_decoder_state(dec: DecoderParams, memory: Memory) -> DecoderState:
    h0 = ad.tanh(ad.add(ad.matmul(memory.summary, dec.w_init_h), dec.b_init_h))
    c0 = ad.tanh(ad.add(ad.matmul(memory.summary, dec.w_init_c), dec.b_init_c))
    return DecoderState(h0, c0)


def attend(dec: DecoderParams, state_h: Tensor, memory: Memory) -> tuple[Tensor, Tensor]:
    """Context as a convex combination of annotations; PAD gets zero weight."""
    B, S = memory.mask.shape
    q = ad.matmul(state_h, dec.att.w_query)
    scores = ad.matmul(ad.tanh(ad.add(memory.ann_keys, ad.reshape(q, (B, 1, -1)))),
                       dec.att.v)
    scores = ad.add(scores, memory.neg_inf)
    alpha = ad.stable_softmax(scores, axis=-1)
    context = ad.reshape(ad.bmm(ad.reshape(alpha, (B, 1, S)), memory.annotations),
                         (B, dec.d_ann))
    return context, alpha


def decode_step(dec: DecoderParams, state: DecoderState, memory: Memory,
                prev_ids: np.ndarray | None = None, prev_dist: Tensor | None = None,
                train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, DecoderState]:
    """One decoder step: returns next-token logits and the new state.

    prev_ids feeds a hard token; prev_dist feeds a soft distribution whose
    embedding is the distribution-weighted average of embedding rows.
    """
    if state is None:
        raise ValueError("decoder state is uninitialized")
    p_drop = dec.dropout if train else 0.0

    emb = _embed_step(dec.E, prev_ids, prev_dist)
    if p_drop:
        emb = ad.dropout(emb, p_drop, rng)
    context, _ = attend(dec, state.h, memory)
    x = ad.concat([emb, context], axis=-1)
    h_new, c_new = dec.cell.step(x, state.h, state.cell)
    h_for_out = ad.dropout(h_new, p_drop, rng) if p_drop else h_new
    combined = ad.concat([h_for_out, context], axis=-1)
    out = ad.tanh(ad.add(ad.matmul(combined, dec.w_out), dec.b_out))
    logits = ad.matmul_t(out, dec.E)
    return logits, DecoderState(h_new, c_new)


def length_caps(src_mask: np.ndarray, factor: int, offset: int) -> np.ndarray:
    """Most tokens a decode may emit per source row: factor * n + offset,
    n the content length (tag and EOS not counted), at least 1."""
    content = src_mask.sum(axis=1).astype(int) - 2
    return factor * np.maximum(content, 1) + offset


def sequence_nll(dec: DecoderParams, memory: Memory, tgt_ids: np.ndarray,
                 tgt_mask: np.ndarray, bos_id: int, train: bool = False,
                 rng: np.random.Generator | None = None,
                 collect_states: bool = False):
    """Teacher-forced NLL summed over unmasked target positions.

    Ground-truth tokens are fed at every step; the first input is BOS and the
    first prediction is the target language tag. Returns (loss_sum, n_tokens,
    decoder_states).
    """
    B, T = tgt_ids.shape
    if T == 0 or not tgt_mask.any():
        raise ValueError("empty target")
    state = init_decoder_state(dec, memory)
    prev = np.full(B, bos_id, dtype=np.int64)
    loss_sum: Tensor | None = None
    states: list[Tensor] = []
    for t in range(T):
        logits, state = decode_step(dec, state, memory, prev_ids=prev,
                                    train=train, rng=rng)
        nll = ad.cross_entropy(logits, tgt_ids[:, t])
        step_loss = ad.reduce_sum(ad.mul(nll, ad.constant(tgt_mask[:, t])))
        loss_sum = step_loss if loss_sum is None else ad.add(loss_sum, step_loss)
        if collect_states:
            states.append(state.h)
        prev = tgt_ids[:, t]
    n_tokens = float(tgt_mask.sum())
    return loss_sum, n_tokens, states


def teacher_forced_nll(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
                       tgt_ids: np.ndarray, tgt_mask: np.ndarray, bos_id: int,
                       train: bool = False, rng: np.random.Generator | None = None):
    """Encode then score the target under teacher forcing; returns
    (loss_sum, n_tokens)."""
    enc = encode(params, src_ids, src_mask, train=train, rng=rng)
    loss_sum, n_tokens, _ = sequence_nll(
        params.dec, prepare_memory(params.dec, enc), tgt_ids, tgt_mask, bos_id,
        train=train, rng=rng)
    return loss_sum, n_tokens
