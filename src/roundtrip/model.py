"""Attentional LSTM encoder-decoder with tied embeddings.

One parameter set serves both translation directions; the first source token
is a language tag and the decoder is trained to emit the matching target tag
before the sentence. The output projection is the embedding matrix itself
(same storage), so the tying invariant holds bit-for-bit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

@dataclass
class ModelConfig:
    vocab_size: int
    d_emb: int = 64
    d_hidden: int = 64
    d_attention: int = 64
    dropout: float = 0.2


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def _weight(rng: np.random.Generator | None, fan_in: int, fan_out: int) -> np.ndarray:
    """A Xavier draw, or with no `rng` zeros, for a caller that sets every
    weight itself."""
    return np.zeros((fan_in, fan_out)) if rng is None else _xavier(rng, fan_in, fan_out)


class LstmCellParams:
    """Single layer-normalized LSTM cell; gate order (input, forget, cell, output)."""

    def __init__(self, rng, d_in: int, d_hidden: int):
        h = d_hidden
        self.Wx = Tensor(_weight(rng, d_in, 4 * h), requires_grad=True)
        self.Wh = Tensor(_weight(rng, h, 4 * h), requires_grad=True)
        self.b = Tensor(np.zeros(4 * h), requires_grad=True)
        ln_bias = np.zeros(4 * h)
        ln_bias[h: 2 * h] = 1.0
        self.ln_gain = Tensor(np.ones(4 * h), requires_grad=True)
        self.ln_bias = Tensor(ln_bias, requires_grad=True)

    def named(self, prefix: str):
        yield f"{prefix}.Wx", self.Wx
        yield f"{prefix}.Wh", self.Wh
        yield f"{prefix}.b", self.b
        yield f"{prefix}.ln_gain", self.ln_gain
        yield f"{prefix}.ln_bias", self.ln_bias

    def step(self, x: Tensor, h: Tensor, c: Tensor,
             keep: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """(h_new, c_new); rows where the 0/1 column `keep` is 0 keep h and c."""
        return ad.lstm_cell(x, h, c, self.Wx, self.Wh, self.b,
                            self.ln_gain, self.ln_bias, keep)


class AttentionParams:
    """Single-hidden-layer MLP attention with tanh."""

    def __init__(self, rng, d_ann: int, d_query: int, d_att: int):
        self.w_ann = Tensor(_weight(rng, d_ann, d_att), requires_grad=True)
        self.w_query = Tensor(_weight(rng, d_query, d_att), requires_grad=True)
        self.bias = Tensor(np.zeros(d_att), requires_grad=True)
        self.v = Tensor(_weight(rng, d_att, 1)[:, 0], requires_grad=True)

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
        self.cell = LstmCellParams(rng, d_emb + d_ann, d_hidden)
        self.att = AttentionParams(rng, d_ann, d_hidden, config.d_attention)
        self.w_init_h = Tensor(_weight(rng, d_ann, d_hidden), requires_grad=True)
        self.b_init_h = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w_init_c = Tensor(_weight(rng, d_ann, d_hidden), requires_grad=True)
        self.b_init_c = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w_out = Tensor(_weight(rng, d_hidden + d_ann, d_emb), requires_grad=True)
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
    """All trainable weights; embedding matrix doubles as output projection.
    The weight matrices are Xavier draws from `rng`, or zeros with no `rng`,
    for a caller that sets every parameter (`checkpoint.load`)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        self.E = Tensor(_weight(rng, config.vocab_size, config.d_emb), requires_grad=True)
        self.enc_fwd = LstmCellParams(rng, config.d_emb, config.d_hidden)
        self.enc_bwd = LstmCellParams(rng, config.d_emb, config.d_hidden)
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
class Memory(EncoderOutput):
    """Encoder output plus the precomputed attention keys for one decoder."""

    ann_keys: Tensor              # (B, S, d_att)


@dataclass
class DecoderState:
    h: Tensor
    cell: Tensor


def encode(params: ModelParams, src_ids: np.ndarray | None, src_mask: np.ndarray,
           src_embs: Sequence[Tensor] | None = None, train: bool = False,
           rng: np.random.Generator | None = None) -> EncoderOutput:
    """Bi-directional encoder; accepts hard ids or per-position embeddings.

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
        e = src_embs[t] if src_embs is not None else ad.embedding(params.E, src_ids[:, t])
        embs.append(ad.dropout(e, p_drop, rng))

    def run(cell: LstmCellParams, order):
        h = ad.constant(np.zeros((B, cfg.d_hidden)))
        c = ad.constant(np.zeros((B, cfg.d_hidden)))
        states = [None] * S
        for t in order:
            h, c = cell.step(embs[t], h, c, keep=src_mask[:, t: t + 1])
            states[t] = h
        return states, h

    fwd_states, fwd_final = run(params.enc_fwd, range(S))
    bwd_states, bwd_final = run(params.enc_bwd, range(S - 1, -1, -1))

    per_pos = [ad.concat([f, b], axis=-1) for f, b in zip(fwd_states, bwd_states)]
    annotations = ad.stack([ad.dropout(a, p_drop, rng) for a in per_pos], axis=1)
    summary = ad.concat([fwd_final, bwd_final], axis=-1)
    return EncoderOutput(annotations, src_mask, summary)


def prepare_memory(dec: DecoderParams, enc: EncoderOutput) -> Memory:
    keys = ad.affine(enc.annotations, dec.att.w_ann, dec.att.bias)
    return Memory(enc.annotations, enc.mask, enc.summary, keys)


def init_decoder_state(dec: DecoderParams, memory: Memory) -> DecoderState:
    h0 = ad.tanh(ad.affine(memory.summary, dec.w_init_h, dec.b_init_h))
    c0 = ad.tanh(ad.affine(memory.summary, dec.w_init_c, dec.b_init_c))
    return DecoderState(h0, c0)


def attend(dec: DecoderParams, state_h: Tensor, memory: Memory) -> tuple[Tensor, Tensor]:
    """Context as a convex combination of annotations; PAD gets zero weight."""
    alpha = ad.attention(state_h, dec.att.w_query, memory.ann_keys, dec.att.v, memory.mask)
    return ad.weighted_sum(alpha, memory.annotations), alpha


def decode_step(dec: DecoderParams, state: DecoderState, memory: Memory,
                prev_ids: np.ndarray | None = None, prev_emb: Tensor | None = None,
                train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, DecoderState]:
    """One decoder step: returns the (B, d_emb) output of its tanh layer, whose
    logits out @ E.T each consumer forms itself, and the new state.

    prev_ids feeds a token by id; prev_emb feeds a (B, d_emb) embedding as is.
    """
    if state is None:
        raise ValueError("decoder state is uninitialized")
    p_drop = dec.dropout if train else 0.0

    if prev_emb is None:
        prev_emb = ad.embedding(dec.E, prev_ids)
    emb = ad.dropout(prev_emb, p_drop, rng)
    context, _ = attend(dec, state.h, memory)
    x = ad.concat([emb, context], axis=-1)
    h_new, c_new = dec.cell.step(x, state.h, state.cell)
    combined = ad.concat([ad.dropout(h_new, p_drop, rng), context], axis=-1)
    out = ad.tanh(ad.affine(combined, dec.w_out, dec.b_out))
    return out, DecoderState(h_new, c_new)


def length_caps(src_mask: np.ndarray, factor: int, offset: int) -> np.ndarray:
    """Most tokens a decode may emit per source row: factor * n + offset,
    n the content length (tag and EOS not counted), at least 1."""
    content = src_mask.sum(axis=1).astype(int) - 2
    return factor * np.maximum(content, 1) + offset


def sequence_nll(dec: DecoderParams, memory: Memory, tgt_ids: np.ndarray,
                 tgt_mask: np.ndarray, bos_id: int, train: bool = False,
                 rng: np.random.Generator | None = None):
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
        out, state = decode_step(dec, state, memory, prev_ids=prev,
                                 train=train, rng=rng)
        step_loss = ad.readout_nll(out, dec.E, tgt_ids[:, t], tgt_mask[:, t])
        loss_sum = step_loss if loss_sum is None else ad.add(loss_sum, step_loss)
        states.append(state.h)
        prev = tgt_ids[:, t]
    n_tokens = float(tgt_mask.sum())
    return loss_sum, n_tokens, states


def teacher_forced_nll(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
                       tgt_ids: np.ndarray, tgt_mask: np.ndarray, bos_id: int):
    """Encode then score the target under teacher forcing, dropout off;
    returns (loss_sum, n_tokens)."""
    enc = encode(params, src_ids, src_mask)
    loss_sum, n_tokens, _ = sequence_nll(
        params.dec, prepare_memory(params.dec, enc), tgt_ids, tgt_mask, bos_id)
    return loss_sum, n_tokens
