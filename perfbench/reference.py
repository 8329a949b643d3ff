"""An independent forward pass of the encoder, attention and decoder.

Plain numpy in float64, reading the parameter arrays by name. It shares no
code with the toolkit: it is what the toolkit's eval-mode losses and greedy
outputs are checked against.
"""

from __future__ import annotations

import numpy as np

LN_EPSILON = 1e-6


def weights(named_parameters) -> dict:
    return {name: np.asarray(t.data, dtype=np.float64) for name, t in named_parameters}


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(x):
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def _cell(P, prefix, x, h, c):
    pre = x @ P[prefix + ".Wx"] + h @ P[prefix + ".Wh"] + P[prefix + ".b"]
    if prefix + ".ln_gain" in P:
        mu = pre.mean(axis=-1, keepdims=True)
        var = ((pre - mu) ** 2).mean(axis=-1, keepdims=True)
        pre = (pre - mu) / np.sqrt(var + LN_EPSILON) * P[prefix + ".ln_gain"] \
            + P[prefix + ".ln_bias"]
    i, f, g, o = np.split(pre, 4, axis=-1)
    c_new = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
    return _sigmoid(o) * np.tanh(c_new), c_new


def encode(P, embs, mask):
    """embs: (B, S, d_emb); returns (annotations (B, S, 2h), summary (B, 2h))."""
    B, S, _ = embs.shape
    h_dim = P["enc_fwd.Wh"].shape[0]
    out = {}
    for prefix, order in (("enc_fwd", range(S)), ("enc_bwd", range(S - 1, -1, -1))):
        h = np.zeros((B, h_dim))
        c = np.zeros((B, h_dim))
        states = np.zeros((B, S, h_dim))
        for t in order:
            m = mask[:, t:t + 1]
            h_new, c_new = _cell(P, prefix, embs[:, t], h, c)
            h = m * h_new + (1 - m) * h
            c = m * c_new + (1 - m) * c
            states[:, t] = h
        out[prefix] = (states, h)
    ann = np.concatenate([out["enc_fwd"][0], out["enc_bwd"][0]], axis=-1)
    summary = np.concatenate([out["enc_fwd"][1], out["enc_bwd"][1]], axis=-1)
    return ann, summary


class Decoder:
    """An attentional decoder over one memory; `dec` names its parameters
    and `E` its (tied) embedding matrix."""

    def __init__(self, P, dec, E, ann, mask, summary):
        self.P, self.dec, self.E = P, dec, P[E]
        self.ann, self.mask = ann, mask
        self.keys = ann @ P[dec + ".att.w_ann"] + P[dec + ".att.bias"]
        self.h = np.tanh(summary @ P[dec + ".w_init_h"] + P[dec + ".b_init_h"])
        self.c = np.tanh(summary @ P[dec + ".w_init_c"] + P[dec + ".b_init_c"])

    def step(self, prev_ids):
        P, d = self.P, self.dec
        q = self.h @ P[d + ".att.w_query"]
        scores = np.tanh(self.keys + q[:, None, :]) @ P[d + ".att.v"]
        scores = np.where(self.mask > 0, scores, -np.inf)
        alpha = _softmax(scores)
        context = np.einsum("bs,bsd->bd", alpha, self.ann)
        x = np.concatenate([self.E[prev_ids], context], axis=-1)
        self.h, self.c = _cell(P, d + ".cell", x, self.h, self.c)
        out = np.tanh(np.concatenate([self.h, context], axis=-1) @ P[d + ".w_out"]
                      + P[d + ".b_out"])
        return out @ self.E.T


def _nll_sum(decoder, tgt_ids, tgt_mask, bos_id, states=None):
    prev = np.full(tgt_ids.shape[0], bos_id)
    total = 0.0
    for t in range(tgt_ids.shape[1]):
        logp = _log_softmax(decoder.step(prev))
        if states is not None:
            states.append(decoder.h)
        total -= float((logp[np.arange(len(prev)), tgt_ids[:, t]] * tgt_mask[:, t]).sum())
        prev = tgt_ids[:, t]
    return total


def translation_nll(P, batch, bos_id, states=None):
    """Mean teacher-forced NLL per target token; `states` collects the
    decoder hidden states when given."""
    ann, summary = encode(P, P["E"][batch.src_ids], batch.src_mask)
    dec = Decoder(P, "dec", "E", ann, batch.src_mask, summary)
    return _nll_sum(dec, batch.tgt_ids, batch.tgt_mask, bos_id, states) / batch.tgt_mask.sum()


def greedy(P, src_ids, src_mask, bos_id, eos_id, caps, stop_on_eos=True):
    """Argmax decode; returns (rows of ids, rows of top-1 minus top-2 logit
    gaps), each row ending at its first EOS or its cap."""
    ann, summary = encode(P, P["E"][src_ids], src_mask)
    dec = Decoder(P, "dec", "E", ann, src_mask, summary)
    B = src_ids.shape[0]
    rows, gaps = [[] for _ in range(B)], [[] for _ in range(B)]
    done = np.zeros(B, dtype=bool)
    prev = np.full(B, bos_id)
    for t in range(int(caps.max())):
        logits = dec.step(prev)
        ids = logits.argmax(axis=-1)
        top2 = np.sort(logits, axis=-1)[:, -2:]
        for b in np.flatnonzero(~done):
            rows[b].append(int(ids[b]))
            gaps[b].append(float(top2[b, 1] - top2[b, 0]))
        if stop_on_eos:
            done |= ids == eos_id
        done |= caps <= t + 1
        if done.all():
            break
        prev = ids
    return rows, gaps


def reconstruction_nll(P, batch, sample_rows, bos_id):
    """Mean NLL per source token of the source, teacher-forced, given an
    encoding of the sampled translations (one list of ids per row)."""
    B = len(sample_rows)
    T = max(len(r) for r in sample_rows)
    ids = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T))
    for b, r in enumerate(sample_rows):
        ids[b, :len(r)] = r
        mask[b, :len(r)] = 1.0
    ann, summary = encode(P, P["E"][ids], mask)
    dec = Decoder(P, "dec", "E", ann, mask, summary)
    return _nll_sum(dec, batch.src_ids, batch.src_mask, bos_id) / batch.src_mask.sum()


def hidden_reconstruction(P, batch, bos_id, w_enc, w_dec):
    """Weighted NLL per source token of the two hidden-state reconstructors."""
    states = []
    translation_nll(P, batch, bos_id, states)
    ann, summary = encode(P, P["E"][batch.src_ids], batch.src_mask)
    n = batch.src_mask.sum()
    enc_side = Decoder(P, "aux_enc.dec", "aux_enc.E", ann, batch.src_mask, summary)
    dec_ann = np.stack(states, axis=1)
    m = batch.tgt_mask[:, :, None]
    dec_summary = (dec_ann * m).sum(axis=1) / np.maximum(m.sum(axis=1), 1.0)
    dec_side = Decoder(P, "aux_dec.dec", "aux_dec.E", dec_ann, batch.tgt_mask, dec_summary)
    return (w_enc * _nll_sum(enc_side, batch.src_ids, batch.src_mask, bos_id)
            + w_dec * _nll_sum(dec_side, batch.src_ids, batch.src_mask, bos_id)) / n
