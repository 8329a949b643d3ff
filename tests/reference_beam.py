"""The per-sentence beam search that `roundtrip.evaluation` used before its
batched search loop, kept as an independent reference; it forms each
step's tied readout, out @ E.T, in numpy.

Each live hypothesis is decoded as a batch of one and ranks its own next
tokens; `tests/test_evaluation.py` requires the batched `greedy_decode` and
`beam_decode` to return exactly what this returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from roundtrip.evaluation import DecodeConfig
from roundtrip.model import ModelParams, decode_step, encode, init_decoder_state


def _caps(src_mask: np.ndarray, factor: int, offset: int) -> np.ndarray:
    content = src_mask.sum(axis=1).astype(int) - 2
    return np.array([factor * max(int(n), 1) + offset for n in content])


@dataclass
class _Hypothesis:
    ids: tuple[int, ...]
    logprob: float
    state: object

    def score(self) -> float:
        return self.logprob / max(len(self.ids), 1)


def beam_decode(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
                bos_id: int, eos_id: int, config: DecodeConfig) -> list[int]:
    """Length-normalized beam search over one sentence; width 1 is greedy."""
    if src_ids.shape[0] != 1:
        raise ValueError("beam_decode operates on a single sentence")
    memory = encode(params, src_ids, src_mask)
    state0 = init_decoder_state(params.dec, memory)
    cap = int(_caps(src_mask, config.max_len_factor, config.max_len_offset)[0])
    width = config.beam_width

    live = [_Hypothesis((), 0.0, state0)]
    finished: list[_Hypothesis] = []
    for _ in range(cap):
        candidates: list[tuple[float, int, _Hypothesis, object]] = []
        for hyp in live:
            prev = np.array([hyp.ids[-1] if hyp.ids else bos_id], dtype=np.int64)
            out, new_state = decode_step(params.dec, hyp.state, memory, prev_ids=prev)
            row = (out.data @ params.dec.E.data.T)[0]
            row = row - row.max()
            logp = row - math.log(np.exp(row).sum())
            top = np.argsort(-logp, kind="stable")[: width]
            for tok in top:
                candidates.append((hyp.logprob + float(logp[tok]), int(tok),
                                   hyp, new_state))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for logprob, tok, parent, new_state in candidates[: width]:
            hyp = _Hypothesis(parent.ids + (tok,), logprob, new_state)
            if tok == eos_id:
                finished.append(hyp)
            else:
                live.append(hyp)
        if not live or len(finished) >= width:
            break
    pool = finished if finished else live
    best = max(pool, key=lambda h: (h.score(), -len(h.ids)))
    return list(best.ids)
