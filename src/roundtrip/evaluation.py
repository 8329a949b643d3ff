"""Decoding, corpus BLEU, perplexity and seed-paired delta reporting."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import RESERVED, ParallelPair, Vocab, make_batch
from .model import (DecoderState, Memory, ModelParams, decode_step, encode,
                    init_decoder_state, length_caps, prepare_memory)


@dataclass
class DecodeConfig:
    mode: str = "greedy"
    beam_width: int = 1
    max_len_factor: int = 2
    max_len_offset: int = 5

    def __post_init__(self):
        if self.mode not in ("greedy", "beam"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")


def greedy_decode(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
                  bos_id: int, eos_id: int, max_len_factor: int = 2,
                  max_len_offset: int = 5) -> list[list[int]]:
    """Per-step argmax decode; equals beta=0 sampling token for token."""
    caps = length_caps(src_mask, max_len_factor, max_len_offset)
    return _search(params, src_ids, src_mask, bos_id, eos_id, caps, width=1)


def beam_decode(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
                bos_id: int, eos_id: int, config: DecodeConfig) -> list[int]:
    """Length-normalized beam search over one sentence; width 1 is greedy."""
    if src_ids.shape[0] != 1:
        raise ValueError("beam_decode operates on a single sentence")
    caps = length_caps(src_mask, config.max_len_factor, config.max_len_offset)
    return _search(params, src_ids, src_mask, bos_id, eos_id, caps,
                   config.beam_width)[0]


def _rows(x: Tensor, idx: np.ndarray) -> Tensor:
    return ad.constant(x.data[idx], dtype=x.data.dtype)


def _search(params: ModelParams, src_ids: np.ndarray, src_mask: np.ndarray,
            bos_id: int, eos_id: int, caps: np.ndarray, width: int) -> list[list[int]]:
    """Beam search of `width` hypotheses per sentence, the live hypotheses of
    all sentences being the rows of one decoder batch.

    Each live hypothesis offers its `width` best next tokens (lowest id first
    on ties), and each sentence keeps its `width` best offers by float64
    log-probability, then token id, then the parent's rank. An offer of EOS
    is finished and leaves the batch. A sentence stops when none of its
    hypotheses is live, `width` have finished or it reaches its cap; it
    returns the hypothesis with the best length-normalized score, the
    shorter on ties, taken from the live ones only when none finished.
    Width 1 is argmax decoding and reads no scores.
    """
    B = src_ids.shape[0]
    memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
    state = init_decoder_state(params.dec, memory)
    sent = np.arange(B)                       # sentence of each row
    scores = np.zeros(B)                      # float64 log-probability of each row
    paths = np.zeros((B, 0), dtype=np.int64)  # tokens of each row
    prev = np.full(B, bos_id, dtype=np.int64)
    n_finished = np.zeros(B, dtype=int)
    # per sentence, (tokens, score) of the hypotheses it picks from: the
    # finished ones in the order they finished, or, if none finished, the
    # live ones when it stopped
    pools: list[list] = [[] for _ in range(B)]
    for t in range(int(caps.max())):
        logits, state = decode_step(params.dec, state, memory, prev_ids=prev)
        if width == 1:
            # each row is its sentence's one hypothesis, and its argmax survives
            parent, tok, offers = np.arange(len(sent)), logits.data.argmax(axis=-1), scores
        else:
            z = logits.data - logits.data.max(axis=-1, keepdims=True)
            # each row's log-sum-exp in float64, then rounded to the run precision
            lse = [math.log(s) for s in np.exp(z).sum(axis=-1)]
            logp = z - np.array(lse, dtype=z.dtype)[:, None]
            # offers: every token at least as likely as the row's k-th best.
            # Tokens tied with it beyond the row's k lowest ids rank below
            # the row's own k offers, so the cut below drops them.
            k = min(width, logp.shape[1])
            kth = np.partition(logp, -k, axis=-1)[:, -k]
            parent, tok = np.nonzero(logp >= kth[:, None])
            offers = scores[parent] + logp[parent, tok]
            # each sentence's offers best first; its first `width` survive
            order = np.lexsort((parent, tok, -offers, sent[parent]))
            ranked = sent[parent[order]]
            order = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < width]
            parent, tok, offers = parent[order], tok[order], offers[order]
        paths = np.concatenate([paths[parent], tok[:, None]], axis=1)
        owner = sent[parent]
        ended = tok == eos_id
        n_finished += np.bincount(owner[ended], minlength=B)
        stop = (n_finished >= width) | (caps <= t + 1)
        for i in np.flatnonzero(ended | (stop[owner] & (n_finished[owner] == 0))):
            pools[owner[i]].append((paths[i], offers[i]))
        keep = ~ended & ~stop[owner]
        if not keep.any():
            break
        parent, prev, scores, paths = parent[keep], tok[keep], offers[keep], paths[keep]
        state = DecoderState(_rows(state.h, parent), _rows(state.cell, parent))
        if not np.array_equal(owner[keep], sent):
            sent = owner[keep]
            memory = Memory(_rows(memory.annotations, parent),
                            _rows(memory.ann_keys, parent), memory.mask[parent],
                            _rows(memory.summary, parent))

    out = []
    for pool in pools:
        best = max(pool, default=((), 0.0),
                   key=lambda h: (h[1] / max(len(h[0]), 1), -len(h[0])))
        out.append([int(i) for i in best[0]])
    return out


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

_TOKENIZE_RE = re.compile(r"([!-/:-@\[-`{-~])")


def tokenize_13a_approx(line: str, lowercase: bool = True) -> list[str]:
    """Whitespace tokenization with ASCII punctuation split off.

    Approximates the standard "13a" scheme closely enough for toy corpora;
    exact scorer parity is out of scope.
    """
    if lowercase:
        line = line.lower()
    return _TOKENIZE_RE.sub(r" \1 ", line).split()


@dataclass
class BleuStats:
    """Clipped n-gram matches/totals for n=1..4; additive across sentences."""

    matches: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    totals: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    hyp_len: int = 0
    ref_len: int = 0

    def update(self, hyp: list[str], ref: list[str]) -> None:
        self.hyp_len += len(hyp)
        self.ref_len += len(ref)
        for n in range(1, 5):
            hyp_ngrams = Counter(tuple(hyp[i: i + n]) for i in range(len(hyp) - n + 1))
            ref_ngrams = Counter(tuple(ref[i: i + n]) for i in range(len(ref) - n + 1))
            self.totals[n - 1] += max(len(hyp) - n + 1, 0)
            self.matches[n - 1] += sum(min(c, ref_ngrams[g])
                                       for g, c in hyp_ngrams.items())

    def merge(self, other: "BleuStats") -> "BleuStats":
        return BleuStats([a + b for a, b in zip(self.matches, other.matches)],
                         [a + b for a, b in zip(self.totals, other.totals)],
                         self.hyp_len + other.hyp_len,
                         self.ref_len + other.ref_len)

    def score(self) -> float:
        # orders the hypotheses are too short to populate are skipped, so an
        # identical corpus scores 100 regardless of sentence length; a zero
        # match count at any populated order still zeroes the geometric mean
        orders = [(m, t) for m, t in zip(self.matches, self.totals) if t > 0]
        if not orders or any(m == 0 for m, _ in orders):
            return 0.0
        log_prec = sum(math.log(m / t) for m, t in orders) / len(orders)
        bp = 1.0 if self.hyp_len > self.ref_len else math.exp(1.0 - self.ref_len /
                                                              max(self.hyp_len, 1))
        return 100.0 * bp * math.exp(log_prec)


def corpus_bleu(hypotheses: list[str], references: list[str],
                lowercase: bool = True) -> float:
    """Corpus-level 4-gram BLEU with brevity penalty, case-insensitive by default."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    if not hypotheses:
        raise ValueError("empty corpus")
    stats = BleuStats()
    for hyp, ref in zip(hypotheses, references):
        stats.update(tokenize_13a_approx(hyp, lowercase),
                     tokenize_13a_approx(ref, lowercase))
    return stats.score()


# ---------------------------------------------------------------------------
# Perplexity and reporting
# ---------------------------------------------------------------------------

def perplexity(params: ModelParams, corpus: list[ParallelPair], vocab: Vocab,
               batch_size: int = 48) -> float:
    """exp(mean per-token teacher-forced NLL), dropout off."""
    from .model import teacher_forced_nll

    total, tokens = 0.0, 0.0
    for i in range(0, len(corpus), batch_size):
        batch = make_batch(vocab, corpus[i: i + batch_size])
        loss_sum, n = teacher_forced_nll(
            params, batch.src_ids, batch.src_mask, batch.tgt_ids, batch.tgt_mask,
            vocab.bos)
        total += float(loss_sum.data)
        tokens += n
    return float(np.exp(total / tokens))


def decode_corpus(params: ModelParams, vocab: Vocab, pairs: list[ParallelPair],
                  config: DecodeConfig, batch_size: int = 48) -> list[str]:
    """Decode sources to target-language text (tag and EOS stripped)."""
    out: list[str] = []
    dropped = {vocab.token_to_id[t] for t in (*RESERVED, *vocab.language_tags)}
    for i in range(0, len(pairs), batch_size):
        chunk = pairs[i: i + batch_size]
        batch = make_batch(vocab, chunk)
        if config.mode == "beam" and config.beam_width > 1:
            rows = []
            for b in range(batch.size):
                n = int(batch.src_mask[b].sum())
                rows.append(beam_decode(params, batch.src_ids[b: b + 1, :n],
                                        batch.src_mask[b: b + 1, :n],
                                        vocab.bos, vocab.eos, config))
        else:
            rows = greedy_decode(params, batch.src_ids, batch.src_mask,
                                 vocab.bos, vocab.eos, config.max_len_factor,
                                 config.max_len_offset)
        for ids in rows:
            toks = [vocab.id_to_token[i] for i in ids if i not in dropped]
            out.append(" ".join(toks))
    return out


def evaluate_bleu(params: ModelParams, vocab: Vocab, pairs: list[ParallelPair],
                  config: DecodeConfig | None = None) -> float:
    config = config or DecodeConfig()
    hyps = decode_corpus(params, vocab, pairs, config)
    refs = [" ".join(p.target.tokens) for p in pairs]
    return corpus_bleu(hyps, refs)


def delta_bleu_report(baseline_runs: dict[str, dict[int, float]],
                      treatment_runs: dict[str, dict[int, float]]) -> list[dict]:
    """Per-direction mean/std of BLEU and of seed-paired deltas.

    Runs map direction -> {seed: bleu}; seed sets must match across
    conditions so deltas pair up. Std uses ddof=1 (ddof=0 for a single seed).
    """
    rows = []
    for direction in sorted(baseline_runs):
        base = baseline_runs[direction]
        if direction not in treatment_runs:
            raise ValueError(f"missing treatment runs for {direction}")
        treat = treatment_runs[direction]
        if set(base) != set(treat):
            raise ValueError(f"seed sets differ for {direction}: "
                             f"{sorted(base)} vs {sorted(treat)}")
        if len(base) < 2:
            raise ValueError("need at least 2 seeds per condition")
        seeds = sorted(base)
        b = np.array([base[s] for s in seeds])
        t = np.array([treat[s] for s in seeds])
        d = t - b
        rows.append({
            "direction": direction,
            "baseline_mean": float(b.mean()), "baseline_std": float(b.std(ddof=1)),
            "treatment_mean": float(t.mean()), "treatment_std": float(t.std(ddof=1)),
            "delta_mean": float(d.mean()), "delta_std": float(d.std(ddof=1)),
            "seeds": len(seeds),
        })
    return rows


def format_delta_report(rows: list[dict]) -> str:
    header = (f"{'direction':<12} {'baseline':>16} {'treatment':>16} "
              f"{'delta':>16}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['direction']:<12} "
            f"{r['baseline_mean']:>8.2f} ± {r['baseline_std']:<5.2f} "
            f"{r['treatment_mean']:>8.2f} ± {r['treatment_std']:<5.2f} "
            f"{r['delta_mean']:>+8.2f} ± {r['delta_std']:<5.2f}")
    return "\n".join(lines)
