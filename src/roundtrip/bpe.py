"""Byte-pair-encoding subword segmentation learned jointly over both languages.

Merges are learned at word level (no end-of-word marker); segmented words use
"@@ " continuation so that undoing segmentation is exact.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class SubwordModel:
    """Ordered merge table; zero merges means identity segmentation."""

    merges: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        # merges may come back from JSON as lists; the rank table keys tuples
        self.merges = [tuple(m) for m in self.merges]
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        # word -> its emitted pieces; batching segments the same words every epoch
        self._pieces: dict[str, tuple[str, ...]] = {}

    def segment_word(self, word: str) -> list[str]:
        """Merge the word's lowest-ranked adjacent pair, leftmost first, until
        no adjacent pair is a merge."""
        if not self.merges:
            return [word]
        symbols = list(word)
        while True:
            ranked = [(self._ranks[p], i) for i, p in enumerate(zip(symbols, symbols[1:]))
                      if p in self._ranks]
            if not ranked:
                return symbols
            _, i = min(ranked)
            symbols[i: i + 2] = [symbols[i] + symbols[i + 1]]

    def segment(self, tokens: Iterable[str]) -> list[str]:
        if not self.merges:
            return list(tokens)
        out: list[str] = []
        for tok in tokens:
            pieces = self._pieces.get(tok)
            if pieces is None:
                split = self.segment_word(tok)
                pieces = tuple(p + "@@" for p in split[:-1]) + (split[-1],)
                self._pieces[tok] = pieces
            out.extend(pieces)
        return out


def desegment(tokens: Iterable[str]) -> list[str]:
    """Invert segment(): join "@@"-continued pieces back into words; a
    continued piece at the end ends a word."""
    return re.sub(r"@@( |$)", "", " ".join(tokens)).split()


def learn_subword_model(corpus: Iterable[list[str]], merges: int) -> SubwordModel:
    """Greedy pair-count BPE over a pooled token stream.

    Ties break on the lexicographically smallest pair so the merge table is
    deterministic. merges=0 returns the identity model.
    """
    if merges < 0:
        raise ValueError("merges must be >= 0")
    word_counts: Counter[tuple[str, ...]] = Counter()
    for tokens in corpus:
        for tok in tokens:
            word_counts[tuple(tok)] += 1
    if not word_counts:
        raise ValueError("cannot learn a subword model from an empty corpus")

    vocab = dict(word_counts)
    table: list[tuple[str, str]] = []
    for _ in range(merges):
        pair_counts: Counter[tuple[str, str]] = Counter()
        for symbols, count in vocab.items():
            for i in range(len(symbols) - 1):
                pair_counts[(symbols[i], symbols[i + 1])] += count
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        table.append(best)
        merged = best[0] + best[1]
        new_vocab: Counter[tuple[str, ...]] = Counter()
        for symbols, count in vocab.items():
            out = []
            i = 0
            while i < len(symbols):
                if i < len(symbols) - 1 and (symbols[i], symbols[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            new_vocab[tuple(out)] += count
        vocab = new_vocab
    return SubwordModel(table)
