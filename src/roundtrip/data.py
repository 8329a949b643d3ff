"""Corpus handling: tagged sentences, bi-directional swap-append, vocab, batches.

Source and target sides both carry a language tag as their first token; the
tag is an ordinary vocabulary entry and is counted by the loss, not by the
length filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)


def lang_tag(lang: str) -> str:
    return f"<{lang}>"


@dataclass(frozen=True)
class TaggedSentence:
    lang: str
    tokens: tuple[str, ...]

    def tagged(self) -> list[str]:
        return [lang_tag(self.lang), *self.tokens]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ParallelPair:
    source: TaggedSentence
    target: TaggedSentence

    def __post_init__(self):
        if not self.source.tokens or not self.target.tokens:
            raise ValueError("both sides of a pair must be non-empty")
        if not self.source.lang or not self.target.lang:
            raise ValueError("both sides of a pair must carry a language tag")
        if self.source.lang == self.target.lang:
            raise ValueError("source and target tags must differ")

    def swapped(self) -> "ParallelPair":
        return ParallelPair(self.target, self.source)


def build_bidirectional_corpus(pairs: Sequence[ParallelPair]) -> list[ParallelPair]:
    """Append the element-wise swap of the corpus to itself."""
    return list(pairs) + [p.swapped() for p in pairs]


def filter_by_length(pairs: Iterable[ParallelPair], max_len: int) -> list[ParallelPair]:
    """Drop pairs where either side exceeds max_len tokens (tag not counted)."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [p for p in pairs if len(p.source) <= max_len and len(p.target) <= max_len]


class Vocab:
    """Bijective token<->id map with reserved ids for PAD/BOS/EOS/UNK."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED)
        seen = set(RESERVED)
        for tok in tokens:
            if tok in seen:
                raise ValueError(f"duplicate vocabulary token {tok!r}")
            seen.add(tok)
            self.id_to_token.append(tok)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, tok: str) -> bool:
        return tok in self.token_to_id

    @property
    def pad(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk(self) -> int:
        return self.token_to_id[UNK]

    @property
    def language_tags(self) -> list[str]:
        """The `<lang>` tag tokens, in id order; reserved tokens are not tags."""
        return [t for t in self.id_to_token[len(RESERVED):]
                if t.startswith("<") and t.endswith(">")]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        unk = self.unk
        return [self.token_to_id.get(t, unk) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    @classmethod
    def build(cls, pairs: Sequence[ParallelPair]) -> "Vocab":
        """Vocabulary over both sides, tags included, ordered by frequency."""
        from collections import Counter

        counts: Counter[str] = Counter()
        tags = set()
        for p in pairs:
            tags.add(lang_tag(p.source.lang))
            tags.add(lang_tag(p.target.lang))
            counts.update(p.source.tokens)
            counts.update(p.target.tokens)
        ordered = sorted(tags) + [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        return cls(ordered)


@dataclass
class Batch:
    """Padded id matrices with 0/1 masks; PAD positions never reach the loss."""

    src_ids: np.ndarray
    src_mask: np.ndarray
    tgt_ids: np.ndarray
    tgt_mask: np.ndarray

    @property
    def size(self) -> int:
        return self.src_ids.shape[0]

    @property
    def target_tokens(self) -> int:
        return int(self.tgt_mask.sum())


def encode_source(vocab: Vocab, sent: TaggedSentence) -> list[int]:
    return vocab.encode(sent.tagged()) + [vocab.eos]


def encode_target(vocab: Vocab, sent: TaggedSentence) -> list[int]:
    # decoder must predict the tag first and EOS last
    return vocab.encode(sent.tagged()) + [vocab.eos]


def _pad(rows: list[list[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return ids, mask


def make_batch(vocab: Vocab, pairs: Sequence[ParallelPair]) -> Batch:
    src = [encode_source(vocab, p.source) for p in pairs]
    tgt = [encode_target(vocab, p.target) for p in pairs]
    src_ids, src_mask = _pad(src, vocab.pad)
    tgt_ids, tgt_mask = _pad(tgt, vocab.pad)
    return Batch(src_ids, src_mask, tgt_ids, tgt_mask)


def make_batches(corpus: Sequence[ParallelPair], vocab: Vocab, batch_size: int,
                 seed: int) -> list[Batch]:
    """Seed-deterministic shuffle, then fixed-size chunks (last may be short)."""
    if not corpus:
        raise ValueError("cannot batch an empty corpus")
    order = np.random.default_rng([seed, 0x0BA7C4]).permutation(len(corpus))
    shuffled = [corpus[i] for i in order]
    return [make_batch(vocab, shuffled[i: i + batch_size])
            for i in range(0, len(shuffled), batch_size)]


def load_parallel(src_path: str, tgt_path: str, src_lang: str, tgt_lang: str,
                  lowercase: bool = True) -> list[ParallelPair]:
    """Read two aligned one-sentence-per-line files into tagged pairs."""
    with open(src_path, encoding="utf-8") as fh:
        src_lines = fh.read().splitlines()
    with open(tgt_path, encoding="utf-8") as fh:
        tgt_lines = fh.read().splitlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"corpus sides differ in length: {len(src_lines)} vs {len(tgt_lines)}")
    pairs = []
    for s, t in zip(src_lines, tgt_lines):
        if lowercase:
            s, t = s.lower(), t.lower()
        s_toks, t_toks = tuple(s.split()), tuple(t.split())
        if not s_toks or not t_toks:
            continue
        pairs.append(ParallelPair(TaggedSentence(src_lang, s_toks),
                                  TaggedSentence(tgt_lang, t_toks)))
    return pairs
