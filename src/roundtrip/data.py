"""Corpus handling: tagged sentences, bi-directional swap-append, vocab, batches.

Pairs hold words; the vocab segments them into the model's subword pieces
and joins pieces back into words. Both sides carry a language tag as their
first token; the tag is an ordinary vocabulary entry, never segmented, and
is counted by the loss, not by the length filter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bpe import SubwordModel, desegment

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)


def lang_tag(lang: str) -> str:
    return f"<{lang}>"


def tag_lang(tag: str) -> str:
    """The language of a tag `lang_tag` made."""
    return tag[1:-1]


@dataclass(frozen=True)
class TaggedSentence:
    lang: str
    tokens: tuple[str, ...]

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


def filter_by_length(pairs: Iterable[ParallelPair], max_len: int,
                     subword: SubwordModel = SubwordModel()) -> list[ParallelPair]:
    """Drop pairs where either side exceeds max_len tokens (tag not counted),
    counted as `subword` segments them."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [p for p in pairs
            if len(subword.segment(p.source.tokens)) <= max_len
            and len(subword.segment(p.target.tokens)) <= max_len]


class Vocab:
    """The token space: a bijective token<->id map with reserved ids for
    PAD/BOS/EOS/UNK, which tokens are language tags, and the subword merges
    that split words into its pieces (none: a word is one token)."""

    def __init__(self, tokens: Sequence[str], tags: Sequence[str] = (),
                 merges: Sequence[tuple[str, str]] = ()):
        self.id_to_token: list[str] = list(RESERVED)
        seen = set(RESERVED)
        for tok in tokens:
            if tok in seen:
                raise ValueError(f"duplicate vocabulary token {tok!r}")
            seen.add(tok)
            self.id_to_token.append(tok)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        self.tags = list(tags)
        if any(t not in self.token_to_id or t in RESERVED for t in self.tags):
            raise ValueError(f"language tags {self.tags} must be vocabulary "
                             "tokens other than the reserved ones")
        self.subword = SubwordModel(merges)
        self.merges = self.subword.merges
        self._dropped = frozenset(range(len(RESERVED))).union(
            self.token_to_id[t] for t in self.tags)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vocab) and self.id_to_token == other.id_to_token
                and self.tags == other.tags and self.merges == other.merges)

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

    def encode(self, words: Iterable[str]) -> list[int]:
        """Ids of the words' pieces; a piece outside the vocab is UNK."""
        unk = self.unk
        return [self.token_to_id.get(t, unk) for t in self.subword.segment(words)]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Words of the ids: reserved tokens and tags dropped, pieces joined."""
        pieces = [self.id_to_token[i] for i in ids if i not in self._dropped]
        return desegment(pieces) if self.merges else pieces

    @classmethod
    def build(cls, pairs: Sequence[ParallelPair],
              subword: SubwordModel = SubwordModel()) -> "Vocab":
        """Vocabulary over both sides' pieces as `subword` segments them,
        ordered by frequency, after the pairs' language tags, sorted. The
        vocab keeps `subword`, so a word that model has segmented already is
        not segmented again."""
        counts: Counter[str] = Counter()
        tags = set()
        for p in pairs:
            tags.add(lang_tag(p.source.lang))
            tags.add(lang_tag(p.target.lang))
            counts.update(subword.segment(p.source.tokens))
            counts.update(subword.segment(p.target.tokens))
        ordered = [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        vocab = cls(sorted(tags) + ordered, sorted(tags), subword.merges)
        vocab.subword = subword
        return vocab


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


def encode_sentence(vocab: Vocab, sent: TaggedSentence) -> list[int]:
    """Tag, pieces, EOS: a source as the encoder reads it, and a target as the
    decoder predicts it, the tag first and EOS last. The tag is never
    segmented, and a language the vocab holds no tag for is an error."""
    tag = lang_tag(sent.lang)
    if tag not in vocab.tags:
        raise ValueError(f"language {sent.lang!r} unknown to the vocab")
    return [vocab.token_to_id[tag], *vocab.encode(sent.tokens), vocab.eos]


def _pad(rows: list[list[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return ids, mask


def _batch(src: list[list[int]], tgt: list[list[int]], pad_id: int) -> Batch:
    return Batch(*_pad(src, pad_id), *_pad(tgt, pad_id))


def make_batch(vocab: Vocab, pairs: Sequence[ParallelPair]) -> Batch:
    return _batch([encode_sentence(vocab, p.source) for p in pairs],
                  [encode_sentence(vocab, p.target) for p in pairs], vocab.pad)


def length_ordered_batches(vocab: Vocab, pairs: Sequence[ParallelPair],
                           batch_size: int) -> Iterator[tuple[list[int], Batch]]:
    """The pairs in a stable order of (source length, target length), counted
    in the vocab's pieces, cut into batches of `batch_size` (the last may be
    short), each with its rows' positions in `pairs`. Pairs of like length
    share a batch, so little of it is padding. This is for scoring and
    decoding, where which pairs share a batch changes nothing but rounding;
    training batches are `make_batches`'."""
    src = [encode_sentence(vocab, p.source) for p in pairs]
    tgt = [encode_sentence(vocab, p.target) for p in pairs]
    order = sorted(range(len(pairs)), key=lambda i: (len(src[i]), len(tgt[i])))
    for start in range(0, len(order), batch_size):
        rows = order[start: start + batch_size]
        yield rows, _batch([src[i] for i in rows], [tgt[i] for i in rows], vocab.pad)


class LazyBatches:
    """The batches of fixed-size chunks of `pairs` (the last may be short),
    batch i built when first asked for and kept."""

    def __init__(self, pairs: list[ParallelPair], vocab: Vocab, batch_size: int):
        self._pairs, self._vocab, self._batch_size = pairs, vocab, batch_size
        self._built: list[Batch | None] = [None] * -(-len(pairs) // batch_size)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i: int) -> Batch:
        i = range(len(self._built))[i]  # IndexError past the end ends iteration
        if self._built[i] is None:
            start = i * self._batch_size
            self._built[i] = make_batch(
                self._vocab, self._pairs[start: start + self._batch_size])
        return self._built[i]


def make_batches(corpus: Sequence[ParallelPair], vocab: Vocab, batch_size: int,
                 seed: int) -> LazyBatches:
    """Seed-deterministic shuffle, then fixed-size chunks (last may be short),
    each batched when first asked for."""
    if not corpus:
        raise ValueError("cannot batch an empty corpus")
    order = np.random.default_rng([seed, 0x0BA7C4]).permutation(len(corpus))
    return LazyBatches([corpus[i] for i in order], vocab, batch_size)


def load_parallel(src_path: str, tgt_path: str, src_lang: str,
                  tgt_lang: str) -> list[ParallelPair]:
    """Read two aligned one-sentence-per-line files into lowercased tagged pairs."""
    with open(src_path, encoding="utf-8") as fh:
        src_lines = fh.read().splitlines()
    with open(tgt_path, encoding="utf-8") as fh:
        tgt_lines = fh.read().splitlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"corpus sides differ in length: {len(src_lines)} vs {len(tgt_lines)}")
    pairs = []
    for s, t in zip(src_lines, tgt_lines):
        s_toks, t_toks = tuple(s.lower().split()), tuple(t.lower().split())
        if not s_toks or not t_toks:
            continue
        pairs.append(ParallelPair(TaggedSentence(src_lang, s_toks),
                                  TaggedSentence(tgt_lang, t_toks)))
    return pairs
