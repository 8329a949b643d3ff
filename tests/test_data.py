"""Corpus construction, vocab round-trips, batching and masking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrip import autodiff as ad
from roundtrip.data import (ParallelPair, TaggedSentence, Vocab,
                            build_bidirectional_corpus, filter_by_length,
                            load_parallel, make_batch, make_batches)


def pair(src_tokens, tgt_tokens, src_lang="sw", tgt_lang="en"):
    return ParallelPair(TaggedSentence(src_lang, tuple(src_tokens)),
                        TaggedSentence(tgt_lang, tuple(tgt_tokens)))


class TestBidirectionalCorpus:
    def test_single_pair_swap(self):
        out = build_bidirectional_corpus([pair(["a"], ["b"])])
        assert len(out) == 2
        assert out[0].source.tagged() == ["<sw>", "a"]
        assert out[0].target.tagged() == ["<en>", "b"]
        assert out[1].source.tagged() == ["<en>", "b"]
        assert out[1].target.tagged() == ["<sw>", "a"]

    def test_empty_input(self):
        assert build_bidirectional_corpus([]) == []

    def test_doubles_instance_count_at_reported_scale(self):
        pairs = [pair([f"s{i}"], [f"t{i}"]) for i in range(60_570)]
        assert len(build_bidirectional_corpus(pairs)) == 121_140

    def test_order_preserved_within_halves(self):
        pairs = [pair([f"s{i}"], [f"t{i}"]) for i in range(5)]
        out = build_bidirectional_corpus(pairs)
        assert [p.source.tokens[0] for p in out[:5]] == [f"s{i}" for i in range(5)]
        assert [p.source.tokens[0] for p in out[5:]] == [f"t{i}" for i in range(5)]

    def test_untagged_sentence_rejected(self):
        with pytest.raises(ValueError):
            ParallelPair(TaggedSentence("", ("a",)), TaggedSentence("en", ("b",)))

    def test_same_tag_both_sides_rejected(self):
        with pytest.raises(ValueError):
            pair(["a"], ["b"], src_lang="en", tgt_lang="en")

    @given(st.lists(st.tuples(st.text(alphabet="abc", min_size=1, max_size=3),
                              st.text(alphabet="xyz", min_size=1, max_size=3)),
                    min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_swap_append_is_involution(self, token_pairs):
        pairs = [pair([s], [t]) for s, t in token_pairs]
        out = build_bidirectional_corpus(pairs)
        assert len(out) == 2 * len(pairs)
        for orig, swapped in zip(out[: len(pairs)], out[len(pairs):]):
            assert swapped.swapped() == orig


class TestFilterByLength:
    def test_over_limit_dropped(self):
        p = pair(["w"] * 81, ["w"] * 5)
        assert filter_by_length([p], 80) == []

    def test_boundary_kept(self):
        p = pair(["w"] * 80, ["w"] * 80)
        assert filter_by_length([p], 80) == [p]

    def test_tag_not_counted(self):
        p = pair(["w"] * 80, ["w"] * 3)  # tagged length is 81
        assert filter_by_length([p], 80) == [p]

    def test_all_short_is_identity(self):
        pairs = [pair(["a"], ["b"]), pair(["c", "d"], ["e"])]
        assert filter_by_length(pairs, 80) == pairs

    def test_invalid_max_len(self):
        with pytest.raises(ValueError):
            filter_by_length([], 0)


class TestVocab:
    def test_roundtrip_identity_on_known_text(self):
        v = Vocab(["<en>", "<sw>", "hello", "world"])
        toks = ["<en>", "hello", "world", "hello"]
        assert v.decode(v.encode(toks)) == toks

    def test_reserved_ids_distinct_and_stable(self):
        v = Vocab(["<en>", "<sw>", "tok"])
        assert len({v.pad, v.bos, v.eos, v.unk}) == 4
        assert (v.pad, v.bos, v.eos, v.unk) == (0, 1, 2, 3)

    def test_language_tags_exclude_reserved_tokens(self):
        v = Vocab(["<en>", "<sw>", "tok"])
        assert v.language_tags == ["<en>", "<sw>"]

    def test_oov_maps_to_unk(self):
        v = Vocab(["<en>", "<sw>", "tok"])
        assert v.encode(["never-seen"]) == [v.unk]

    def test_build_is_deterministic(self):
        pairs = [pair(["b", "a", "a"], ["x"]), pair(["a"], ["y", "x"])]
        v1 = Vocab.build(pairs)
        v2 = Vocab.build(list(pairs))
        assert v1.id_to_token == v2.id_to_token
        # frequency order: "a" (3) before "x" (2) before "b"/"y" (1 each)
        assert v1.token_to_id["a"] < v1.token_to_id["x"] < v1.token_to_id["b"]

    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1,
                    max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_property(self, tokens):
        v = Vocab(["<en>", "<sw>", "aa", "bb", "cc", "dd"])
        assert v.decode(v.encode(tokens)) == tokens


class TestBatches:
    def _corpus(self, n):
        return [pair([f"s{i}", "k"], [f"t{i}"]) for i in range(n)]

    def _vocab(self, corpus):
        return Vocab.build(corpus)

    def test_96_sentences_two_batches(self):
        corpus = self._corpus(96)
        batches = make_batches(corpus, self._vocab(corpus), 48, seed=0)
        assert [b.size for b in batches] == [48, 48]

    def test_49_sentences_splits_48_1(self):
        corpus = self._corpus(49)
        batches = make_batches(corpus, self._vocab(corpus), 48, seed=0)
        assert [b.size for b in batches] == [48, 1]

    def test_same_seed_identical_sequence(self):
        corpus = self._corpus(30)
        v = self._vocab(corpus)
        a = make_batches(corpus, v, 8, seed=7)
        b = make_batches(corpus, v, 8, seed=7)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.src_ids, bb.src_ids)
            assert np.array_equal(ba.tgt_ids, bb.tgt_ids)

    def test_every_sentence_appears_exactly_once(self):
        corpus = self._corpus(30)
        v = self._vocab(corpus)
        batches = make_batches(corpus, v, 7, seed=1)
        seen = []
        for b in batches:
            for row, mask in zip(b.src_ids, b.src_mask):
                seen.append(tuple(row[mask.astype(bool)]))
        expected = sorted(tuple(make_batch(v, [p]).src_ids[0]) for p in corpus)
        assert sorted(seen) == expected

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            make_batches([], Vocab(["<a>", "<b>"]), 4, seed=0)

    def test_masks_are_binary_and_pad_is_masked(self):
        corpus = [pair(["a"], ["b", "c", "d"]), pair(["e", "f"], ["g"])]
        v = Vocab.build(corpus)
        batch = make_batch(v, corpus)
        for mask in (batch.src_mask, batch.tgt_mask):
            assert set(np.unique(mask)) <= {0.0, 1.0}
        assert np.all(batch.tgt_ids[batch.tgt_mask == 0] == v.pad)


class TestPadContributesNothing:
    # The output projection is tied to the embedding matrix, so the PAD row
    # is also a softmax class row and cannot be perturbed in isolation; the
    # masking invariant is checked by swapping the *content* of masked
    # positions instead, which must leave the loss bit-identical.
    def test_masked_positions_contribute_exactly_zero(self, fp64):
        from roundtrip.model import ModelConfig, ModelParams, teacher_forced_nll

        corpus = [pair(["a", "b"], ["c"]), pair(["a"], ["c", "b", "a"])]
        v = Vocab.build(corpus)
        batch = make_batch(v, corpus)
        params = ModelParams(
            ModelConfig(vocab_size=len(v), d_emb=8, d_hidden=8, d_attention=8,
                        dropout=0.0), np.random.default_rng(0))
        loss1, *_ = teacher_forced_nll(params, batch.src_ids, batch.src_mask,
                                       batch.tgt_ids, batch.tgt_mask, v.bos)
        src2 = batch.src_ids.copy()
        tgt2 = batch.tgt_ids.copy()
        other = v.token_to_id["a"]
        src2[batch.src_mask == 0] = other
        tgt2[batch.tgt_mask == 0] = other
        assert not np.array_equal(src2, batch.src_ids)
        loss2, *_ = teacher_forced_nll(params, src2, batch.src_mask,
                                       tgt2, batch.tgt_mask, v.bos)
        assert float(loss1.data) == float(loss2.data)

    def test_pad_gradient_only_flows_through_output_tying(self, fp64):
        from roundtrip import autodiff as ad
        from roundtrip.model import ModelConfig, ModelParams, teacher_forced_nll

        corpus = [pair(["a", "b"], ["c"]), pair(["a"], ["c", "b", "a"])]
        v = Vocab.build(corpus)
        batch = make_batch(v, corpus)
        params = ModelParams(
            ModelConfig(vocab_size=len(v), d_emb=8, d_hidden=8, d_attention=8,
                        dropout=0.0), np.random.default_rng(0))
        with ad.Tape() as tape:
            loss, *_ = teacher_forced_nll(params, batch.src_ids, batch.src_mask,
                                          batch.tgt_ids, batch.tgt_mask, v.bos)
            ad.backward(tape, loss)
        # the PAD row receives softmax-normalization gradient from the tied
        # output projection, but no input-embedding gradient: its gradient
        # must equal -sum over predicted steps of P(pad) * d logits
        assert params.E.grad is not None
        assert np.all(np.isfinite(params.E.grad[v.pad]))


class TestLoadParallel:
    def test_aligned_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("Hello World\nsecond LINE\n")
        (tmp_path / "b.txt").write_text("bonjour monde\ndeuxieme ligne\n")
        pairs = load_parallel(str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                              "en", "fr")
        assert len(pairs) == 2
        assert pairs[0].source.tokens == ("hello", "world")  # lowercased
        assert pairs[0].source.lang == "en"

    def test_mismatched_lengths_error(self, tmp_path):
        (tmp_path / "a.txt").write_text("one\ntwo\n")
        (tmp_path / "b.txt").write_text("un\n")
        with pytest.raises(ValueError):
            load_parallel(str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                          "en", "fr")
