"""Decoding, BLEU and reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrip import autodiff as ad
from roundtrip.data import make_batch
from roundtrip.evaluation import (BleuStats, DecodeConfig, beam_decode,
                                  corpus_bleu, decode_corpus, delta_bleu_report,
                                  greedy_decode, perplexity, tokenize_13a_approx)
from roundtrip.model import ModelConfig, ModelParams, teacher_forced_nll
from roundtrip.sampling import GumbelNoiseSource, STGSConfig, sample_translation

import reference_beam
from conftest import toy_task


def normalized_logprob(params, batch, hyp_ids, bos_id) -> float:
    """Teacher-forced log-probability of a hypothesis per token."""
    tgt_ids = np.array([hyp_ids])
    loss_sum, n_tokens = teacher_forced_nll(
        params, batch.src_ids, batch.src_mask, tgt_ids, np.ones(tgt_ids.shape), bos_id)
    return -float(loss_sum.data) / n_tokens


def tiny_params(vocab_size=9, d=6, seed=0):
    cfg = ModelConfig(vocab_size=vocab_size, d_emb=d, d_hidden=d, d_attention=d,
                      dropout=0.0)
    return ModelParams(cfg, np.random.default_rng(seed))


class TestCorpusBleu:
    def test_identity_scores_100(self):
        hyps = ["the cat sat", "a b c d e"]
        assert corpus_bleu(hyps, list(hyps)) == pytest.approx(100.0)

    def test_hand_derived_brevity_penalty_case(self):
        # precisions 4/4, 3/3, 2/2, 1/1; BP = exp(1 - 5/4)
        bleu = corpus_bleu(["a b c d"], ["a b c d e"])
        assert bleu == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0), abs=0.01)
        assert bleu == pytest.approx(77.88, abs=0.01)

    def test_no_fourgram_overlap_scores_zero(self):
        assert corpus_bleu(["a b c d"], ["w x y z"]) == 0.0
        assert corpus_bleu(["a b c d e"], ["b a d c e"]) == 0.0

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6)
                    .map(" ".join), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_identity_is_100_for_any_nonempty_corpus(self, sents):
        assert corpus_bleu(sents, list(sents)) == pytest.approx(100.0)

    def test_case_insensitive_by_default(self):
        assert corpus_bleu(["The CAT sat here"], ["the cat sat here"]) == 100.0
        assert corpus_bleu(["The CAT sat here"], ["the cat sat here"],
                           lowercase=False) < 100.0

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            corpus_bleu(["a"], ["a", "b"])

    @given(st.lists(st.sampled_from(["a b c d e", "b c d e f", "c d e f g a"]),
                    min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, hyps):
        refs = ["a b c d e f g"] * len(hyps)
        base = corpus_bleu(hyps, refs)
        rng = np.random.default_rng(0)
        order = rng.permutation(len(hyps))
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_stats_are_additive(self):
        a, b = BleuStats(), BleuStats()
        a.update("a b c d".split(), "a b c d e".split())
        b.update("x y z w".split(), "x y z w".split())
        whole = BleuStats()
        whole.update("a b c d".split(), "a b c d e".split())
        whole.update("x y z w".split(), "x y z w".split())
        merged = a.merge(b)
        assert merged.matches == whole.matches
        assert merged.totals == whole.totals
        assert merged.score() == whole.score()

    def test_punctuation_split_tokenizer(self):
        assert tokenize_13a_approx("Hello, world!") == ["hello", ",", "world", "!"]


class TestGreedyAndSampling:
    def test_greedy_equals_beta_zero_on_200_random_sentences(self, fp64):
        params = tiny_params(vocab_size=12, seed=21)
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(25):  # 25 batches x 8 sentences
            lens = rng.integers(1, 6, size=8)
            width = int(lens.max()) + 2
            src_ids = np.zeros((8, width), dtype=np.int64)
            src_mask = np.zeros((8, width))
            for b, n in enumerate(lens):
                toks = rng.integers(6, 12, size=n)
                row = [4] + list(toks) + [2]
                src_ids[b, : len(row)] = row
                src_mask[b, : len(row)] = 1.0
            seq = sample_translation(params, src_ids, src_mask,
                                     GumbelNoiseSource(0.0, 0),
                                     STGSConfig(tau=2.0), bos_id=1, eos_id=2)
            greedy = greedy_decode(params, src_ids, src_mask, bos_id=1, eos_id=2)
            for b in range(8):
                assert seq.token_ids(b) == greedy[b]
                checked += 1
        assert checked == 200

    def test_greedy_respects_cap(self, fp64):
        params = tiny_params()
        src_ids = np.array([[4, 6, 2]])
        src_mask = np.ones((1, 3))
        out = greedy_decode(params, src_ids, src_mask, bos_id=1, eos_id=2,
                            max_len_factor=0, max_len_offset=3)
        assert len(out[0]) <= 3

    def test_overfit_copy_model_translates_identity(self, copy_model):
        params, vocab, data = copy_model
        with ad.using_dtype("fp32"):
            pairs = data["train"][:20]
            hyps = decode_corpus(params, vocab, pairs, DecodeConfig())
            refs = [" ".join(p.target.tokens) for p in pairs]
            assert hyps == refs


def random_batch(rng, n_sents=8, vocab_size=12):
    """Tagged sources of 1-5 tokens, padded to one width: (ids, mask)."""
    lens = rng.integers(1, 6, size=n_sents)
    width = int(lens.max()) + 2
    src_ids = np.zeros((n_sents, width), dtype=np.int64)
    src_mask = np.zeros((n_sents, width))
    for b, n in enumerate(lens):
        row = [4] + list(rng.integers(6, vocab_size, size=n)) + [2]
        src_ids[b, : len(row)] = row
        src_mask[b, : len(row)] = 1.0
    return src_ids, src_mask


def assert_matches_per_sentence_beam(params, src_ids, src_mask, bos, eos):
    """Assert that the batched greedy decode and the beam at widths 1, 2, 3
    and 5 return exactly what the per-sentence reference beam returns, and
    return the number of sentences compared."""
    greedy = greedy_decode(params, src_ids, src_mask, bos, eos)
    for b in range(src_ids.shape[0]):
        n = int(src_mask[b].sum())
        one_ids, one_mask = src_ids[b: b + 1, :n], src_mask[b: b + 1, :n]
        for width in (1, 2, 3, 5):
            cfg = DecodeConfig(mode="beam", beam_width=width)
            want = reference_beam.beam_decode(params, one_ids, one_mask, bos, eos, cfg)
            assert beam_decode(params, one_ids, one_mask, bos, eos, cfg) == want
            if width == 1:
                assert greedy[b] == want
    return src_ids.shape[0]


class TestBeam:
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_matches_per_sentence_beam_on_200_random_sentences(self, precision):
        rng = np.random.default_rng(17)
        checked = 0
        with ad.using_dtype(precision):
            for seed in range(5):  # 5 models x 5 batches x 8 sentences
                params = tiny_params(vocab_size=12, seed=seed)
                for _ in range(5):
                    checked += assert_matches_per_sentence_beam(
                        params, *random_batch(rng), bos=1, eos=2)
        assert checked == 200

    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_matches_per_sentence_beam_with_tied_tokens(self, precision):
        # tokens 2k+1 copy the embedding row of token 2k, so their logits tie
        rng = np.random.default_rng(23)
        with ad.using_dtype(precision):
            params = tiny_params(vocab_size=12, seed=3)
            params.E.data[7::2] = params.E.data[6:-1:2]
            for _ in range(5):
                assert_matches_per_sentence_beam(params, *random_batch(rng), bos=1, eos=2)

    def test_matches_per_sentence_beam_on_copy_model(self, copy_model):
        params, vocab, data = copy_model
        with ad.using_dtype("fp32"):
            batch = make_batch(vocab, data["test"] + data["dev"])
            assert_matches_per_sentence_beam(params, batch.src_ids, batch.src_mask,
                                             vocab.bos, vocab.eos)

    def test_width_one_equals_greedy_on_50_sentences(self, fp64):
        params = tiny_params(vocab_size=12, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            row = [4] + list(rng.integers(6, 12, size=n)) + [2]
            src_ids = np.array([row])
            src_mask = np.ones((1, len(row)))
            greedy = greedy_decode(params, src_ids, src_mask, bos_id=1, eos_id=2)[0]
            beam = beam_decode(params, src_ids, src_mask, bos_id=1, eos_id=2,
                               config=DecodeConfig(mode="beam", beam_width=1))
            assert beam == greedy

    def test_width_five_never_scores_below_greedy(self, copy_model):
        params, vocab, data = copy_model
        with ad.using_dtype("fp32"):
            for p in data["test"][:25]:
                batch = make_batch(vocab, [p])
                greedy = greedy_decode(params, batch.src_ids, batch.src_mask,
                                       vocab.bos, vocab.eos)[0]
                beam = beam_decode(params, batch.src_ids, batch.src_mask,
                                   vocab.bos, vocab.eos,
                                   DecodeConfig(mode="beam", beam_width=5))
                s_g, s_b = (normalized_logprob(params, batch, hyp, vocab.bos)
                            for hyp in (greedy, beam))
                assert s_b >= s_g - 1e-9

    def test_deterministic_across_runs(self, fp64):
        params = tiny_params(seed=9)
        src_ids = np.array([[4, 7, 8, 2]])
        src_mask = np.ones((1, 4))
        cfg = DecodeConfig(mode="beam", beam_width=4)
        a = beam_decode(params, src_ids, src_mask, 1, 2, cfg)
        b = beam_decode(params, src_ids, src_mask, 1, 2, cfg)
        assert a == b

    def test_rejects_batched_input(self, fp64):
        params = tiny_params()
        with pytest.raises(ValueError):
            beam_decode(params, np.zeros((2, 3), dtype=int), np.ones((2, 3)),
                        1, 2, DecodeConfig(mode="beam", beam_width=2))

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            DecodeConfig(mode="beam", beam_width=0)


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self, fp64):
        data, vocab = toy_task(size=30, dev_size=6, test_size=6)
        params = ModelParams(
            ModelConfig(vocab_size=len(vocab), d_emb=8, d_hidden=8,
                        d_attention=8, dropout=0.0), np.random.default_rng(0))
        params.E.data[:] = 0.0
        ppl = perplexity(params, data["dev"], vocab)
        assert ppl == pytest.approx(len(vocab), abs=1e-6)

    def test_trained_model_beats_uniform(self, copy_model):
        params, vocab, data = copy_model
        with ad.using_dtype("fp32"):
            assert perplexity(params, data["dev"], vocab) < len(vocab) / 4


class TestDeltaBleuReport:
    def test_paired_delta_math(self):
        base = {"en-sw": {1: 33.60, 2: 33.50, 3: 33.70}}
        treat = {"en-sw": {1: 33.92, 2: 33.80, 3: 34.06}}
        rows = delta_bleu_report(base, treat)
        r = rows[0]
        deltas = np.array([0.32, 0.30, 0.36])
        assert r["delta_mean"] == pytest.approx(deltas.mean())
        assert r["delta_std"] == pytest.approx(deltas.std(ddof=1))
        # std over paired deltas, not difference of stds
        assert r["delta_std"] != pytest.approx(
            np.std([33.92, 33.80, 34.06], ddof=1)
            - np.std([33.60, 33.50, 33.70], ddof=1))

    def test_identical_runs_give_zero_delta(self):
        runs = {"a-b": {1: 50.0, 2: 60.0}}
        rows = delta_bleu_report(runs, {"a-b": {1: 50.0, 2: 60.0}})
        assert rows[0]["delta_mean"] == 0.0
        assert rows[0]["delta_std"] == 0.0

    def test_mismatched_seed_sets_error(self):
        with pytest.raises(ValueError, match="seed sets differ"):
            delta_bleu_report({"d": {1: 1.0, 2: 2.0}}, {"d": {1: 1.0, 3: 2.0}})

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError, match="at least 2 seeds"):
            delta_bleu_report({"d": {1: 1.0}}, {"d": {1: 2.0}})

    def test_report_formatting(self):
        rows = delta_bleu_report({"d": {1: 30.0, 2: 31.0}},
                                 {"d": {1: 30.5, 2: 31.5}})
        from roundtrip.evaluation import format_delta_report

        text = format_delta_report(rows)
        assert "d" in text and "+0.50" in text
