"""Gumbel noise, Gumbel-Max sampling, straight-through estimator."""

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip.autodiff import Tape, Tensor, backward, grad_check
from roundtrip.evaluation import greedy_decode
from roundtrip.model import ModelConfig, ModelParams
from roundtrip.sampling import (GumbelNoiseSource, STGSConfig, gumbel_max_step,
                                sample_gumbel, sample_translation, stgs_combine)

EULER_MASCHERONI = 0.5772156649


def tiny_params(vocab_size=9, d=6, seed=0):
    cfg = ModelConfig(vocab_size=vocab_size, d_emb=d, d_hidden=d, d_attention=d,
                      dropout=0.0)
    return ModelParams(cfg, np.random.default_rng(seed))


class TestSampleGumbel:
    def test_fixed_point_at_one_over_e(self):
        # u = 1/e gives -log(-log u) = -log(1) = 0 for any beta
        class FixedRng:
            def random(self, shape):
                return np.full(shape, 1.0 / np.e)

        out = sample_gumbel((3,), 2.5, FixedRng())
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_beta_zero_is_exactly_zero(self):
        out = sample_gumbel((4, 5), 0.0, np.random.default_rng(0))
        assert np.array_equal(out, np.zeros((4, 5)))

    def test_beta_zero_does_not_consume_rng(self):
        rng = np.random.default_rng(3)
        sample_gumbel((100,), 0.0, rng)
        a = rng.random(4)
        b = np.random.default_rng(3).random(4)
        assert np.array_equal(a, b)

    def test_monte_carlo_mean_is_euler_mascheroni(self, fp64):
        rng = np.random.default_rng(42)
        samples = sample_gumbel((1_000_000,), 1.0, rng)
        assert samples.mean() == pytest.approx(EULER_MASCHERONI, abs=0.01)

    def test_beta_scales_linearly(self, fp64):
        a = sample_gumbel((50,), 1.0, np.random.default_rng(5))
        b = sample_gumbel((50,), 2.0, np.random.default_rng(5))
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_fp32_uniform_that_rounds_to_one_gives_finite_noise(self):
        # 1 - 2^-26 rounds to 1.0 in float32; the clamp must bring it below 1
        class NearOneRng:
            def random(self, shape):
                return np.full(shape, 1.0 - 2.0 ** -26)

        with ad.using_dtype("fp32"):
            out = sample_gumbel((4,), 0.5, NearOneRng())
        top = np.nextafter(np.float32(1), np.float32(0))
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, -0.5 * np.log(-np.log(np.full(4, top))))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            sample_gumbel((1,), -0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GumbelNoiseSource(-1.0, 0)


class TestGumbelMaxStep:
    def test_zero_noise_is_greedy(self):
        out = gumbel_max_step(np.array([2.0, 1.0]), np.zeros(2))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_noise_flips_argmax(self):
        out = gumbel_max_step(np.array([0.0, 0.0]), np.array([0.1, 0.9]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_ties_break_to_lowest_index(self):
        out = gumbel_max_step(np.array([1.0, 1.0, 1.0]), np.zeros(3))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_non_finite_logits_error(self):
        with pytest.raises(ValueError):
            gumbel_max_step(np.array([np.nan, 1.0]), np.zeros(2))

    def test_sampling_distribution_matches_softmax(self, fp64):
        logits = np.array([0.5, -0.3, 1.2, 0.0])
        rng = np.random.default_rng(7)
        n = 100_000
        noise = sample_gumbel((n, 4), 1.0, rng)
        hard = gumbel_max_step(np.tile(logits, (n, 1)), noise)
        freq = hard.mean(axis=0)
        probs = ad.stable_softmax(Tensor(logits)).data
        np.testing.assert_allclose(freq, probs, atol=0.01)

    def test_beta_tempers_the_sampling_distribution(self, fp64):
        # Gumbel(0, beta) noise selects with probability softmax(logits/beta)
        logits = np.array([1.0, 0.0, -0.5, 0.4])
        beta = 2.0
        n = 100_000
        noise = sample_gumbel((n, 4), beta, np.random.default_rng(8))
        freq = gumbel_max_step(np.tile(logits, (n, 1)), noise).mean(axis=0)
        probs = ad.stable_softmax(Tensor(logits / beta)).data
        np.testing.assert_allclose(freq, probs, atol=0.01)


class TestStgsCombine:
    def test_tie_forward_hard_backward_soft(self, fp64):
        logits = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        with Tape() as tape:
            st = stgs_combine(logits, np.zeros((1, 2)), tau=2.0)
            loss = ad.reduce_sum(ad.mul(st, ad.constant(np.array([[1.0, 0.0]]))))
        soft = stgs_combine(logits, np.zeros((1, 2)), tau=2.0, soft_forward=True)
        np.testing.assert_array_equal(st.data, [[1.0, 0.0]])
        np.testing.assert_allclose(soft.data, [[0.5, 0.5]])
        backward(tape, loss)
        # gradient equals the softmax jacobian row: p * (g - g.p) / tau
        expected = np.array([[0.5 * 0.5, -0.5 * 0.5]]) / 2.0
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12)

    def test_gradient_equals_soft_path_finite_differences(self, fp64):
        rng = np.random.default_rng(11)
        noise = sample_gumbel((2, 6), 1.0, np.random.default_rng(12))
        fixed = ad.constant(rng.standard_normal((2, 6)))

        def f(x):
            st = stgs_combine(x, noise, tau=2.0, soft_forward=True)
            return ad.reduce_sum(ad.mul(st, fixed))

        point = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        assert grad_check(f, point, 1e-5) < 1e-5

    def test_hard_and_soft_modes_share_gradients(self, fp64):
        rng = np.random.default_rng(4)
        noise = sample_gumbel((1, 5), 1.0, np.random.default_rng(5))
        fixed = ad.constant(rng.standard_normal((1, 5)))
        grads = []
        for soft_forward in (False, True):
            logits = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
            data = logits.data.copy()
            with Tape() as tape:
                st = stgs_combine(logits, noise, 2.0, soft_forward=soft_forward)
                loss = ad.reduce_sum(ad.mul(st, fixed))
            backward(tape, loss)
            grads.append((data, logits.grad))
        # same point gives the same backward regardless of forward mode
        logits2 = Tensor(grads[0][0], requires_grad=True)
        with Tape() as tape:
            st = stgs_combine(logits2, noise, 2.0, soft_forward=True)
            loss = ad.reduce_sum(ad.mul(st, fixed))
        backward(tape, loss)
        np.testing.assert_allclose(grads[0][1], logits2.grad, rtol=1e-12)

    def test_small_tau_approaches_hard(self, fp64):
        logits = Tensor(np.array([[3.0, 0.0, -1.0]]))
        st = stgs_combine(logits, np.zeros((1, 3)), tau=1e-3)
        soft = stgs_combine(logits, np.zeros((1, 3)), tau=1e-3, soft_forward=True)
        np.testing.assert_allclose(soft.data, st.data, atol=1e-6)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            stgs_combine(Tensor(np.zeros((1, 2))), np.zeros((1, 2)), tau=0.0)
        with pytest.raises(ValueError):
            STGSConfig(tau=-1.0)


def toy_source(params, n=2):
    # [tag, w.., eos] rows with different lengths
    src_ids = np.array([[4, 6, 7, 8, 2], [5, 8, 6, 2, 0]])[:n]
    src_mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 1, 0]])[:n]
    return src_ids, src_mask


class TestSampleTranslation:
    def test_beta_zero_equals_greedy(self, fp64):
        params = tiny_params(seed=9)
        src_ids, src_mask = toy_source(params)
        noise = GumbelNoiseSource(0.0, 123)
        seq = sample_translation(params, src_ids, src_mask, noise,
                                 STGSConfig(tau=2.0), bos_id=1, eos_id=2)
        greedy = greedy_decode(params, src_ids, src_mask, bos_id=1, eos_id=2)
        for b in range(2):
            assert seq.token_ids(b) == greedy[b]

    def test_each_step_is_hard_onehot_and_soft_distribution(self, fp64):
        params = tiny_params(seed=1)
        src_ids, src_mask = toy_source(params)
        noise = GumbelNoiseSource(1.0, 5)
        seq = sample_translation(params, src_ids, src_mask, noise,
                                 STGSConfig(tau=2.0), bos_id=1, eos_id=2)
        for st in seq.steps:
            assert np.all((st.data == 0.0) | (st.data == 1.0))
            np.testing.assert_array_equal(st.data.sum(axis=-1), 1.0)

    def test_cap_truncates_and_flags(self, fp64):
        params = tiny_params(seed=2)
        src_ids, src_mask = toy_source(params)
        # cap of 1 step per sentence; EOS cannot appear unless sampled first
        cfg = STGSConfig(tau=2.0, max_len_factor=0, max_len_offset=1)
        noise = GumbelNoiseSource(0.0, 0)
        seq = sample_translation(params, src_ids, src_mask, noise, cfg,
                                 bos_id=1, eos_id=2)
        assert len(seq.steps) == 1
        assert np.all(seq.lengths == 1)
        first = [seq.token_ids(b)[0] for b in range(2)]
        for b in range(2):
            assert seq.truncated[b] == (first[b] != 2)

    def test_determinism_given_seed(self, fp64):
        params = tiny_params(seed=3)
        src_ids, src_mask = toy_source(params)

        def run():
            noise = GumbelNoiseSource(0.7, 99)
            seq = sample_translation(params, src_ids, src_mask, noise,
                                     STGSConfig(tau=1.5), bos_id=1, eos_id=2)
            return [seq.token_ids(b) for b in range(2)]

        assert run() == run()

    def test_different_seeds_differ(self, fp64):
        params = tiny_params(seed=3)
        src_ids, src_mask = toy_source(params)
        outs = []
        for s in range(8):
            noise = GumbelNoiseSource(2.0, s)
            seq = sample_translation(params, src_ids, src_mask, noise,
                                     STGSConfig(tau=1.5), bos_id=1, eos_id=2)
            outs.append(tuple(tuple(seq.token_ids(b)) for b in range(2)))
        assert len(set(outs)) > 1

    def test_gradient_reaches_sampling_pass(self, fp64):
        from roundtrip.data import Batch
        from roundtrip.training import reconstruction_loss

        params = tiny_params(seed=4)
        src_ids, src_mask = toy_source(params)
        batch = Batch(src_ids, src_mask, src_ids, src_mask)
        with Tape() as tape:
            l_r, *_ = reconstruction_loss(
                params, batch, GumbelNoiseSource(0.5, 6), STGSConfig(tau=2.0),
                bos_id=1, eos_id=2, phase="finetune")
            backward(tape, l_r)
        # encoder weights are only reachable through the sampling pass's
        # encode and the reconstruction encode; both flow through STGS nodes
        assert params.enc_fwd.Wx.grad is not None
        assert np.any(params.enc_fwd.Wx.grad != 0.0)
        assert np.any(params.E.grad != 0.0)
