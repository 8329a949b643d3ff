"""Gumbel noise, Gumbel-Max sampling, straight-through estimator."""

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip.autodiff import Tape, Tensor, backward, grad_check
from roundtrip.evaluation import greedy_decode
from roundtrip.model import ModelConfig, ModelParams, encode
from roundtrip.sampling import (GumbelNoiseSource, STGSConfig, gumbel_max_step,
                                sample_gumbel, sample_translation, stgs_embed)

from conftest import softmax

EULER_MASCHERONI = 0.5772156649
DTYPES = {"fp32": np.float32, "fp64": np.float64}


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

    def test_source_at_beta_zero_draws_no_noise(self):
        noise = GumbelNoiseSource(0.0, 4)
        state = noise.rng.bit_generator.state
        assert noise.draw((3, 5)) is None
        assert noise.rng.bit_generator.state == state
        assert GumbelNoiseSource(0.5, 4).draw((3, 5)).shape == (3, 5)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            sample_gumbel((1,), -0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GumbelNoiseSource(-1.0, 0)


class TestGumbelMaxStep:
    def test_zero_noise_is_greedy(self):
        assert gumbel_max_step(np.array([2.0, 1.0]), np.zeros(2)) == 0

    def test_noise_flips_argmax(self):
        assert gumbel_max_step(np.array([0.0, 0.0]), np.array([0.1, 0.9])) == 1

    def test_ties_break_to_lowest_index(self):
        assert gumbel_max_step(np.array([1.0, 1.0, 1.0]), np.zeros(3)) == 0

    def test_non_finite_logits_error(self):
        with pytest.raises(ValueError):
            gumbel_max_step(np.array([np.nan, 1.0]), np.zeros(2))

    def test_sampling_distribution_matches_softmax(self, fp64):
        logits = np.array([0.5, -0.3, 1.2, 0.0])
        rng = np.random.default_rng(7)
        n = 100_000
        noise = sample_gumbel((n, 4), 1.0, rng)
        ids = gumbel_max_step(np.tile(logits, (n, 1)), noise)
        freq = np.bincount(ids, minlength=4) / n
        probs = softmax(logits)
        np.testing.assert_allclose(freq, probs, atol=0.01)

    def test_beta_tempers_the_sampling_distribution(self, fp64):
        # Gumbel(0, beta) noise selects with probability softmax(logits/beta)
        logits = np.array([1.0, 0.0, -0.5, 0.4])
        beta = 2.0
        n = 100_000
        noise = sample_gumbel((n, 4), beta, np.random.default_rng(8))
        ids = gumbel_max_step(np.tile(logits, (n, 1)), noise)
        freq = np.bincount(ids, minlength=4) / n
        probs = softmax(logits / beta)
        np.testing.assert_allclose(freq, probs, atol=0.01)


def _soft(logits, noise, tau):
    z = (logits + noise) / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _embed_inputs(dtype, B=5, V=4, d=3, seed=0):
    """Decoder output, noise, E and an upstream gradient; the sampler's
    logits are the tied readout out @ E.T."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((B, d)).astype(dtype)
    noise = rng.gumbel(size=(B, V)).astype(dtype)
    E = rng.standard_normal((V, d)).astype(dtype)
    g = rng.standard_normal((B, d)).astype(dtype)
    return out, noise, E, g


def _embed_grads(out, noise, E, g, soft_forward=False, tau=2.0):
    """(embedding, ids, out gradient, E gradient) of sum(stgs_embed * g)."""
    ot = Tensor(out, requires_grad=True)
    Et = Tensor(E, requires_grad=True)
    with Tape() as tape:
        emb, ids = stgs_embed(ot, Et, noise, tau, soft_forward=soft_forward)
        loss = ad.reduce_sum(ad.mul(emb, ad.constant(g)))
    backward(tape, loss)
    return emb.data, ids, ot.grad, Et.grad


def _logits_grad(soft, g, E, tau):
    """The tempered softmax embedding's gradient w.r.t. the logits."""
    g_dist = g @ E.T
    return soft * (g_dist - (g_dist * soft).sum(axis=-1, keepdims=True)) / tau


class TestStgsCombine:
    """`stgs_embed`: the sampled token's embedding row forward, the tempered
    softmax embedding's gradient backward, through the tied readout. An
    identity E makes the logits `out` itself, exactly."""

    def test_tie_forward_hard_backward_soft(self, fp64):
        logits = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        E = Tensor(np.eye(2))  # embedding rows are the one-hots themselves
        with Tape() as tape:
            st, ids = stgs_embed(logits, E, np.zeros((1, 2)), tau=2.0)
            loss = ad.reduce_sum(ad.mul(st, ad.constant(np.array([[1.0, 0.0]]))))
        soft, _ = stgs_embed(logits, E, np.zeros((1, 2)), tau=2.0, soft_forward=True)
        np.testing.assert_array_equal(ids, [0])
        np.testing.assert_array_equal(st.data, [[1.0, 0.0]])
        np.testing.assert_allclose(soft.data, [[0.5, 0.5]])
        backward(tape, loss)
        # gradient equals the softmax jacobian row: p * (g - g.p) / tau
        expected = np.array([[0.5 * 0.5, -0.5 * 0.5]]) / 2.0
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12)

    def test_gradient_equals_soft_path_finite_differences(self, fp64):
        rng = np.random.default_rng(11)
        noise = sample_gumbel((2, 6), 1.0, np.random.default_rng(12))
        fixed = ad.constant(rng.standard_normal((2, 3)))
        out = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        E = Tensor(rng.standard_normal((6, 3)), requires_grad=True)

        def f(_point):
            st, _ = stgs_embed(out, E, noise, 2.0, soft_forward=True)
            return ad.reduce_sum(ad.mul(st, fixed))

        assert grad_check(f, out, 1e-5) < 1e-5
        assert grad_check(f, E, 1e-5) < 1e-5

    def test_hard_and_soft_modes_share_gradients(self, fp64):
        out, noise, E, g = _embed_inputs(np.float64, seed=4)
        _, _, hard_grad, _ = _embed_grads(out, noise, E, g)
        _, _, soft_grad, _ = _embed_grads(out, noise, E, g, soft_forward=True)
        # same point gives the same output gradient regardless of forward mode
        np.testing.assert_array_equal(hard_grad, soft_grad)

    def test_small_tau_approaches_hard(self, fp64):
        logits = Tensor(np.array([[3.0, 0.0, -1.0]]))
        E = Tensor(np.eye(3))
        st, _ = stgs_embed(logits, E, np.zeros((1, 3)), tau=1e-3)
        soft, _ = stgs_embed(logits, E, np.zeros((1, 3)), tau=1e-3, soft_forward=True)
        np.testing.assert_allclose(soft.data, st.data, atol=1e-6)

    def test_invalid_tau_rejected(self):
        E = Tensor(np.eye(2))
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                stgs_embed(Tensor(np.zeros((1, 2))), E, np.zeros((1, 2)), tau=tau)
        with pytest.raises(ValueError):
            STGSConfig(tau=-1.0)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            stgs_embed(Tensor(np.array([[np.inf, 0.0]])),
                       Tensor(np.array([[1.0, 0.0], [0.5, 1.0]])), np.zeros((1, 2)), 2.0)

    def test_ties_go_to_the_lowest_id(self):
        _, ids = stgs_embed(Tensor(np.zeros((2, 3))), Tensor(np.eye(3)),
                            np.zeros((2, 3)), 2.0)
        np.testing.assert_array_equal(ids, [0, 0])

    def test_records_one_node(self, fp64):
        out, noise, E, _ = _embed_inputs(np.float64)
        with Tape() as tape:
            stgs_embed(Tensor(out, requires_grad=True), Tensor(E, requires_grad=True),
                       noise, 2.0)
        assert len(tape.nodes) == 1

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_hard_forward_is_the_embedding_row(self, precision):
        dtype = DTYPES[precision]
        out, noise, E, g = _embed_inputs(dtype)
        with ad.using_dtype(precision):
            emb, ids, _, _ = _embed_grads(out, noise, E, g)
        one_hot = np.eye(E.shape[0], dtype=dtype)[ids]
        assert emb.dtype == dtype
        assert emb.tobytes() == E[ids].tobytes()
        assert emb.tobytes() == (one_hot @ E).tobytes()

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_gradients_match_the_one_hot_graph(self, precision):
        # the graph this replaces: the dense one-hot, read by two consumers
        # (the next decoder step and the return-pass encoder) through
        # one_hot @ E each, over the readout out @ E.T; the ids repeat, so
        # E's rows sum several terms
        dtype = DTYPES[precision]
        out, noise, E, g = _embed_inputs(dtype, B=8, V=3, d=4, seed=2)
        g2 = np.random.default_rng(3).standard_normal(g.shape).astype(dtype)
        tau = 2.0
        with ad.using_dtype(precision):
            ot, Et = Tensor(out, requires_grad=True), Tensor(E, requires_grad=True)
            with Tape() as tape:
                emb, ids = stgs_embed(ot, Et, noise, tau)
                loss = ad.add(ad.reduce_sum(ad.mul(emb, ad.constant(g))),
                              ad.reduce_sum(ad.mul(emb, ad.constant(g2))))
            backward(tape, loss)
        assert ot.grad.dtype == Et.grad.dtype == dtype
        assert len(set(ids.tolist())) < len(ids)

        one_hot = np.eye(E.shape[0], dtype=dtype)[ids]
        soft = _soft(out @ E.T, noise, tau)
        ref_logits = _logits_grad(soft, g + g2, E, tau)
        ref_E = one_hot.T @ g + one_hot.T @ g2 + ref_logits.T @ out
        rtol = 1e-5 if precision == "fp32" else 1e-12
        np.testing.assert_allclose(ot.grad, ref_logits @ E, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(Et.grad, ref_E, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_E_gradient_is_the_embedding_scatter(self, precision):
        # E's first term is the row scatter of a lookup; the readout's
        # term is added to it after
        dtype = DTYPES[precision]
        out, noise, E, g = _embed_inputs(dtype, B=8, V=3, seed=2)
        with ad.using_dtype(precision):
            _, ids, _, grad_E = _embed_grads(out, noise, E, g)
            table = Tensor(E, requires_grad=True)
            with Tape() as tape:
                loss = ad.reduce_sum(ad.mul(ad.embedding(table, ids), ad.constant(g)))
            backward(tape, loss)
        readout = _logits_grad(_soft(out @ E.T, noise, 2.0), g, E, 2.0).T @ out
        assert grad_E.tobytes() == (table.grad + readout).tobytes()

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_soft_forward_is_the_soft_embedding(self, precision):
        dtype = DTYPES[precision]
        out, noise, E, g = _embed_inputs(dtype, seed=5)
        with ad.using_dtype(precision):
            emb, _, _, grad_E = _embed_grads(out, noise, E, g, soft_forward=True)
        soft = _soft(out @ E.T, noise, 2.0)
        readout = _logits_grad(soft, g, E, 2.0).T @ out
        rtol = 1e-6 if precision == "fp32" else 1e-12
        np.testing.assert_allclose(emb, soft @ E, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(grad_E, soft.T @ g + readout, rtol=rtol, atol=rtol)


    @pytest.mark.parametrize("soft_forward", [False, True])
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_values_and_gradients_are_the_formulas_byte_for_byte(self, precision,
                                                                 soft_forward):
        # the readout out @ E.T and the sampler on its logits, as two steps
        dtype = DTYPES[precision]
        out, noise, E, g = _embed_inputs(dtype, B=8, V=6, d=4, seed=7)
        out *= 3
        tau = 0.7
        with ad.using_dtype(precision):
            emb, ids, grad_out, grad_E = _embed_grads(out, noise, E, g,
                                                      soft_forward=soft_forward, tau=tau)

        # the tempered softmax of the perturbed logits and its straight-through
        # gradients, written out; the upstream gradient is g
        y = out @ E.T + noise
        z = y / tau
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        soft = e / e.sum(axis=-1, keepdims=True)
        g_dist = g @ E.T
        inner = (g_dist * soft).sum(axis=-1, keepdims=True)
        want_logits = soft * (g_dist - inner) / tau
        if soft_forward:
            want_emb, want_E = soft @ E, soft.T @ g
        else:
            want_emb, want_E = E[y.argmax(axis=-1)], np.zeros_like(E)
            np.add.at(want_E, y.argmax(axis=-1), g)
        # E's embedding term first, then the readout's
        want_E = want_E + want_logits.T @ out
        np.testing.assert_array_equal(ids, y.argmax(axis=-1))
        for got, want in ((emb, want_emb), (grad_out, want_logits @ E), (grad_E, want_E)):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("soft_forward", [False, True])
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_no_noise_is_zero_noise_byte_for_byte(self, precision, soft_forward):
        dtype = DTYPES[precision]
        out, noise, E, g = _embed_inputs(dtype, B=8, V=6, d=4, seed=6)
        out *= 3
        out[0] = 0.0  # a row of zero logits ties every id
        with ad.using_dtype(precision):
            got = _embed_grads(out, None, E, g, soft_forward=soft_forward)
            want = _embed_grads(out, np.zeros_like(noise), E, g, soft_forward=soft_forward)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_no_noise_still_rejects_non_finite_logits(self):
        with pytest.raises(ValueError, match="non-finite"):
            stgs_embed(Tensor(np.array([[np.nan, 0.0]])), Tensor(np.eye(2)), None, 2.0)

    @pytest.mark.parametrize("beta", [0.0, 1.5])
    def test_ids_are_the_gumbel_max_rule(self, fp64, beta):
        rng = np.random.default_rng(9)
        # rows of tied logits: at beta 0 each row's lowest tied id wins
        logits = np.round(rng.standard_normal((40, 7)))
        logits[:4] = 1.0
        noise = sample_gumbel(logits.shape, beta, rng)
        _, ids = stgs_embed(Tensor(logits), Tensor(np.eye(7)), noise, 2.0)
        np.testing.assert_array_equal(ids, gumbel_max_step(logits, noise))
        if beta == 0.0:
            np.testing.assert_array_equal(ids[:4], 0)
            assert any(len(set(row)) < 7 for row in logits[4:].tolist())


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
        seq = sample_translation(params, encode(params, src_ids, src_mask), noise,
                                 STGSConfig(tau=2.0), bos_id=1, eos_id=2)
        greedy = greedy_decode(params, src_ids, src_mask, bos_id=1, eos_id=2)
        for b in range(2):
            assert seq.token_ids(b) == greedy[b]

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_each_step_is_the_sampled_tokens_embedding_row(self, precision):
        with ad.using_dtype(precision):
            params = tiny_params(seed=1)
            src_ids, src_mask = toy_source(params)
            noise = GumbelNoiseSource(1.0, 5)
            seq = sample_translation(params, encode(params, src_ids, src_mask), noise,
                                     STGSConfig(tau=2.0), bos_id=1, eos_id=2)
        assert len(seq.steps) == seq.ids.shape[1] > 1
        for t, st in enumerate(seq.steps):
            assert st.data.tobytes() == params.E.data[seq.ids[:, t]].tobytes()

    def test_cap_truncates_and_flags(self, fp64):
        params = tiny_params(seed=2)
        src_ids, src_mask = toy_source(params)
        # cap of 1 step per sentence; EOS cannot appear unless sampled first
        cfg = STGSConfig(tau=2.0, max_len_factor=0, max_len_offset=1)
        noise = GumbelNoiseSource(0.0, 0)
        seq = sample_translation(params, encode(params, src_ids, src_mask), noise, cfg,
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
            seq = sample_translation(params, encode(params, src_ids, src_mask), noise,
                                     STGSConfig(tau=1.5), bos_id=1, eos_id=2)
            return [seq.token_ids(b) for b in range(2)]

        assert run() == run()

    def test_different_seeds_differ(self, fp64):
        params = tiny_params(seed=3)
        src_ids, src_mask = toy_source(params)
        outs = []
        for s in range(8):
            noise = GumbelNoiseSource(2.0, s)
            seq = sample_translation(params, encode(params, src_ids, src_mask), noise,
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
