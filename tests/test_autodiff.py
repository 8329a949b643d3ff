"""Tensor/tape primitives against the finite-difference oracle."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundtrip import autodiff as ad
from roundtrip import verification
from roundtrip.autodiff import Tape, TapeError, Tensor, backward, grad_check

from conftest import attention_chain


def _attention_inputs(rng, B=2, S=3, H=4, A=5):
    """Random (h, w_query, keys, v) of one attention read, as requires-grad
    tensors in call order."""
    return [Tensor(rng.standard_normal(s), requires_grad=True)
            for s in [(B, H), (H, A), (B, S, A), (A,)]]


def _op_by_op_attention_grads(h, w_query, keys, v, mask, g_alpha):
    """The backward of the op chain `attention_chain` runs, in plain numpy,
    each op's backward as its node computed it: the softmax, the bias add
    (identity), the matmul by v, tanh, the keys add (the query's share summed
    over positions unless there is one) and the query matmul."""
    B, S, A = keys.shape
    p, t = attention_chain(h, w_query, keys, v, mask)
    g_scores = p * (g_alpha - (g_alpha * p).sum(axis=-1, keepdims=True))
    g_pre = (1.0 - t * t) * (g_scores[..., None] * v)
    g_q = (g_pre if S == 1 else g_pre.sum(axis=1, keepdims=True)).reshape(B, A)
    return {"h": g_q @ w_query.T, "w_query": h.T @ g_q, "keys": g_pre,
            "v": (t * g_scores[..., None]).reshape(-1, A).sum(axis=0)}


class TestAttention:
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("mask", [[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
                                      [[1.0], [1.0]],
                                      [[0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]],
                             ids=["one_masked", "S1", "all_but_one_masked"])
    def test_matches_op_by_op_graph_byte_for_byte(self, precision, mask):
        mask = np.array(mask)
        with ad.using_dtype(precision):
            rng = np.random.default_rng(mask.size)
            inputs = _attention_inputs(rng, S=mask.shape[1])
            g = ad.constant(rng.standard_normal(mask.shape))
            with Tape() as tape:
                alpha = ad.attention(*inputs, mask)
                loss = ad.reduce_sum(ad.mul(alpha, g))
            backward(tape, loss)
        data = [t.data for t in inputs]
        want_alpha, _ = attention_chain(*data, mask)
        want = _op_by_op_attention_grads(*data, mask, g.data)
        assert np.all(alpha.data[mask == 0] == 0.0)
        pairs = [(alpha.data, want_alpha)] + [
            (t.grad, want[name]) for name, t in zip(["h", "w_query", "keys", "v"], inputs)]
        for got, ref in pairs:
            assert got.dtype == ref.dtype == np.dtype(precision.replace("fp", "float"))
            assert got.tobytes() == ref.tobytes()

    def test_records_one_node(self):
        inputs = _attention_inputs(np.random.default_rng(0))
        with Tape() as tape:
            ad.attention(*inputs, np.ones((2, 3)))
        assert len(tape.nodes) == 1

    @pytest.mark.parametrize("which, shape", [(0, (3, 4)), (1, (4, 6)), (2, (2, 3)),
                                              (3, (5, 1)), (4, (2, 4))])
    def test_shape_mismatch_errors(self, which, shape):
        args = _attention_inputs(np.random.default_rng(1)) + [np.ones((2, 3))]
        args[which] = np.ones(shape) if which == 4 else Tensor(np.ones(shape))
        with pytest.raises(ValueError, match="attention"):
            ad.attention(*args)


class TestStableSoftmax:
    """The max-shifted softmax over positions that ends `ad.attention`."""

    @staticmethod
    def _saturated(v, key_signs):
        # keys of +-50 put tanh at +-1 exactly and a zero query adds nothing,
        # so the scores are key_signs @ v
        B, S, A = key_signs.shape
        return ad.attention(Tensor(np.zeros((B, 1))), Tensor(np.zeros((1, A))),
                            Tensor(50.0 * key_signs), Tensor(v), np.ones((B, S)))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        h, w_query, _, v = _attention_inputs(rng, B=1, S=2)
        keys = Tensor(np.repeat(rng.standard_normal((1, 1, 5)), 2, axis=1))
        out = ad.attention(h, w_query, keys, v, np.ones((1, 2)))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_no_overflow_on_large_logits(self, fp64):
        out = self._saturated(np.array([1000.0]), np.array([[[1.0], [-1.0]]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_shift_invariance(self, fp64):
        # the second key column is saturated at +1 in every position, so its
        # entry of v adds one constant to every score
        signs = np.array([[[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0]]])
        a = self._saturated(np.array([1.3, 0.0]), signs).data
        b = self._saturated(np.array([1.3, 123.456]), signs).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_rejects_non_finite(self):
        h, w_query, keys, v = _attention_inputs(np.random.default_rng(1))
        mask = np.ones((2, 3))
        h.data[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ad.attention(h, w_query, keys, v, mask)
        h.data[0, 0], v.data[0] = 0.0, np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ad.attention(h, w_query, keys, v, mask)

    def test_gradient_matches_finite_differences(self, fp64):
        rng = np.random.default_rng(0)
        inputs = _attention_inputs(rng)
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        w = ad.constant(rng.standard_normal((2, 3)))
        for point in inputs:
            def f(_x):
                return ad.reduce_sum(ad.mul(ad.attention(*inputs, mask), w))
            assert grad_check(f, point, 1e-5) < 1e-6

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_outputs_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((3, 9)) < 0.7).astype(float)
        mask[np.arange(3), rng.integers(0, 9, 3)] = 1.0
        with ad.using_dtype("fp64"):
            h, w_query, keys, v = (Tensor(t.data * 10)
                                   for t in _attention_inputs(rng, B=3, S=9))
            p = ad.attention(h, w_query, keys, v, mask).data
        assert np.all(p >= 0) and np.all(p[mask == 0] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)


def _cell_inputs(rng, B=3, d_in=5, n=4):
    """Random inputs of one cell step, as requires-grad tensors in call order."""
    shapes = [(B, d_in), (B, n), (B, n), (d_in, 4 * n), (n, 4 * n), (4 * n,),
              (4 * n,), (4 * n,)]
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def _op_by_op_cell(x, h, c, Wx, Wh, b, gain, bias, keep, g_h_out, g_c_out, g_h_later):
    """The graph of separate ops the fused cell replaces, forward and backward,
    in plain numpy: matmul, add, layer norm, per-gate slice, sigmoid, tanh,
    mul and the masked blend, each backward as that op's node computes it and
    each gradient summed in the order the tape visits the nodes.

    g_h_out and g_c_out reach the outputs; g_h_later reaches h from an op
    recorded after the step, so it is accumulated first."""
    n = c.shape[1]
    width = 4 * n

    def sigmoid(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0, e) / (1.0 + e)

    pre0 = x @ Wx + h @ Wh + b
    mu = pre0.sum(axis=-1, keepdims=True) / width
    centered = pre0 - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(var + 1e-6)
    xhat = centered * inv_std
    pre = xhat * gain + bias
    sl = [pre[:, k * n: (k + 1) * n] for k in range(4)]
    i, f, g, o = sigmoid(sl[0]), sigmoid(sl[1]), np.tanh(sl[2]), sigmoid(sl[3])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    if keep is None:
        h_out, c_out = h_new, c_new
        g_h_new, g_c_new, grad_h, grad_c = g_h_out, g_c_out, g_h_later, None
    else:
        inv = 1.0 - keep
        h_out, c_out = h_new * keep + h * inv, c_new * keep + c * inv
        # the blends: c's is visited first, then h's
        g_c_new, grad_c = g_c_out * keep, g_c_out * inv
        g_h_new, grad_h = g_h_out * keep, g_h_later + g_h_out * inv
    # h_new = o * tc, tc = tanh(c_new)
    g_o, g_tc = g_h_new * tc, g_h_new * o
    g_c_new = g_c_new + (1.0 - tc * tc) * g_tc
    # c_new = f * c + i * g
    g_i, g_g = g_c_new * g, g_c_new * i
    g_f, g_cf = g_c_new * c, g_c_new * f
    grad_c = g_cf if grad_c is None else grad_c + g_cf
    gate_grads = [i * (1.0 - i) * g_i, f * (1.0 - f) * g_f,
                  (1.0 - g * g) * g_g, o * (1.0 - o) * g_o]
    g_pre = None
    for k in (3, 2, 1, 0):  # the output gate's slice was recorded last
        full = np.zeros_like(pre)
        full[:, k * n: (k + 1) * n] = gate_grads[k]
        g_pre = full if g_pre is None else g_pre + full
    grads = {"gain": (g_pre * xhat).sum(axis=0), "bias": g_pre.sum(axis=0)}
    gx_hat = g_pre * gain
    m1 = gx_hat.sum(axis=-1, keepdims=True) / width
    m2 = (gx_hat * xhat).sum(axis=-1, keepdims=True) / width
    g_pre = inv_std * (gx_hat - m1 - xhat * m2)
    grads["b"] = g_pre.sum(axis=0)
    grads["Wh"], grads["h"] = h.T @ g_pre, grad_h + g_pre @ Wh.T
    grads["Wx"], grads["x"] = x.T @ g_pre, g_pre @ Wx.T
    grads["c"] = grad_c
    return h_out, c_out, grads


def _saturate(inputs, n=4):
    """Make, in place, three columns of every gate's pre-activation exactly 0, ±150 and
    -1e4 (whose exp underflows): those columns of Wx and Wh and of the layer
    norm's gain are zeroed, and the values are put in the layer norm's bias."""
    cols = np.arange(4)[:, None] * n + np.arange(3)
    values = np.array([[0.0, 150.0, -1e4], [0.0, -150.0, -1e4]] * 2)
    inputs[3].data[:, cols] = 0.0
    inputs[4].data[:, cols] = 0.0
    inputs[6].data[cols] = 0.0
    inputs[7].data[cols] = values


class TestLstmCell:
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("keep", [None, [[1.0], [0.0], [1.0]]])
    def test_matches_op_by_op_graph_bit_for_bit(self, precision, keep):
        keep = None if keep is None else np.array(keep)
        names = ["x", "h", "c", "Wx", "Wh", "b", "gain", "bias"]
        for saturated in (False, True):
            with ad.using_dtype(precision):
                rng = np.random.default_rng(13)
                inputs = _cell_inputs(rng)
                if saturated:
                    _saturate(inputs)
                w_h, w_c, w_later = (ad.constant(rng.standard_normal((3, 4)))
                                     for _ in range(3))
                with Tape() as tape:
                    h_out, c_out = ad.lstm_cell(*inputs, keep=keep)
                    loss = ad.add(ad.add(ad.reduce_sum(ad.mul(h_out, w_h)),
                                         ad.reduce_sum(ad.mul(c_out, w_c))),
                                  ad.reduce_sum(ad.mul(inputs[1], w_later)))
                backward(tape, loss)
                ref_h, ref_c, ref_grads = _op_by_op_cell(
                    *(t.data for t in inputs), None if keep is None else keep.astype(inputs[0].data.dtype),
                    w_h.data, w_c.data, w_later.data)
            for got, want in [(h_out.data, ref_h), (c_out.data, ref_c)] + [
                    (t.grad, ref_grads[name]) for name, t in zip(names, inputs)]:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_step_records_one_node(self):
        inputs = _cell_inputs(np.random.default_rng(0))
        with Tape() as tape:
            h_out, c_out = ad.lstm_cell(*inputs, keep=np.ones((3, 1)))
        assert len(tape.nodes) == 1
        assert tape.nodes[0][0] == (h_out, c_out)


class TestWeightedSum:
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("S", [1, 3])
    def test_matches_the_reshape_bmm_reshape_graph_byte_for_byte(self, precision, S):
        # the reference is the graph weighted_sum replaced, in plain numpy:
        # (B, S) -> (B, 1, S), a batched one-row matmul, (B, 1, D) -> (B, D),
        # each backward as that node computed it; a zero weight meeting a
        # negative gradient gives the +0.0 that bmm's one-row path gave
        B, D = 2, 4
        with ad.using_dtype(precision):
            rng = np.random.default_rng(S)
            w = Tensor(rng.random((B, S)), requires_grad=True)
            v = Tensor(rng.standard_normal((B, S, D)), requires_grad=True)
            w.data[0, 0] = 0.0
            g = ad.constant(-np.abs(rng.standard_normal((B, D))))
            with Tape() as tape:
                out = ad.weighted_sum(w, v)
                loss = ad.reduce_sum(ad.mul(out, g))
            backward(tape, loss)
        w3 = w.data.reshape(B, 1, S)
        g3 = g.data.reshape(B, 1, D)
        want = [(w3 @ v.data).reshape(B, D),
                (g3 @ v.data.transpose(0, 2, 1)).reshape(B, S),
                w3.transpose(0, 2, 1) * g3 + 0.0]
        assert not np.signbit(v.grad[0, 0]).any()
        for got, ref in zip([out.data, w.grad, v.grad], want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_records_one_node(self):
        w = Tensor(np.full((2, 3), 1 / 3), requires_grad=True)
        with Tape() as tape:
            ad.weighted_sum(w, ad.constant(np.ones((2, 3, 4))))
        assert len(tape.nodes) == 1

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError, match="weighted_sum"):
            ad.weighted_sum(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4, 5))))


class TestAffine:
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("lead", [(3,), (3, 4)], ids=["rows", "stacked_rows"])
    def test_matches_matmul_then_add_byte_for_byte(self, precision, lead):
        # the reference is the graph affine replaced, in plain numpy: a matmul
        # node, then a bias add node whose gradient reaches the bias summed
        # over every leading axis
        with ad.using_dtype(precision):
            rng = np.random.default_rng(len(lead))
            x = Tensor(rng.standard_normal(lead + (5,)), requires_grad=True)
            W = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
            b = Tensor(rng.standard_normal(2), requires_grad=True)
            g = ad.constant(rng.standard_normal(lead + (2,)))
            with Tape() as tape:
                out = ad.affine(x, W, b)
                loss = ad.reduce_sum(ad.mul(out, g))
            backward(tape, loss)
        g_b = g.data.sum(axis=0)
        if len(lead) == 2:
            g_b = g_b.sum(axis=0)
        want = [x.data @ W.data + b.data, g.data @ W.data.T,
                x.data.reshape(-1, 5).T @ g.data.reshape(-1, 2), g_b]
        for got, ref in zip([out.data, x.grad, W.grad, b.grad], want):
            assert got.dtype == ref.dtype == np.dtype(precision.replace("fp", "float"))
            assert got.tobytes() == ref.tobytes()

    def test_records_one_node(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            ad.affine(x, Tensor(np.ones((3, 4))), Tensor(np.zeros(4)))
        assert len(tape.nodes) == 1

    @pytest.mark.parametrize("x, W, b", [((2, 3), (4, 5), (5,)), ((2, 3), (3, 5), (3,)),
                                         ((3,), (3, 5), (5,)), ((2, 3), (3, 5, 1), (5,))])
    def test_shape_mismatch_errors(self, x, W, b):
        with pytest.raises(ValueError, match="affine"):
            ad.affine(Tensor(np.ones(x)), Tensor(np.ones(W)), Tensor(np.ones(b)))


def test_every_recording_primitive_has_a_named_check():
    # a public function of autodiff that records a node needs a check in the
    # fp64 suite named for it, as the name itself or as `name.<part>`
    recording = sorted(name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                       if fn.__module__ == ad.__name__ and not name.startswith("_")
                       and name != "record" and "record(" in inspect.getsource(fn))
    assert "lstm_cell" in recording and "backward" not in recording
    with ad.using_dtype("fp64"):
        names = [r.name for r in verification.primitive_checks(0)]
    unchecked = [p for p in recording
                 if not any(n == p or n.startswith(p + ".") for n in names)]
    assert unchecked == []


class TestLayerNorm:
    """The layer norm inside the fused cell."""

    def test_constant_vector_maps_to_zero(self):
        # a constant pre-activation row normalizes to zero, so each gate
        # is its layer-norm bias: sigmoid(0) = 0.5 and tanh(0) = 0
        x, h, c, Wx, Wh, b, gain, bias = _cell_inputs(np.random.default_rng(2), B=1)
        Wx.data[:], Wh.data[:], b.data[:] = 0.0, 0.0, 4.2
        gain.data[:], bias.data[:] = 1.0, 0.0
        h_out, c_out = ad.lstm_cell(x, h, c, Wx, Wh, b, gain, bias)
        np.testing.assert_allclose(c_out.data, 0.5 * c.data)
        np.testing.assert_allclose(h_out.data, 0.5 * np.tanh(0.5 * c.data))

    def test_zero_length_axis_errors(self):
        # a zero-width state would normalize over a zero-length axis
        with pytest.raises(ValueError):
            ad.lstm_cell(*_cell_inputs(np.random.default_rng(3), n=0))

    def test_gradient_on_random_vector(self, fp64):
        x, h, c, Wx, Wh, b, gain, bias = _cell_inputs(np.random.default_rng(1), B=1)
        w = ad.constant(np.random.default_rng(4).standard_normal((1, 4)))

        def f(point):
            h_out, _ = ad.lstm_cell(point, h, c, Wx, Wh, b, gain, bias)
            return ad.reduce_sum(ad.mul(h_out, w))

        assert grad_check(f, x, 1e-5) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_dot_product_swaps_operands(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, y))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, y.data)
        np.testing.assert_array_equal(y.grad, x.data)

    def test_two_layer_graph_matches_finite_differences(self, fp64):
        rng = np.random.default_rng(2)
        w1 = ad.constant(rng.standard_normal((5, 4)))
        w2 = ad.constant(rng.standard_normal((4, 3)))
        v = ad.constant(rng.standard_normal(3))

        b1 = ad.constant(rng.standard_normal(4))
        b2 = ad.constant(rng.standard_normal(3))

        def f(x):
            h = ad.tanh(ad.affine(x, w1, b1))
            out = ad.tanh(ad.affine(h, w2, b2))
            return ad.reduce_sum(ad.mul(out, v))

        point = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        assert grad_check(f, point, 1e-5) < 1e-5

    def test_empty_tape_errors(self):
        with Tape() as tape:
            pass
        with pytest.raises(TapeError):
            backward(tape, Tensor(1.0))

    def test_non_scalar_loss_errors(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_unreachable_parameter_gets_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        dead = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            _ = ad.reduce_sum(dead)  # recorded but disconnected from the loss
            loss = ad.reduce_sum(ad.mul(x, x))
        backward(tape, loss)
        np.testing.assert_array_equal(dead.grad, np.zeros(2))
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_only_leaves_keep_their_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, -1.0], requires_grad=True)
        with Tape() as tape:
            h = ad.tanh(ad.mul(x, w))
            loss = ad.reduce_sum(ad.add(h, h))
        backward(tape, loss)
        assert all(out.grad is None for outs, _, _ in tape.nodes for out in outs)
        dh = 2.0 * (1.0 - np.tanh(x.data * w.data) ** 2)
        np.testing.assert_allclose(x.grad, dh * w.data, rtol=1e-12)
        np.testing.assert_allclose(w.grad, dh * x.data, rtol=1e-12)

    @staticmethod
    def _two_outputs(x, calls):
        """A node with outputs (2x, 3x) that records the gradients it gets."""
        def bwd(g_a, g_b):
            calls.append((g_a, g_b))
            return (sum(2.0 * g if k == 0 else 3.0 * g for k, g in enumerate((g_a, g_b))
                        if g is not None),)
        return ad.record((Tensor(2.0 * x.data), Tensor(3.0 * x.data)), (x,), bwd)

    def test_an_output_nothing_reads_gets_none(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        calls = []
        with Tape() as tape:
            a, _ = self._two_outputs(x, calls)
            loss = ad.reduce_sum(a)
        backward(tape, loss)
        assert len(calls) == 1 and calls[0][1] is None
        np.testing.assert_array_equal(calls[0][0], [1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_a_node_no_reader_reaches_is_skipped(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        calls = []
        with Tape() as tape:
            self._two_outputs(x, calls)
            loss = ad.reduce_sum(ad.mul(x, x))
        backward(tape, loss)
        assert calls == []
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_no_output_keeps_a_gradient(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        calls = []
        with Tape() as tape:
            a, b = self._two_outputs(x, calls)
            loss = ad.reduce_sum(ad.mul(a, b))
        backward(tape, loss)
        assert a.grad is None and b.grad is None
        assert all(out.grad is None for outs, _, _ in tape.nodes for out in outs)
        np.testing.assert_array_equal(x.grad, 12.0 * x.data)

    def test_accumulation_is_additive(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.add(x, x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_replay_is_deterministic(self, fp64):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            keys = ad.constant(rng.standard_normal((4, 3, 4)))
            v = ad.constant(rng.standard_normal(4))
            b = ad.constant(rng.standard_normal(4))
            with Tape() as tape:
                h = ad.tanh(ad.affine(x, w, b))
                p = ad.attention(h, w, keys, v, np.ones((4, 3)))
                loss = ad.reduce_sum(ad.mul(p, p))
            backward(tape, loss)
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])


def _backward_recording_returns(tape, loss):
    """Run backward, recording every array a backward function returned
    together with a copy of it as it was returned."""
    returned = []

    def recording(fn):
        def bwd(*g_outs):
            grads = fn(*g_outs)
            returned.extend((a, a.copy()) for a in grads if a is not None)
            return grads
        return bwd

    tape.nodes[:] = [(outs, inputs, recording(fn)) for outs, inputs, fn in tape.nodes]
    backward(tape, loss)
    return returned


class TestSharedGradients:
    """`backward` keeps a first gradient as returned and sums into arrays it
    owns: an array that a backward function handed out is never written."""

    @staticmethod
    def _assert_untouched(returned):
        assert returned
        for array, as_returned in returned:
            assert array.tobytes() == as_returned.tobytes()

    def test_add_of_a_tensor_to_itself(self, fp64):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = ad.constant([0.5, 0.25, -1.5])
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(ad.add(x, x), w))
        returned = _backward_recording_returns(tape, loss)
        self._assert_untouched(returned)
        assert x.grad.tobytes() == (w.data + w.data).tobytes()
        assert not any(x.grad is a for a, _ in returned)

    def test_add_shared_by_two_leaves_then_later_terms(self, fp64):
        # add(a, b) hands one array to both leaves as their first gradient;
        # the uses recorded earlier add to each leaf after it, b's two of
        # them into its owned sum
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        w1, w2, w3 = (ad.constant(rng.standard_normal(4)) for _ in range(3))
        with Tape() as tape:
            later_b = ad.mul(b, w3)
            later_a, later_b2 = ad.mul(a, w1), ad.mul(b, w2)
            total = ad.add(ad.add(later_a, ad.add(later_b2, later_b)), ad.add(a, b))
            loss = ad.reduce_sum(total)
        returned = _backward_recording_returns(tape, loss)
        self._assert_untouched(returned)
        ones = np.ones(4)
        assert a.grad.tobytes() == (ones + w1.data).tobytes()
        assert b.grad.tobytes() == (ones + w2.data + w3.data).tobytes()
        assert a.grad is not b.grad

    def test_concat_of_three_hands_out_views(self, fp64):
        rng = np.random.default_rng(1)
        xs = [Tensor(rng.standard_normal((2, n)), requires_grad=True) for n in (1, 2, 3)]
        ws = [ad.constant(rng.standard_normal(x.shape)) for x in xs]
        w = ad.constant(rng.standard_normal((2, 6)))
        with Tape() as tape:
            terms = [ad.reduce_sum(ad.mul(x, wx)) for x, wx in zip(xs, ws)]
            joined = ad.reduce_sum(ad.mul(ad.concat(xs, axis=-1), w))
            loss = ad.add(ad.add(ad.add(terms[0], terms[1]), terms[2]), joined)
        returned = _backward_recording_returns(tape, loss)
        self._assert_untouched(returned)
        for x, wx, part in zip(xs, ws, np.split(w.data, [1, 3], axis=-1)):
            assert x.grad.tobytes() == (part + wx.data).tobytes()


class TestGradCheckOracle:
    def test_quadratic_is_exact_to_h_squared(self, fp64):
        point = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        err = grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), point, 1e-5)
        assert err < 1e-8

    def test_softmax_cross_entropy(self, fp64):
        # an identity E makes the readout's logits the point itself
        rng = np.random.default_rng(3)
        target = np.array([4])
        eye = ad.constant(np.eye(10))

        def f(x):
            return ad.readout_nll(x, eye, target, np.ones(1))

        point = Tensor(rng.standard_normal((1, 10)), requires_grad=True)
        assert grad_check(f, point, 1e-5) < 1e-6

    def test_hard_argmax_reports_large_error(self, fp64):
        # point sits next to the argmax decision boundary: the analytic
        # gradient through the constant one-hot is zero but the step is not
        v = ad.constant(np.array([0.0, 1.0]))

        def f(x):
            hard = np.zeros(2)
            hard[int(x.data.argmax())] = 1.0
            out = ad.mul(ad.constant(hard), x)
            return ad.reduce_sum(ad.mul(out, v))

        point = Tensor([1.0, 1.0 + 1e-6], requires_grad=True)
        assert grad_check(f, point, 1e-5) > 1.0

    def test_rejects_non_positive_h(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: ad.reduce_sum(x), Tensor([1.0]), 0.0)


def _cell_over_h(rng):
    """The cell as a function of h, whose gradient has a matmul part in the
    kept row and a carried part in the other."""
    x, h, c, *weights = _cell_inputs(rng, B=2, d_in=3, n=2)
    w = ad.constant(rng.standard_normal((2, 2)))
    keep = np.array([[1.0], [0.0]])

    def f(point):
        h_out, c_out = ad.lstm_cell(x, point, c, *weights, keep=keep)
        return ad.reduce_sum(ad.mul(ad.add(h_out, c_out), w))

    return f, h


def _attention_over_keys(rng):
    """The attention weights as a function of the keys, one position masked."""
    h, w_query, keys, v = _attention_inputs(rng)
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    w = ad.constant(rng.standard_normal((2, 3)))

    def f(point):
        return ad.reduce_sum(ad.mul(ad.attention(h, w_query, point, v, mask), w))

    return f, keys


PRIMS = {
    "tanh": lambda rng: (lambda x: ad.reduce_sum(ad.tanh(x)),
                         Tensor(rng.standard_normal(5), requires_grad=True)),
    "affine": lambda rng: (
        (lambda W, b: (lambda x: ad.reduce_sum(ad.affine(x, W, b))))(
            ad.constant(rng.standard_normal((4, 3))), ad.constant(rng.standard_normal(3))),
        Tensor(rng.standard_normal((2, 4)), requires_grad=True)),
    "attention": _attention_over_keys,
    "readout_nll_out": lambda rng: (
        lambda x: ad.readout_nll(x, ad.constant(np.eye(4)), np.array([1, 0]), np.ones(2)),
        Tensor(rng.standard_normal((2, 4)), requires_grad=True)),
    "readout_nll": lambda rng: (
        (lambda out: (lambda E: ad.readout_nll(out, E, np.array([4, 0, 4]),
                                               np.array([1.0, 1.0, 0.0]))))(
            ad.constant(rng.standard_normal((3, 2)))),
        Tensor(rng.standard_normal((5, 2)), requires_grad=True)),
    "embedding": lambda rng: (
        (lambda w: (lambda E: ad.reduce_sum(
            ad.mul(ad.embedding(E, np.array([0, 2, 0])), w))))(
            ad.constant(rng.standard_normal((3, 3)))),
        Tensor(rng.standard_normal((4, 3)), requires_grad=True)),
    "lstm_cell": _cell_over_h,
    "concat": lambda rng: (
        (lambda t: (lambda x: ad.reduce_sum(ad.concat([x, t], axis=-1))))(
            ad.constant(rng.standard_normal((2, 2)))),
        Tensor(rng.standard_normal((2, 3)), requires_grad=True)),
}


@pytest.mark.parametrize("name", sorted(PRIMS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_primitive_gradients_property(name, seed):
    rng = np.random.default_rng(seed)
    with ad.using_dtype("fp64"):
        f, point = PRIMS[name](rng)
        assert grad_check(f, point, 1e-5) < 1e-5


class TestDropout:
    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones(200_000))
        out = ad.dropout(x, 0.2, rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.8)
        assert out.data.mean() == pytest.approx(1.0, abs=0.01)

    def test_eval_mode_is_identity(self):
        # the model runs without dropout at p=0
        x = Tensor([1.0, 2.0, 3.0])
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_mask_deterministic_given_rng(self):
        a = ad.dropout(Tensor(np.ones(64)), 0.5, np.random.default_rng(9)).data
        b = ad.dropout(Tensor(np.ones(64)), 0.5, np.random.default_rng(9)).data
        assert np.array_equal(a, b)


class TestClipGradients:
    def _params(self, scale):
        # two parameters with gradients, and one without
        rng = np.random.default_rng(4)
        grads = [scale * rng.standard_normal((3, 4)), scale * rng.standard_normal(5)]
        params = [Tensor(np.zeros_like(g), requires_grad=True) for g in grads]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        return params + [Tensor(np.zeros(2), requires_grad=True)], grads

    def test_clips_to_max_norm_in_the_same_direction(self, fp64):
        params, grads = self._params(1.0)
        before = float(np.sqrt(sum((g * g).sum() for g in grads)))
        assert before > 0.5
        norm = ad.clip_gradients(params, 0.5)
        assert norm == pytest.approx(before, rel=1e-12)  # the norm before clipping
        assert ad.global_norm([p.grad for p in params[:2]]) <= 0.5 * (1 + 1e-12)
        ratios = np.concatenate([(p.grad / g).ravel() for p, g in zip(params, grads)])
        np.testing.assert_allclose(ratios, 0.5 / before, rtol=1e-12)
        assert params[2].grad is None

    def test_a_gradient_shared_by_two_parameters_is_scaled_once(self, fp64):
        # add(a, b) hands both leaves one array as their gradient
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([1.0, 1.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.add(a, b))
        backward(tape, loss)
        assert a.grad is b.grad
        assert ad.clip_gradients([a, b], 1.0) == pytest.approx(2.0, rel=1e-12)
        assert ad.global_norm([a.grad, b.grad]) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_array_equal(a.grad, [0.5, 0.5])

    def test_norm_below_max_leaves_gradients_unchanged(self, fp64):
        params, grads = self._params(0.01)
        before = float(np.sqrt(sum((g * g).sum() for g in grads)))
        assert ad.clip_gradients(params, 1.0) == pytest.approx(before, rel=1e-12)
        for p, g in zip(params, grads):
            assert np.array_equal(p.grad, g)


class TestReadoutScore:
    """The scoring half of `readout_nll`: with an identity E the readout's
    logits are `out` itself, exactly."""

    def test_uniform_logits_give_log_v(self, fp64):
        out = ad.readout_nll(Tensor(np.zeros((3, 8))), Tensor(np.eye(8)),
                             np.array([0, 5, 7]), np.ones(3))
        np.testing.assert_allclose(out.data, 3 * np.log(8.0), rtol=1e-12)

    def test_out_of_range_target_errors(self):
        with pytest.raises(ValueError):
            ad.readout_nll(Tensor(np.zeros((1, 4))), Tensor(np.eye(4)), np.array([4]),
                           np.ones(1))

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_value_and_gradient_are_the_softmax_formulas_byte_for_byte(self, precision):
        dtype = np.float32 if precision == "fp32" else np.float64
        rng = np.random.default_rng(3)
        x = (4 * rng.standard_normal((6, 11))).astype(dtype)
        t = rng.integers(0, 11, size=6)
        w = rng.standard_normal(6).astype(dtype)
        with ad.using_dtype(precision):
            logits = Tensor(x, requires_grad=True)
            with Tape() as tape:
                loss = ad.readout_nll(logits, Tensor(np.eye(11)), t, w)
            backward(tape, loss)

        # the log-sum-exp and softmax written out, the upstream gradient w
        m = x.max(axis=1, keepdims=True)
        e = np.exp(x - m)
        z = e.sum(axis=1)
        rows = np.arange(6)
        want = m[:, 0] + np.log(z) - x[rows, t]
        p = e / z[:, None]
        want_grad = p * w[:, None]
        want_grad[rows, t] -= w
        assert loss.data.dtype == logits.grad.dtype == dtype
        assert loss.data.tobytes() == (want * w).sum().tobytes()
        assert logits.grad.tobytes() == want_grad.tobytes()


def _op_by_op_readout(out, E, t, mask, g):
    """The teacher-forced readout as a chain of ops in numpy, forward and
    backward each as a node of its own computes it: out @ E.T, the per-row
    cross-entropy, the product with the mask, the sum; the upstream
    gradient is g. Returns (loss, out gradient, E gradient)."""
    x = out @ E.T
    m = x.max(axis=1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    z = e.sum(axis=1)
    rows = np.arange(x.shape[0])
    nll = m[:, 0] + np.log(z) - x[rows, t]
    loss = (nll * mask).sum()
    g_nll = np.broadcast_to(g, nll.shape).copy() * mask
    gx = e / z[:, None]
    gx *= g_nll[:, None]
    gx[rows, t] -= g_nll
    return loss, gx @ E, gx.T @ out


class TestReadoutNll:
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_matches_the_op_chain_byte_for_byte(self, precision):
        dtype = np.float32 if precision == "fp32" else np.float64
        rng = np.random.default_rng(8)
        B, V, d = 7, 53, 5
        out = (2 * rng.standard_normal((B, d))).astype(dtype)
        E = rng.standard_normal((V, d)).astype(dtype)
        t = rng.integers(0, V, size=B)
        mask = np.array([1.0, 1, 1, 0, 1, 0, 1])  # float64, as the batches hold it
        g = np.array(0.37, dtype=dtype)  # the upstream gradient, as a scale
        with ad.using_dtype(precision):
            out_t, E_t = Tensor(out, requires_grad=True), Tensor(E, requires_grad=True)
            with Tape() as tape:
                loss = ad.scalar_mul(ad.readout_nll(out_t, E_t, t, mask), 0.37)
            backward(tape, loss)
            nll = ad.readout_nll(Tensor(out), Tensor(E), t, mask)
        want, want_out, want_E = _op_by_op_readout(out, E, t, mask.astype(dtype), g)
        for got, ref in ((nll.data, want), (out_t.grad, want_out), (E_t.grad, want_E)):
            assert got.dtype == dtype
            assert got.tobytes() == np.asarray(ref, dtype=dtype).tobytes()

    def test_records_one_node(self, fp64):
        rng = np.random.default_rng(0)
        with Tape() as tape:
            ad.readout_nll(Tensor(rng.standard_normal((2, 3)), requires_grad=True),
                           Tensor(rng.standard_normal((5, 3)), requires_grad=True),
                           np.array([0, 4]), np.ones(2))
        assert len(tape.nodes) == 1

    def test_shape_mismatch_errors(self):
        out, E = Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="readout_nll"):
            ad.readout_nll(out, Tensor(np.zeros((5, 4))), np.array([0, 1]), np.ones(2))
        with pytest.raises(ValueError, match="targets and mask"):
            ad.readout_nll(out, E, np.array([0, 1]), np.ones(3))


def test_readout_backward_allocates_no_vocabulary_wide_array():
    # the softmax gradient is formed in the exp buffer the node keeps
    B, V, d = 48, 4100, 16
    rng = np.random.default_rng(0)
    with ad.using_dtype("fp32"):
        out = Tensor(rng.standard_normal((B, d)), requires_grad=True)
        E = Tensor(rng.standard_normal((V, d)), requires_grad=True)
        with Tape() as tape:
            ad.readout_nll(out, E, rng.integers(0, V, size=B), np.ones(B))
    (_, _, bwd), = tape.nodes
    g = np.ones((), dtype=np.float32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        grads = bwd(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [(B, d), (V, d)]
    assert peak < B * V * 4


def test_precision_switch_controls_dtype():
    with ad.using_dtype("fp32"):
        assert Tensor([1.0]).data.dtype == np.float32
    with ad.using_dtype("fp64"):
        assert Tensor([1.0]).data.dtype == np.float64
    with pytest.raises(ValueError, match="fp16"):
        with ad.using_dtype("fp16"):
            pass
    assert ad.default_dtype() == np.float64
