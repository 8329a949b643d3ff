"""Reverse-mode automatic differentiation over dense numpy tensors.

Ops record onto the innermost active ``Tape``; ``backward`` replays the tape
in exact reverse order, accumulating gradients additively. With no active
tape, ops run plain forward math (evaluation mode) and outputs never require
grad. Gradient accumulation order is fixed by tape order, so identical
inputs give bit-identical gradients.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

# the run precisions by name; checkpoints and the run config read it
PRECISIONS = {"fp32": np.dtype(np.float32), "fp64": np.dtype(np.float64)}
_default_dtype = np.dtype(np.float64)


def default_dtype() -> np.dtype:
    return _default_dtype


@contextlib.contextmanager
def using_dtype(name: str):
    """Make new tensors of the float width `name` ("fp32" or "fp64") inside
    the block, and restore the previous width on leaving it."""
    global _default_dtype
    if name not in PRECISIONS:
        raise ValueError(f"unknown precision {name!r}; expected fp32 or fp64")
    saved = _default_dtype
    _default_dtype = PRECISIONS[name]
    try:
        yield
    finally:
        _default_dtype = saved


class Tensor:
    """Dense float array participating in tape-based differentiation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _default_dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class TapeError(RuntimeError):
    pass


class Tape:
    """Ordered record of executed primitive ops.

    Node order equals execution order, which is a valid topological order of
    the recorded graph, so the reverse sweep visits consumers before
    producers.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        # node = (outputs, inputs, backward_fn); backward_fn maps one gradient
        # per output to a tuple of gradients w.r.t. inputs (None allowed).
        self.nodes: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Tape._stack.pop()


def record(out, inputs: Sequence[Tensor], backward_fn: Callable):
    """Attach a custom node to the active tape (no-op without one); `out` is
    one Tensor or a tuple of them, and backward_fn takes one gradient each."""
    if Tape._stack:
        for t in inputs:
            if t.requires_grad:
                outs = out if type(out) is tuple else (out,)
                for o in outs:
                    o.requires_grad = True
                Tape._stack[-1].nodes.append((outs, tuple(inputs), backward_fn))
                break
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Replay the tape in reverse, attaching gradients to leaf tensors.

    Each gradient accumulates in its tensor's .grad. A node runs once, with
    one gradient per output (None for one no node read) unless all are None,
    and clears its outputs' .grad, so only the leaves keep theirs. Every
    requires_grad leaf ends up with a .grad, zeros if unreachable from the loss.

    A tensor's first gradient is kept as the backward function returned it
    and is never written: `add` hands one array to both inputs, `concat`
    hands out views of one array. A second gradient makes one sum the pass
    owns, `grad + g`, and later ones are added into it in place, so the
    adds are the same IEEE operations in the same order as fresh sums.
    Backward functions return gradients of their input's shape and dtype.
    """
    if not tape.nodes:
        raise TapeError("backward on an empty tape")
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")

    loss.grad = np.ones_like(loss.data)
    produced = {id(out) for outs, _, _ in tape.nodes for out in outs}
    owned: set[int] = set()  # ids of the tensors whose .grad this pass made

    for outs, inputs, backward_fn in reversed(tape.nodes):
        g_outs = [out.grad for out in outs]
        if g_outs[-1] is None and all(g is None for g in g_outs):
            continue
        for out in outs:
            out.grad = None
        for t, g in zip(inputs, backward_fn(*g_outs)):
            if g is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = g
            elif id(t) in owned:
                t.grad += g
            else:
                t.grad = t.grad + g
                owned.add(id(t))

    for _, inputs, _ in tape.nodes:
        for t in inputs:
            if t.requires_grad and t.grad is None and id(t) not in produced:
                t.grad = np.zeros_like(t.data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    a_data, b_data = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return record(out, (a, b), bwd)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s)
    return record(out, (a,), lambda g: (g * s,))


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b for 2-D x or stacked rows, as one node whose values and
    gradients round as those of a matmul node then a bias add node."""
    if x.ndim < 2 or W.shape != (x.shape[-1],) + b.shape or b.ndim != 1:
        raise ValueError(f"affine shapes x {x.shape}, W {W.shape}, b {b.shape}")
    W_data, x_rows = W.data, x.data.reshape(-1, W.shape[0])
    out = Tensor(np.asarray(x.data @ W_data, dtype=_default_dtype))
    out.data += b.data

    def bwd(g):
        return g @ W_data.T, x_rows.T @ g.reshape(-1, g.shape[-1]), _unbroadcast(g, b.shape)

    return record(out, (x, W, b), bwd)


def weighted_sum(weights: Tensor, values: Tensor) -> Tensor:
    """Per-row weighted sum over positions: (B, S) weights and (B, S, D)
    values give the (B, D) rows sum_s weights[b, s] * values[b, s]."""
    if weights.ndim != 2 or values.ndim != 3 or values.shape[:2] != weights.shape:
        raise ValueError(f"weighted_sum expects (B, S) weights and (B, S, D) "
                         f"values, got {weights.shape} and {values.shape}")
    B, S, D = values.shape
    w_data, v_data = weights.data.reshape(B, 1, S), values.data
    out = Tensor((w_data @ v_data).reshape(B, D))

    def bwd(g):
        g = g.reshape(B, 1, D)
        # a contraction over one term is the product; + 0.0 turns a -0.0
        # product into the +0.0 that matmul's sum from zero gives
        return ((g @ v_data.transpose(0, 2, 1)).reshape(B, S),
                w_data.transpose(0, 2, 1) * g + 0.0)

    return record(out, (weights, values), bwd)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    y = out.data
    return record(out, (a,), lambda g: ((1.0 - y * y) * g,))


def attention(h: Tensor, w_query: Tensor, keys: Tensor, v: Tensor,
              mask: np.ndarray) -> Tensor:
    """Attention weights (B, S) of one decoder step: the softmax over
    positions of tanh(keys + h @ w_query) @ v, where a position whose 0/1
    `mask` is 0 scores 1e9 lower; rejects non-finite scores.

    Values and gradients round exactly as those of the same read built op by
    op (matmul, reshape, add, tanh, matmul by v, add of the mask's -1e9 bias,
    max-shifted softmax), so seeded runs match that graph bit for bit.
    """
    if (keys.ndim != 3 or h.shape != (keys.shape[0], w_query.shape[0])
            or w_query.shape[1:] != keys.shape[2:] or v.shape != keys.shape[2:]
            or np.shape(mask) != keys.shape[:2]):
        raise ValueError(f"attention shapes h {h.shape}, w_query {w_query.shape}, "
                         f"keys {keys.shape}, v {v.shape}, mask {np.shape(mask)}")
    B, S, A = keys.shape
    h_data, w_data, v_data = h.data, w_query.data, v.data
    t = np.tanh(keys.data + (h_data @ w_data).reshape(B, 1, A))
    scores = t @ v_data + np.asarray((1.0 - mask) * -1e9, dtype=_default_dtype)
    if not np.all(np.isfinite(scores)):
        raise ValueError("attention scores contain non-finite values")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    out = Tensor(e / e.sum(axis=-1, keepdims=True))
    p = out.data

    def bwd(g):
        g_scores = p * (g - (g * p).sum(axis=-1, keepdims=True))
        g_pre = (1.0 - t * t) * (g_scores[..., None] * v_data)
        g_v = (t * g_scores[..., None]).reshape(-1, A).sum(axis=0)
        g_q = _unbroadcast(g_pre, (B, 1, A)).reshape(B, A)
        return g_q @ w_data.T, h_data.T @ g_q, g_pre, g_v

    return record(out, (h, w_query, keys, v), bwd)


LN_EPSILON = 1e-6


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor,
              ln_gain: Tensor, ln_bias: Tensor,
              keep: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One LSTM step recorded as one node; returns (h_new, c_new).

    The pre-activation (x@Wx + h@Wh) + b, layer-normalized over its 4H
    columns with gain ln_gain and bias ln_bias, holds the gates in the order
    (input, forget, cell, output): c_new = σ(f)·c + σ(i)·tanh(g) and
    h_new = σ(o)·tanh(c_new). In the rows where the 0/1 column `keep` (B, 1)
    is 0, h and c pass through unchanged, as the encoder carries its state
    over padding.

    Values and gradients round exactly as those of the same step built op by
    op (matmuls, adds, layer norm, per-gate slices, sigmoid, tanh, mul and
    the blend new·keep + old·(1 - keep)), so seeded runs match that graph
    bit for bit.
    """
    if c.ndim != 2 or c.shape[1] == 0:
        raise ValueError(f"lstm_cell state must be (B, H) with H >= 1, got {c.shape}")
    B, n = c.shape
    if (x.ndim != 2 or x.shape[0] != B or h.shape != (B, n)
            or Wx.shape != (x.shape[1], 4 * n) or Wh.shape != (n, 4 * n)
            or b.shape != (4 * n,)):
        raise ValueError(f"lstm_cell shapes x {x.shape}, h {h.shape}, c {c.shape}, "
                         f"Wx {Wx.shape}, Wh {Wh.shape}, b {b.shape}")
    if ln_gain.shape != (4 * n,) or ln_bias.shape != (4 * n,):
        raise ValueError(f"layer norm gain and bias must both have shape ({4 * n},)")
    if keep is not None and np.shape(keep) != (B, 1):
        raise ValueError(f"keep must be a (B, 1) column, got {np.shape(keep)}")

    x_data, h_data, c_data = x.data, h.data, c.data
    pre = np.asarray(x_data @ Wx.data + h_data @ Wh.data + b.data, dtype=_default_dtype)
    width = 4 * n
    # sum / width is the value ndarray.mean gives, without its Python wrapper
    mu = pre.sum(axis=-1, keepdims=True) / width
    centered = pre - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / width
    inv_std = 1.0 / np.sqrt(var + LN_EPSILON)
    xhat = centered * inv_std
    pre = xhat * ln_gain.data + ln_bias.data
    # sigmoid of all four blocks at once (the cell block's goes unused); exp
    # only ever sees non-positive arguments, so no overflow. Its numerator is
    # 1 where pre >= 0 and e elsewhere: e <= 1, and max with a bool is the
    # select np.where makes, NaN included, at a third of its cost
    e = np.exp(-np.abs(pre))
    s = np.maximum(e, pre >= 0) / (1.0 + e)
    i, f, o = s[:, :n], s[:, n: 2 * n], s[:, 3 * n:]
    g = np.tanh(pre[:, 2 * n: 3 * n])
    c_new = f * c_data + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    if keep is None:
        c_out, h_out = Tensor(c_new), Tensor(h_new)
    else:
        m = np.asarray(keep, dtype=_default_dtype)
        inv = np.asarray(1.0 - keep, dtype=_default_dtype)
        c_out = Tensor(c_new * m + c_data * inv)
        h_out = Tensor(h_new * m + h_data * inv)

    def bwd(g_h, g_c):
        # h's share of c_new's gradient is added after that of c's readers
        g_o = 0.0
        if g_h is not None:
            gh = g_h if keep is None else g_h * m
            g_o = o * (1.0 - o) * (gh * tc)
            from_h = (1.0 - tc * tc) * (gh * o)
            g_c = from_h if g_c is None else g_c + from_h
        # with keep, g_c is c_new's gradient in 1 rows; in 0 rows both terms are 0
        gc = g_c if keep is None else g_c * m
        gpre = np.empty(s.shape, dtype=gc.dtype)
        gpre[:, :n] = i * (1.0 - i) * (gc * g)
        gpre[:, n: 2 * n] = f * (1.0 - f) * (gc * c_data)
        gpre[:, 2 * n: 3 * n] = (1.0 - g * g) * (gc * i)
        gpre[:, 3 * n:] = g_o
        g_c_in = gc * f if keep is None else g_c * inv + gc * f
        g_gain, g_bias = (gpre * xhat).sum(axis=0), gpre.sum(axis=0)
        gx_hat = gpre * ln_gain.data
        # d/dx of (x - mu) * inv_std with mu, var both functions of x
        m1 = gx_hat.sum(axis=-1, keepdims=True) / width
        m2 = (gx_hat * xhat).sum(axis=-1, keepdims=True) / width
        gpre = inv_std * (gx_hat - m1 - xhat * m2)
        grads = (gpre @ Wx.data.T, gpre @ Wh.data.T, g_c_in, x_data.T @ gpre,
                 h_data.T @ gpre, gpre.sum(axis=0), g_gain, g_bias)
        return grads if keep is None else (None if g_h is None else g_h * inv,) + grads

    # with keep, h is listed first a second time, for its carried share
    inputs = (x, h, c, Wx, Wh, b, ln_gain, ln_bias)
    return record((h_out, c_out), inputs if keep is None else (h,) + inputs, bwd)


def readout_nll(out: Tensor, E: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Sum over rows of mask * NLL of the targets under softmax(out @ E.T),
    via log-sum-exp: one decoder step's tied readout, scored, as one node.

    The (N, V) logits become in place the exp buffer, in which the backward,
    run once as `backward` runs each node, forms the softmax gradient. Values
    and gradients round exactly as those of the op chain out @ E.T,
    cross-entropy, product with the mask in the run dtype, sum.
    """
    if out.ndim != 2 or E.ndim != 2 or out.shape[1] != E.shape[1]:
        raise ValueError(f"readout_nll expects (N, d) out and (V, d) E, "
                         f"got {out.shape} and {E.shape}")
    t = np.asarray(targets)
    if t.shape != (out.shape[0],) or np.shape(mask) != t.shape:
        raise ValueError("targets and mask must be vectors matching the rows of out")
    if t.min(initial=0) < 0 or t.max(initial=0) >= E.shape[0]:
        raise ValueError("target id out of vocabulary range")
    out_data, E_data = out.data, E.data
    e = np.asarray(out_data @ E_data.T, dtype=_default_dtype)
    rows = np.arange(e.shape[0])
    target = e[rows, t]
    m = e.max(axis=1, keepdims=True)
    e -= m
    np.exp(e, out=e)
    z = e.sum(axis=1)
    mask = np.asarray(mask, dtype=_default_dtype)
    loss = Tensor(((m[:, 0] + np.log(z) - target) * mask).sum())

    def bwd(g):
        # the softmax, then its product with the rows' gradient, in e itself
        g_rows = g * mask
        gx = np.divide(e, z[:, None], out=e)
        gx *= g_rows[:, None]
        gx[rows, t] -= g_rows
        return gx @ E_data, gx.T @ out_data

    return record(loss, (out, E), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix; gradient scatter-adds by id."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.shape[0]:
        raise ValueError("embedding id out of vocabulary range")
    out = Tensor(table.data[ids])
    t_shape = table.shape

    def bwd(g):
        gt = np.zeros(t_shape, dtype=g.dtype)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, t_shape[1]))
        return (gt,)

    return record(out, (table,), bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p); p=0 returns x itself."""
    if not (0.0 <= p < 1.0):
        raise ValueError("dropout probability must be in [0, 1)")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = Tensor(x.data * mask)
    return record(out, (x,), lambda g: (g * mask,))


def concat(xs: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    splits, end = [], 0
    for x in xs[:-1]:
        end += x.data.shape[axis]
        splits.append(end)

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return record(out, tuple(xs), bwd)


def stack(xs: Sequence[Tensor], axis: int) -> Tensor:
    out = Tensor(np.stack([x.data for x in xs], axis=axis))

    def bwd(g):
        return tuple(np.moveaxis(g, axis, 0))

    return record(out, tuple(xs), bwd)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements."""
    out = Tensor(x.data.sum())
    x_shape = x.shape
    return record(out, (x,), lambda g: (np.broadcast_to(g, x_shape).copy(),))


# ---------------------------------------------------------------------------
# Verification oracle
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the taped gradient of f and central differences.

    Error per coordinate is |analytic - numeric| / max(1, |analytic|); f must
    be scalar-valued. The numeric side never touches the tape, so it stays
    independent of the code path it checks.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    point.grad = None
    with Tape() as tape:
        out = f(point)
    if out.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    backward(tape, out)
    analytic = np.zeros_like(point.data) if point.grad is None else point.grad.copy()

    flat = point.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(point).item()
        flat[i] = orig - h
        fm = f(point).item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)

    analytic_flat = analytic.reshape(-1)
    denom = np.maximum(1.0, np.abs(analytic_flat))
    return float(np.max(np.abs(analytic_flat - numeric) / denom))


def global_norm(grads: Sequence[np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def clip_gradients(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm.

    The norm counts each parameter's gradient; an array that several
    parameters share (a first gradient `backward` kept) is scaled once.
    """
    grads = [p.grad for p in params if p.grad is not None]
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in {id(g): g for g in grads}.values():
            g *= scale
    return norm
