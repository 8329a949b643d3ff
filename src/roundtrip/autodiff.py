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

_DTYPE_NAMES = {"fp32": np.float32, "fp64": np.float64}
_default_dtype = np.dtype(np.float64)


def set_default_dtype(name: str) -> None:
    """Set the global float width ("fp32" or "fp64") for new tensors."""
    global _default_dtype
    if name not in _DTYPE_NAMES:
        raise ValueError(f"unknown precision {name!r}; expected fp32 or fp64")
    _default_dtype = np.dtype(_DTYPE_NAMES[name])


def default_dtype() -> np.dtype:
    return _default_dtype


@contextlib.contextmanager
def using_dtype(name: str):
    """Temporarily switch the default float width (used by fp64 test suites)."""
    global _default_dtype
    saved = _default_dtype
    set_default_dtype(name)
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

    def zero_grad(self) -> None:
        self.grad = None

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
        # node = (output, inputs, backward_fn); backward_fn maps the gradient
        # w.r.t. output to a tuple of gradients w.r.t. inputs (None allowed).
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Tape._stack.pop()

    @classmethod
    def current(cls) -> "Tape | None":
        return cls._stack[-1] if cls._stack else None

    def clear(self) -> None:
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Attach a custom node to the active tape (no-op without one)."""
    tape = Tape.current()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append((out, tuple(inputs), backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Replay the tape in reverse, attaching gradients to leaf tensors.

    Every requires_grad leaf on the tape ends up with a .grad: the
    accumulated gradient if reachable from the loss, zeros otherwise.
    """
    if not tape.nodes:
        raise TapeError("backward on an empty tape")
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    produced = {id(out) for out, _, _ in tape.nodes}

    for out, inputs, backward_fn in reversed(tape.nodes):
        g_out = grads.pop(id(out), None)
        if g_out is None:
            continue
        input_grads = backward_fn(g_out)
        for t, g in zip(inputs, input_grads):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    leaves: dict[int, Tensor] = {}
    for _, inputs, _ in tape.nodes:
        for t in inputs:
            if t.requires_grad and id(t) not in produced:
                leaves[id(t)] = t
    for key, t in leaves.items():
        g = grads.get(key)
        if g is None:
            g = np.zeros_like(t.data)
        t.grad = g if t.grad is None else t.grad + g


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
    a_shape, b_shape = a.shape, b.shape

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2D@2D, ND@2D (stacked rows) and ND@1D (contraction)."""
    out = Tensor(a.data @ b.data)
    a_data, b_data = a.data, b.data

    if b_data.ndim == 2:
        def bwd(g):
            ga = g @ b_data.T
            g2 = g.reshape(-1, g.shape[-1])
            a2 = a_data.reshape(-1, a_data.shape[-1])
            gb = a2.T @ g2
            return ga, gb
    elif b_data.ndim == 1:
        def bwd(g):
            ga = g[..., None] * b_data
            gb = (a_data * g[..., None]).reshape(-1, a_data.shape[-1]).sum(axis=0)
            return ga, gb
    else:
        raise ValueError(f"matmul rhs must be 1D or 2D, got ndim {b_data.ndim}")

    return record(out, (a, b), bwd)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T with b stored untransposed; lets tied weights share storage."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul_t expects 2D operands")
    out = Tensor(a.data @ b.data.T)
    a_data, b_data = a.data, b.data

    def bwd(g):
        return g @ b_data, g.T @ a_data

    return record(out, (a, b), bwd)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: (B,M,K) @ (B,K,N) -> (B,M,N)."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ValueError("bmm expects 3D operands")
    out = Tensor(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def bwd(g):
        return g @ b_data.transpose(0, 2, 1), a_data.transpose(0, 2, 1) @ g

    return record(out, (a, b), bwd)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    y = out.data
    return record(out, (a,), lambda g: ((1.0 - y * y) * g,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # exp only ever sees non-positive arguments, so no overflow
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(y)
    y = out.data
    return record(out, (a,), lambda g: (y * (1.0 - y) * g,))


def stable_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along `axis`; rejects non-finite input."""
    x = a.data
    if x.shape[axis] < 1:
        raise ValueError("softmax axis must have length >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input contains non-finite values")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p)
    p = out.data

    def bwd(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - inner),)

    return record(out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise ValueError("layer_norm over a zero-length axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(f"gain/bias must have shape ({n},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = centered * inv_std
    out = Tensor(xhat * gain.data + bias.data)
    g_data = gain.data

    def bwd(g):
        gx_hat = g * g_data
        # d/dx of (x - mu) * inv_std with mu, var both functions of x
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv_std * (gx_hat - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return record(out, (x, gain, bias), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row negative log-likelihood of integer targets under softmax(logits).

    Computed via log-sum-exp, so finite logits always give finite loss.
    """
    x = logits.data
    if x.ndim != 2:
        raise ValueError("cross_entropy expects (N, V) logits")
    t = np.asarray(targets)
    if t.shape != (x.shape[0],):
        raise ValueError("targets must be a vector matching the logit rows")
    if t.min(initial=0) < 0 or t.max(initial=0) >= x.shape[1]:
        raise ValueError("target id out of vocabulary range")
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=1)
    lse = m[:, 0] + np.log(z)
    rows = np.arange(x.shape[0])
    out = Tensor(lse - x[rows, t])
    p = e / z[:, None]

    def bwd(g):
        gx = p * g[:, None]
        gx[rows, t] -= g
        return (gx,)

    return record(out, (logits,), bwd)


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


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) so eval is a no-op."""
    if not (0.0 <= p < 1.0):
        raise ValueError("dropout probability must be in [0, 1)")
    if not train or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = Tensor(x.data * mask)
    return record(out, (x,), lambda g: (g * mask,))


def concat(xs: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    sizes = [x.shape[axis] for x in xs]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return record(out, tuple(xs), bwd)


def stack(xs: Sequence[Tensor], axis: int) -> Tensor:
    out = Tensor(np.stack([x.data for x in xs], axis=axis))

    def bwd(g):
        return tuple(np.moveaxis(g, axis, 0))

    return record(out, tuple(xs), bwd)


def slice_axis(x: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = Tensor(x.data[index])
    x_shape = x.shape

    def bwd(g):
        gx = np.zeros(x_shape, dtype=g.dtype)
        gx[index] = g
        return (gx,)

    return record(out, (x,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    x_shape = x.shape
    return record(out, (x,), lambda g: (g.reshape(x_shape),))


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    x_shape = x.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x_shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x_shape).copy(),)

    return record(out, (x,), bwd)


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
    point.zero_grad()
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
    """Scale all gradients so their global norm is at most max_norm."""
    grads = [p.grad for p in params if p.grad is not None]
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
