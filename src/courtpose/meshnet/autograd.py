"""Minimal reverse-mode autodiff over numpy arrays (float64).

Just enough machinery for the toy mesh networks: a dense layer
(``linear``), a spiral conv (``gather_linear``: a fixed sparse gather, then a
dense layer, as one node), fixed sparse operators (``sparse_mm``, for the
mesh samplers), elementwise sums, scaling and activations, dropout masks,
reshapes, row gathers (``take_rows``), concatenation and mean-L1 losses.
Each op returns a Var whose ``grad_fn`` scatters the output gradient back to
its parents; ``backward`` runs the tape in reverse topological order.
"""
from __future__ import annotations

import numpy as np


class Var:
    __slots__ = ("value", "grad", "parents", "grad_fn")

    def __init__(self, value, parents=(), grad_fn=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = parents
        self.grad_fn = grad_fn

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad = None


def backward(root: Var) -> None:
    order = []
    seen = set()

    def topo(v):
        if id(v) in seen:
            return
        seen.add(id(v))
        for p in v.parents:
            topo(p)
        order.append(v)

    topo(root)
    root.grad = np.ones_like(root.value)
    for v in reversed(order):
        if v.grad_fn is not None and v.grad is not None:
            v.grad_fn(v.grad)


def _accum(v: Var, g: np.ndarray) -> None:
    # no gradient is ever updated in place, so the first one is kept uncopied
    v.grad = g if v.grad is None else v.grad + g


def add(a: Var, b: Var) -> Var:
    """Elementwise sum of two Vars of one shape."""
    if a.shape != b.shape:
        raise ValueError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    out = Var(a.value + b.value, (a, b))
    def grad_fn(g):
        _accum(a, g)
        _accum(b, g)
    out.grad_fn = grad_fn
    return out


def linear(x: Var, W: Var, b: Var) -> Var:
    """Dense layer x @ W + b for (rows, nin) x, (nin, nout) W, (nout,) b."""
    y = x.value @ W.value
    y += b.value
    out = Var(y, (x, W, b))
    def grad_fn(g):
        _accum(x, g @ W.value.T)
        _accum(W, x.value.T @ g)
        _accum(b, g.sum(axis=0))
    out.grad_fn = grad_fn
    return out


def gather_linear(M, MT, x: Var, W: Var, b: Var) -> Var:
    """A dense layer on the rows of a fixed sparse gather, as one node.

    ``M @ x`` stacks S gathered rows of the (rows, C) ``x`` per output row;
    they are read as one (rows, S*C) row each, then times W plus b. ``MT`` is
    ``M``'s transpose as a ready CSR matrix, so no backward pass builds it.
    """
    gathered = (M @ x.value).reshape(x.value.shape[0], -1)
    y = gathered @ W.value
    y += b.value
    out = Var(y, (x, W, b))
    def grad_fn(g):
        _accum(x, MT @ (g @ W.value.T).reshape(-1, x.value.shape[1]))
        _accum(W, gathered.T @ g)
        _accum(b, g.sum(axis=0))
    out.grad_fn = grad_fn
    return out


def scale(a: Var, s: float) -> Var:
    out = Var(a.value * s, (a,))
    out.grad_fn = lambda g: _accum(a, g * s)
    return out


def relu(a: Var) -> Var:
    mask = a.value > 0
    out = Var(np.where(mask, a.value, 0.0), (a,))
    out.grad_fn = lambda g: _accum(a, g * mask)
    return out


def elu(a: Var) -> Var:
    """ELU with alpha 1: exp(min(a, 0)) - 1 + max(a, 0), summed in that
    order so that a > 0 gives 0 + a = a exactly. Where a > 0 the exponential
    is exactly 1, so the gradient is g * exp(min(a, 0)) everywhere."""
    ex = np.exp(np.minimum(a.value, 0.0))
    y = ex - 1.0
    y += np.maximum(a.value, 0.0)
    out = Var(y, (a,))
    out.grad_fn = lambda g: _accum(a, g * ex)
    return out


def dropout(a: Var, mask: np.ndarray) -> Var:
    """Apply a precomputed (already keep-probability-scaled) dropout mask."""
    out = Var(a.value * mask, (a,))
    out.grad_fn = lambda g: _accum(a, g * mask)
    return out


def reshape(a: Var, shape) -> Var:
    out = Var(a.value.reshape(shape), (a,))
    out.grad_fn = lambda g: _accum(a, g.reshape(a.value.shape))
    return out


def take_rows(a: Var, index) -> Var:
    """Rows ``a[index]``, repeats allowed. The backward sums each row's
    copies into a zero gradient of ``a``'s shape, in index order."""
    index = np.asarray(index, dtype=np.intp)
    out = Var(a.value[index], (a,))
    def grad_fn(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, index, g)
        _accum(a, ga)
    out.grad_fn = grad_fn
    return out


def concat(vars_, axis: int = 0) -> Var:
    out = Var(np.concatenate([v.value for v in vars_], axis=axis), tuple(vars_))
    sizes = [v.value.shape[axis] for v in vars_]
    def grad_fn(g):
        start = 0
        for v, s in zip(vars_, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + s)
            _accum(v, g[tuple(sl)])
            start += s
    out.grad_fn = grad_fn
    return out


def sparse_mm(M, a: Var, MT) -> Var:
    """Fixed sparse matrix times a Var: out = M @ a. ``MT`` is ``M``'s
    transpose as a ready CSR matrix, so that no backward pass builds ``M.T``."""
    out = Var(M @ a.value, (a,))
    out.grad_fn = lambda g: _accum(a, MT @ g)
    return out


def l1_mean(a: Var, b: Var) -> Var:
    """mean |a - b| as a scalar Var (sign(0) subgradient = 0)."""
    diff = a.value - b.value
    out = Var(np.mean(np.abs(diff)), (a, b))
    def grad_fn(g):
        s = np.sign(diff) * (float(g) / diff.size)
        _accum(a, s)
        _accum(b, -s)
    out.grad_fn = grad_fn
    return out


def add_scalars(vars_) -> Var:
    out = Var(sum(v.value for v in vars_), tuple(vars_))
    def grad_fn(g):
        for v in vars_:
            _accum(v, g)
    out.grad_fn = grad_fn
    return out
