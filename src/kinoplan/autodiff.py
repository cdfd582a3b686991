"""Reverse-mode automatic differentiation over numpy arrays.

A dynamic tape: each op returns a new Tensor holding references to its
parents and a closure that routes the incoming gradient to them. Only the
operations this package actually uses are implemented; 64-bit floats
throughout. Gradients for a scalar loss are obtained with
``loss.backward()``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DimensionError

DTYPE = np.float64

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """An n-d array with an optional gradient accumulator and tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self.name = name

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- autodiff ------------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise DimensionError("backward() without an explicit gradient "
                                     "requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=DTYPE)
            if grad.shape != self.data.shape:
                raise DimensionError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads = {id(self): grad}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, powi(other, -1.0))
        return mul(self, 1.0 / np.asarray(other, dtype=DTYPE))

    def __rtruediv__(self, other):
        return mul(powi(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return powi(self, exponent)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*tensors) -> bool:
    if not _GRAD_ENABLED:
        return False
    return any(isinstance(t, Tensor) and (t.requires_grad or t._parents or t._backward)
               for t in tensors)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    out._parents = tuple(parents)
    out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    if not _tracked(a, b):
        return Tensor(data)
    return _node(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    if not _tracked(a, b):
        return Tensor(data)
    return _node(data, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                          _unbroadcast(g * a.data, b.data.shape)))


def powi(a, exponent) -> Tensor:
    a = as_tensor(a)
    e = float(exponent)
    data = a.data ** e
    if not _tracked(a):
        return Tensor(data)
    return _node(data, (a,), lambda g: (g * e * a.data ** (e - 1.0),))


def square(a) -> Tensor:
    return powi(a, 2.0)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise DimensionError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    need_a, need_b = _tracked(a), _tracked(b)
    if not (need_a or need_b):
        return Tensor(data)

    def backward(g):
        ad, bd = a.data, b.data
        ga = gb = None                          # none for an operand off the tape
        if need_a:
            ga = g @ bd.T if bd.ndim == 2 else (np.outer(g, bd) if ad.ndim == 2 else g * bd)
        if need_b:
            gb = ad.T @ g if ad.ndim == 2 else (np.outer(ad, g) if bd.ndim == 2 else g * ad)
        return ga, gb

    return _node(data, (a, b), backward)


# -- nonlinearities -------------------------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    if not _tracked(a):
        return Tensor(data)
    return _node(data, (a,), lambda g: (g * data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    if not _tracked(a):
        return Tensor(data)
    return _node(data, (a,), lambda g: (g * (1.0 - data * data),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    if not _tracked(a):
        return Tensor(data)
    return _node(data, (a,), lambda g: (g * data * (1.0 - data),))


def elu(a) -> Tensor:
    a = as_tensor(a)
    neg = np.expm1(np.minimum(a.data, 0.0))
    data = np.maximum(a.data, 0.0) + neg
    if not _tracked(a):
        return Tensor(data)
    # neg is 0 wherever a > 0, so neg + 1 is the local slope on both sides
    return _node(data, (a,), lambda g: (g * (neg + 1.0),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)
    if not _tracked(a):
        return Tensor(data)
    return _node(data, (a,), lambda g: (g * (a.data > 0.0),))


def clip(a, lo=None, hi=None) -> Tensor:
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)
    if not _tracked(a):
        return Tensor(data)
    inside = np.ones_like(a.data)
    if lo is not None:
        inside = inside * (a.data >= lo)
    if hi is not None:
        inside = inside * (a.data <= hi)
    return _node(data, (a,), lambda g: (g * inside,))


def where(cond, a, b) -> Tensor:
    """Select elementwise by a constant boolean mask; mask is not differentiated."""
    cond = np.asarray(cond, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    data = np.where(cond, a.data, b.data)
    if not _tracked(a, b):
        return Tensor(data)
    return _node(data, (a, b),
                 lambda g: (_unbroadcast(np.where(cond, g, 0.0), a.data.shape),
                            _unbroadcast(np.where(cond, 0.0, g), b.data.shape)))


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient routes to whichever branch is selected."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data <= b.data, a, b)


# -- reductions & shape ----------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _tracked(a):
        return Tensor(data)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return _node(data, (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    if not _tracked(a):
        return Tensor(data)
    return _node(data, (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors, axis=-1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _tracked(*tensors):
        return Tensor(data)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _node(data, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def take(a, idx) -> Tensor:
    a = as_tensor(a)
    data = a.data[idx]
    if not _tracked(a):
        return Tensor(data)

    def backward(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _node(data, (a,), backward)


# -- convolution -----------------------------------------------------------------

def conv1d(x, w, b, stride: int = 1) -> Tensor:
    """1-D convolution: x (B, C_in, L), w (C_out, C_in, K), b (C_out,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    bsz, c_in, length = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise DimensionError(f"conv1d channels differ: input {c_in}, kernel {c_in_w}")
    if length < k:
        raise DimensionError(f"conv1d input length {length} < kernel {k}")
    l_out = (length - k) // stride + 1

    s0, s1, s2 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data, shape=(bsz, c_in, l_out, k), strides=(s0, s1, s2 * stride, s2))
    data = np.einsum("bilk,oik->bol", windows, w.data, optimize=True) + b.data[None, :, None]
    if not _tracked(x, w, b):
        return Tensor(data)

    def backward(g):
        gw = np.einsum("bol,bilk->oik", g, windows, optimize=True)
        gb = g.sum(axis=(0, 2))
        gx = np.zeros_like(x.data)
        for kk in range(k):
            # each kernel offset maps output position l to input position l*stride + kk
            gx[:, :, kk:kk + l_out * stride:stride] += np.einsum(
                "bol,oi->bil", g, w.data[:, :, kk], optimize=True)
        return gx, gw, gb

    return _node(data, (x, w, b), backward)
