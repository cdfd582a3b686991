"""Reverse-mode automatic differentiation over numpy arrays.

A dynamic tape: each op returns a new Tensor holding references to its
parents and a closure that routes the incoming gradient to them. Only the
operations this package actually uses are implemented. Gradients for a
scalar loss are obtained with ``loss.backward()``, which frees the graph as
it goes: a second backward through any of its ops raises. Grad mode
(`_GRAD_ENABLED`, off in `no_grad`) is one flag per process, not per thread;
neither of PPO's two concurrent passes (actor and critic) enters `no_grad`.

The dtype rule: every tensor keeps its own float dtype, and all tensor
operands of an op on the tape share one dtype. A Python scalar adopts that
dtype, as in numpy 2 (NEP 50), so `0.5 * x` keeps a float32 x float32.
`astype` is the only conversion; its backward casts the gradient back, so a
gradient arrives in each tensor's own dtype. An op on the tape refuses an
operand of another dtype, which is how a float64 array leaking into a
float32 network shows up.

Off the tape, an op skips the tape machinery. When no operand is on the tape
(always so under `no_grad`, where all inference runs), an op reads its
operands' arrays, does the numpy work and wraps the result in a bare tensor:
no operand coercion, no constructor checks and no dtype check in the
elementwise ops. It keeps the shape checks, and dense, gru_cell and conv1d
still compare their operands' dtypes, so a float64 array handed to a
float32 layer is refused there too. Results have the tape's dtype and bits.

Two ops are one tape node each for a chain of elementary ops: `dense` (a
layer) and `gru_cell` (a GRU step). Each gives that chain's values and
gradients bit for bit, pinned by a test against the chain.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DimensionError

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
    """An n-d array with an optional gradient accumulator and tape node.
    Float data keeps its dtype; any other data becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- autodiff ------------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise DimensionError("backward() without an explicit gradient "
                                     "requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
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
        while order:
            node = order.pop()      # each op's closure and parents go once read
            parents, backward = node._parents, node._backward
            if backward is not None:
                node._parents, node._backward = (), _released
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if backward is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operator sugar (+, *, - and [] are the ops themselves, bound at the end) --

    def __neg__(self):
        return mul(self, -1.0)

    def __rsub__(self, other):
        return sub(other, self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _data(x):
    """An operand's array: a tensor's data, or the operand itself."""
    return x.data if isinstance(x, Tensor) else x


def _const(data) -> Tensor:
    """An op's result off the tape: a tensor around `data`, without
    __init__'s coercion. Only a numpy scalar, which a ufunc of 0-d arrays
    returns, is made an array."""
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = out._backward = None
    out.requires_grad = False
    out._parents = ()
    return out


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a Python scalar adopts the other's dtype."""
    if type(a) in (int, float):
        b = as_tensor(b)
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    a = as_tensor(a)
    if type(b) in (int, float):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, as_tensor(b)


def _released(g):
    raise RuntimeError("backward through a graph that was already backpropagated")


def _tracked(*tensors) -> bool:
    """Whether an operand is on the tape. Callers test _GRAD_ENABLED first,
    which spares the call under no_grad."""
    return any(isinstance(t, Tensor) and (t.requires_grad or t._parents or t._backward)
               for t in tensors)


def on_tape(*operands) -> bool:
    """Whether an op on these operands goes on the tape, for ops built
    outside this module."""
    return _GRAD_ENABLED and _tracked(*operands)


def node(data, parents, backward) -> Tensor:
    """A tape node: `backward(g)` gives one gradient or None per parent. The
    caller has found a parent on the tape; every parent must have the
    result's dtype."""
    out = Tensor(data)
    dtype = out.data.dtype
    for p in parents:
        if p.data.dtype != dtype:
            raise DimensionError(f"a {p.data.dtype} operand widened an op on the tape to "
                                 f"{dtype}; cast it with astype first")
    out._parents = tuple(parents)
    out._backward = backward
    return out


def _mixed_dtypes(*arrays) -> DimensionError:
    """dense, gru_cell and conv1d compute in one dtype: off the tape
    their operands must agree (on the tape, node refuses the mix)."""
    return DimensionError(f"operands of different dtypes: {[a.dtype.name for a in arrays]}")


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

# Binary ops return None for an operand that is off the tape, so no gradient
# is formed (or summed down from a broadcast) only to be dropped.

def add(a, b) -> Tensor:
    if not (_GRAD_ENABLED and _tracked(a, b)):
        return _const(_data(a) + _data(b))
    a, b = _pair(a, b)
    need_a, need_b = _tracked(a), _tracked(b)
    return node(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if need_a else None,
        _unbroadcast(g, b.data.shape) if need_b else None))


def sub(a, b) -> Tensor:
    if not (_GRAD_ENABLED and _tracked(a, b)):
        return _const(_data(a) - _data(b))
    a, b = _pair(a, b)
    need_a, need_b = _tracked(a), _tracked(b)
    return node(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if need_a else None,
        -_unbroadcast(g, b.data.shape) if need_b else None))


def mul(a, b) -> Tensor:
    if not (_GRAD_ENABLED and _tracked(a, b)):
        return _const(_data(a) * _data(b))
    a, b = _pair(a, b)
    need_a, need_b = _tracked(a), _tracked(b)
    return node(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if need_a else None,
        _unbroadcast(g * a.data, b.data.shape) if need_b else None))


def square(a) -> Tensor:
    data = _data(a) ** 2.0
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)
    return node(data, (a,), lambda g: (g * 2.0 * a.data,))


def astype(a, dtype) -> Tensor:
    """`a` in `dtype`: the one op that changes a dtype. Its gradient flows
    back cast to a's own dtype."""
    a = as_tensor(a)
    if a.data.dtype == dtype:
        return a
    out = _const(a.data.astype(dtype))
    if _GRAD_ENABLED and _tracked(a):
        out._parents, out._backward = (a,), lambda g: (g.astype(a.data.dtype),)
    return out


# -- nonlinearities -------------------------------------------------------------

def exp(a) -> Tensor:
    data = np.exp(_data(a))
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)
    return node(data, (a,), lambda g: (g * data,))


def _elu(pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(pre, 0) + expm1(min(pre, 0)), written into `out` (which may be
    `pre` itself) or into a new array laid out like `pre`. The layout
    matters: a later sum over the gradient adds in memory order."""
    neg = np.minimum(pre, 0.0)
    np.expm1(neg, out=neg)
    out = np.maximum(pre, 0.0, out=out)
    out += neg
    return out


def _elu_slope(y: np.ndarray) -> np.ndarray:
    """ELU's local slope from its output alone. min(y, 0) equals
    expm1(min(pre, 0)) except for zeros of either sign, so min(y, 0) + 1 has
    the bits of the slope expm1(min(pre, 0)) + 1, NaN and +-inf included."""
    slope = np.minimum(y, 0.0)
    slope += 1.0
    return slope


def elu(a) -> Tensor:
    data = _elu(_data(a))
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)
    return node(data, (a,), lambda g: (g * _elu_slope(data),))


def dense(x, w, b, elu: bool = False) -> Tensor:
    """One dense layer as one tape node: x @ w + b, then ELU if `elu`.

    x is (N, in), w (in, out) and b (out,). The bias and the ELU are applied
    in place to the matmul output, and backward reads only the layer's
    output, so the tape keeps one array per layer. Values and gradients have
    the bits of elu(matmul(x, w) + b).
    """
    xd, wd, bd = _data(x), _data(w), _data(b)
    if (xd.ndim, wd.ndim, bd.ndim) != (2, 2, 1) or xd.shape[1] != wd.shape[0] \
            or bd.shape[0] != wd.shape[1]:
        raise DimensionError(f"dense expects (N, in) @ (in, out) + (out,), got "
                             f"{xd.shape} @ {wd.shape} + {bd.shape}")
    tracked = _GRAD_ENABLED and _tracked(x, w, b)
    if not tracked and not xd.dtype == wd.dtype == bd.dtype:
        raise _mixed_dtypes(xd, wd, bd)
    data = xd @ wd
    data += bd
    if elu:
        _elu(data, out=data)
    if not tracked:
        return _const(data)
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    need_x, need_w, need_b = _tracked(x), _tracked(w), _tracked(b)

    def backward(g):
        if elu:
            slope = _elu_slope(data)
            g = np.multiply(slope, g, out=slope)    # one (N, out) temporary, not two
        return (g @ w.data.T if need_x else None,
                x.data.T @ g if need_w else None,
                g.sum(axis=0) if need_b else None)

    return node(data, (x, w, b), backward)


def gru_cell(x, h, w_x, w_h, b) -> Tensor:
    """One GRU step, gate order (r, u, c): h' = (1 - u) * h + u * c with
    c = tanh(gx_c + r * gh_c), gx = x @ w_x + b, gh = h @ w_h and r, u =
    sigmoid(gx + gh). h is a parent twice, so its terms through h @ w_h and
    (1 - u) * h reach the tape apart, as from the chain of ops."""
    xd, hd, wxd, whd, bd = _data(x), _data(h), _data(w_x), _data(w_h), _data(b)
    n = hd.shape[-1]
    if xd.ndim != 2 or hd.shape != (xd.shape[0], n) or wxd.shape != (xd.shape[1], 3 * n) \
            or whd.shape != (n, 3 * n) or bd.shape != (3 * n,):
        raise DimensionError("gru_cell expects x (N, in), h (N, n), w_x (in, 3n), w_h (n, 3n)"
                             f" and b (3n,), got {[a.shape for a in (xd, hd, wxd, whd, bd)]}")
    tracked = _GRAD_ENABLED and _tracked(x, h, w_x, w_h, b)
    if not tracked and not xd.dtype == hd.dtype == wxd.dtype == whd.dtype == bd.dtype:
        raise _mixed_dtypes(xd, hd, wxd, whd, bd)
    gx = xd @ wxd
    gx += bd
    gh = hd @ whd
    ru = 0.5 * (np.tanh(0.5 * (gx[:, :2 * n] + gh[:, :2 * n])) + 1.0)    # sigmoid's form
    r, u = ru[:, :n], ru[:, n:]
    c = np.tanh(gx[:, 2 * n:] + r * gh[:, 2 * n:])
    keep = 1.0 - u
    data = keep * hd + u * c
    if not tracked:
        return _const(data)
    x, h, w_x, w_h, b = (as_tensor(t) for t in (x, h, w_x, w_h, b))
    need_x, need_h, need_wx, need_wh, need_b = (_tracked(t) for t in (x, h, w_x, w_h, b))

    def backward(g):
        g_c = g * u * (1.0 - c * c)
        # r through r * gh_c; u through u * c and 1 - u
        g_ru = np.concatenate([g_c * gh[:, 2 * n:], g * c - g * hd], axis=1) * ru * (1.0 - ru)
        # 0.0 + g for each slice, as take's backward adds it into zeros
        g_gx = np.concatenate([g_ru, g_c], axis=1) + 0.0
        g_gh = np.concatenate([g_ru, g_c * r], axis=1) + 0.0
        return (g_gx @ wxd.T if need_x else None,
                g * keep if need_h else None,
                g_gh @ whd.T if need_h else None,
                xd.T @ g_gx if need_wx else None,
                hd.T @ g_gh if need_wh else None,
                g_gx.sum(axis=0) if need_b else None)

    return node(data, (x, h, h, w_x, w_h, b), backward)


def clip(a, lo=None, hi=None) -> Tensor:
    """np.clip's bits for nonzero bounds, at half its call cost; None is open."""
    data = _data(a) if lo is None else np.maximum(_data(a), lo)
    data = data if hi is None else np.minimum(data, hi)
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)
    inside = np.ones_like(a.data)
    if lo is not None:
        inside = inside * (a.data >= lo)
    if hi is not None:
        inside = inside * (a.data <= hi)
    return node(data, (a,), lambda g: (g * inside,))


def where(cond, a, b) -> Tensor:
    """Select elementwise by a constant boolean mask; mask is not differentiated."""
    cond = np.asarray(cond, dtype=bool)
    if not (_GRAD_ENABLED and _tracked(a, b)):
        return _const(np.where(cond, _data(a), _data(b)))
    a, b = _pair(a, b)
    return node(np.where(cond, a.data, b.data), (a, b),
                lambda g: (_unbroadcast(np.where(cond, g, 0.0), a.data.shape),
                           _unbroadcast(np.where(cond, 0.0, g), b.data.shape)))


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient routes to whichever branch is selected."""
    return where(_data(a) <= _data(b), a, b)


# -- reductions & shape ----------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    data = _data(a).sum(axis=axis, keepdims=keepdims)
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return node(data, (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    data = _data(a)
    n = data.size if axis is None else data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    data = _data(a).reshape(shape)
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)
    return node(data, (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors, axis=-1) -> Tensor:
    data = np.concatenate([_data(t) for t in tensors], axis=axis)
    if not (_GRAD_ENABLED and _tracked(*tensors)):
        return _const(data)
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return node(data, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def take(a, idx) -> Tensor:
    data = _data(a)[idx]
    if not (_GRAD_ENABLED and _tracked(a)):
        return _const(data)

    def backward(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return node(data, (a,), backward)


# -- convolution -----------------------------------------------------------------

def conv1d(x, w, b, stride: int = 1) -> Tensor:
    """1-D convolution: x (B, C_in, L), w (C_out, C_in, K), b (C_out,)."""
    xd, wd, bd = _data(x), _data(w), _data(b)
    bsz, c_in, length = xd.shape
    c_out, c_in_w, k = wd.shape
    if c_in != c_in_w:
        raise DimensionError(f"conv1d channels differ: input {c_in}, kernel {c_in_w}")
    if length < k:
        raise DimensionError(f"conv1d input length {length} < kernel {k}")
    l_out = (length - k) // stride + 1

    tracked = _GRAD_ENABLED and _tracked(x, w, b)
    if not tracked and not xd.dtype == wd.dtype == bd.dtype:
        raise _mixed_dtypes(xd, wd, bd)
    s0, s1, s2 = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd, shape=(bsz, c_in, l_out, k), strides=(s0, s1, s2 * stride, s2))
    data = np.einsum("bilk,oik->bol", windows, wd, optimize=True) + bd[None, :, None]
    if not tracked:
        return _const(data)
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def backward(g):
        gw = np.einsum("bol,bilk->oik", g, windows, optimize=True)
        gb = g.sum(axis=(0, 2))
        gx = np.zeros_like(x.data)
        for kk in range(k):
            # each kernel offset maps output position l to input position l*stride + kk
            gx[:, :, kk:kk + l_out * stride:stride] += np.einsum(
                "bol,oi->bil", g, w.data[:, :, kk], optimize=True)
        return gx, gw, gb

    return node(data, (x, w, b), backward)


# Bound as the operators themselves, so `a + b` calls `add` with no frame between.
Tensor.__add__ = Tensor.__radd__ = add
Tensor.__mul__ = Tensor.__rmul__ = mul
Tensor.__sub__ = sub
Tensor.__getitem__ = take
