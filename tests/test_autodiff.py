"""Op-level gradient checks against central finite differences, plus tape
semantics (no_grad, broadcasting, determinism)."""

import weakref

import numpy as np
import pytest

from kinoplan import autodiff as ad
from kinoplan.autodiff import Tensor
from kinoplan.errors import DimensionError

from oracles import (composite_gru_cell, graph_keeping_backward, matmul, max_relative_error,
                     numeric_gradient, relu, sigmoid, tanh)


def _check_unary(op, rng, shape=(3, 4), scale=1.0, shift=0.0, tol=1e-6):
    x = Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)
    loss = ad.sum_(ad.square(op(x)))
    loss.backward()
    num = numeric_gradient(lambda: float(ad.sum_(ad.square(op(x))).data), x.data)
    assert max_relative_error(x.grad, num) < tol, op.__name__


@pytest.mark.parametrize("op", [ad.exp, tanh, sigmoid, ad.elu])
def test_unary_gradients(op, rng):
    for _ in range(5):
        _check_unary(op, rng)


def test_log_gradient(rng):
    """A log op built on the tape's own node constructor, as a library op is,
    passes the same finite-difference check."""
    def log(a):
        a = ad.as_tensor(a)
        return ad.node(np.log(a.data), (a,), lambda g: (g / a.data,))

    _check_unary(log, rng, scale=0.5, shift=3.0)


def test_relu_and_clip_gradients(rng):
    # stay away from the kink so finite differences are clean
    x = Tensor(rng.normal(size=(4, 3)) + 2.0, requires_grad=True)
    for op in (relu, lambda t: ad.clip(t, -1.0, 1.5)):
        x.grad = None
        loss = ad.sum_(ad.square(op(x)))
        loss.backward()
        num = numeric_gradient(lambda: float(ad.sum_(ad.square(op(x))).data), x.data)
        assert max_relative_error(x.grad, num) < 1e-6


def test_binary_and_broadcast_gradients(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def loss_fn():
        return ad.sum_(ad.square(a * b + b - a * 0.5))

    loss = loss_fn()
    loss.backward()
    for t in (a, b):
        num = numeric_gradient(lambda: float(loss_fn().data), t.data)
        assert max_relative_error(t.grad, num) < 1e-6


def test_matmul_gradients(rng):
    cases = [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,))]
    for sa, sb in cases:
        a = Tensor(rng.normal(size=sa), requires_grad=True)
        b = Tensor(rng.normal(size=sb), requires_grad=True)

        def loss_fn():
            return ad.sum_(ad.square(matmul(a, b)))

        loss = loss_fn()
        loss.backward()
        for t in (a, b):
            num = numeric_gradient(lambda: float(loss_fn().data), t.data)
            assert max_relative_error(t.grad, num) < 1e-6, (sa, sb)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_reduction_and_shape_ops(rng):
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def loss_fn():
        y = ad.mean(x, axis=0)
        z = ad.reshape(ad.sum_(x, axis=1, keepdims=True), (4,))
        return ad.sum_(ad.square(ad.concat([y, z], axis=0)))

    loss_fn().backward()
    num = numeric_gradient(lambda: float(loss_fn().data), x.data)
    assert max_relative_error(x.grad, num) < 1e-6


def test_take_and_where_and_minimum(rng):
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    mask = rng.normal(size=(5, 4)) > 0

    def loss_fn():
        sel = ad.where(mask, x, y)
        mn = ad.minimum(x, y)
        return ad.sum_(ad.square(sel + mn)) + ad.sum_(ad.square(x[1:3, :2]))

    loss_fn().backward()
    for t in (x, y):
        num = numeric_gradient(lambda: float(loss_fn().data), t.data)
        assert max_relative_error(t.grad, num) < 1e-6


def test_conv1d_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 17)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 5)) * 0.3, requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def loss_fn():
        return ad.sum_(ad.square(ad.conv1d(x, w, b, stride=2)))

    loss_fn().backward()
    for t in (x, w, b):
        num = numeric_gradient(lambda: float(loss_fn().data), t.data)
        assert max_relative_error(t.grad, num) < 1e-6


def test_conv1d_shape_errors(rng):
    with pytest.raises(DimensionError):
        ad.conv1d(Tensor(np.zeros((1, 2, 10))), Tensor(np.zeros((3, 4, 5))),
                  Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.conv1d(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((3, 2, 5))),
                  Tensor(np.zeros(3)))


def test_no_grad_skips_tape(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with ad.no_grad():
        y = ad.sum_(ad.square(x))
    assert y._parents == () and y._backward is None
    # the flag is restored after the block: an op is tracked again
    assert ad.square(x)._backward is not None


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        ad.square(x).backward()


def test_grad_accumulates_across_backwards(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    for _ in range(2):
        ad.sum_(ad.square(x)).backward()
    assert np.allclose(x.grad, 4.0 * x.data)


def test_seeded_evaluation_is_bit_identical():
    def run():
        r = np.random.default_rng(7)
        x = Tensor(r.normal(size=(6, 6)), requires_grad=True)
        w = Tensor(r.normal(size=(6, 6)), requires_grad=True)
        loss = ad.sum_(tanh(matmul(x, w)) * r.normal(size=(6, 6)))
        loss.backward()
        return loss.data.copy(), x.grad.copy()

    (l1, g1), (l2, g2) = run(), run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_elu_matches_reference_bit_for_bit(rng):
    """elu as max(x, 0) + expm1(min(x, 0)) gives the same bits, value and
    gradient, as the two-branch select it replaced, signed zeros included."""
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, np.inf, -np.inf, np.nan]
    x = np.concatenate([special, rng.normal(size=500), 30.0 * rng.normal(size=100)])
    neg = np.expm1(np.minimum(x, 0.0))
    ref_value = np.where(x > 0.0, x, neg)
    ref_grad = 0.7 * np.where(x > 0.0, 1.0, neg + 1.0)

    t = Tensor(x, requires_grad=True)
    y = ad.elu(t)
    y.backward(np.full_like(x, 0.7))
    for got, ref in ((y.data, ref_value), (t.grad, ref_grad)):
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_matmul_skips_constant_operand_gradient(rng):
    x = rng.normal(size=(5, 3))
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    g = rng.normal(size=(5, 4))
    out = matmul(Tensor(x), w)
    gx, gw = out._backward(g)
    assert gx is None
    assert gw.tobytes() == (x.T @ g).tobytes()
    out.backward(g)
    assert w.grad.tobytes() == (x.T @ g).tobytes()

    xt = Tensor(x, requires_grad=True)
    gx, gw = matmul(xt, w)._backward(g)
    assert gx.tobytes() == (g @ w.data.T).tobytes()
    assert gw.tobytes() == (x.T @ g).tobytes()


def _special_values(rng):
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, np.inf, -np.inf, np.nan]
    return np.concatenate([special, rng.normal(size=60), 30.0 * rng.normal(size=30)])


def _same_bits(got, ref):
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("elu", [True, False])
def test_dense_matches_composite_bit_for_bit(elu, rng):
    """dense(x, w, b) gives the value and the x, w and b gradients of
    elu(matmul(x, w) + b) (or of the linear form) with the same bits."""
    def composite(x, w, b):
        pre = matmul(x, w) + b
        return ad.elu(pre) if elu else pre

    special = _special_values(rng)
    # x @ [[1]] + (-0.0), and a zero row of x plus a bias, hand the special
    # values to the activation; a zero pre-activation may come out as +0.0,
    # since a BLAS sum of signed zeros may start from +0.0
    cases = [(special[:, None], np.ones((1, 1)), np.array([-0.0])),
             (np.vstack([np.zeros((2, 3)), rng.normal(size=(2, 3))]),
              rng.normal(size=(3, special.size)), special),
             (rng.normal(size=(64, 17)), rng.normal(size=(17, 33)), rng.normal(size=33)),
             (3.0 * rng.normal(size=(5, 4)), rng.normal(size=(4, 2)), np.array([0.0, -0.0]))]
    pre = (matmul(Tensor(cases[0][0]), Tensor(cases[0][1])) + cases[0][2]).data[:, 0]
    assert np.array_equal(pre, special, equal_nan=True)
    for xd, wd, bd in cases:
        g = rng.normal(size=(xd.shape[0], wd.shape[1]))
        results = []
        for op in (ad.dense, composite):
            x, w, b = (Tensor(v, requires_grad=True) for v in (xd, wd, bd))
            y = op(x, w, b, elu=elu) if op is ad.dense else op(x, w, b)
            with np.errstate(invalid="ignore"):      # inf * 0 in the w gradient
                y.backward(g)
            results.append((y.data, x.grad, w.grad, b.grad))
        for got, ref in zip(*results):
            _same_bits(got, ref)

    # an input off the tape gets no gradient; w and b still get theirs
    xd, wd, bd = cases[2]
    g = rng.normal(size=(xd.shape[0], wd.shape[1]))
    w, b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
    y = ad.dense(Tensor(xd), w, b, elu=elu)
    assert y._backward(g)[0] is None
    y.backward(g)
    ref_w, ref_b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
    composite(Tensor(xd), ref_w, ref_b).backward(g)
    _same_bits(w.grad, ref_w.grad)
    _same_bits(b.grad, ref_b.grad)


def test_dense_rejects_shapes_other_than_rows_by_features():
    w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
    for x in (np.zeros(3), np.zeros((2, 2, 3)), np.zeros((2, 4))):
        with pytest.raises(DimensionError):
            ad.dense(Tensor(x), w, b)
    with pytest.raises(DimensionError):
        ad.dense(Tensor(np.zeros((2, 3))), w, Tensor(np.zeros(3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 13, 288])
def test_gru_cell_matches_composite_bit_for_bit(batch, dtype, rng):
    """gru_cell gives the value and the x, h, w_x, w_h and b gradients of the
    GRU step built from elementary ops, with the same bits, while h also
    feeds a second op whose gradient the tape adds to h's."""
    n_in, n = 11, 24
    xd = rng.normal(size=(batch, n_in)).astype(dtype)
    hd = np.tanh(rng.normal(size=(batch, n))).astype(dtype)
    hd[0, :3] = [0.0, -0.0, 1.0]
    wxd = (4.0 * rng.normal(size=(n_in, 3 * n))).astype(dtype)    # saturates gates
    whd = rng.normal(size=(n, 3 * n)).astype(dtype)
    bd = rng.normal(size=3 * n).astype(dtype)
    g = rng.normal(size=(batch, n)).astype(dtype)
    g[0, :2] = [0.0, -0.0]
    g_h = rng.normal(size=(batch, n)).astype(dtype)
    results = []
    for op in (ad.gru_cell, composite_gru_cell):
        x, h, w_x, w_h, b = (Tensor(v, requires_grad=True) for v in (xd, hd, wxd, whd, bd))
        y = op(x, h, w_x, w_h, b)
        loss = ad.sum_(y * g) + ad.sum_(tanh(h) * g_h)
        loss.backward()
        results.append((y.data, x.grad, h.grad, w_x.grad, w_h.grad, b.grad))
        assert y.data.dtype == dtype and all(r.dtype == dtype for r in results[-1])
    for got, ref in zip(*results):
        _same_bits(got, ref)


def test_gru_cell_rejects_mismatched_shapes_and_dtypes():
    x, h = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))
    w_x, w_h, b = Tensor(np.zeros((3, 12))), Tensor(np.zeros((4, 12))), Tensor(np.zeros(12))
    assert ad.gru_cell(x, h, w_x, w_h, b).data.shape == (2, 4)
    for args in ((Tensor(np.zeros((3, 3))), h, w_x, w_h, b),
                 (x, Tensor(np.zeros(4)), w_x, w_h, b),
                 (x, h, Tensor(np.zeros((3, 9))), w_h, b),
                 (x, h, w_x, Tensor(np.zeros((4, 9))), b),
                 (x, h, w_x, w_h, Tensor(np.zeros(9)))):
        with pytest.raises(DimensionError):
            ad.gru_cell(*args)
    with pytest.raises(DimensionError, match="dtype"):
        ad.gru_cell(x, Tensor(np.zeros((2, 4), np.float32)), w_x, w_h, b)


@pytest.mark.parametrize("on_tape", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clip_has_the_bits_of_np_clip(dtype, on_tape):
    """ad.clip takes min(max(x, lo), hi), which has np.clip's bits with
    nonzero bounds: NaN, signed zeros and infinities included."""
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 0.3, -0.2, -0.5, 0.7,
                  -0.5000001, 0.7000001, 3.0, -3.0], dtype=dtype)
    for lo, hi in ((-0.5, 0.7), (-0.5, None), (None, 0.7), (0.25, 2.5), (-2.5, -0.25)):
        t = Tensor(x, requires_grad=on_tape)
        got = ad.clip(t, lo, hi)
        assert got.data.dtype == dtype and (got._backward is not None) == on_tape
        _same_bits(got.data, np.clip(x, lo, hi))


def test_sigmoid_matches_reference_bit_for_bit(rng):
    """sigmoid computed in one buffer has the bits of 0.5 * (tanh(0.5 x) + 1),
    value and gradient."""
    x = _special_values(rng)
    ref_value = 0.5 * (np.tanh(0.5 * x) + 1.0)
    g = rng.normal(size=x.shape)
    ref_grad = g * ref_value * (1.0 - ref_value)

    t = Tensor(x, requires_grad=True)
    y = sigmoid(t)
    y.backward(g)
    _same_bits(y.data, ref_value)
    _same_bits(t.grad, ref_grad)


def test_sub_matches_add_of_negation_bit_for_bit(rng):
    """a - b as one node gives the value and gradients of a + (-1 * b),
    for a broadcast operand and for a constant on either side."""
    ad_, bd = rng.normal(size=(6, 4)), rng.normal(size=4)
    ad_[0, :2], bd[:2] = [0.0, -0.0], [-0.0, 0.0]
    g = rng.normal(size=(6, 4))
    results = []
    for op in (lambda a, b: a - b, lambda a, b: ad.add(a, ad.mul(b, -1.0))):
        a, b = Tensor(ad_, requires_grad=True), Tensor(bd, requires_grad=True)
        y = op(a, b)
        y.backward(g)
        results.append((y.data, a.grad, b.grad))
    for got, ref in zip(*results):
        _same_bits(got, ref)

    u = Tensor(bd, requires_grad=True)
    y = 1.0 - u
    assert y._backward(g[0])[0] is None      # the constant gets no gradient
    y.backward(g[0])
    _same_bits(y.data, -bd + 1.0)
    _same_bits(u.grad, g[0] * -1.0)
    a = Tensor(ad_, requires_grad=True)
    y = a - bd
    assert y._backward(g)[1] is None
    _same_bits(y.data, ad_ + -bd)


def test_add_and_mul_skip_constant_operand_gradient(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    c = rng.normal(size=3)
    g = rng.normal(size=(5, 3))
    for op, ref in ((ad.add, g), (ad.mul, g * c)):
        gx, gc = op(x, c)._backward(g)
        assert gc is None
        assert gx.tobytes() == ref.tobytes()
        gc, gx = op(c, x)._backward(g)
        assert gc is None
        assert gx.tobytes() == ref.tobytes()


# -- dtypes -------------------------------------------------------------------------

F32 = np.float32


def test_ops_keep_float32_and_python_scalars_do_not_widen(rng):
    x = Tensor(rng.normal(size=(4, 3)).astype(F32), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)).astype(F32), requires_grad=True)
    b = Tensor(np.zeros(2, F32), requires_grad=True)
    y = sigmoid(0.5 * ad.dense(x, w, b, elu=True) - 1.0)
    y = ad.mean(ad.square(1.0 - y) + ad.exp(-y) * 2)
    assert y.data.dtype == F32
    y.backward()
    for t in (x, w, b):
        assert t.grad.dtype == F32


def test_tape_operands_of_two_dtypes_are_refused_and_astype_casts_back(rng):
    """All tensor operands of an op on the tape share one dtype: a float32
    and a float64 tensor, on the tape or off it, do not meet unless one is
    cast with astype, whose backward rounds the float64 gradient back."""
    a = Tensor(rng.normal(size=3).astype(F32), requires_grad=True)
    c = Tensor(rng.normal(size=3), requires_grad=True)
    for u, v in ((a, c), (c, a), (a, c.data), (c, a.data), (a.data, c), (c.data, a)):
        for op in (ad.add, ad.sub, ad.mul, lambda u, v: ad.concat([u, v])):
            with pytest.raises(DimensionError, match="widened"):
                op(u, v)
    y = ad.sum_(ad.astype(a, np.float64) * c)
    assert y.data.dtype == np.float64
    y.backward()
    assert a.grad.dtype == F32 and c.grad.dtype == np.float64
    assert a.grad.tobytes() == c.data.astype(F32).tobytes()


def test_astype_round_trips_the_gradient(rng):
    a = Tensor(rng.normal(size=(2, 3)).astype(F32), requires_grad=True)
    wide = ad.astype(a, np.float64)
    assert wide.data.dtype == np.float64 and ad.astype(wide, np.float64) is wide
    ad.sum_(ad.square(wide)).backward()
    assert a.grad.dtype == F32
    assert a.grad.tobytes() == (2.0 * a.data.astype(np.float64)).astype(F32).tobytes()


@pytest.mark.parametrize("op", ["dense", "matmul"])
def test_dense_and_matmul_refuse_a_float64_constant_in_a_float32_layer(op, rng):
    x = rng.normal(size=(4, 3))                       # float64, never cast
    w32 = rng.normal(size=(3, 2)).astype(F32)
    call = {"dense": lambda x, w: ad.dense(x, w, Tensor(np.zeros(2, w.data.dtype))),
            "matmul": matmul}[op]
    with pytest.raises(DimensionError, match="dtype"):
        call(Tensor(x), Tensor(w32))                  # off the tape
    with pytest.raises(DimensionError, match="widened"):
        call(Tensor(x), Tensor(w32, requires_grad=True))
    with ad.no_grad():
        with pytest.raises(DimensionError, match="dtype"):
            call(Tensor(x), Tensor(w32, requires_grad=True))
    assert call(Tensor(x.astype(F32)), Tensor(w32, requires_grad=True)).data.dtype == F32


def test_float64_noise_on_a_float32_tape_is_refused(rng):
    """The leak the rule exists for: a float64 draw multiplied into a
    float32 tensor on the tape."""
    log_std = Tensor(np.zeros(3, F32), requires_grad=True)
    with pytest.raises(DimensionError, match="widened"):
        ad.exp(log_std) * rng.standard_normal(3)
    with pytest.raises(DimensionError, match="widened"):
        ad.exp(log_std) * np.float64(0.5)             # a numpy scalar is not weak
    assert (ad.exp(log_std) * rng.standard_normal(3).astype(F32)).data.dtype == F32


def test_sigmoid_and_exp_stay_finite_at_float32_extremes():
    x = Tensor(np.array([-1e4, -300.0, -100.0, 0.0, 100.0, 300.0, 1e4], F32),
               requires_grad=True)
    y = sigmoid(x)
    ad.sum_(y).backward()
    assert y.data.dtype == F32 and np.isfinite(y.data).all() and np.isfinite(x.grad).all()
    assert y.data[0] == 0.0 and y.data[-1] == 1.0
    # exp of a log-std clamped to [-5, 2], as the heads and the actor clamp it
    log_std = ad.clip(Tensor(np.array([-1e4, 1e4], F32), requires_grad=True), -5.0, 2.0)
    for e in (ad.exp(log_std), ad.exp(-log_std), ad.exp(2.0 * (log_std - log_std[::-1]))):
        assert e.data.dtype == F32 and np.isfinite(e.data).all()


# -- the off-tape branch ------------------------------------------------------------

MASK = np.arange(12).reshape(4, 3) % 3 == 0

# (op, operands): an operand is a shape, drawn as an array of the test's dtype,
# or a Python scalar, passed as it is
OPS = {
    "add": (ad.add, [(4, 3), (3,)]),
    "add scalar": (ad.add, [(4, 3), 0.3]),
    "radd int": (lambda a, b: a + b, [2, (4, 3)]),
    "sub": (ad.sub, [(4, 3), (4, 1)]),
    "rsub scalar": (lambda a, b: a - b, [1.5, (4, 3)]),
    "mul": (ad.mul, [(4, 3), (4, 3)]),
    "mul scalar": (ad.mul, [(4, 3), -0.7]),
    "neg": (lambda a: -a, [(4, 3)]),
    "square": (ad.square, [(4, 3)]),
    "matmul": (matmul, [(4, 3), (3, 2)]),
    "matmul vector": (matmul, [(3,), (3, 2)]),
    "astype": (lambda a: ad.astype(a, np.float64 if a.data.dtype == F32 else F32), [(4, 3)]),
    "exp": (ad.exp, [(4, 3)]),
    "tanh": (tanh, [(4, 3)]),
    "sigmoid": (sigmoid, [(4, 3)]),
    "elu": (ad.elu, [(4, 3)]),
    "relu": (relu, [(4, 3)]),
    "clip": (lambda a: ad.clip(a, -0.5, 0.7), [(4, 3)]),
    "dense": (ad.dense, [(4, 3), (3, 2), (2,)]),
    "dense elu": (lambda x, w, b: ad.dense(x, w, b, elu=True), [(4, 3), (3, 2), (2,)]),
    "gru_cell": (ad.gru_cell, [(4, 3), (4, 2), (3, 6), (2, 6), (6,)]),
    "where": (lambda a, b: ad.where(MASK, a, b), [(4, 3), (4, 3)]),
    "where scalar": (lambda a, b: ad.where(MASK, a, b), [(4, 3), 0.0]),
    "minimum": (ad.minimum, [(4, 3), (4, 3)]),
    "minimum scalar": (ad.minimum, [0.1, (4, 3)]),
    "sum all": (ad.sum_, [(4, 3)]),
    "sum axis": (lambda a: ad.sum_(a, axis=0, keepdims=True), [(4, 3)]),
    "mean all": (ad.mean, [(4, 3)]),
    "mean axis": (lambda a: ad.mean(a, axis=-1), [(4, 3)]),
    "reshape": (lambda a: ad.reshape(a, (3, 4)), [(4, 3)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=0), [(4, 3), (2, 3)]),
    "take": (lambda a: a[1:3, ::2], [(4, 3)]),
    "conv1d": (lambda x, w, b: ad.conv1d(x, w, b, stride=2), [(2, 3, 9), (4, 3, 3), (4,)]),
}


@pytest.mark.parametrize("dtype", [F32, np.float64])
@pytest.mark.parametrize("name", OPS)
def test_off_tape_result_has_the_dtype_and_bits_of_the_tape_result(name, dtype, rng):
    op, operands = OPS[name]
    drawn = [rng.normal(size=o).astype(dtype) if isinstance(o, tuple) else o
             for o in operands]

    def run(requires_grad):
        return op(*[Tensor(d, requires_grad=requires_grad) if isinstance(d, np.ndarray)
                    else d for d in drawn])

    tape = run(True)
    assert tape._backward is not None
    with ad.no_grad():
        off = run(True)
    for out in (off, run(False)):                     # under no_grad, and constants
        assert type(out.data) is np.ndarray
        assert out.data.dtype == tape.data.dtype
        assert out.data.tobytes() == tape.data.tobytes()
        assert out._parents == () and out._backward is None and not out.requires_grad


def test_backward_releases_the_graph_as_it_goes(rng):
    """backward drops each node's parents and closure once it has run: a
    hidden layer's output is freed once the caller drops its own reference,
    though the caller still holds the loss, and every parameter gradient has
    the bits of a backward that keeps the graph."""
    xd = rng.normal(size=(32, 5)).astype(F32)
    arrays = [rng.normal(size=s).astype(F32) for s in ((5, 16), (16,), (16, 1), (1,))]

    def loss_and_hidden():
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        hidden = ad.dense(xd, params[0], params[1], elu=True)
        return ad.sum_(ad.square(ad.dense(hidden, params[2], params[3]))), hidden, params

    ref_loss, _, ref_params = loss_and_hidden()
    graph_keeping_backward(ref_loss)
    loss, hidden, params = loss_and_hidden()
    gone = weakref.ref(hidden.data)
    del hidden
    assert gone() is not None                   # the graph holds it until backward
    loss.backward()
    assert gone() is None
    assert loss._parents == ()
    for p, ref in zip(params, ref_params):
        assert p.grad.tobytes() == ref.grad.tobytes()


def test_backward_through_a_released_graph_raises(rng):
    """A second backward, of the loss or of a new graph built on one of its
    intermediates, raises instead of leaving the gradients unchanged."""
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    hidden = ad.dense(rng.normal(size=(4, 3)), w, Tensor(np.zeros(2)), elu=True)
    loss = ad.sum_(ad.square(hidden))
    loss.backward()
    grad = w.grad.copy()
    with pytest.raises(RuntimeError, match="already backpropagated"):
        loss.backward()
    with pytest.raises(RuntimeError, match="already backpropagated"):
        ad.sum_(hidden * 2.0).backward()
    assert w.grad.tobytes() == grad.tobytes()
