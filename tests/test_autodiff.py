"""Op-level gradient checks against central finite differences, plus tape
semantics (no_grad, broadcasting, determinism)."""

import numpy as np
import pytest

from kinoplan import autodiff as ad
from kinoplan.autodiff import Tensor
from kinoplan.errors import DimensionError

from oracles import max_relative_error, numeric_gradient


def _check_unary(op, rng, shape=(3, 4), scale=1.0, shift=0.0, tol=1e-6):
    x = Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)
    loss = ad.sum_(ad.square(op(x)))
    loss.backward()
    num = numeric_gradient(lambda: float(ad.sum_(ad.square(op(x))).data), x.data)
    assert max_relative_error(x.grad, num) < tol, op.__name__


@pytest.mark.parametrize("op", [ad.exp, ad.tanh, ad.sigmoid, ad.elu])
def test_unary_gradients(op, rng):
    for _ in range(5):
        _check_unary(op, rng)


def test_log_gradient(rng):
    """A log op built on the tape's own node constructor, as a library op is,
    passes the same finite-difference check."""
    def log(a):
        a = ad.as_tensor(a)
        return ad._node(np.log(a.data), (a,), lambda g: (g / a.data,))

    _check_unary(log, rng, scale=0.5, shift=3.0)


def test_relu_and_clip_gradients(rng):
    # stay away from the kink so finite differences are clean
    x = Tensor(rng.normal(size=(4, 3)) + 2.0, requires_grad=True)
    for op in (ad.relu, lambda t: ad.clip(t, -1.0, 1.5)):
        x.grad = None
        loss = ad.sum_(ad.square(op(x)))
        loss.backward()
        num = numeric_gradient(lambda: float(ad.sum_(ad.square(op(x))).data), x.data)
        assert max_relative_error(x.grad, num) < 1e-6


def test_binary_and_broadcast_gradients(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def loss_fn():
        return ad.sum_(ad.square(a * b + b - a / 2.0))

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
            return ad.sum_(ad.square(ad.matmul(a, b)))

        loss = loss_fn()
        loss.backward()
        for t in (a, b):
            num = numeric_gradient(lambda: float(loss_fn().data), t.data)
            assert max_relative_error(t.grad, num) < 1e-6, (sa, sb)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


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
        loss = ad.sum_(ad.tanh(ad.matmul(x, w)) * r.normal(size=(6, 6)))
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
    out = ad.matmul(Tensor(x), w)
    gx, gw = out._backward(g)
    assert gx is None
    assert gw.tobytes() == (x.T @ g).tobytes()
    out.backward(g)
    assert w.grad.tobytes() == (x.T @ g).tobytes()

    xt = Tensor(x, requires_grad=True)
    gx, gw = ad.matmul(xt, w)._backward(g)
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
        pre = ad.matmul(x, w) + b
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
    pre = (ad.matmul(Tensor(cases[0][0]), Tensor(cases[0][1])) + cases[0][2]).data[:, 0]
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


def test_sigmoid_matches_reference_bit_for_bit(rng):
    """sigmoid computed in one buffer has the bits of 0.5 * (tanh(0.5 x) + 1),
    value and gradient."""
    x = _special_values(rng)
    ref_value = 0.5 * (np.tanh(0.5 * x) + 1.0)
    g = rng.normal(size=x.shape)
    ref_grad = g * ref_value * (1.0 - ref_value)

    t = Tensor(x, requires_grad=True)
    y = ad.sigmoid(t)
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
