"""Layer set, distribution heads, Adam, and the checkpoint format."""

import json
import tracemalloc

import numpy as np
import pytest

from kinoplan import autodiff as ad
from kinoplan.autodiff import Tensor
from kinoplan.errors import ArtifactMismatchError, DimensionError, TrainingError
from kinoplan.nn import (Adam, Conv1d, Dense, DiagonalGaussian, GaussianHead,
                         GruCell, LOG_STD_MAX, LOG_STD_MIN, MLP, Module,
                         clip_grad_norm, load_checkpoint, param_checksum,
                         save_checkpoint)

from oracles import (ScalarAdam, gaussian_kl_closed_form, gaussian_log_density,
                     max_relative_error, numeric_gradient)


# -- dense layer -----------------------------------------------------------------

def test_dense_identity_initialized(rng):
    layer = Dense(3, 3, "linear", rng)
    layer.weight.data = np.eye(3)
    layer.bias.data = np.zeros(3)
    out = layer(np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_dense_zero_weights_returns_bias(rng):
    layer = Dense(4, 2, "linear", rng)
    layer.weight.data = np.zeros((4, 2))
    layer.bias.data = np.array([0.5, -1.5])
    out = layer(rng.normal(size=(3, 4)))
    assert np.allclose(out.data, np.tile([0.5, -1.5], (3, 1)))


def test_dense_matches_hand_matvec(rng):
    layer = Dense(3, 2, "linear", rng)
    x = rng.normal(size=3)
    want = x @ layer.weight.data + layer.bias.data
    got = layer(x[None]).data[0]
    assert np.max(np.abs(got - want)) < 1e-12


def test_dense_dimension_error(rng):
    with pytest.raises(DimensionError):
        Dense(3, 2, "linear", rng)(np.zeros((1, 4)))


@pytest.mark.parametrize("activation", ["linear", "elu"])
def test_dense_gradients(activation, rng):
    layer = Dense(4, 3, activation, rng)
    x = rng.normal(size=(2, 4))

    def loss_fn():
        return float(ad.sum_(ad.square(layer(x))).data)

    layer.zero_grad()
    ad.sum_(ad.square(layer(x))).backward()
    for name, p in layer.named_parameters().items():
        num = numeric_gradient(loss_fn, p.data)
        assert max_relative_error(p.grad, num) < 1e-4, (activation, name)


def test_dense_elu_tape_keeps_one_array_per_layer(rng):
    """A Dense + ELU stack holds about one activation array per layer on the
    tape after its forward pass; a matmul, bias-add and ELU chain holds four
    (the matmul output, the sum, the ELU output and its expm1 branch)."""
    rows, width, depth = 2048, 256, 3
    layers = [Dense(width, width, "elu", rng) for _ in range(depth)]
    x = Tensor(rng.normal(size=(rows, width)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = x
        for layer in layers:
            out = layer(out)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    activation = rows * width * 8
    assert out.data.shape == (rows, width)
    assert held < 1.5 * depth * activation, held / activation


# -- GRU cell --------------------------------------------------------------------

def test_gru_zero_parameters_halve_hidden(rng):
    cell = GruCell(3, 5, rng)
    for p in cell.parameters():
        p.data = np.zeros_like(p.data)
    h = rng.normal(size=(2, 5)) * 0.7
    out = cell(rng.normal(size=(2, 3)), h)
    assert np.allclose(out.data, 0.5 * h)


def test_gru_zero_everything_fixed_point(rng):
    cell = GruCell(3, 5, rng)
    for p in cell.parameters():
        p.data = np.zeros_like(p.data)
    out = cell(np.zeros((1, 3)), np.zeros((1, 5)))
    assert np.array_equal(out.data, np.zeros((1, 5)))


def test_gru_output_bounded(rng):
    cell = GruCell(4, 8, rng)
    h = np.zeros((16, 8))
    for _ in range(50):
        h = cell(rng.normal(size=(16, 4)) * 3.0, h).data
        assert np.all(np.abs(h) < 1.0)


def test_gru_gradients_match_finite_differences(rng):
    cell = GruCell(3, 4, rng)
    x = rng.normal(size=(2, 3))
    h = rng.normal(size=(2, 4)) * 0.5

    def loss_fn():
        return float(ad.sum_(ad.square(cell(x, h))).data)

    cell.zero_grad()
    ad.sum_(ad.square(cell(x, h))).backward()
    for name, p in cell.named_parameters().items():
        num = numeric_gradient(loss_fn, p.data, eps=1e-5)
        assert max_relative_error(p.grad, num) < 1e-4, name


def test_gru_size_mismatch(rng):
    cell = GruCell(3, 4, rng)
    with pytest.raises(DimensionError):
        cell(np.zeros((1, 5)), np.zeros((1, 4)))
    with pytest.raises(DimensionError):
        cell(np.zeros((1, 3)), np.zeros((1, 5)))


# -- diagonal Gaussian --------------------------------------------------------------

def test_log_prob_standard_normal_mode():
    dist = DiagonalGaussian(np.zeros(1), np.zeros(1))
    assert abs(float(dist.log_prob(np.zeros(1)).data) - (-0.9189385332046727)) < 1e-12


def test_log_prob_general_mode(rng):
    mu, s = 1.7, 0.3
    dist = DiagonalGaussian(np.array([mu]), np.array([np.log(s)]))
    want = -np.log(s) - 0.5 * np.log(2 * np.pi)
    assert abs(float(dist.log_prob(np.array([mu])).data) - want) < 1e-12


def test_log_prob_matches_density_oracle(rng):
    for _ in range(20):
        mu = rng.normal(size=4)
        std = np.exp(rng.normal(size=4) * 0.5)
        x = rng.normal(size=4)
        dist = DiagonalGaussian(mu, np.log(std))
        assert abs(float(dist.log_prob(x).data)
                   - gaussian_log_density(x, mu, std)) < 1e-10


def test_log_prob_length_mismatch():
    dist = DiagonalGaussian(np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionError):
        dist.log_prob(np.zeros(4))


def test_kl_identity_and_unit_case():
    p = DiagonalGaussian(np.array([0.3, -1.0]), np.array([0.1, -0.2]))
    assert float(p.kl(p).data) == pytest.approx(0.0, abs=1e-15)
    one = DiagonalGaussian(np.ones(1), np.zeros(1))
    zero = DiagonalGaussian(np.zeros(1), np.zeros(1))
    assert float(one.kl(zero).data) == pytest.approx(0.5, abs=1e-14)


def test_kl_nonnegative_and_matches_closed_form(rng):
    for _ in range(200):
        mu_p, mu_q = rng.normal(size=3), rng.normal(size=3)
        ls_p, ls_q = rng.normal(size=3) * 0.7, rng.normal(size=3) * 0.7
        got = float(DiagonalGaussian(mu_p, ls_p).kl(DiagonalGaussian(mu_q, ls_q)).data)
        want = gaussian_kl_closed_form(mu_p, np.exp(ls_p), mu_q, np.exp(ls_q))
        assert got >= -1e-12
        assert abs(got - want) < 1e-10


def test_kl_zero_iff_identical(rng):
    mu = rng.normal(size=3)
    ls = rng.normal(size=3) * 0.3
    base = DiagonalGaussian(mu, ls)
    assert float(base.kl(DiagonalGaussian(mu.copy(), ls.copy())).data) <= 1e-12
    shifted = DiagonalGaussian(mu + 1e-3, ls)
    assert float(base.kl(shifted).data) > 1e-12


def test_reparameterized_sample_and_entropy(rng):
    dist = DiagonalGaussian(np.array([1.0, -2.0]), np.log(np.array([0.5, 2.0])))
    z = dist.sample(noise=np.zeros(2))
    assert np.allclose(z.data, [1.0, -2.0])
    z = dist.sample(noise=np.ones(2))
    assert np.allclose(z.data, [1.5, 0.0])
    want_entropy = np.sum(np.log([0.5, 2.0]) + 0.5 * (np.log(2 * np.pi) + 1))
    assert float(dist.entropy().data) == pytest.approx(want_entropy, rel=1e-12)


def test_gaussian_head_clamps_log_std(rng):
    head = GaussianHead(3, 2, [8], rng)
    head.log_std_layer.bias.data[:] = 40.0
    dist = head(rng.normal(size=(4, 3)))
    assert np.all(dist.log_std.data <= LOG_STD_MAX)
    head.log_std_layer.bias.data[:] = -40.0
    dist = head(rng.normal(size=(4, 3)))
    assert np.all(dist.log_std.data >= LOG_STD_MIN)


# -- Adam ----------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters(rng):
    p = Tensor(rng.normal(size=(3,)), requires_grad=True)
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.01)
    p.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_descends_on_quadratic():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"w": w}, lr=1e-3)
    loss = ad.sum_(ad.square(w))
    loss.backward()
    opt.step()
    assert float(w.data[0]) < 1.0


def test_adam_matches_scalar_oracle():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"w": w}, lr=1e-3)
    ref = ScalarAdam(1.0, lr=1e-3)
    for _ in range(10):
        opt.zero_grad()
        ad.sum_(ad.square(w)).backward()
        grad_ref = 2.0 * ref.w
        opt.step()
        ref.step(grad_ref)
        assert abs(float(w.data[0]) - ref.w) < 1e-10


def test_adam_in_place_matches_out_of_place_formula_bit_for_bit(rng):
    """The in-place step writes into the same m, v and parameter arrays and
    reproduces the plain array formula exactly, step after step."""
    shapes = {"a": (7, 5), "b": (5,), "c": (3, 2, 4)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    opt = Adam(params, lr=3e-3)
    ref_p = {k: p.data.copy() for k, p in params.items()}
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
    buffers = [(p.data, opt.m[k], opt.v[k]) for k, p in params.items()]
    for t in range(1, 21):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 3)
                 for k, s in shapes.items()}
        for k, p in params.items():
            p.grad = grads[k]
        opt.step()
        b1t, b2t = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, g in grads.items():
            ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
            ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
            ref_p[k] = ref_p[k] - lr * (ref_m[k] / b1t) / (np.sqrt(ref_v[k] / b2t) + eps)
            assert params[k].data.tobytes() == ref_p[k].tobytes()
            assert opt.m[k].tobytes() == ref_m[k].tobytes()
            assert opt.v[k].tobytes() == ref_v[k].tobytes()
    for (p_buf, m_buf, v_buf), (k, p) in zip(buffers, params.items()):
        assert p.data is p_buf and opt.m[k] is m_buf and opt.v[k] is v_buf


def test_adam_nan_gradient_names_parameter(rng):
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam({"layer.weight": p})
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(TrainingError, match="layer.weight"):
        opt.step()


def test_clip_grad_norm(rng):
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 10.0)
    total = clip_grad_norm({"p": p}, 1.0)
    assert total == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


# -- module container & checkpoints ----------------------------------------------------

class _Net(Module):
    def __init__(self, rng):
        self.a = Dense(3, 4, "elu", rng)
        self.blocks = [Dense(4, 4, "elu", rng), Dense(4, 2, "linear", rng)]

    def forward(self, x):
        x = self.a(x)
        for b in self.blocks:
            x = b(x)
        return x


def test_module_collects_nested_parameters(rng):
    net = _Net(rng)
    names = sorted(net.named_parameters())
    assert names == ["a.bias", "a.weight", "blocks.0.bias", "blocks.0.weight",
                     "blocks.1.bias", "blocks.1.weight"]


def test_param_checksum_tracks_changes(rng):
    net = _Net(rng)
    c1 = param_checksum(net)
    assert param_checksum(net) == c1
    net.a.weight.data[0, 0] += 1e-12
    assert param_checksum(net) != c1


def test_checkpoint_roundtrip_and_determinism(tmp_path, rng):
    net = _Net(rng)
    arrays = net.state_arrays()
    p1, p2 = tmp_path / "a.kpt", tmp_path / "b.kpt"
    save_checkpoint(p1, arrays, meta={"kind": "test", "dims": [3, 4, 2]})
    save_checkpoint(p2, arrays, meta={"kind": "test", "dims": [3, 4, 2]})
    assert p1.read_bytes() == p2.read_bytes()

    loaded, meta = load_checkpoint(p1)
    assert meta["kind"] == "test"
    for k, v in arrays.items():
        assert np.array_equal(loaded[k], v)
    net2 = _Net(np.random.default_rng(999))
    net2.load_state(loaded)
    assert param_checksum(net2) == param_checksum(net)


def test_checkpoint_version_and_shape_mismatch(tmp_path, rng):
    net = _Net(rng)
    path = tmp_path / "net.kpt"
    save_checkpoint(path, net.state_arrays(), meta={})
    raw = path.read_bytes()
    bad = raw.replace(b'"format_version": 1', b'"format_version": 9', 1)
    (tmp_path / "bad.kpt").write_bytes(bad)
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(tmp_path / "bad.kpt")

    arrays = net.state_arrays()
    arrays["a.weight"] = np.zeros((7, 7))
    with pytest.raises(ArtifactMismatchError, match="a.weight"):
        net.load_state(arrays)


def test_checkpoint_detects_flipped_buffer_byte(tmp_path, rng):
    path = tmp_path / "net.kpt"
    save_checkpoint(path, _Net(rng).state_arrays(), meta={})
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0x01   # one bit of the last buffer
    (tmp_path / "flipped.kpt").write_bytes(bytes(raw))
    with pytest.raises(ArtifactMismatchError, match="SHA-256"):
        load_checkpoint(tmp_path / "flipped.kpt")


def test_checkpoint_without_digest_is_rejected(tmp_path, rng):
    path = tmp_path / "net.kpt"
    save_checkpoint(path, _Net(rng).state_arrays(), meta={})
    header, _, body = path.read_bytes().partition(b"\n")
    stripped = json.loads(header)
    del stripped["sha256"]
    (tmp_path / "old.kpt").write_bytes(json.dumps(stripped).encode() + b"\n" + body)
    with pytest.raises(ArtifactMismatchError, match="SHA-256"):
        load_checkpoint(tmp_path / "old.kpt")


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("tensors"),
    lambda h: h["tensors"][0].update(dtype="nope"),
    lambda h: h["tensors"][0].update(shape=[-1]),
    lambda h: h["tensors"].__setitem__(0, "a.bias"),
    lambda h: h.update(meta=[]),
    lambda h: h["tensors"][0].update(shape=[2**40]),
], ids=["no_tensors", "unknown_dtype", "negative_shape", "non_dict_entry", "list_meta",
        "oversized_shape"])
def test_malformed_header_is_rejected(tmp_path, rng, edit):
    path = tmp_path / "net.kpt"
    save_checkpoint(path, _Net(rng).state_arrays(), meta={})
    header, _, body = path.read_bytes().partition(b"\n")
    edited = json.loads(header)
    edit(edited)
    (tmp_path / "bad.kpt").write_bytes(json.dumps(edited).encode() + b"\n" + body)
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(tmp_path / "bad.kpt")


def test_binary_file_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "blob.kpt"
    path.write_bytes(b"\x80\x05\x95 binary\n")
    with pytest.raises(ArtifactMismatchError, match="not a checkpoint"):
        load_checkpoint(path)


def test_conv_layer_out_length(rng):
    conv = Conv1d(1, 8, 5, 2, rng)
    assert conv.out_length(64) == 30
    assert conv(np.zeros((2, 1, 64))).data.shape == (2, 8, 30)


def test_mlp_requires_two_sizes(rng):
    with pytest.raises(ValueError):
        MLP([4], rng)
