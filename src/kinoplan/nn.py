"""Layers, distribution heads, Adam, and checkpoint serialization.

Everything is built on the tape in autodiff.py. Initialization draws from an
explicit numpy Generator so a seed fully determines the parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArtifactMismatchError, DimensionError, TrainingError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

CHECKPOINT_FORMAT_VERSION = 1


class Module:
    """Parameter container. Attributes that are Tensors with requires_grad,
    Modules, or lists of those are collected in sorted-name order."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for attr in sorted(vars(self)):
            val = getattr(self, attr)
            key = prefix + attr
            if isinstance(val, Tensor):
                if val.requires_grad:
                    out[key] = val
            elif isinstance(val, Module):
                out.update(val.named_parameters(key + "."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out[f"{key}.{i}"] = item
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    def load_state(self, arrays: dict[str, np.ndarray]):
        params = self.named_parameters()
        missing = set(params) - set(arrays)
        if missing:
            raise ArtifactMismatchError(f"checkpoint missing parameters: {sorted(missing)}")
        for name, p in params.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != p.data.shape:
                raise ArtifactMismatchError(
                    f"parameter '{name}' shape {src.shape} != expected {p.data.shape}")
            p.data = src.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def param_checksum(module: Module) -> str:
    """SHA-256 over all parameter bytes in name order (bit-exact identity)."""
    h = hashlib.sha256()
    for name, p in sorted(module.named_parameters().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


class Dense(Module):
    """Affine transform of (N, in) rows, optionally followed by an ELU."""

    def __init__(self, in_size: int, out_size: int, activation: str = "linear",
                 rng: np.random.Generator | None = None):
        if activation not in ("linear", "elu"):
            raise ValueError(f"unknown activation '{activation}'")
        rng = rng if rng is not None else np.random.default_rng(0)
        scale = 1.0 / math.sqrt(in_size)
        self.elu = activation == "elu"
        self.weight = Tensor(rng.normal(0.0, scale, size=(in_size, out_size)),
                             requires_grad=True, name="weight")
        self.bias = Tensor(np.zeros(out_size), requires_grad=True, name="bias")

    def forward(self, x) -> Tensor:
        return ad.dense(x, self.weight, self.bias, elu=self.elu)


class MLP(Module):
    """Stack of Dense layers; hidden activations fixed, output configurable."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 hidden_activation: str = "elu", out_activation: str = "linear"):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = []
        for i in range(len(sizes) - 1):
            act = hidden_activation if i < len(sizes) - 2 else out_activation
            self.layers.append(Dense(sizes[i], sizes[i + 1], act, rng))

    def forward(self, x) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class GruCell(Module):
    """Gated recurrent unit with packed gate weights, gate order (r, u, c).

    h' = (1-u) * h + u * tanh(W_c x + r * (U_c h) + b_c); output values stay
    inside (-1, 1) whenever the incoming hidden state does.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        sx = 1.0 / math.sqrt(input_size)
        sh = 1.0 / math.sqrt(hidden_size)
        self.w_x = Tensor(rng.normal(0.0, sx, size=(input_size, 3 * hidden_size)),
                          requires_grad=True, name="w_x")
        self.w_h = Tensor(rng.normal(0.0, sh, size=(hidden_size, 3 * hidden_size)),
                          requires_grad=True, name="w_h")
        self.bias = Tensor(np.zeros(3 * hidden_size), requires_grad=True, name="bias")

    def forward(self, x, h) -> Tensor:
        x, h = ad.as_tensor(x), ad.as_tensor(h)
        if x.data.shape[-1] != self.input_size:
            raise DimensionError(
                f"gru cell expects input size {self.input_size}, got {x.data.shape[-1]}")
        if h.data.shape[-1] != self.hidden_size:
            raise DimensionError(
                f"gru cell expects hidden size {self.hidden_size}, got {h.data.shape[-1]}")
        n = self.hidden_size
        gx = ad.dense(x, self.w_x, self.bias)
        gh = ad.matmul(h, self.w_h)
        r = ad.sigmoid(gx[..., 0:n] + gh[..., 0:n])
        u = ad.sigmoid(gx[..., n:2 * n] + gh[..., n:2 * n])
        c = ad.tanh(gx[..., 2 * n:] + r * gh[..., 2 * n:])
        return (1.0 - u) * h + u * c


class Conv1d(Module):
    """Strided 1-D convolution layer with ELU over (B, C, L) inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int,
                 rng: np.random.Generator):
        scale = 1.0 / math.sqrt(in_channels * kernel)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.weight = Tensor(rng.normal(0.0, scale, size=(out_channels, in_channels, kernel)),
                             requires_grad=True, name="weight")
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True, name="bias")

    def out_length(self, length: int) -> int:
        return (length - self.kernel) // self.stride + 1

    def forward(self, x) -> Tensor:
        return ad.elu(ad.conv1d(x, self.weight, self.bias, self.stride))


# -- distributions ---------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


class DiagonalGaussian:
    """Diagonal Gaussian over the last axis of mean/log_std."""

    def __init__(self, mean, log_std):
        self.mean = ad.as_tensor(mean)
        self.log_std = ad.as_tensor(log_std)
        if self.mean.data.shape != self.log_std.data.shape:
            raise DimensionError(
                f"mean shape {self.mean.data.shape} != log_std shape {self.log_std.data.shape}")

    @property
    def dim(self) -> int:
        return self.mean.data.shape[-1]

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.log_std.data)

    def _check(self, value) -> Tensor:
        value = ad.as_tensor(value)
        if value.data.shape[-1] != self.dim:
            raise DimensionError(
                f"sample length {value.data.shape[-1]} != distribution length {self.dim}")
        return value

    def log_prob(self, value) -> Tensor:
        value = self._check(value)
        z = (value - self.mean) * ad.exp(-self.log_std)
        terms = -0.5 * ad.square(z) - self.log_std - 0.5 * _LOG_2PI
        return ad.sum_(terms, axis=-1)

    def kl(self, other: "DiagonalGaussian") -> Tensor:
        if other.dim != self.dim:
            raise DimensionError(f"KL dims differ: {self.dim} vs {other.dim}")
        var_ratio = ad.exp(2.0 * (self.log_std - other.log_std))
        mean_term = ad.square((self.mean - other.mean) * ad.exp(-other.log_std))
        terms = other.log_std - self.log_std + 0.5 * (var_ratio + mean_term) - 0.5
        return ad.sum_(terms, axis=-1)

    def sample(self, rng: np.random.Generator | None = None, noise=None) -> Tensor:
        """Reparameterized draw; pass `noise` to inject epsilon explicitly."""
        if noise is None:
            if rng is None:
                raise ValueError("sample() needs an rng or explicit noise")
            noise = rng.standard_normal(self.mean.data.shape)
        return self.mean + ad.exp(self.log_std) * np.asarray(noise, dtype=np.float64)

    def entropy(self) -> Tensor:
        return ad.sum_(self.log_std + 0.5 * (_LOG_2PI + 1.0), axis=-1)


class GaussianHead(Module):
    """MLP trunk with mean/log_std outputs; log_std clamped to [-5, 2]."""

    def __init__(self, in_size: int, out_size: int, hidden: list[int],
                 rng: np.random.Generator, hidden_activation: str = "elu"):
        self.trunk = MLP([in_size] + hidden, rng, hidden_activation,
                         out_activation=hidden_activation) if hidden else None
        feat = hidden[-1] if hidden else in_size
        self.mean_layer = Dense(feat, out_size, "linear", rng)
        self.log_std_layer = Dense(feat, out_size, "linear", rng)

    def forward(self, x) -> DiagonalGaussian:
        feat = self.trunk(x) if self.trunk is not None else ad.as_tensor(x)
        mean = self.mean_layer(feat)
        log_std = ad.clip(self.log_std_layer(feat), LOG_STD_MIN, LOG_STD_MAX)
        return DiagonalGaussian(mean, log_std)


# -- optimization ------------------------------------------------------------------


class Adam:
    """Bias-corrected adaptive-moment optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        """One update of m, v and every parameter, all in place; each element
        sees the same operations, in the same order, as the textbook
        m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p = p - lr*(m/b1t) / (sqrt(v/b2t) + eps)."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            gg = (1.0 - self.beta2) * g
            gg *= g
            v *= self.beta2
            v += gg
            delta = m / b1t
            delta *= self.lr
            denom = v / b2t
            np.sqrt(denom, out=denom)
            denom += self.eps
            delta /= denom
            p.data -= delta

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"__t__": np.array([self.t], dtype=np.float64)}
        for k in self.params:
            out[f"m.{k}"] = self.m[k].copy()
            out[f"v.{k}"] = self.v[k].copy()
        return out

    def load_state(self, arrays: dict[str, np.ndarray]):
        self.t = int(arrays["__t__"][0])
        for k in self.params:
            self.m[k] = np.asarray(arrays[f"m.{k}"], dtype=np.float64).copy()
            self.v[k] = np.asarray(arrays[f"v.{k}"], dtype=np.float64).copy()


def clip_grad_norm(params: dict[str, Tensor] | list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    tensors = list(params.values()) if isinstance(params, dict) else list(params)
    total = 0.0
    for p in tensors:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    total = math.sqrt(total)
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in tensors:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


# -- checkpoint format --------------------------------------------------------------
#
# Single file: one JSON header line (format version, metadata, tensor table with
# names/dtypes/shapes in order, SHA-256 of the buffers) followed by the raw
# little-endian buffers concatenated in table order. Byte-for-byte
# deterministic for identical content.


_CHECKPOINT_DTYPES = ("<f8", "<i8")   # the dtypes save_checkpoint writes


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None):
    table = []
    buffers = []
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in (np.float64, np.int64):
            arr = arr.astype(np.float64)
        table.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)})
        buffers.append(arr.tobytes())
        digest.update(buffers[-1])
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "meta": meta or {},
        "sha256": digest.hexdigest(),
        "tensors": table,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for buf in buffers:
            f.write(buf)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline())
        except ValueError as e:   # also a binary first line that is not UTF-8
            raise ArtifactMismatchError(f"not a checkpoint file: {path}") from e
        if not isinstance(header, dict):
            raise ArtifactMismatchError(f"not a checkpoint file: {path}")
        version = header.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ArtifactMismatchError(
                f"checkpoint format version {version}, expected {CHECKPOINT_FORMAT_VERSION}")
        _check_header(header, path)
        # both accepted dtypes are 8 bytes wide
        declared = sum(8 * math.prod(entry["shape"]) for entry in header["tensors"])
        if declared > os.fstat(f.fileno()).st_size - f.tell():
            raise ArtifactMismatchError(f"truncated checkpoint: {path}")
        arrays = {}
        digest = hashlib.sha256()
        for entry in header["tensors"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            buf = f.read(math.prod(shape) * dtype.itemsize)
            digest.update(buf)
            arrays[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    if header.get("sha256") != digest.hexdigest():
        raise ArtifactMismatchError(f"checkpoint contents do not match their SHA-256: {path}")
    return arrays, header.get("meta", {})


def _check_header(header: dict, path):
    """Reject a header whose tensor table or metadata save_checkpoint cannot
    have written."""
    def well_formed(entry):
        return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and entry.get("dtype") in _CHECKPOINT_DTYPES
                and isinstance(entry.get("shape"), list)
                and all(isinstance(n, int) and n >= 0 for n in entry["shape"]))

    tensors = header.get("tensors")
    if not (isinstance(tensors, list) and all(map(well_formed, tensors))
            and isinstance(header.get("meta", {}), dict)):
        raise ArtifactMismatchError(f"malformed checkpoint header: {path}")
