"""1-D terrain profiles and the synthetic forward depth scan.

A profile is a piecewise-linear floor polyline over horizontal position s
(near-vertical risers encoded as double breakpoints), optionally with a
ceiling slab for crawl sections. Difficulty levels 0..8 scale the defining
parameter of each kind linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .state import BodyParams

TERRAIN_KINDS = ("flat", "slope", "stairs", "gap", "crawl")
MAX_LEVEL = 8

X_MIN = -3.0
X_MAX = 12.0
_RISER = 1e-9   # horizontal extent of a "vertical" riser segment
SKY = 1e9        # ceiling height where there is no ceiling
FAN_LO_DEG, FAN_HI_DEG = -80.0, 30.0   # depth-scan fan, relative to the body pitch


def slope_angle_deg(level: int) -> float:
    return 5.0 + level * 25.0 / MAX_LEVEL


def step_rise(level: int) -> float:
    return 0.05 + level * 0.20 / MAX_LEVEL


def gap_width(level: int) -> float:
    return 0.10 + level * 0.70 / MAX_LEVEL


def crawl_clearance(level: int, body: BodyParams) -> float:
    """The slab's height over the floor: the body's standing top at level 0."""
    return (body.leg_length + body.body_half_height) * (1.0 - 0.4 * level / MAX_LEVEL)


@dataclass
class TerrainProfile:
    kind: str
    level: int
    floor_x: np.ndarray
    floor_z: np.ndarray
    ceiling_x: np.ndarray | None = None
    ceiling_z: np.ndarray | None = None
    discontinuities: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fall_z: float = -0.3

    def floor_height(self, s):
        return np.interp(s, self.floor_x, self.floor_z)

    def segments(self) -> np.ndarray:
        """All surfaces as (S, 4) rows (x0, z0, x1, z1) for ray casting."""
        segs = []
        for i in range(len(self.floor_x) - 1):
            segs.append((self.floor_x[i], self.floor_z[i],
                         self.floor_x[i + 1], self.floor_z[i + 1]))
        if self.ceiling_x is not None:
            cx, cz = self.ceiling_x, self.ceiling_z
            for i in range(len(cx) - 1):
                segs.append((cx[i], cz[i], cx[i + 1], cz[i + 1]))
            # slab side walls so forward rays see the obstacle face
            wall = 2.5
            segs.append((cx[0], cz[0], cx[0], cz[0] + wall))
            segs.append((cx[-1], cz[-1], cx[-1], cz[-1] + wall))
        return np.asarray(segs, dtype=np.float64)


def _flat_points() -> tuple[list, list]:
    return [X_MIN, X_MAX], [0.0, 0.0]


def build_terrain(kind: str, level: int, rng: np.random.Generator | None = None,
                  jitter: bool = False, body: BodyParams = BodyParams()) -> TerrainProfile:
    if kind not in TERRAIN_KINDS:
        raise ConfigError("terrain_kind", f"unknown kind '{kind}' (choose from {TERRAIN_KINDS})")
    if not 0 <= level <= MAX_LEVEL:
        raise ConfigError("terrain_level", f"level {level} outside 0..{MAX_LEVEL}")
    jit = (lambda a: float(rng.uniform(-a, a))) if (jitter and rng is not None) else (lambda a: 0.0)

    if kind == "flat":
        xs, zs = _flat_points()
        return TerrainProfile(kind, level, np.array(xs), np.array(zs))

    if kind == "slope":
        angle = np.deg2rad(slope_angle_deg(level))
        peak_x = 4.0 + jit(0.2)
        peak_z = peak_x * np.tan(angle)
        xs = [X_MIN, 0.0, peak_x, 8.0, X_MAX]
        zs = [0.0, 0.0, peak_z, 0.0, 0.0]
        return TerrainProfile(kind, level, np.array(xs), np.array(zs))

    if kind == "stairs":
        rise, run, n_steps = step_rise(level), 0.4, 5
        x0 = 1.0 + jit(0.2)
        xs, zs = [X_MIN], [0.0]
        disc = []
        z = 0.0
        x = x0
        for _ in range(n_steps):          # ascend
            xs += [x, x + _RISER]
            zs += [z, z + rise]
            disc.append(x)
            z += rise
            x += run
        x += 1.0                          # plateau
        for _ in range(n_steps):          # descend
            xs += [x, x + _RISER]
            zs += [z, z - rise]
            disc.append(x)
            z -= rise
            x += run
        xs += [X_MAX]
        zs += [0.0]
        return TerrainProfile(kind, level, np.array(xs), np.array(zs),
                              discontinuities=np.array(disc))

    if kind == "gap":
        width, depth = gap_width(level), -1.0
        centers = [2.5 + jit(0.3), 5.5 + jit(0.3)]
        xs, zs = [X_MIN], [0.0]
        disc = []
        for c in centers:
            gs, ge = c - width / 2.0, c + width / 2.0
            xs += [gs, gs + _RISER, ge, ge + _RISER]
            zs += [0.0, depth, depth, 0.0]
            disc += [gs, ge]
        xs += [X_MAX]
        zs += [0.0]
        return TerrainProfile(kind, level, np.array(xs), np.array(zs),
                              discontinuities=np.array(disc))

    # crawl: flat floor with a low slab over the middle section
    clearance = crawl_clearance(level, body)
    xs, zs = _flat_points()
    start = 3.0 + jit(0.3)
    end = start + 2.0
    return TerrainProfile(kind, level, np.array(xs), np.array(zs),
                          ceiling_x=np.array([start, end]),
                          ceiling_z=np.array([clearance, clearance]))


def interp_rows(s, xp: np.ndarray, fp: np.ndarray, left=None, right=None):
    """`np.interp` over one polyline per row, bit for bit.

    xp, fp: (..., N) polylines, xp ascending, each padded to the common width
    N by repeating its last point; s: positions with xp's leading shape, plus
    one trailing axis of M queries per row or none. A single polyline
    (xp of shape (N,)) goes to `np.interp` itself.

    Per query, as `np.interp` does it: NaN gives NaN, positions left or
    right of the polyline give `left`/`right` (default the end values), a
    position on a breakpoint gives that breakpoint's value, and any other
    (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (s - xp[j]) + fp[j].
    """
    if xp.ndim == 1:
        return np.interp(s, xp, fp, left, right)
    s = np.asarray(s, dtype=np.float64)
    one = s.ndim == xp.ndim - 1
    q = s[..., None] if one else s                                  # (..., M)
    n = xp.shape[-1]
    j = (xp[..., None, :] <= q[..., None]).sum(axis=-1)             # xp[j-1] <= q < xp[j]
    rows = np.arange(0, xp.size, n).reshape(xp.shape[:-1] + (1,))
    i0, i1 = rows + np.maximum(j - 1, 0), rows + np.minimum(j, n - 1)
    xf, ff = xp.reshape(-1), fp.reshape(-1)
    x0, x1, f0, f1 = xf[i0], xf[i1], ff[i0], ff[i1]
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 off the polyline
        out = (f1 - f0) / (x1 - x0) * (q - x0) + f0
    out = np.where(x0 == q, f0, out)
    out = np.where(q < xp[..., :1], fp[..., :1] if left is None else left, out)
    out = np.where(q > xp[..., -1:], fp[..., -1:] if right is None else right, out)
    out = np.where(np.isnan(q), q, out)
    return out[..., 0] if one else out


def raycast(origin, angles, segments: np.ndarray, max_range: float) -> np.ndarray:
    """Distance along each ray to the first segment hit, clamped to max_range.

    origin: (..., 2); angles: (..., K) absolute ray angles; segments:
    (..., S, 4), with the same leading shape. A segment row of NaN is never hit.
    """
    origin = np.asarray(origin, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    if segments.size == 0:
        return np.full(angles.shape, max_range)
    # (..., S, K) layout: one segment per row, the rays contiguous along K
    dx, dy = np.cos(angles)[..., None, :], np.sin(angles)[..., None, :]   # (..., 1, K)
    x0, z0, x1, z1 = (segments[..., i] for i in range(4))                 # (..., S)
    ex, ey = (x1 - x0)[..., None], (z1 - z0)[..., None]                    # (..., S, 1)
    rx = (x0 - origin[..., 0, None])[..., None]
    rz = (z0 - origin[..., 1, None])[..., None]

    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey - rz * ex) / denom
        u = (rx * dy - rz * dx) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
    return np.minimum(np.where(valid, t, np.inf).min(axis=-2), max_range)


def render_depth_scan(x_state, segments: np.ndarray, k: int, max_range: float) -> np.ndarray:
    """Cast a forward fan of k rays from the body center, pitched with the
    body, from FAN_LO_DEG to FAN_HI_DEG against a terrain's `segments()`;
    x_state (..., 7) and segments (..., S, 4) share their leading shape."""
    x_state = np.asarray(x_state, dtype=np.float64)
    angles = x_state[..., 2:3] + np.deg2rad(np.linspace(FAN_LO_DEG, FAN_HI_DEG, k))
    return raycast(x_state[..., 0:2], angles, segments, max_range)
