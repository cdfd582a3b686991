"""Planar kinodynamic locomotion environment, stepped as a batch.

A single rigid body with a height-adjustable point-foot support leg crosses
1-D terrain under a wrench action [force_x, force_z, torque, height_rate]
(physical units) at 50 Hz. The integration (semi-implicit Euler with a
planted-foot contact mode and Coulomb drag) lives in `state.advance_state`;
`step_state` adds only the simulator's extras around it: weak body forces in
the air, step-riser blocking and the landing clamp. The synthetic depth scan
is refreshed at the 10 Hz sensor rate.

The observation layout is fixed by module constants, which the internal
model reads too: HISTORY_LEN proprio rows of PROPRIO_DIM, then SCAN_RAYS
depth readings out to SCAN_MAX_RANGE (OBS_DIM in all), and ACTION_DIM action
entries. Gravity is `BodyParams.gravity`, the one body both share through
`EnvConfig.body`; 0 turns it off.

Batch layout. An `EnvState` holds envs as arrays over a leading shape: ()
for one `PlanarEnv`, (B,) for an `EnvBatch`. Per env it holds

    x (7), contact, v_cmd, step_count, friction,
    prev_action (4), prev_height_rate, air_steps, stuck_steps, episode_return,
    history (HISTORY_LEN x PROPRIO_DIM, oldest row first), scan (SCAN_RAYS),

and the env's terrain as arrays, each padded to the batch's common width:

    floor_x, floor_z      the floor polyline, padded by repeating its last point
    ceiling_x, ceiling_z  the ceiling polyline (a flat one at terrain.SKY where
                          there is no ceiling), padded the same way
    disc                  the discontinuities, padded with +inf
    segments              the raycast segments (S, 4), padded with NaN rows
    fall_z

Padding changes no floor or ceiling lookup, edge test or ray hit. One call of
`step_state` advances every env of an `EnvState`.

`reset` and `step` return flat observations:

    obs  = [proprio history (HISTORY_LEN x PROPRIO_DIM, oldest row first),
            depth scan (SCAN_RAYS)]
    priv = [obs, scan dots (SCAN_DOT_COUNT floor heights relative to p_z),
            v_x, v_z, pitch_rate, contact force, mass, friction]

Step report. `PlanarEnv.step` returns (obs, priv, out), `EnvBatch.step`
(obs, priv, out, terminal). `out` is the `StepOutcome` of `step_state`, arrays
over the state's leading shape: the `reward` and its per-term contributions
`terms` (all 0 on a fault), `code` (an index into TERMINATIONS, 0 while the
episode goes on), `fault` (a non-finite state), `success` (goal_x reached)
and `events` (the flags stumble, landed, edge, stuck and collision, and
air_time, the seconds aloft rewarded on landing). An episode's return and
step count are its state's. The two envs differ only in that a batch resets
its done envs, so its `terminal` holds theirs, as arrays over the ended envs
in ascending order: episode_return, episode_steps, x (the terminal state)
and floor (the floor height under x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .nn import check_arrays, stored_dtype
from .state import (BodyParams, IDX_OFFSET, IDX_OMEGA, IDX_PITCH, IDX_PX, IDX_PZ,
                    IDX_VX, X_DIM, advance_state, select)
from .terrain import (MAX_LEVEL, SKY, X_MAX, X_MIN, TerrainProfile, build_terrain,
                      interp_rows, render_depth_scan)

PROPRIO_DIM = 9          # [d, d_rate, sin pitch, cos pitch, v_cmd, prev_action(4)]
HISTORY_LEN = 5          # proprio rows per observation
HISTORY_SIZE = HISTORY_LEN * PROPRIO_DIM     # observation columns before the scan
SCAN_RAYS = 64
SCAN_MAX_RANGE = 3.0
OBS_DIM = HISTORY_SIZE + SCAN_RAYS
ACTION_DIM = 4
SCAN_DOT_COUNT = 11
SCAN_DOT_OFFSETS = np.linspace(-0.5, 1.5, SCAN_DOT_COUNT)   # floor probes around p_x
PRIV_EXTRA_DIM = SCAN_DOT_COUNT + 3 + 1 + 2   # scan dots, twist, contact force, mass, mu

# Reward scales (quadruped column). Each raw term is defined so that the
# listed scale applies directly; "penalty" rows carry a negative raw term.
REWARD_SCALES = {
    "lin_tracking": 1.5,
    "ang_tracking": 0.5,
    "torques": 1e-7,
    "dof_acc": 2.5e-7,
    "action_rate": -0.03,
    "dof_error": -0.04,
    "z_vel": -1.0,
    "feet_air": 0.5,
    "collision": -1.0,
    "stumble": -0.1,
    "edge": -1.0,
    "stuck": -1.0,
}

# termination reason by code; code 0 means the episode goes on
TERMINATIONS = (None, "collision", "fall", "pitch", "success", "timeout", "fault")
_COLLISION, _FALL, _PITCH, _SUCCESS, _TIMEOUT, _FAULT = range(1, 7)


@dataclass(frozen=True)
class EnvConfig:
    dt: float = 0.02
    max_steps: int = 1000
    terrain_kind: str = "flat"
    terrain_level: int = 0
    terrain_jitter: bool = True
    scan_every: int = 5
    v_cmd_range: tuple[float, float] = (0.4, 1.0)
    friction_range: tuple[float, float] = (0.2, 0.4)
    frictionless: bool = False
    start_x: float = -1.5
    goal_x: float = 8.0
    body: BodyParams = field(default_factory=BodyParams)
    action_low: tuple = (-30.0, -30.0, -5.0, -1.5)
    action_high: tuple = (30.0, 60.0, 5.0, 1.5)
    sigma_lin: float = 0.25
    sigma_ang: float = 0.25
    stuck_steps: int = 50
    stuck_speed: float = 0.05
    edge_margin: float = 0.03
    step_up_tol: float = 0.02
    pitch_limit: float = 1.2
    air_time_cap: float = 1.0

    def __post_init__(self):
        # the action box as read-only arrays, built once: (low, high, middle,
        # width, half width)
        lo = np.array(self.action_low, dtype=np.float64)
        hi = np.array(self.action_high, dtype=np.float64)
        box = (lo, hi, (lo + hi) / 2.0, hi - lo, (hi - lo) / 2.0)
        for a in box:
            a.flags.writeable = False
        object.__setattr__(self, "_box", box)

    @property
    def obs_dim(self) -> int:
        return OBS_DIM

    @property
    def priv_dim(self) -> int:
        return OBS_DIM + PRIV_EXTRA_DIM

    def action_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self._box[0], self._box[1]

    def to_physical(self, a_norm: np.ndarray) -> np.ndarray:
        """Map normalized [-1, 1] actions onto the physical action box."""
        _, _, mid, width, _ = self._box
        return mid + np.asarray(a_norm) * width / 2.0

    def to_normalized(self, a_phys: np.ndarray) -> np.ndarray:
        _, _, mid, _, half = self._box
        return (np.asarray(a_phys) - mid) / half


# np.exp, and the multiply numpy substitutes for an array's ** 2, differ from
# libm's exp and pow in the last bit for some arguments; the reward keeps
# libm's, one element at a time.
_EXP = np.frompyfunc(math.exp, 1, 1)
_POW = np.frompyfunc(math.pow, 2, 1)


def _exp(x):
    if isinstance(x, float):                # numpy float64 scalars included
        return math.exp(x)
    return np.asarray(_EXP(x), dtype=np.float64)


def _square(x):
    if isinstance(x, float):
        return math.pow(x, 2.0)
    return np.asarray(_POW(x, 2.0), dtype=np.float64)


def lin_tracking_reward(v, v_cmd, sigma: float):
    """Clipped velocity-tracking kernel: overspeed beyond v_cmd + 0.1 plateaus."""
    if sigma <= 0:
        raise ConfigError("sigma_lin", "tracking scale must be positive")
    cap = v_cmd + 0.1
    err = select(cap < v, cap, v) - v_cmd
    return _exp(-err * err / sigma)


def total_reward(x_after: np.ndarray, action: np.ndarray, prev_action: np.ndarray,
                 prev_height_rate, height_rate, v_cmd, events: dict,
                 cfg: EnvConfig) -> tuple:
    """Weighted per-step reward over any leading shape; returns (total,
    per-term contributions). `events` maps event names to flags of that
    shape, and "air_time" to seconds; an absent event is off."""
    _, _, _, vx, vz, om, d = np.asarray(x_after, dtype=np.float64).T
    action = np.asarray(action, dtype=np.float64)
    a0, a1, a2, _ = action.T
    da = (action - np.asarray(prev_action)) / cfg._box[4]
    da0, da1, da2, da3 = (da * da).T

    raw = {
        "lin_tracking": lin_tracking_reward(np.abs(vx), v_cmd, cfg.sigma_lin),
        "ang_tracking": _exp(-_square(om) / cfg.sigma_ang),
        "torques": -(a0 * a0 + a1 * a1 + a2 * a2),
        "dof_acc": -_square((height_rate - prev_height_rate) / cfg.dt),
        "action_rate": da0 + da1 + da2 + da3,
        "dof_error": _square(d),
        "z_vel": _square(vz),
        "feet_air": select(events.get("landed", False), events.get("air_time", 0.0), 0.0),
    }
    for name in ("collision", "stumble", "edge", "stuck"):
        raw[name] = select(events.get(name, False), 1.0, 0.0)
    terms = {k: REWARD_SCALES[k] * raw[k] for k in REWARD_SCALES}
    total = 0.0
    for term in terms.values():     # in REWARD_SCALES order, as sum() adds them
        total = total + term
    return total, terms


def curriculum_advance(level: int, success_rate: float) -> int:
    """Promote past 0.8, demote below 0.3, clamp to the level range."""
    if success_rate > 0.8:
        level += 1
    elif success_rate < 0.3:
        level -= 1
    return int(np.clip(level, 0, MAX_LEVEL))


# -- state ---------------------------------------------------------------------

_NO_CEILING = (np.array([X_MIN, X_MAX]), np.array([SKY, SKY]))

# padded terrain fields and their padding: "edge" repeats the last entry
_PADDING = {"floor_x": "edge", "floor_z": "edge", "ceiling_x": "edge",
            "ceiling_z": "edge", "disc": np.inf, "segments": np.nan}


def _pad(a: np.ndarray, width: int, fill, axis: int) -> np.ndarray:
    """`a` padded along `axis` to `width` entries."""
    extra = width - a.shape[axis]
    if extra <= 0:
        return a
    if isinstance(fill, str):
        tail = np.repeat(np.take(a, [-1], axis=axis), extra, axis=axis)
    else:
        shape = list(a.shape)
        shape[axis] = extra
        tail = np.full(shape, fill)
    return np.concatenate([a, tail], axis=axis)


@dataclass
class EnvState:
    """Envs as arrays over a leading shape; layout in the module docstring."""

    x: np.ndarray
    contact: np.ndarray
    v_cmd: np.ndarray
    step_count: np.ndarray
    friction: np.ndarray
    prev_action: np.ndarray
    prev_height_rate: np.ndarray
    air_steps: np.ndarray
    stuck_steps: np.ndarray
    episode_return: np.ndarray
    history: np.ndarray
    scan: np.ndarray
    floor_x: np.ndarray
    floor_z: np.ndarray
    ceiling_x: np.ndarray
    ceiling_z: np.ndarray
    disc: np.ndarray
    segments: np.ndarray
    fall_z: np.ndarray

    @classmethod
    def stack(cls, envs: list["EnvState"]) -> "EnvState":
        """Single-env states stacked into a batch of leading shape (B,)."""
        out = {}
        for f in fields(cls):
            rows = [np.asarray(getattr(env, f.name)) for env in envs]
            if f.name in _PADDING:
                width = max(r.shape[0] for r in rows)
                rows = [_pad(r, width, _PADDING[f.name], axis=0) for r in rows]
            out[f.name] = np.stack(rows)
        return cls(**out)

    def put(self, i: int, env: "EnvState"):
        """Overwrite env i of a batch with a single-env state, widening the
        padded terrain fields if its terrain needs more room."""
        for f in fields(self):
            value = np.asarray(getattr(env, f.name))
            batch = getattr(self, f.name)
            if f.name in _PADDING:
                fill = _PADDING[f.name]
                width = max(batch.shape[1], value.shape[0])
                batch = _pad(batch, width, fill, axis=1)
                setattr(self, f.name, batch)
                value = _pad(value, width, fill, axis=0)
            batch[i] = value


def _proprio_row(cfg: EnvConfig, x, height_rate, action, v_cmd) -> np.ndarray:
    th = x[..., IDX_PITCH]
    head = np.array([x[..., IDX_OFFSET], height_rate, np.sin(th), np.cos(th), v_cmd]).T
    return np.concatenate([head, cfg.to_normalized(action)], axis=-1)


def _reset_state(cfg: EnvConfig, rng: np.random.Generator, level: int | None = None
                 ) -> tuple[TerrainProfile, EnvState]:
    """A new episode of one env, its draws from `rng`: (terrain, state)."""
    episode_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
    terrain = build_terrain(cfg.terrain_kind, cfg.terrain_level if level is None else level,
                            episode_rng, jitter=cfg.terrain_jitter, body=cfg.body)
    x = np.zeros(X_DIM)
    x[IDX_PX] = cfg.start_x
    x[IDX_PZ] = float(terrain.floor_height(cfg.start_x)) + cfg.body.leg_length
    v_cmd = float(episode_rng.uniform(*cfg.v_cmd_range))
    friction = 0.0 if cfg.frictionless else float(
        episode_rng.uniform(*cfg.friction_range))
    ceiling_x, ceiling_z = (_NO_CEILING if terrain.ceiling_x is None
                            else (terrain.ceiling_x, terrain.ceiling_z))
    segments = terrain.segments()
    prev_action = np.zeros(ACTION_DIM)
    row = _proprio_row(cfg, x, 0.0, prev_action, v_cmd)
    state = EnvState(
        x=x, contact=np.True_, v_cmd=v_cmd, step_count=0, friction=friction,
        prev_action=prev_action, prev_height_rate=0.0, air_steps=0, stuck_steps=0,
        episode_return=0.0, history=np.tile(row, (HISTORY_LEN, 1)),
        scan=render_depth_scan(x, segments, SCAN_RAYS, SCAN_MAX_RANGE),
        floor_x=terrain.floor_x, floor_z=terrain.floor_z, ceiling_x=ceiling_x,
        ceiling_z=ceiling_z, disc=terrain.discontinuities, segments=segments,
        fall_z=terrain.fall_z)
    return terrain, state


# -- stepping ------------------------------------------------------------------------

class StepOutcome(NamedTuple):
    """What `step_state` reports per env; fields in the module docstring."""

    reward: np.ndarray
    terms: dict
    code: np.ndarray
    fault: np.ndarray
    success: np.ndarray
    events: dict


class Terminal(NamedTuple):
    """The envs a batch step ended, as arrays over them before their reset."""

    episode_return: np.ndarray
    episode_steps: np.ndarray
    x: np.ndarray
    floor: np.ndarray


def step_state(cfg: EnvConfig, s: EnvState, action) -> StepOutcome:
    """Advance every env of `s` one 50 Hz step under physical wrench actions
    (..., 4), in place. An env whose state is or becomes non-finite ends with
    a fault, no reward and its state unchanged."""
    body = cfg.body
    leg = body.leg_length
    lo, hi = cfg.action_box()
    a = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), lo), hi)

    fault_before = ~np.isfinite(s.x).all(axis=-1)
    px, pz, _, _, _, _, d = s.x.T
    floor_here = interp_rows(px, s.floor_x, s.floor_z)
    contact = pz - (leg + d) <= floor_here + body.contact_tol
    air = body.air_force_scale
    wrench = select(contact, a, a * np.array([air, air, 1.0, 1.0]))
    asked = []

    def floor_at(q):
        # advance_state asks at p_x, which floor_here holds, then at p_x'
        asked.append(interp_rows(q, s.floor_x, s.floor_z) if asked else floor_here)
        return asked[-1]

    x2 = advance_state(s.x, wrench, cfg.dt, body, floor_at, friction=s.friction)
    px2, pz2, th2, vx2, vz2, om2, d2 = x2.T
    height_rate = (d2 - d) / cfg.dt
    planted = contact & (vz2 <= 0.0)

    # step-riser blocking: the foot cannot slide into a floor that rises by
    # more than tol to above it by more than tol (a planted foot has not moved
    # vertically before it is re-planted); below a level floor it lands
    floor_ahead = asked[1]
    stumble = (floor_ahead - floor_here > cfg.step_up_tol) & (
        floor_ahead - (select(planted, pz, pz2) - (leg + d2)) > cfg.step_up_tol)
    px2 = select(stumble, px, px2)
    vx2 = select(stumble, 0.0, vx2)
    floor_ahead = select(stumble, floor_here, floor_ahead)
    pz2 = select(stumble & planted, floor_here + leg + d2, pz2)
    through = ~planted & (pz2 - (leg + d2) < floor_ahead)    # landed through floor
    pz2 = select(through, floor_ahead + leg + d2, pz2)
    vz2 = select(through & (vz2 < 0.0), 0.0, vz2)
    x2 = np.array([px2, pz2, th2, vx2, vz2, om2, d2]).T
    fault = fault_before | ~np.isfinite(x2).all(axis=-1)

    # events
    contact2 = pz2 - (leg + d2) <= floor_ahead + body.contact_tol
    landed = contact2 & (s.air_steps > 0)
    air_time = s.air_steps * cfg.dt
    air_time = select(landed, select(cfg.air_time_cap < air_time, cfg.air_time_cap,
                                     air_time), 0.0)
    air_steps = select(contact2, 0, s.air_steps + 1)
    edge = contact2 & (np.abs(s.disc.T - px2) <= cfg.edge_margin).any(axis=0)
    moving = (np.abs(vx2) < cfg.stuck_speed) & (np.abs(s.v_cmd) > 0.0)
    stuck_steps = select(moving, s.stuck_steps + 1, 0)
    stuck = stuck_steps >= cfg.stuck_steps

    ceiling = interp_rows(px2, s.ceiling_x, s.ceiling_z, SKY, SKY)
    hh = body.body_half_height
    collision = (pz2 + hh > ceiling) | (pz2 - hh < floor_ahead)
    fall = pz2 < s.fall_z + leg + body.offset_min
    step_count = s.step_count + 1
    success = px2 >= cfg.goal_x
    code = select(collision, _COLLISION, select(
        fall, _FALL, select(np.abs(th2) > cfg.pitch_limit, _PITCH, select(
            success, _SUCCESS, select(step_count >= cfg.max_steps, _TIMEOUT, 0)))))

    events = {"stumble": stumble, "landed": landed, "air_time": air_time,
              "edge": edge, "stuck": stuck, "collision": collision | fall}
    reward, terms = total_reward(x2, a, s.prev_action, s.prev_height_rate,
                                 height_rate, s.v_cmd, events, cfg)
    row = _proprio_row(cfg, x2, height_rate, a, s.v_cmd)
    new = {"x": x2, "contact": contact2, "step_count": step_count,
           "air_steps": air_steps, "stuck_steps": stuck_steps,
           "episode_return": s.episode_return + reward,
           "history": np.concatenate([s.history[..., 1:, :], row[..., None, :]], axis=-2),
           "prev_action": a, "prev_height_rate": height_rate}
    refresh = step_count % cfg.scan_every == 0
    if fault.any():
        # a faulted env ends with no reward and keeps its state; it reports
        # only a stumble found before its fault
        ok = ~fault
        code = select(fault, _FAULT, code)
        reward = select(fault, 0.0, reward)
        terms = {k: select(ok, v, 0.0) for k, v in terms.items()}
        success = success & ok
        refresh = refresh & ok
        events = {k: select(ok, v, False) for k, v in events.items()}
        events["stumble"] = stumble & ~fault_before
        events["air_time"] = select(ok, air_time, 0.0)
        new = {k: select(ok, v, getattr(s, k)) for k, v in new.items()}
    vars(s).update(new)
    if np.any(refresh):
        s.scan[refresh] = render_depth_scan(x2[refresh], s.segments[refresh],
                                            SCAN_RAYS, SCAN_MAX_RANGE)
    return StepOutcome(reward, terms, code, fault, success, events)


def observe(cfg: EnvConfig, s: EnvState) -> tuple[np.ndarray, np.ndarray]:
    """The flat (obs, priv) of every env of `s`; layouts in the module docstring."""
    body = cfg.body
    lead = s.x.shape[:-1]
    priv = np.empty(lead + (cfg.priv_dim,))
    priv[..., :HISTORY_SIZE] = s.history.reshape(lead + (HISTORY_SIZE,))
    priv[..., HISTORY_SIZE:OBS_DIM] = s.scan
    px, pz = s.x[..., IDX_PX, None], s.x[..., IDX_PZ, None]
    priv[..., OBS_DIM:OBS_DIM + SCAN_DOT_COUNT] = interp_rows(
        px + SCAN_DOT_OFFSETS, s.floor_x, s.floor_z) - pz
    priv[..., -6:-3] = s.x[..., IDX_VX:IDX_OMEGA + 1]     # v_x, v_z, pitch_rate
    support = body.mass * body.gravity - s.prev_action[..., 1]
    priv[..., -3] = select(s.contact & (support > 0.0), support, 0.0)
    priv[..., -2] = body.mass
    priv[..., -1] = s.friction
    return priv[..., :OBS_DIM].copy(), priv


class PlanarEnv:
    """One environment: `step_state` at leading shape (). See EnvBatch for B."""

    def __init__(self, config: EnvConfig | None = None, seed: int = 0):
        self.cfg = config or EnvConfig()
        self.rng = np.random.default_rng(seed)
        self.terrain: TerrainProfile | None = None
        self.state: EnvState | None = None

    def reset(self, level: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        self.terrain, self.state = _reset_state(self.cfg, self.rng, level)
        return observe(self.cfg, self.state)

    def step(self, action: np.ndarray):
        """Advance one 50 Hz step under a physical wrench action; returns
        (obs, priv, out), the step report of the module docstring."""
        out = step_state(self.cfg, self.state, action)
        return (*observe(self.cfg, self.state), out)


def env_seeds(seed: int, num_envs: int) -> list[int]:
    """The seed of each env of an EnvBatch, spawned from the batch seed."""
    return [int(s.generate_state(1)[0] % 2**31)
            for s in np.random.SeedSequence(seed).spawn(num_envs)]


class EnvBatch:
    """B independent environments stepped as one batch, with auto-reset.

    `state` is an EnvState of leading shape (B,): the B envs' simulator
    state, history and scan, and their terrains as padded arrays (layout in
    the module docstring). Env i draws its episodes from `rngs[i]`, exactly
    as a PlanarEnv seeded with `env_seeds(seed, B)[i]` would.
    """

    def __init__(self, config: EnvConfig, num_envs: int, seed: int = 0):
        self.rngs = [np.random.default_rng(s) for s in env_seeds(seed, num_envs)]
        self.cfg = config
        self.num_envs = num_envs
        self.level = config.terrain_level
        self.state: EnvState | None = None

    def reset_all(self) -> tuple[np.ndarray, np.ndarray]:
        self.state = EnvState.stack([_reset_state(self.cfg, rng, self.level)[1]
                                     for rng in self.rngs])
        return observe(self.cfg, self.state)

    def step(self, actions: np.ndarray):
        """Step all envs; done envs auto-reset (returned obs is the new
        episode's). Returns (obs, priv, out, terminal), the step report of
        the module docstring."""
        s = self.state
        out = step_state(self.cfg, s, actions)
        ended = np.flatnonzero(out.code)
        x = s.x[ended]
        terminal = Terminal(s.episode_return[ended], s.step_count[ended], x,
                            self.floor_height(x[:, IDX_PX], ended))
        for i in ended:
            s.put(i, _reset_state(self.cfg, self.rngs[i], self.level)[1])
        return (*observe(self.cfg, s), out, terminal)

    def floor_height(self, s, rows=slice(None)):
        """Floor heights at positions `s` of the envs `rows` (all by default),
        one position per env or a trailing axis of them."""
        return interp_rows(s, self.state.floor_x[rows], self.state.floor_z[rows])

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the batch's EnvState arrays in the dtypes a checkpoint
        stores (the env generators are `rngs`)."""
        return {k: v.astype(stored_dtype(v.dtype)) for k, v in vars(self.state).items()}

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Inverse of state_arrays(), for a reset batch of the same config and
        size; names, shapes and dtypes must match. The padded terrain widths
        are the saved batch's, a polyline's z taking the width of its x."""
        width = {k: np.shape(arrays.get(k, getattr(self.state, k)))[1:2] for k in _PADDING}
        width.update(floor_z=width["floor_x"], ceiling_z=width["ceiling_x"])
        check_arrays(arrays, {
            k: ((v.shape[0], *width[k], *v.shape[2:]) if k in _PADDING else v.shape,
                stored_dtype(v.dtype)) for k, v in vars(self.state).items()}, "env batch")
        self.state = EnvState(**{k: arrays[k].astype(v.dtype)
                                 for k, v in vars(self.state).items()})
