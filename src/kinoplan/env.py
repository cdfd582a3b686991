"""Planar kinodynamic locomotion environment.

A single rigid body with a height-adjustable point-foot support leg crosses
1-D terrain under a wrench action [force_x, force_z, torque, height_rate]
(physical units) at 50 Hz. The integration (semi-implicit Euler with a
planted-foot contact mode and Coulomb drag) lives in `state.advance_state`;
`PlanarEnv.step` adds only the simulator's extras around it: weak body
forces in the air, step-riser blocking and the landing clamp. The synthetic
depth scan is refreshed at the 10 Hz sensor rate.

`reset` and `step` return flat observations:

    obs  = [proprio history (history_len x PROPRIO_DIM, oldest row first),
            depth scan (scan_rays)]
    priv = [obs, scan dots (SCAN_DOT_COUNT floor heights relative to p_z),
            v_x, v_z, pitch_rate, contact force, mass, friction]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .state import (BodyParams, IDX_OFFSET, IDX_OMEGA, IDX_PITCH, IDX_PX, IDX_PZ,
                    IDX_VX, IDX_VZ, X_DIM, advance_state)
from .terrain import MAX_LEVEL, TerrainProfile, build_terrain, render_depth_scan

PROPRIO_DIM = 9          # [d, d_rate, sin pitch, cos pitch, v_cmd, prev_action(4)]
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

ACTION_DIM = 4


@dataclass(frozen=True)
class EnvConfig:
    dt: float = 0.02
    max_steps: int = 1000
    terrain_kind: str = "flat"
    terrain_level: int = 0
    terrain_jitter: bool = True
    history_len: int = 5
    scan_rays: int = 64
    scan_max_range: float = 3.0
    scan_every: int = 5
    v_cmd_range: tuple[float, float] = (0.4, 1.0)
    friction_range: tuple[float, float] = (0.2, 0.4)
    frictionless: bool = False
    gravity_on: bool = True
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

    @property
    def obs_dim(self) -> int:
        return self.history_len * PROPRIO_DIM + self.scan_rays

    @property
    def priv_dim(self) -> int:
        return self.obs_dim + PRIV_EXTRA_DIM

    def action_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.action_low), np.asarray(self.action_high)

    def to_physical(self, a_norm: np.ndarray) -> np.ndarray:
        """Map normalized [-1, 1] actions onto the physical action box."""
        lo, hi = self.action_box()
        return (lo + hi) / 2.0 + np.asarray(a_norm) * (hi - lo) / 2.0

    def to_normalized(self, a_phys: np.ndarray) -> np.ndarray:
        lo, hi = self.action_box()
        return (np.asarray(a_phys) - (lo + hi) / 2.0) / ((hi - lo) / 2.0)


@dataclass
class SimState:
    x: np.ndarray
    contact: bool
    v_cmd: float
    step_count: int
    rng: np.random.Generator


def lin_tracking_reward(v: float, v_cmd: float, sigma: float) -> float:
    """Clipped velocity-tracking kernel: overspeed beyond v_cmd + 0.1 plateaus."""
    if sigma <= 0:
        raise ConfigError("sigma_lin", "tracking scale must be positive")
    err = min(v, v_cmd + 0.1) - v_cmd
    return math.exp(-err * err / sigma)


def total_reward(x_after: np.ndarray, action: np.ndarray, prev_action: np.ndarray,
                 prev_height_rate: float, height_rate: float, v_cmd: float,
                 events: dict, cfg: EnvConfig) -> tuple[float, dict]:
    """Weighted per-step reward; returns (total, per-term contributions)."""
    lo, hi = cfg.action_box()
    half = (hi - lo) / 2.0
    da = (np.asarray(action) - np.asarray(prev_action)) / half

    raw = {
        "lin_tracking": lin_tracking_reward(abs(x_after[IDX_VX]), v_cmd, cfg.sigma_lin),
        "ang_tracking": math.exp(-x_after[IDX_OMEGA] ** 2 / cfg.sigma_ang),
        "torques": -float(np.sum(np.asarray(action)[:3] ** 2)),
        "dof_acc": -((height_rate - prev_height_rate) / cfg.dt) ** 2,
        "action_rate": float(np.sum(da * da)),
        "dof_error": x_after[IDX_OFFSET] ** 2,
        "z_vel": x_after[IDX_VZ] ** 2,
        "feet_air": events.get("air_time", 0.0) if events.get("landed", False) else 0.0,
        "collision": 1.0 if events.get("collision", False) else 0.0,
        "stumble": 1.0 if events.get("stumble", False) else 0.0,
        "edge": 1.0 if events.get("edge", False) else 0.0,
        "stuck": 1.0 if events.get("stuck", False) else 0.0,
    }
    terms = {k: REWARD_SCALES[k] * raw[k] for k in REWARD_SCALES}
    return float(sum(terms.values())), terms


def curriculum_advance(level: int, success_rate: float) -> int:
    """Promote past 0.8, demote below 0.3, clamp to the level range."""
    if success_rate > 0.8:
        level += 1
    elif success_rate < 0.3:
        level -= 1
    return int(np.clip(level, 0, MAX_LEVEL))


class PlanarEnv:
    """Single environment; see EnvBatch for the stacked convenience."""

    def __init__(self, config: EnvConfig | None = None, seed: int = 0):
        self.cfg = config or EnvConfig()
        self.rng = np.random.default_rng(seed)
        self.terrain: TerrainProfile | None = None
        self.state: SimState | None = None
        self._history = np.zeros((self.cfg.history_len, PROPRIO_DIM))
        self._scan = np.zeros(self.cfg.scan_rays)
        self._prev_action = np.zeros(ACTION_DIM)
        self._prev_height_rate = 0.0
        self._air_steps = 0
        self._stuck_counter = 0
        self._friction = 0.0
        self._episode_return = 0.0

    # -- lifecycle -------------------------------------------------------------

    def reset(self, level: int | None = None, terrain: TerrainProfile | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.cfg
        episode_rng = np.random.default_rng(self.rng.integers(0, 2**63 - 1))
        if terrain is None:
            terrain = build_terrain(cfg.terrain_kind,
                                    cfg.terrain_level if level is None else level,
                                    episode_rng, jitter=cfg.terrain_jitter)
        self.terrain = terrain

        x = np.zeros(X_DIM)
        x[IDX_PX] = cfg.start_x
        x[IDX_PZ] = float(terrain.floor_height(cfg.start_x)) + cfg.body.leg_length
        v_cmd = float(episode_rng.uniform(*cfg.v_cmd_range))
        self._friction = 0.0 if cfg.frictionless else float(
            episode_rng.uniform(*cfg.friction_range))
        self.state = SimState(x=x, contact=True, v_cmd=v_cmd, step_count=0,
                              rng=episode_rng)
        self._prev_action = np.zeros(ACTION_DIM)
        self._prev_height_rate = 0.0
        self._air_steps = 0
        self._stuck_counter = 0
        self._episode_return = 0.0
        self._scan = render_depth_scan(x, terrain, cfg.scan_rays, cfg.scan_max_range)
        row = self._proprio_row(x, 0.0, self._prev_action)
        self._history = np.tile(row, (cfg.history_len, 1))
        return self._observe()

    def snapshot(self) -> dict:
        """The env's state as a dict/list tree of plain values and arrays."""
        snap = {k: v for k, v in vars(self).items() if k not in ("cfg", "state")}
        snap.update(rng=self.rng.bit_generator.state, terrain=vars(self.terrain),
                    state={**vars(self.state), "rng": self.state.rng.bit_generator.state})
        return snap

    def restore(self, snap: dict):
        """Inverse of snapshot(), for an env built with the same config."""
        snap = dict(snap)
        self.rng.bit_generator.state = snap.pop("rng")
        self.terrain = TerrainProfile(**snap.pop("terrain"))
        sim = dict(snap.pop("state"))
        rng = np.random.default_rng(0)
        rng.bit_generator.state = sim.pop("rng")
        self.state = SimState(rng=rng, **sim)
        vars(self).update(snap)

    # -- stepping ----------------------------------------------------------------

    def step(self, action: np.ndarray):
        """Advance one 50 Hz step under a physical wrench action.

        Returns (obs, priv_obs, reward, reward_terms, done, info); info carries
        the event flags, termination reason, and success flag.
        """
        cfg, st, body = self.cfg, self.state, self.cfg.body
        lo, hi = cfg.action_box()
        a = np.clip(np.asarray(action, dtype=np.float64), lo, hi)

        if not np.isfinite(st.x).all():
            return self._fault({})

        x = st.x
        px, pz, d = x[IDX_PX], x[IDX_PZ], x[IDX_OFFSET]
        floor_here = float(self.terrain.floor_height(px))
        contact = (pz - (body.leg_length + d)) <= floor_here + body.contact_tol
        wrench = a.copy()
        if not contact:
            wrench[:2] *= body.air_force_scale
        x2 = advance_state(x, wrench, cfg.dt, body, self.terrain.floor_height,
                           cfg.gravity_on, friction=self._friction)
        px2, pz2, th2, vx2, vz2, om2, d2 = x2
        height_rate = (d2 - d) / cfg.dt
        planted = contact and vz2 <= 0.0

        events = {}
        # step-riser blocking: the foot cannot slide into a rise taller than tol;
        # a planted foot has not moved vertically before it is re-planted
        floor_ahead = float(self.terrain.floor_height(px2))
        foot_free = (pz if planted else pz2) - (body.leg_length + d2)
        if floor_ahead - foot_free > cfg.step_up_tol:
            events["stumble"] = True
            px2, vx2, floor_ahead = px, 0.0, floor_here
            if planted:
                pz2 = floor_here + body.leg_length + d2
        if not planted and pz2 - (body.leg_length + d2) < floor_ahead:
            pz2 = floor_ahead + body.leg_length + d2   # landed through floor
            vz2 = max(vz2, 0.0)

        x2 = np.array([px2, pz2, th2, vx2, vz2, om2, d2])
        if not np.isfinite(x2).all():
            return self._fault(events)

        contact2 = (pz2 - (body.leg_length + d2)) <= floor_ahead + body.contact_tol

        # events
        if contact2:
            if self._air_steps > 0:
                events["landed"] = True
                events["air_time"] = min(self._air_steps * cfg.dt, cfg.air_time_cap)
            self._air_steps = 0
            disc = self.terrain.discontinuities
            if disc.size and np.min(np.abs(disc - px2)) <= cfg.edge_margin:
                events["edge"] = True
        else:
            self._air_steps += 1

        if abs(vx2) < cfg.stuck_speed and abs(st.v_cmd) > 0.0:
            self._stuck_counter += 1
        else:
            self._stuck_counter = 0
        if self._stuck_counter >= cfg.stuck_steps:
            events["stuck"] = True

        termination = None
        ceiling = float(self.terrain.ceiling_height(px2))
        if pz2 + body.body_half_height > ceiling or pz2 - body.body_half_height < floor_ahead:
            events["collision"] = True
            termination = "collision"
        elif pz2 < self.terrain.fall_z + body.leg_length + body.offset_min:
            events["collision"] = True
            termination = "fall"
        elif abs(th2) > cfg.pitch_limit:
            termination = "pitch"

        st.x = x2
        st.contact = bool(contact2)
        st.step_count += 1

        success = px2 >= cfg.goal_x
        if termination is None:
            if success:
                termination = "success"
            elif st.step_count >= cfg.max_steps:
                termination = "timeout"
        done = termination is not None

        reward, terms = total_reward(x2, a, self._prev_action, self._prev_height_rate,
                                     height_rate, st.v_cmd, events, cfg)
        self._episode_return += reward

        if st.step_count % cfg.scan_every == 0:
            self._scan = render_depth_scan(x2, self.terrain, cfg.scan_rays,
                                           cfg.scan_max_range)
        row = self._proprio_row(x2, height_rate, a)
        self._history = np.vstack([self._history[1:], row])
        self._prev_action = a
        self._prev_height_rate = height_rate

        info = {"events": events, "termination": termination, "success": bool(success),
                "fault": False, "episode_return": self._episode_return,
                "episode_steps": st.step_count}
        return *self._observe(), reward, terms, done, info

    def _fault(self, events):
        """End the episode on a non-finite state, with no reward."""
        info = {"events": dict(events), "termination": "fault", "success": False,
                "fault": True, "episode_return": self._episode_return,
                "episode_steps": self.state.step_count}
        return *self._observe(), 0.0, {}, True, info

    # -- observations -------------------------------------------------------------

    def _proprio_row(self, x, height_rate, action):
        return np.concatenate([
            [x[IDX_OFFSET], height_rate, math.sin(x[IDX_PITCH]), math.cos(x[IDX_PITCH]),
             self.state.v_cmd], self.cfg.to_normalized(action)])

    def _observe(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat (obs, priv) pair; layouts in the module docstring."""
        st, body = self.state, self.cfg.body
        obs = np.concatenate([self._history.ravel(), self._scan])
        dots = self.terrain.floor_height(st.x[IDX_PX] + SCAN_DOT_OFFSETS) - st.x[IDX_PZ]
        force = max(0.0, body.mass * body.gravity - self._prev_action[1]) if st.contact else 0.0
        priv = np.concatenate([obs, dots, st.x[[IDX_VX, IDX_VZ, IDX_OMEGA]],
                               [force, body.mass, self._friction]])
        return obs, priv


class EnvBatch:
    """B independent environments with stacked observations and auto-reset."""

    def __init__(self, config: EnvConfig, num_envs: int, seed: int = 0):
        seeds = np.random.SeedSequence(seed).spawn(num_envs)
        self.envs = [PlanarEnv(config, seed=int(s.generate_state(1)[0] % 2**31))
                     for s in seeds]
        self.cfg = config
        self.num_envs = num_envs
        self.level = config.terrain_level

    def reset_all(self) -> tuple[np.ndarray, np.ndarray]:
        obs, priv = [], []
        for env in self.envs:
            o, p = env.reset(level=self.level)
            obs.append(o)
            priv.append(p)
        return np.stack(obs), np.stack(priv)

    def step(self, actions: np.ndarray):
        """Step all envs; done envs auto-reset (returned obs is the new episode's).

        Returns (obs, priv, rewards, dones, infos) with infos the per-env dicts;
        a done env's info carries its terminal summary.
        """
        obs, priv, rewards, dones, infos = [], [], [], [], []
        for env, a in zip(self.envs, actions):
            o, p, r, _, done, info = env.step(a)
            if done:
                info["terminal_x"] = env.state.x.copy()
                info["terminal_floor"] = float(
                    env.terrain.floor_height(env.state.x[0]))
                o, p = env.reset(level=self.level)
            obs.append(o)
            priv.append(p)
            rewards.append(r)
            dones.append(done)
            infos.append(info)
        return (np.stack(obs), np.stack(priv), np.asarray(rewards),
                np.asarray(dones, dtype=bool), infos)
