"""Sampling MPC with value bootstrap, warm-started from the policy.

Each call: (1) roll the internal model with the expert actor to get a fresh
posterior state and a Gaussian action plan; (2) blend it with the previous
plan (temporal momentum); (3) iterate: sample candidate action sequences,
score them by discounted predicted reward plus the terminal value head,
keep the best constraint-satisfying elites, refit the Gaussian, blend
(iteration momentum); (4) sample the first action of the final plan.

The planner talks to any model through a small duck-typed surface:
    warm_start(y_prev, horizon, rng) -> (y0, GaussianActionPlan)
    begin(y0, n) -> batch state
    step(batch, actions (n, m), rng) -> (batch', reward_mean (n,), x_pred (n, 7))
    value_mean(batch) -> (n,)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .state import IDX_OFFSET, IDX_OMEGA, IDX_VX, IDX_VZ, ModelState, X_DIM


@dataclass
class GaussianActionPlan:
    """Mean/std sequences over an H-step action horizon."""

    mean: np.ndarray  # (H, m)
    std: np.ndarray   # (H, m), elementwise >= the configured floor

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape:
            raise DimensionError(
                f"plan mean shape {self.mean.shape} != std shape {self.std.shape}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValueError("plan contains non-finite entries")
        if (self.std <= 0).any():
            raise ValueError("plan std must be positive")


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = 8
    iterations: int = 4          # MPPI distribution updates per call
    samples: int = 256           # draws from the current plan per iteration
    policy_samples: int = 32     # draws from the warm-start policy per iteration
    elites: int = 32
    temporal_momentum: float = 0.5    # alpha: previous plan vs warm start
    iteration_momentum: float = 0.7   # beta: elite fit vs previous iterate
    gamma: float = 0.951
    sigma_floor: float = 1e-3
    penalty_weight: float = 1e3
    max_action_retries: int = 8

    def validate(self):
        if self.horizon < 1:
            raise ConfigError("planner.horizon", "must be >= 1")
        if self.iterations < 0:
            raise ConfigError("planner.iterations", "must be >= 0")
        for name in ("samples", "policy_samples", "elites"):
            if getattr(self, name) < 1:
                raise ConfigError(f"planner.{name}", "must be >= 1")
        if self.elites > self.samples + self.policy_samples:
            raise ConfigError("planner.elites",
                              "elite count exceeds sampled candidates")
        for name in ("temporal_momentum", "iteration_momentum"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"planner.{name}", "must lie in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("planner.gamma", "must lie in [0, 1)")
        if self.sigma_floor <= 0:
            raise ConfigError("planner.sigma_floor", "must be positive")
        if not self.penalty_weight >= 0.0:
            raise ConfigError("planner.penalty_weight", "must be >= 0")
        return self


_INF = float("inf")


@dataclass(frozen=True)
class ConstraintSet:
    """Hard feasibility set: height-offset box (joint-limit analog),
    height-rate bounds on the action (joint-velocity analog), base twist
    bounds, and the admissible action box. All but the action box default to
    unbounded: the integrator keeps the offset in the body's range."""

    height_offset: tuple[float, float] = (-_INF, _INF)
    height_rate: tuple[float, float] = (-_INF, _INF)
    v_x: tuple[float, float] = (-_INF, _INF)
    v_z: tuple[float, float] = (-_INF, _INF)
    pitch_rate: tuple[float, float] = (-_INF, _INF)
    action_low: tuple = (-1.0, -1.0, -1.0, -1.0)
    action_high: tuple = (1.0, 1.0, 1.0, 1.0)
    height_rate_dim: int = 3

    def __post_init__(self):
        for name in ("height_offset", "height_rate", "v_x", "v_z", "pitch_rate"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"constraints.{name}", f"lower {lo} must be < upper {hi}")
        if not (np.asarray(self.action_low) < np.asarray(self.action_high)).all():
            raise ConfigError("constraints.action_box", "lower must be < upper")

    @classmethod
    def unbounded(cls, action_low, action_high, height_rate_dim: int | None = None
                  ) -> "ConstraintSet":
        m = len(action_low)
        return cls(action_low=tuple(action_low), action_high=tuple(action_high),
                   height_rate_dim=height_rate_dim if height_rate_dim is not None
                   else min(3, m - 1))

    def action_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.action_low, dtype=np.float64), \
            np.asarray(self.action_high, dtype=np.float64)

    @staticmethod
    def _excess(values, lo, hi):
        over = np.maximum(values - hi, 0.0)
        under = np.maximum(lo - values, 0.0)
        over = np.where(np.isfinite(over), over, 0.0)
        under = np.where(np.isfinite(under), under, 0.0)
        return over + under

    def state_excess(self, xs: np.ndarray) -> np.ndarray:
        """Sum of positive constraint excesses over trailing state axes.

        xs: (..., 7) or (..., H, 7); reduces every axis after the batch."""
        xs = np.asarray(xs, dtype=np.float64)
        e = self._excess(xs[..., IDX_VX], *self.v_x)
        e = e + self._excess(xs[..., IDX_VZ], *self.v_z)
        e = e + self._excess(xs[..., IDX_OMEGA], *self.pitch_rate)
        e = e + self._excess(xs[..., IDX_OFFSET], *self.height_offset)
        if e.ndim > 1:
            e = e.sum(axis=tuple(range(1, e.ndim)))
        return e

    def action_excess(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.float64)
        lo, hi = self.action_box()
        e = self._excess(actions, lo, hi).sum(axis=-1)
        e = e + self._excess(actions[..., self.height_rate_dim], *self.height_rate)
        if e.ndim > 1:
            e = e.sum(axis=tuple(range(1, e.ndim)))
        return e

    def violation(self, xs: np.ndarray, actions: np.ndarray,
                  returns: np.ndarray | None = None) -> np.ndarray:
        """Total excess of each candidate's predicted states and actions
        (bounds inclusive, 0 = feasible); inf where its return is non-finite."""
        v = self.state_excess(xs) + self.action_excess(actions)
        return v if returns is None else np.where(np.isfinite(returns), v, _INF)


@dataclass
class IterationStats:
    iteration: int
    return_mean: float
    return_max: float
    elite_return_mean: float
    elite_return_min: float
    feasible_count: int
    violation_count: int
    elite_violation_count: int
    infeasible_fallback: bool
    non_elite_feasible_max: float


@dataclass
class DiagnosticTrace:
    """Per-call planner telemetry; `actual_pz` is filled by the control loop
    after the environment advances."""

    call_index: int = 0
    iterations: list = field(default_factory=list)
    executed_action: np.ndarray | None = None
    one_step_predicted_x: np.ndarray | None = None
    one_step_violation: float = 0.0
    predicted_pz: np.ndarray | None = None
    actual_pz: float | None = None
    infeasible_events: int = 0
    action_fallback: bool = False
    timing_ms: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "call_index": self.call_index,
            "iterations": [vars(s) for s in self.iterations],
            "executed_action": None if self.executed_action is None
            else [float(v) for v in self.executed_action],
            "one_step_predicted_x": None if self.one_step_predicted_x is None
            else [float(v) for v in self.one_step_predicted_x],
            "one_step_violation": float(self.one_step_violation),
            "predicted_pz": None if self.predicted_pz is None
            else [float(v) for v in self.predicted_pz],
            "actual_pz": self.actual_pz,
            "infeasible_events": self.infeasible_events,
            "action_fallback": self.action_fallback,
            "timing_ms": {k: round(v, 3) for k, v in self.timing_ms.items()},
        }


# -- return evaluation ---------------------------------------------------------


def rollout_candidates(model, y0, actions: np.ndarray, gamma: float,
                       rng: np.random.Generator, bootstrap: bool = True
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Roll n candidates through the model's dynamics branch.

    actions: (n, H, m). Returns (returns (n,), predicted states (n, H, 7)).
    Discounted reward means are accumulated step-by-step; the terminal value
    head mean is added at gamma^H when bootstrapping. H = 0 degenerates to the
    pure bootstrap.
    """
    actions = np.asarray(actions, dtype=np.float64)
    n, horizon = actions.shape[0], actions.shape[1]
    batch = model.begin(y0, n)
    returns = np.zeros(n)
    xs = np.zeros((n, horizon, X_DIM))
    gpow = 1.0
    for k in range(horizon):
        batch, r_mean, x_pred = model.step(batch, actions[:, k], rng)
        returns += gpow * r_mean
        xs[:, k] = x_pred
        gpow *= gamma
    if bootstrap:
        returns += gpow * model.value_mean(batch)
    return returns, xs


def select_elites(returns: np.ndarray, violations: np.ndarray, n_elite: int,
                  penalty_weight: float) -> tuple[np.ndarray, bool]:
    """Indices of the elite set: stable descending sort by return (lower index
    wins ties), keep the best feasible candidates; when fewer than n_elite are
    feasible, fall back to penalized ranking over all candidates."""
    finite = np.isfinite(returns)
    order = np.argsort(-np.where(finite, returns, -_INF), kind="stable")
    feasible_sorted = order[(violations[order] == 0.0) & finite[order]]
    if feasible_sorted.size >= n_elite:
        return feasible_sorted[:n_elite], False
    penalized = np.where(finite, returns - penalty_weight * violations, -1e18)
    fallback_order = np.argsort(-penalized, kind="stable")
    return fallback_order[:n_elite], True


def fit_elite_plan(elite_actions: np.ndarray, sigma_floor: float) -> GaussianActionPlan:
    """Per-(step, dim) sample mean and population std over the elite set."""
    mean = elite_actions.mean(axis=0)
    std = np.maximum(elite_actions.std(axis=0, ddof=0), sigma_floor)
    return GaussianActionPlan(mean, std)


def blend_plans(a: GaussianActionPlan, b: GaussianActionPlan, weight_a: float
                ) -> GaussianActionPlan:
    """weight_a * a + (1 - weight_a) * b, blended in std space."""
    return GaussianActionPlan(weight_a * a.mean + (1.0 - weight_a) * b.mean,
                              weight_a * a.std + (1.0 - weight_a) * b.std)


def mppi_plan(plan_prev: GaussianActionPlan | None, y_prev, model,
              config: PlannerConfig, cset: ConstraintSet,
              rng: np.random.Generator, call_index: int = 0, bootstrap: bool = True
              ) -> tuple[np.ndarray, GaussianActionPlan, DiagnosticTrace]:
    """One full planner call; pure function of (inputs, rng state).
    `bootstrap` False drops the terminal value from every candidate's return."""
    config.validate()
    trace = DiagnosticTrace(call_index=call_index)
    lo, hi = cset.action_box()
    m = lo.shape[0]
    horizon = config.horizon

    t0 = time.perf_counter()
    y0, plan_rl = model.warm_start(y_prev, horizon, rng)
    plan_rl = GaussianActionPlan(plan_rl.mean,
                                 np.maximum(plan_rl.std, config.sigma_floor))
    trace.timing_ms["warm_start"] = (time.perf_counter() - t0) * 1e3

    if plan_prev is None:
        plan_prev = plan_rl
    if plan_prev.mean.shape != (horizon, m):
        raise DimensionError(
            f"previous plan shape {plan_prev.mean.shape} != ({horizon}, {m})")
    plan = blend_plans(plan_prev, plan_rl, config.temporal_momentum)

    t_sample = t_eval = t_fit = 0.0
    for i in range(1, config.iterations + 1):
        t1 = time.perf_counter()
        eps = rng.standard_normal((config.samples, horizon, m))
        cand = plan.mean[None] + plan.std[None] * eps
        eps_pi = rng.standard_normal((config.policy_samples, horizon, m))
        cand_pi = plan_rl.mean[None] + plan_rl.std[None] * eps_pi
        actions = np.clip(np.concatenate([cand, cand_pi], axis=0), lo, hi)
        t2 = time.perf_counter()
        returns, xs = rollout_candidates(model, y0, actions, config.gamma, rng,
                                         bootstrap)
        violations = cset.violation(xs, actions, returns)
        t3 = time.perf_counter()
        elite_idx, fell_back = select_elites(returns, violations, config.elites,
                                             config.penalty_weight)
        elite_fit = fit_elite_plan(actions[elite_idx], config.sigma_floor)
        plan = blend_plans(elite_fit, plan, config.iteration_momentum)
        t4 = time.perf_counter()
        t_sample += t2 - t1
        t_eval += t3 - t2
        t_fit += t4 - t3
        finite = returns[np.isfinite(returns)]
        elite_returns = returns[elite_idx]
        non_elite_feasible = np.setdiff1d(
            np.where((violations == 0.0) & np.isfinite(returns))[0], elite_idx)
        trace.iterations.append(IterationStats(
            iteration=i,
            return_mean=float(finite.mean()) if finite.size else float("nan"),
            return_max=float(finite.max()) if finite.size else float("nan"),
            elite_return_mean=float(elite_returns.mean()),
            elite_return_min=float(elite_returns.min()),
            feasible_count=int((violations == 0.0).sum()),
            violation_count=int((violations > 0.0).sum()),
            elite_violation_count=int((violations[elite_idx] > 0.0).sum()),
            infeasible_fallback=fell_back,
            non_elite_feasible_max=(float(returns[non_elite_feasible].max())
                                    if non_elite_feasible.size else float("-inf")),
        ))
        if fell_back:
            trace.infeasible_events += 1
    trace.timing_ms["sampling"] = t_sample * 1e3
    trace.timing_ms["evaluation"] = t_eval * 1e3
    trace.timing_ms["elite_fit"] = t_fit * 1e3

    t5 = time.perf_counter()
    a0, one_x, one_viol, fell_back = _draw_first_action(
        plan, y0, model, cset, config, rng)
    trace.executed_action = a0
    trace.one_step_predicted_x = one_x
    trace.one_step_violation = one_viol
    trace.action_fallback = fell_back

    # mean-plan rollout for the predicted-vs-actual overlay: offset 0 is the
    # posterior state estimate, offsets 1..H-1 the open-loop mean plan
    mean_returns, mean_xs = rollout_candidates(
        model, y0, plan.mean[None], config.gamma, rng, bootstrap)
    trace.predicted_pz = np.concatenate([[_y0_pz(y0)],
                                         mean_xs[0, :horizon - 1, 1]])
    trace.timing_ms["finalize"] = (time.perf_counter() - t5) * 1e3
    return a0, plan, trace


def _y0_pz(y0) -> float:
    x = y0.x if isinstance(y0, ModelState) else np.asarray(y0)
    return float(np.asarray(x).ravel()[1]) if np.asarray(x).size > 1 else float("nan")


def _draw_first_action(plan: GaussianActionPlan, y0, model, cset: ConstraintSet,
                       config: PlannerConfig, rng: np.random.Generator):
    """a0 from the final plan, clipped into the action box: the first draw whose
    one-step predicted state is feasible, else the plan mean unless a draw
    violates strictly less."""
    lo, hi = cset.action_box()
    draws = max(config.max_action_retries, 1)
    best = (None, None, _INF)
    for k in range(draws + 1):                  # the draws, then the plan mean
        is_mean = k == draws
        a0 = np.clip(plan.mean[0] if is_mean else
                     plan.mean[0] + plan.std[0] * rng.standard_normal(lo.shape[0]), lo, hi)
        _, xs = rollout_candidates(model, y0, a0[None, None], config.gamma, rng, False)
        viol = float(cset.violation(xs, a0[None, None])[0])
        if viol == 0.0 and not is_mean:
            return a0, xs[0, 0], 0.0, False
        if viol < best[2] or is_mean and viol == best[2]:
            best = (a0, xs[0, 0], viol)
    return (*best, True)


# -- the learned-model adapter ----------------------------------------------------


class ModelPlannerAdapter:
    """Bridges the internal model + expert actor to the planner surface.

    Every model step goes through `InternalModel.tick` (the warm start's
    refresh from the observation) and `InternalModel.step` (the actor-driven
    warm-start plan and each candidate step), with the terrain lookup
    `floor_fn` of the current episode (None: free flight). Call
    begin_tick(obs_flat) once per control tick before planning; it fixes the
    observation the warm start conditions on. After warm_start, tick_state
    holds the tick's post-encoder model state.
    """

    def __init__(self, model, actor, floor_fn=None):
        self.model = model
        self.actor = actor
        self.floor_fn = floor_fn
        self.obs_flat = None
        self.tick_state = None

    def begin_tick(self, obs_flat: np.ndarray):
        self.obs_flat = np.asarray(obs_flat, dtype=np.float64)

    def warm_start(self, y_prev: ModelState, horizon: int, rng: np.random.Generator):
        if self.obs_flat is None:
            raise RuntimeError("begin_tick() must be called before planning")
        obs = self.obs_flat[None]
        x, h, z, rollout_flat = self.model.tick(
            obs, y_prev.x[None], y_prev.h[None], y_prev.z[None], rng=rng,
            floor_fn=self.floor_fn)
        self.tick_state = ModelState(x[0], h[0], z[0])
        means = np.zeros((horizon, self.model.cfg.action_dim))
        stds = np.zeros_like(means)
        for k in range(horizon):
            with ad.no_grad():
                dist = self.actor(obs, h, rollout_flat)
            means[k], stds[k] = dist.mean.data[0], dist.std[0]
            if k + 1 < horizon:     # the plan reads no state after its last action
                a = np.minimum(np.maximum(dist.mean.data, -1.0), 1.0)
                x, h, z = self.model.step(x, h, z, a, rng=rng, floor_fn=self.floor_fn)
        return self.tick_state, GaussianActionPlan(means, stds)

    def begin(self, y0: ModelState, n: int) -> dict:
        return {"x": np.tile(y0.x, (n, 1)), "h": np.tile(y0.h, (n, 1)),
                "z": np.tile(y0.z, (n, 1))}

    def step(self, batch: dict, actions: np.ndarray, rng: np.random.Generator):
        x, h, z = batch["x"], batch["h"], batch["z"]
        with ad.no_grad():
            r_mean = self.model.predict_reward(x, h, z, actions).mean.data[:, 0]
        r_mean = r_mean.astype(np.float64)      # the planner's arithmetic is float64
        x, h, z = self.model.step(x, h, z, actions, rng=rng, floor_fn=self.floor_fn)
        return {"x": x, "h": h, "z": z}, r_mean, x

    def value_mean(self, batch: dict) -> np.ndarray:
        with ad.no_grad():
            value = self.model.predict_value(batch["x"], batch["h"], batch["z"])
        return value.mean.data[:, 0].astype(np.float64)
