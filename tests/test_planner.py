"""Sampling MPC: return evaluation, constraint filtering, elite fits,
momentum identities, and optimality on a small linear-quadratic benchmark."""

from dataclasses import replace

import numpy as np
import pytest

from kinoplan.env import HISTORY_SIZE, OBS_DIM
from kinoplan.errors import ConfigError, DimensionError
from kinoplan.model import InternalModel, ModelConfig
from kinoplan.planner import (ConstraintSet, DiagnosticTrace, GaussianActionPlan,
                              ModelPlannerAdapter, PlannerConfig, _draw_first_action,
                              blend_plans, fit_elite_plan, mppi_plan,
                              rollout_candidates, select_elites)
from kinoplan.policy import Actor
from kinoplan.state import BodyParams, IDX_OFFSET, IDX_VX, ModelState, X_DIM, advance_state

from oracles import discounted_riccati, lqr_rollout_cost


class ConstModel:
    """Frozen heads: reward mean c, value mean V, inert dynamics."""

    def __init__(self, c=1.0, value=0.0):
        self.c, self.value = c, value

    def warm_start(self, y_prev, horizon, rng):
        return y_prev, GaussianActionPlan(np.zeros((horizon, 2)),
                                          np.full((horizon, 2), 0.3))

    def begin(self, y0, n):
        return {"n": n}

    def step(self, batch, actions, rng):
        return batch, np.full(batch["n"], self.c), np.zeros((batch["n"], X_DIM))

    def value_mean(self, batch):
        return np.full(batch["n"], self.value)


class LqrModel:
    """Planner adapter for a 2-D discrete LQR with the Riccati value."""

    def __init__(self, A, B, Q, R, P, x0):
        self.A, self.B, self.Q, self.R, self.P = A, B, Q, R, P
        self.x0 = x0

    def warm_start(self, y_prev, horizon, rng):
        m = self.B.shape[1]
        return y_prev, GaussianActionPlan(np.zeros((horizon, m)),
                                          np.full((horizon, m), 1.0))

    def begin(self, y0, n):
        return {"x": np.tile(np.asarray(y0, dtype=np.float64), (n, 1))}

    def step(self, batch, actions, rng):
        x = batch["x"]
        cost = np.einsum("ni,ij,nj->n", x, self.Q, x) \
            + np.einsum("ni,ij,nj->n", actions, self.R, actions)
        x_next = x @ self.A.T + actions @ self.B.T
        xs = np.zeros((x.shape[0], X_DIM))
        xs[:, :2] = x_next
        return {"x": x_next}, -cost, xs

    def value_mean(self, batch):
        x = batch["x"]
        return -np.einsum("ni,ij,nj->n", x, self.P, x)


# -- plan / config / constraint types -----------------------------------------------

def test_plan_validation():
    with pytest.raises(DimensionError):
        GaussianActionPlan(np.zeros((3, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        GaussianActionPlan(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        GaussianActionPlan(np.full((3, 2), np.nan), np.ones((3, 2)))


def test_planner_config_validation():
    PlannerConfig().validate()
    with pytest.raises(ConfigError):
        PlannerConfig(elites=500, samples=64, policy_samples=8).validate()
    with pytest.raises(ConfigError):
        PlannerConfig(temporal_momentum=1.2).validate()
    with pytest.raises(ConfigError):
        PlannerConfig(gamma=1.0).validate()
    with pytest.raises(ConfigError):
        PlannerConfig(horizon=0).validate()


def test_constraint_set_bounds_must_order():
    with pytest.raises(ConfigError):
        ConstraintSet(height_offset=(0.2, 0.1))


def test_check_constraints_inside_and_excess():
    cset = ConstraintSet(v_x=(-1.0, 1.0), v_z=(-2.0, 2.0), pitch_rate=(-3.0, 3.0),
                         height_offset=(-0.3, 0.15))
    viol = cset.violation(np.zeros((1, 4, X_DIM)), np.zeros((1, 4, 4)), np.array([1.0]))
    assert viol[0] == 0.0   # feasible

    states = np.zeros((1, 4, X_DIM))
    states[0, 2, IDX_VX] = 1.5  # 0.5 above the bound
    viol = cset.violation(states, np.zeros((1, 4, 4)), np.array([1.0]))
    assert viol[0] != 0.0   # infeasible
    assert viol[0] == pytest.approx(0.5)


def test_boundary_exact_value_is_feasible():
    cset = ConstraintSet(v_x=(-1.0, 1.0))
    states = np.zeros((1, 2, X_DIM))
    states[0, :, IDX_VX] = 1.0
    viol = cset.violation(states, np.zeros((1, 2, 4)), np.array([0.0]))
    assert viol[0] == 0.0   # feasible


def test_nonfinite_return_marks_infeasible():
    viol = ConstraintSet().violation(np.zeros((1, 2, X_DIM)), np.zeros((1, 2, 4)),
                                     np.array([float("nan")]))
    assert viol[0] == float("inf")   # infeasible


# -- return evaluation ------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 0.9, 0.99])
@pytest.mark.parametrize("horizon", [1, 4, 8])
def test_geometric_series_identity(gamma, horizon, rng):
    c, v = 1.7, -3.2
    got = rollout_candidates(ConstModel(c, v), None, np.zeros((1, horizon, 2)),
                             gamma, rng)[0][0]
    want = c * sum(gamma ** k for k in range(horizon)) + gamma ** horizon * v
    assert got == pytest.approx(want, abs=1e-9)


def test_degenerate_horizon_is_pure_bootstrap(rng):
    got = rollout_candidates(ConstModel(5.0, 11.0), None, np.zeros((1, 0, 2)), 0.9,
                             rng)[0][0]
    assert got == 11.0


def test_gamma_zero_is_myopic(rng):
    got = rollout_candidates(ConstModel(2.5, 100.0), None, np.zeros((1, 6, 2)), 0.0,
                             rng)[0][0]
    assert got == pytest.approx(2.5)


def test_return_linearity_in_reward_head(rng):
    gamma, horizon = 0.9, 5
    base = ConstModel(2.0, 7.0)
    doubled = ConstModel(4.0, 7.0)
    acts = np.zeros((horizon, 2))
    r1 = rollout_candidates(base, None, acts[None], gamma, rng)[0][0]
    r2 = rollout_candidates(doubled, None, acts[None], gamma, rng)[0][0]
    tail = gamma ** horizon * 7.0
    assert (r2 - tail) == pytest.approx(2.0 * (r1 - tail), rel=1e-12)


def test_bootstrap_flag_drops_terminal_value(rng):
    acts = np.zeros((4, 2))
    with_b = rollout_candidates(ConstModel(1.0, 50.0), None, acts[None], 0.9, rng,
                                True)[0][0]
    without = rollout_candidates(ConstModel(1.0, 50.0), None, acts[None], 0.9, rng,
                                 False)[0][0]
    assert with_b - without == pytest.approx(0.9 ** 4 * 50.0)


# -- elite selection ----------------------------------------------------------------------

def test_elite_enumeration_oracle():
    """Three fixed 1-step candidates with known returns (2, 5, 1): the elite
    fit with a single elite centers on the reward-5 action."""
    actions = np.array([[[0.1]], [[0.6]], [[-0.4]]])
    returns = np.array([2.0, 5.0, 1.0])
    violations = np.zeros(3)
    idx, fallback = select_elites(returns, violations, 1, 1e3)
    assert not fallback
    assert list(idx) == [1]
    plan = fit_elite_plan(actions[idx], sigma_floor=1e-3)
    assert plan.mean[0, 0] == pytest.approx(0.6)
    assert plan.std[0, 0] == 1e-3  # single elite: floored


def test_elite_sort_is_stable_on_ties():
    returns = np.array([3.0, 5.0, 5.0, 1.0])
    idx, _ = select_elites(returns, np.zeros(4), 3, 1e3)
    assert list(idx) == [1, 2, 0]


def test_elites_skip_infeasible_when_enough_feasible():
    returns = np.array([10.0, 9.0, 8.0, 7.0])
    violations = np.array([1.0, 0.0, 0.0, 0.0])
    idx, fallback = select_elites(returns, violations, 2, 1e3)
    assert not fallback
    assert list(idx) == [1, 2]


def test_elite_fallback_penalized_ranking():
    returns = np.array([10.0, 9.0, 8.0])
    violations = np.array([2.0, 0.001, 5.0])
    idx, fallback = select_elites(returns, violations, 2, 1e3)
    assert fallback
    # penalized: 10-2000, 9-1, 8-5000 -> order [1, 0, 2]
    assert list(idx) == [1, 0]


def test_fit_elite_population_std():
    elite = np.array([[[0.0, 2.0]], [[2.0, 2.0]]])
    plan = fit_elite_plan(elite, sigma_floor=1e-3)
    assert plan.mean[0, 0] == pytest.approx(1.0)
    assert plan.std[0, 0] == pytest.approx(1.0)  # population (ddof=0), not 2/sqrt(2)
    assert plan.std[0, 1] == 1e-3


# -- the executed action ----------------------------------------------------------------------

class ActionIsVxModel:
    """One-step dynamics whose predicted v_x is the action; p_x counts the
    model steps, so a predicted state tells which probe made it. Each step
    also draws from the rng, as the learned model's latent sampling does."""

    def __init__(self):
        self.steps = 0

    def begin(self, y0, n):
        return n

    def step(self, n, actions, rng):
        rng.random()
        self.steps += 1
        x = np.zeros((n, X_DIM))
        x[:, 0] = self.steps
        x[:, IDX_VX] = actions[:, 0]
        return n, np.zeros(n), x


def _first_action(mean, std, seed, retries=4):
    """_draw_first_action's (a0, predicted x, violation, fell back) with v_x in
    [-0.5, 0.5] and a 1-D action box [-1, 1], and each draw's clipped action
    (its v_x), replayed from the same rng."""
    cset = ConstraintSet(v_x=(-0.5, 0.5), action_low=(-1.0,), action_high=(1.0,),
                         height_rate_dim=0)
    cfg = PlannerConfig(max_action_retries=retries)
    plan = GaussianActionPlan(np.full((2, 1), mean), np.full((2, 1), std))
    got = _draw_first_action(plan, None, ActionIsVxModel(), cset, cfg,
                             np.random.default_rng(seed))
    r = np.random.default_rng(seed)
    draws = []
    for _ in range(retries):
        draws.append(float(np.clip(mean + std * r.standard_normal(1), -1.0, 1.0)[0]))
        r.random()
    return got, draws


def test_first_feasible_draw_is_executed():
    (a0, x, viol, fell_back), draws = _first_action(0.0, 0.1, seed=3)
    assert a0[0] == draws[0] and x[IDX_VX] == draws[0] and x[0] == 1
    assert viol == 0.0 and not fell_back


def test_plan_mean_is_executed_when_no_draw_violates_less():
    # every draw above the bound: the mean, at 0.7, violates least
    (a0, x, viol, fell_back), draws = _first_action(0.7, 1e-3, seed=13)
    assert min(abs(d) for d in draws) > 0.7
    assert a0[0] == 0.7 and x[0] == 5 and viol == pytest.approx(0.2) and fell_back
    # a tie: every draw and the mean clip to the box edge, and the mean wins
    (a0, x, viol, fell_back), draws = _first_action(3.0, 1e-3, seed=0)
    assert draws == [1.0] * 4
    assert a0[0] == 1.0 and x[0] == 5 and viol == 0.5 and fell_back


def test_draw_that_violates_strictly_less_beats_the_plan_mean():
    (a0, x, viol, fell_back), draws = _first_action(0.6, 0.05, seed=1)
    best = int(np.argmin(draws))
    assert min(draws) > 0.5 and min(draws) < 0.6
    assert a0[0] == draws[best] and x[0] == best + 1
    assert viol == pytest.approx(draws[best] - 0.5) and fell_back


def test_integrated_states_meet_the_default_constraint_set(rng):
    """The default ConstraintSet holds no copy of a body's offset range: the
    integrator keeps the offset in the body's range, wider ones included,
    and so no state it gives violates the default set."""
    body = BodyParams(leg_length=0.8, body_half_height=0.2, offset_min=-0.45,
                      offset_max=0.25)
    x = np.zeros((256, X_DIM))
    x[:, IDX_OFFSET] = rng.uniform(body.offset_min, body.offset_max, 256)
    x[:, 1] = body.leg_length + x[:, IDX_OFFSET] + rng.uniform(-0.01, 0.05, 256)
    x[:, IDX_VX] = rng.normal(size=256)
    cset = ConstraintSet()
    lo, hi = cset.action_box()
    actions = rng.uniform(lo, hi, size=(256, 4))
    wrench = actions * np.array([30.0, 60.0, 5.0, 10.0])     # drives d past both ends
    for _ in range(4):
        x = advance_state(x, wrench, 0.1, body, lambda px: np.zeros_like(px))
        assert x[:, IDX_OFFSET].min() == body.offset_min
        assert x[:, IDX_OFFSET].max() == body.offset_max
        assert np.all(cset.violation(x[:, None], actions[:, None]) == 0.0)


# -- full planner calls ----------------------------------------------------------------------

def _mini_agent(rng):
    cfg = ModelConfig(d_h=16, d_z=4, d_e=12, embed_hidden=12, head_hidden=12,
                      decoder_hidden=16, imagination_horizon=3)
    model = InternalModel(cfg, BodyParams(), rng)
    actor = Actor(OBS_DIM, cfg.d_h, 3, cfg.action_dim, rng, hidden=(16,))
    adapter = ModelPlannerAdapter(model, actor)
    obs = np.zeros(OBS_DIM)
    obs[HISTORY_SIZE:] = 1.5
    adapter.begin_tick(obs)
    x0 = np.zeros(X_DIM)
    x0[1] = 0.5
    y0 = ModelState(x0, np.zeros(cfg.d_h), np.zeros(cfg.d_z))
    return adapter, y0


def test_warm_start_first_step_matches_direct_actor_call(rng):
    adapter, y0 = _mini_agent(rng)
    y1, plan = adapter.warm_start(y0, 3, np.random.default_rng(0))
    obs = adapter.obs_flat[None]
    x1, h1, _, roll_flat = adapter.model.tick(obs, y0.x[None], y0.h[None], y0.z[None],
                                              rng=np.random.default_rng(0))
    assert x1[0].tobytes() == y1.x.tobytes() and h1[0].tobytes() == y1.h.tobytes()
    direct = adapter.actor(obs, y1.h[None], roll_flat).mean.data[0]
    assert np.max(np.abs(plan.mean[0] - direct)) < 1e-12


def test_warm_start_deterministic_actor_std_floored(rng):
    """mppi_plan floors the warm-start std at config.sigma_floor: with no
    iterations and no temporal momentum, its plan is the warm-start plan."""
    adapter, y0 = _mini_agent(rng)
    adapter.actor.log_std.data[:] = -40.0  # clamped to exp(-5) ~ 6.7e-3 < floor
    cfg = PlannerConfig(horizon=3, iterations=0, samples=4, policy_samples=4, elites=4,
                        temporal_momentum=0.0, sigma_floor=1e-2)
    _, plan, _ = mppi_plan(None, y0, adapter, cfg, ConstraintSet(),
                           np.random.default_rng(0))
    assert np.all(plan.std == 1e-2)


def test_warm_start_identical_given_rng(rng):
    adapter, y0 = _mini_agent(rng)
    _, p1 = adapter.warm_start(y0, 3, np.random.default_rng(4))
    _, p2 = adapter.warm_start(y0, 3, np.random.default_rng(4))
    assert p1.mean.tobytes() == p2.mean.tobytes()
    assert p1.std.tobytes() == p2.std.tobytes()


def test_mppi_momentum_identities(rng):
    adapter, y0 = _mini_agent(rng)
    cset = ConstraintSet()
    prev = GaussianActionPlan(rng.normal(size=(3, 4)),
                              np.abs(rng.normal(size=(3, 4))) + 0.05)
    cfg = PlannerConfig(horizon=3, iterations=0, samples=4, policy_samples=4,
                        elites=4, temporal_momentum=1.0)
    _, plan_new, _ = mppi_plan(prev, y0, adapter, cfg, cset, np.random.default_rng(1))
    assert plan_new.mean.tobytes() == prev.mean.tobytes()
    assert plan_new.std.tobytes() == prev.std.tobytes()

    cfg = PlannerConfig(horizon=3, iterations=3, samples=8, policy_samples=4,
                        elites=4, temporal_momentum=0.3, iteration_momentum=0.0)
    _, plan_a, _ = mppi_plan(prev, y0, adapter, cfg, cset, np.random.default_rng(2))
    _, p_rl = adapter.warm_start(y0, 3, np.random.default_rng(2))
    blended = blend_plans(prev, p_rl, 0.3)
    assert plan_a.mean.tobytes() == blended.mean.tobytes()
    assert plan_a.std.tobytes() == blended.std.tobytes()


def test_mppi_seeded_determinism(rng):
    adapter, y0 = _mini_agent(rng)
    cfg = PlannerConfig(horizon=3, iterations=2, samples=16, policy_samples=4,
                        elites=4)
    cset = ConstraintSet()
    a1, p1, t1 = mppi_plan(None, y0, adapter, cfg, cset, np.random.default_rng(9))
    a2, p2, t2 = mppi_plan(None, y0, adapter, cfg, cset, np.random.default_rng(9))
    assert a1.tobytes() == a2.tobytes()
    assert p1.mean.tobytes() == p2.mean.tobytes()
    assert t1.iterations[-1].elite_return_mean == t2.iterations[-1].elite_return_mean


def test_mppi_elite_feasibility_and_monotone_quality(rng):
    adapter, y0 = _mini_agent(rng)
    cfg = PlannerConfig(horizon=3, iterations=3, samples=32, policy_samples=8,
                        elites=8)
    cset = ConstraintSet(v_x=(-5.0, 5.0), v_z=(-5.0, 5.0), pitch_rate=(-20.0, 20.0))
    _, _, trace = mppi_plan(None, y0, adapter, cfg, cset, np.random.default_rng(3))
    for it in trace.iterations:
        if it.feasible_count >= cfg.elites:
            assert it.elite_violation_count == 0
            assert not it.infeasible_fallback
            # min elite return >= best non-elite feasible return
            assert it.elite_return_min >= it.non_elite_feasible_max - 1e-12


def test_mppi_executed_action_in_box(rng):
    adapter, y0 = _mini_agent(rng)
    cfg = PlannerConfig(horizon=3, iterations=2, samples=16, policy_samples=4,
                        elites=4)
    cset = ConstraintSet()
    lo, hi = cset.action_box()
    for seed in range(5):
        a0, _, trace = mppi_plan(None, y0, adapter, cfg, cset,
                                 np.random.default_rng(seed))
        assert np.all(a0 >= lo) and np.all(a0 <= hi)
        assert trace.predicted_pz.shape == (3,)
        # offset 0 is the tick's posterior state estimate
        assert trace.predicted_pz[0] == pytest.approx(adapter.tick_state.x[1])


def test_trace_json_schema(rng):
    adapter, y0 = _mini_agent(rng)
    cfg = PlannerConfig(horizon=3, iterations=1, samples=8, policy_samples=4,
                        elites=4)
    _, _, trace = mppi_plan(None, y0, adapter, cfg, ConstraintSet(),
                            np.random.default_rng(0), call_index=7)
    rec = trace.to_json()
    assert rec["schema_version"] == 1
    assert rec["call_index"] == 7
    assert set(rec["timing_ms"]) == {"warm_start", "sampling", "evaluation",
                                     "elite_fit", "finalize"}
    assert len(rec["iterations"]) == 1


def test_mppi_quick_lqr_quality(rng):
    """Scaled-down optimality check against the discounted Riccati optimum."""
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    Q = np.diag([1.0, 0.1])
    R = np.array([[0.1]])
    gamma = 0.99
    P, K = discounted_riccati(A, B, Q, R, gamma)
    x0 = np.array([1.0, 0.0])
    optimum = float(x0 @ P @ x0)

    model = LqrModel(A, B, Q, R, P, x0)
    cset = ConstraintSet.unbounded([-8.0], [8.0], height_rate_dim=0)
    cfg = PlannerConfig(horizon=10, iterations=4, samples=128, policy_samples=16,
                        elites=16, gamma=gamma, temporal_momentum=0.4)
    prng = np.random.default_rng(0)
    x = x0.copy()
    plan = None
    cost = 0.0
    gpow = 1.0
    for t in range(25):
        model.x0 = x
        a0, plan, _ = mppi_plan(plan, x, model, cfg, cset, prng, call_index=t)
        cost += gpow * float(x @ Q @ x + a0 @ R @ a0)
        x = A @ x + B @ a0
        gpow *= gamma
    cost += gpow * float(x @ P @ x)
    assert cost <= optimum * 1.10
