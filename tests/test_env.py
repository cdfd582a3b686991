"""Planar environment: physics, rewards, events, observations, curriculum."""

import copy
import math

import numpy as np
import pytest

from kinoplan.env import (ACTION_DIM, EnvBatch, EnvConfig, EnvState, HISTORY_LEN,
                          HISTORY_SIZE, PlanarEnv, PROPRIO_DIM, REWARD_SCALES,
                          SCAN_DOT_COUNT, TERMINATIONS, curriculum_advance,
                          env_seeds, lin_tracking_reward, observe, step_state,
                          total_reward)
from kinoplan.errors import ConfigError
from kinoplan.state import IDX_OFFSET, IDX_PX, IDX_PZ, IDX_VX, IDX_VZ, advance_state
from kinoplan.terrain import MAX_LEVEL

from oracles import foot_height

FLAT = EnvConfig(terrain_jitter=False)


def make_env(seed=0, **kw):
    return PlanarEnv(EnvConfig(terrain_jitter=False, **kw), seed=seed)


def history(env, obs):
    """The proprio history rows of a flat observation, oldest first."""
    return obs[:HISTORY_SIZE].reshape(HISTORY_LEN, PROPRIO_DIM)


def depth_scan(env, obs):
    return obs[HISTORY_SIZE:]


# -- stepping physics -------------------------------------------------------------

def test_static_equilibrium_on_flat():
    env = make_env()
    env.reset()
    x0 = env.state.x.copy()
    for _ in range(50):
        env.step(np.zeros(ACTION_DIM))
    assert np.array_equal(env.state.x, x0)


def test_step_is_one_shared_integrator_step_on_flat(rng):
    """Away from risers and landings the env's next state is exactly one
    advance_state step, with the body forces scaled down in the air."""
    env = make_env(friction_range=(0.3, 0.3))
    env.reset()
    cfg, body = env.cfg, env.cfg.body
    air_scale = np.array([body.air_force_scale, body.air_force_scale, 1.0, 1.0])
    for airborne in (False, True):
        if airborne:
            env.state.x = np.array([0.0, 3.0, 0.0, 1.0, 0.5, 0.0, 0.0])
        for _ in range(10):
            x = env.state.x.copy()
            # below the body weight, so a planted foot stays planted
            a = rng.uniform([-30.0, -30.0, -0.2, -1.0], [30.0, 9.0, 0.2, 0.5])
            floor = env.terrain.floor_height(x[IDX_PX])
            assert (foot_height(x, body) > floor + body.contact_tol) == airborne
            want = advance_state(x, a * air_scale if airborne else a, cfg.dt, body,
                                 env.terrain.floor_height, friction=0.3)
            env.step(a)
            assert np.array_equal(env.state.x, want)


def test_planted_foot_follows_the_floor_at_its_new_position():
    """Up a slope a planted foot is re-planted each step on the floor under
    its new p_x, not on the floor it stood on (a blocked step keeps p_x)."""
    env = make_env(terrain_kind="slope", terrain_level=8, frictionless=True)
    env.reset()
    leg = env.cfg.body.leg_length
    climbed = 0
    for _ in range(60):
        px = env.state.x[IDX_PX]
        _, _, out = env.step(np.array([10.0, 0.0, 0.0, 0.0]))
        assert out.code == 0
        x = env.state.x
        floor = env.terrain.floor_height(x[IDX_PX])
        assert x[IDX_PZ] == floor + leg + x[IDX_OFFSET]
        climbed += floor != env.terrain.floor_height(px)
    assert climbed > 20


def test_constant_force_frictionless_velocity():
    env = make_env(frictionless=True)
    env.reset()
    for _ in range(10):
        env.step(np.array([1.0, 0.0, 0.0, 0.0]))
    assert abs(env.state.x[IDX_VX] - 0.2) < 1e-9


def test_gap_free_fall_rate():
    env = make_env(terrain_kind="gap", terrain_level=4)
    env.reset()
    env.state.x = np.array([2.5, 1.5, 0, 0, 0, 0, 0])
    prev = 0.0
    for _ in range(3):
        env.step(np.zeros(ACTION_DIM))
        dv = env.state.x[IDX_VZ] - prev
        prev = env.state.x[IDX_VZ]
        assert dv == pytest.approx(-9.81 * 0.02, abs=1e-12)


def test_determinism_given_seed_terrain_actions():
    def run(seed):
        env = PlanarEnv(EnvConfig(terrain_kind="stairs", terrain_level=2), seed=seed)
        env.reset()
        total = 0.0
        for i in range(80):
            a = np.array([15 * math.sin(i / 7), 20.0, 0.3, 0.5 * math.cos(i / 5)])
            _, _, out = env.step(a)
            total += out.reward
            if out.code:
                break
        return env.state.x.copy(), total

    xa, ra = run(11)
    xb, rb = run(11)
    xc, rc = run(12)
    assert np.array_equal(xa, xb) and ra == rb
    assert not np.array_equal(xa, xc)


def test_energy_conservation_in_free_flight():
    env = make_env(frictionless=True)
    env.reset()
    m, g = env.cfg.body.mass, env.cfg.body.gravity
    env.state.x = np.array([0.0, 25.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    x = env.state.x

    def energy(x):
        return 0.5 * m * (x[3] ** 2 + x[4] ** 2) + m * g * x[1]

    e0 = energy(x)
    for _ in range(100):
        env.step(np.zeros(ACTION_DIM))
    drift = abs(energy(env.state.x) - e0) / e0
    assert drift < 0.01


def test_nan_action_terminates_with_fault():
    env = make_env()
    env.reset()
    env.state.x[0] = np.nan
    _, _, out = env.step(np.zeros(ACTION_DIM))
    assert out.fault and TERMINATIONS[out.code] == "fault"


def test_pitch_termination():
    env = make_env()
    env.reset()
    for _ in range(300):
        _, _, out = env.step(np.array([0.0, 0.0, 5.0, 0.0]))
        if out.code:
            break
    assert TERMINATIONS[out.code] == "pitch"


def test_crawl_ceiling_collision_terminates():
    env = make_env(terrain_kind="crawl", terrain_level=8)
    env.reset()
    env.state.x = np.array([3.5, 0.5, 0, 0.5, 0, 0, 0])  # standing under the slab
    _, _, out = env.step(np.zeros(ACTION_DIM))
    assert TERMINATIONS[out.code] == "collision"
    assert out.events["collision"]


def test_gap_fall_terminates():
    env = make_env(terrain_kind="gap", terrain_level=8)
    env.reset()
    env.state.x = np.array([2.5, 0.5, 0, 0, 0, 0, 0])  # over the gap, falling
    for _ in range(100):
        _, _, out = env.step(np.zeros(ACTION_DIM))
        if out.code:
            break
    assert TERMINATIONS[out.code] == "fall"


def test_stumble_blocks_step_riser():
    env = make_env(terrain_kind="stairs", terrain_level=8, frictionless=True)
    env.reset()
    # drive into the first riser at foot level
    stumbled = False
    for _ in range(400):
        _, _, out = env.step(np.array([20.0, 0.0, 0.0, 0.0]))
        if out.events["stumble"]:
            stumbled = True
            assert env.state.x[IDX_VX] == 0.0
            break
        if out.code:
            break
    assert stumbled


def test_leg_extension_on_flat_ground_is_no_riser():
    """A planted foot that extends the leg faster than step_up_tol / dt on
    flat ground meets no riser: the step is not blocked, so p_x advances and
    v_x gains f_x * dt instead of dropping to 0."""
    cfg = EnvConfig(terrain_jitter=False, frictionless=True)
    push, extend = np.array([10.0, 0.0, 0.0, 0.0]), np.array([10.0, 0.0, 0.0, 1.5])
    env = PlanarEnv(cfg)
    env.reset(level=0)
    env.step(push)
    x = env.state.x.copy()
    _, _, out = env.step(extend)
    assert not out.events["stumble"]
    assert env.state.x[IDX_VX] == x[IDX_VX] + cfg.dt * extend[0] > 0.2
    assert env.state.x[IDX_PX] > x[IDX_PX]
    # the same steps inside a batch, beside envs that only push
    batch = EnvBatch(cfg, 3, seed=0)
    batch.reset_all()
    batch.step(np.tile(push, (3, 1)))
    _, _, out, _ = batch.step(np.array([extend, push, extend]))
    assert not out.events["stumble"].any()
    assert np.array_equal(batch.state.x[:, IDX_VX], [0.4, 0.4, 0.4])


@pytest.mark.parametrize("kind,level", [("flat", 0)] + [("slope", lv)
                                                       for lv in range(MAX_LEVEL + 1)])
def test_no_stumble_without_a_floor_rise_ahead(kind, level):
    """Over the action box, from bodies planted or just aloft along the
    terrain, a step whose floor does not rise by more than step_up_tol
    between p_x and the p_x' the integrator gives never stumbles."""
    rng = np.random.default_rng(level)
    cfg = EnvConfig(terrain_kind=kind, terrain_level=level, terrain_jitter=False)
    body, n = cfg.body, 8
    air_scale = np.array([body.air_force_scale, body.air_force_scale, 1.0, 1.0])
    batch = EnvBatch(cfg, n, seed=level)
    batch.reset_all()
    checked = 0
    for _ in range(6):
        x = np.zeros((n, 7))
        x[:, IDX_PX] = rng.uniform(0.3, 3.5, n)
        x[:, IDX_OFFSET] = rng.uniform(body.offset_min, body.offset_max, n)
        x[:, IDX_VX] = rng.uniform(-1.0, 1.0, n)
        x[:, IDX_PZ] = (batch.floor_height(x[:, IDX_PX]) + body.leg_length
                        + x[:, IDX_OFFSET] + rng.choice([0.0, 0.0, 0.005, 0.05], n))
        batch.state.x = x
        for _ in range(10):
            x = batch.state.x.copy()
            a = rng.uniform(*cfg.action_box()[:2], size=(n, ACTION_DIM))
            floor = batch.floor_height(x[:, IDX_PX])
            contact = foot_height(x, body) <= floor + body.contact_tol
            free = advance_state(x, np.where(contact[:, None], a, a * air_scale), cfg.dt,
                                 body, batch.floor_height, friction=batch.state.friction)
            no_rise = batch.floor_height(free[:, IDX_PX]) - floor <= cfg.step_up_tol
            _, _, out, _ = batch.step(a)
            assert not (out.events["stumble"] & no_rise).any()
            checked += no_rise.sum()
    assert checked >= 0.9 * 6 * 10 * n


def test_success_when_reaching_goal():
    env = make_env(frictionless=True, v_cmd_range=(0.8, 0.8), max_steps=3000)
    env.reset()
    while True:
        _, _, out = env.step(np.array([2.0, 0.0, 0.0, 0.0]))
        if out.code:
            break
    assert out.success and TERMINATIONS[out.code] == "success"


def test_stuck_event_fires_after_window():
    env = make_env()
    env.reset()
    seen = False
    for i in range(60):
        _, _, out = env.step(np.zeros(ACTION_DIM))
        if out.events["stuck"]:
            seen = True
            assert i + 1 >= env.cfg.stuck_steps
    assert seen


# -- rewards ---------------------------------------------------------------------------

def test_lin_tracking_exact_and_plateau():
    assert lin_tracking_reward(1.0, 1.0, 0.25) == 1.0
    sigma = 0.25
    plateau = math.exp(-0.01 / sigma)
    for v in (1.1, 1.5, 4.0):
        assert lin_tracking_reward(v, 1.0, sigma) == pytest.approx(plateau, abs=1e-15)
    assert lin_tracking_reward(0.0, 1.0, 0.25) == pytest.approx(math.exp(-4.0))
    with pytest.raises(ConfigError):
        lin_tracking_reward(1.0, 1.0, 0.0)


def test_total_reward_zero_command_fixed_point():
    x = np.zeros(7)
    total, terms = total_reward(x, np.zeros(4), np.zeros(4), 0.0, 0.0, 0.0, {}, FLAT)
    assert terms["lin_tracking"] == pytest.approx(1.5)
    assert terms["ang_tracking"] == pytest.approx(0.5)
    assert total == pytest.approx(2.0)


def test_total_reward_perfect_tracking_no_events():
    x = np.zeros(7)
    x[IDX_VX] = 0.8
    total, terms = total_reward(x, np.zeros(4), np.zeros(4), 0.0, 0.0, 0.8, {}, FLAT)
    for name in ("torques", "dof_acc", "action_rate", "dof_error", "z_vel",
                 "collision", "stumble", "edge", "stuck", "feet_air"):
        assert terms[name] == 0.0
    assert total == pytest.approx(1.5 + 0.5)


def test_collision_event_contributes_minus_one():
    x = np.zeros(7)
    _, terms = total_reward(x, np.zeros(4), np.zeros(4), 0.0, 0.0, 0.0,
                            {"collision": True}, FLAT)
    assert terms["collision"] == pytest.approx(-1.0)


def test_reward_bounds_under_fuzz(rng):
    for _ in range(200):
        x = rng.normal(size=7) * 2
        a = rng.uniform(FLAT.action_box()[0], FLAT.action_box()[1])
        events = {k: bool(rng.integers(2)) for k in
                  ("collision", "stumble", "edge", "stuck", "landed")}
        events["air_time"] = float(rng.uniform(0, 1))
        total, terms = total_reward(x, a, np.zeros(4), 0.0, float(a[3]),
                                    float(rng.uniform(0, 1)), events, FLAT)
        assert np.isfinite(total)
        assert 0.0 < terms["lin_tracking"] <= 1.5
        assert 0.0 < terms["ang_tracking"] <= 0.5


def test_reward_scales_match_declared_table():
    assert REWARD_SCALES["lin_tracking"] == 1.5
    assert REWARD_SCALES["ang_tracking"] == 0.5
    assert REWARD_SCALES["torques"] == 1e-7
    assert REWARD_SCALES["dof_acc"] == 2.5e-7
    assert REWARD_SCALES["action_rate"] == -0.03
    assert REWARD_SCALES["dof_error"] == -0.04
    assert REWARD_SCALES["z_vel"] == -1.0
    assert REWARD_SCALES["feet_air"] == 0.5
    assert REWARD_SCALES["collision"] == -1.0
    assert REWARD_SCALES["stumble"] == -0.1
    assert REWARD_SCALES["edge"] == -1.0
    assert REWARD_SCALES["stuck"] == -1.0


# -- curriculum --------------------------------------------------------------------------

def test_curriculum_rules():
    assert curriculum_advance(3, 0.9) == 4
    assert curriculum_advance(8, 1.0) == 8
    assert curriculum_advance(0, 0.0) == 0
    assert curriculum_advance(5, 0.5) == 5
    assert curriculum_advance(5, 0.1) == 4


# -- observations ------------------------------------------------------------------------

def test_history_last_row_is_current_reading():
    env = make_env()
    obs, _ = env.reset()
    a = np.array([5.0, 0.0, 0.0, 0.5])
    obs, _, _ = env.step(a)
    row = history(env, obs)[-1]
    x = env.state.x
    assert row[0] == x[IDX_OFFSET]
    assert row[2] == pytest.approx(math.sin(x[2]))
    assert row[3] == pytest.approx(math.cos(x[2]))
    norm = env.cfg.to_normalized(np.clip(a, *env.cfg.action_box()))
    assert np.allclose(row[5:], norm)


def test_history_ordering_oldest_to_newest():
    env = make_env()
    env.reset()
    offsets = []
    for _ in range(6):
        obs, *_ = env.step(np.array([0.0, 0.0, 0.0, 1.5]))[:1]
        offsets.append(env.state.x[IDX_OFFSET])
    hist = history(env, observe(env.cfg, env.state)[0])[:, 0]
    assert np.allclose(hist, offsets[-5:])


def test_scan_refresh_rate():
    env = make_env(scan_every=5)
    obs0, _ = env.reset()
    scans = [depth_scan(env, obs0)]
    for _ in range(10):
        # crouching lowers the body, so a fresh scan must differ
        obs, *_ = env.step(np.array([0.0, 0.0, 0.0, -1.5]))
        scans.append(depth_scan(env, obs))
    # held constant within the sensor window, refreshed at steps 5 and 10
    assert np.array_equal(scans[1], scans[0])
    assert np.array_equal(scans[4], scans[0])
    assert not np.array_equal(scans[5], scans[0])
    assert np.array_equal(scans[6], scans[5])
    assert not np.array_equal(scans[10], scans[5])


def test_priv_obs_dims_and_fields():
    env = make_env()
    obs, priv = env.reset()
    assert priv.shape == (env.cfg.priv_dim,)
    assert np.array_equal(priv[:env.cfg.obs_dim], obs)
    scan_dots = priv[env.cfg.obs_dim:env.cfg.obs_dim + SCAN_DOT_COUNT]
    assert scan_dots.shape == (11,)
    assert priv[-2] == env.cfg.body.mass


def test_batch_step_and_terminal_info():
    batch = EnvBatch(EnvConfig(terrain_jitter=False, max_steps=30), 3, seed=0)
    obs, priv = batch.reset_all()
    assert obs.shape == (3, batch.cfg.obs_dim)
    done_seen = False
    for _ in range(40):
        o, p, out, terminal = batch.step(np.zeros((3, ACTION_DIM)))
        n = int(np.count_nonzero(out.code))
        done_seen |= n > 0
        assert terminal.x.shape == (n, 7) and terminal.floor.shape == (n,)
        assert terminal.episode_return.shape == terminal.episode_steps.shape == (n,)
    assert done_seen


# -- batched stepping ----------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _step_pair(batch, singles, actions):
    """Step a batch and its independently stepped single envs with the same
    actions; require bit-identical obs, priv and step reports: every
    StepOutcome field, and the episode return, steps, terminal state and
    floor of each env the step ended."""
    obs, priv, out, terminal = batch.step(actions)
    dones = out.code != 0
    ended = 0                       # terminal row of the next ended env
    for i, env in enumerate(singles):
        o, p, want = env.step(actions[i])
        for name in ("reward", "code", "fault", "success"):
            assert _bits(getattr(out, name)[i]) == _bits(getattr(want, name)), name
        for field in ("terms", "events"):
            got_d, want_d = getattr(out, field), getattr(want, field)
            assert list(got_d) == list(want_d)
            for k in want_d:
                assert _bits(got_d[k][i]) == _bits(want_d[k]), k
        if want.code:
            x = env.state.x
            assert _bits(terminal.x[ended]) == _bits(x)
            assert _bits(terminal.floor[ended]) == _bits(env.terrain.floor_height(x[IDX_PX]))
            assert _bits(terminal.episode_return[ended]) == _bits(env.state.episode_return)
            assert terminal.episode_steps[ended] == env.state.step_count
            ended += 1
            o, p = env.reset(level=batch.level)
        else:
            assert _bits(batch.state.episode_return[i]) == _bits(env.state.episode_return)
            assert batch.state.step_count[i] == env.state.step_count
        assert _bits(obs[i]) == _bits(o) and _bits(priv[i]) == _bits(p)
    assert ended == len(terminal.x)
    return dones


@pytest.mark.parametrize("kind", ["flat", "slope", "stairs", "gap", "crawl"])
def test_batch_matches_independent_envs(kind):
    """B batched envs and B PlanarEnvs built from the batch's child seeds stay
    bit-identical through random and NaN actions, resets and level changes."""
    rng = np.random.default_rng(7)
    for level, frictionless in ((1, False), (5, True), (8, False)):
        cfg = EnvConfig(terrain_kind=kind, terrain_level=level, max_steps=40,
                        frictionless=frictionless)
        batch = EnvBatch(cfg, 4, seed=level)
        singles = [PlanarEnv(cfg, seed=s) for s in env_seeds(level, 4)]
        obs, priv = batch.reset_all()
        for i, env in enumerate(singles):
            o, p = env.reset(level=level)
            assert _bits(obs[i]) == _bits(o) and _bits(priv[i]) == _bits(p)
        resets = 0
        for t in range(90):
            if t == 45:
                batch.level = max(level - 1, 0)     # as the curriculum does
            actions = cfg.to_physical(rng.normal(0.0, 0.7, size=(4, ACTION_DIM)))
            if t == 10:
                actions[1, 0] = np.nan              # the fault path
            resets += int(_step_pair(batch, singles, actions).sum())
        assert resets > 0


def test_padded_batch_of_mixed_terrains_matches_single_envs():
    """Rows of different terrain kinds share one padded state: stacking and
    widening by put() change no env's step."""
    kinds = ("flat", "crawl", "slope", "gap", "stairs")
    singles = [PlanarEnv(EnvConfig(terrain_kind=k, terrain_level=6, frictionless=True),
                         seed=i) for i, k in enumerate(kinds)]
    states = []
    for env in singles:
        env.reset()
        # standing at x = 0, where a padding value of 0 would read as an edge
        env.state.x[IDX_PX] = 0.0
        env.state.x[IDX_PZ] = env.terrain.floor_height(0.0) + env.cfg.body.leg_length
        states.append(copy.deepcopy(env.state))
    batch = EnvState.stack([states[0]] * len(kinds))
    for i, st in enumerate(states[1:], start=1):
        batch.put(i, st)                            # widens the terrain arrays
    assert batch.floor_x.shape[1] == max(len(e.terrain.floor_x) for e in singles)
    cfg = singles[0].cfg
    rng = np.random.default_rng(3)
    for _ in range(60):
        # mostly planted (f_z below the weight), creeping forward
        actions = cfg.to_physical(rng.normal([0.1, -0.3, 0.0, 0.0], 0.3,
                                             size=(len(kinds), ACTION_DIM)))
        out = step_state(cfg, batch, actions)
        obs, priv = observe(cfg, batch)
        for i, env in enumerate(singles):
            o, p, want = env.step(actions[i])
            assert _bits(out.reward[i]) == _bits(want.reward) and out.code[i] == want.code
            assert _bits(obs[i]) == _bits(o) and _bits(priv[i]) == _bits(p)
            assert _bits(batch.x[i]) == _bits(env.state.x)


def test_batch_resume_matches_independent_envs(tmp_path):
    """A batch written by save_resume_state and read back by
    load_resume_state steps on exactly like the envs it was built from."""
    from kinoplan.training import Trainer
    from smoke import smoke_config

    config = smoke_config(0, env={"terrain_kind": "stairs", "terrain_level": 4,
                                  "terrain_jitter": True, "max_steps": 25},
                          train={"num_envs": 3})
    cfg = config.env
    first = Trainer(config, str(tmp_path / "a"))
    first.envs = EnvBatch(cfg, 3, seed=11)
    first.envs.reset_all()
    singles = [PlanarEnv(cfg, seed=s) for s in env_seeds(11, 3)]
    for env in singles:
        env.reset()
    rng = np.random.default_rng(5)

    def run(batch, steps):
        for _ in range(steps):
            _step_pair(batch, singles, cfg.to_physical(rng.normal(0.0, 0.7, (3, ACTION_DIM))))

    run(first.envs, 30)
    first.save_resume_state(str(tmp_path / "resume.kpt"))
    second = Trainer(config, str(tmp_path / "b"))
    second.load_resume_state(str(tmp_path / "resume.kpt"))
    assert second.envs.state.contact.dtype == bool
    run(second.envs, 30)


def test_fault_reports_only_a_stumble_found_before_it():
    """A NaN torque faults the step after the riser check ran: the env ends
    with only the stumble event, no reward, and its state unchanged."""
    env = make_env(terrain_kind="stairs", terrain_level=8, frictionless=True)
    env.reset()
    push = np.array([20.0, 0.0, 0.0, 0.0])
    for _ in range(400):
        before = copy.deepcopy(env)
        if env.step(push)[2].events["stumble"]:
            break
    else:
        pytest.fail("never reached a riser")
    x = before.state.x.copy()
    _, _, out = before.step(np.array([20.0, 0.0, np.nan, 0.0]))
    assert out.fault and TERMINATIONS[out.code] == "fault"
    assert {k: v for k, v in out.events.items() if v} == {"stumble": True}
    assert out.reward == 0.0 and all(v == 0.0 for v in out.terms.values())
    assert np.array_equal(before.state.x, x)


def _reference_reward(x, a, prev_a, prev_hr, hr, v_cmd, events, cfg):
    """One env's reward in plain Python floats and libm, term by term."""
    half = (np.asarray(cfg.action_high) - np.asarray(cfg.action_low)) / 2.0
    da = (a - prev_a) / half
    err = min(abs(float(x[3])), v_cmd + 0.1) - v_cmd
    raw = {"lin_tracking": math.exp(-err * err / cfg.sigma_lin),
           "ang_tracking": math.exp(-float(x[5]) ** 2 / cfg.sigma_ang),
           "torques": -float(np.sum(a[:3] ** 2)),
           "dof_acc": -((hr - prev_hr) / cfg.dt) ** 2,
           "action_rate": float(np.sum(da * da)),
           "dof_error": float(x[6]) ** 2,
           "z_vel": float(x[4]) ** 2,
           "feet_air": events["air_time"] if events["landed"] else 0.0}
    for k in ("collision", "stumble", "edge", "stuck"):
        raw[k] = 1.0 if events[k] else 0.0
    terms = {k: REWARD_SCALES[k] * raw[k] for k in REWARD_SCALES}
    return sum(terms.values()), terms


def test_batched_reward_matches_scalar_libm_reference(rng):
    """Over a batch, every term and the total equal the one-env reference
    bit for bit: libm's exp and pow, and the terms summed in table order."""
    n = 3000
    x = rng.normal(size=(n, 7))
    # a value whose square by libm's pow differs from v * v in the last bit
    odd = next(v for v in rng.normal(size=100_000) if v * v != v ** 2)
    x[:10, 4:7] = odd
    a = rng.uniform(*FLAT.action_box(), size=(n, ACTION_DIM))
    prev_a = rng.uniform(*FLAT.action_box(), size=(n, ACTION_DIM))
    prev_hr, hr, v_cmd = rng.normal(size=(3, n))
    flags = rng.integers(0, 2, size=(5, n)).astype(bool)
    events = dict(zip(("landed", "collision", "stumble", "edge", "stuck"), flags))
    events["air_time"] = rng.uniform(0.0, 1.0, n)
    total, terms = total_reward(x, a, prev_a, prev_hr, hr, v_cmd, events, FLAT)
    for i in range(n):
        ev = {k: v[i] for k, v in events.items()}
        want_total, want = _reference_reward(x[i], a[i], prev_a[i], prev_hr[i], hr[i],
                                             v_cmd[i], ev, FLAT)
        assert _bits(total[i]) == _bits(want_total)
        for k in REWARD_SCALES:
            assert _bits(terms[k][i]) == _bits(want[k]), k
