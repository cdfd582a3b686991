"""Training loop: GAE, PPO surrogate semantics, the two-rate collector
contracts, replay, stop-gradient separation, and resume determinism."""

import json
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from kinoplan import autodiff as ad
from kinoplan import training
from kinoplan.autodiff import Tensor
from kinoplan.env import EnvBatch, EnvConfig, PlanarEnv, env_seeds
from kinoplan.errors import ArtifactMismatchError, ConfigError, DataError, TrainingError
from kinoplan.nn import Adam, load_checkpoint, param_checksum, save_checkpoint
from kinoplan.policy import Actor, Critic
from kinoplan.training import (SequenceReplay, Trainer, compute_gae, collect_rollouts,
                               ppo_update)
from oracles import ListReplay, episode_records, joint_loss_ppo_update
from smoke import smoke_config


# -- GAE ------------------------------------------------------------------------

def test_gae_constant_reward_fixed_point():
    gamma = 0.9
    rewards = np.ones((12, 2))
    values = np.full((13, 2), 1.0 / (1.0 - gamma))
    adv, ret = compute_gae(rewards, values, np.zeros((12, 2)), gamma, 0.95)
    assert np.max(np.abs(adv)) < 1e-9
    assert np.allclose(ret, values[:-1])


def test_gae_single_step_episode():
    adv, _ = compute_gae(np.array([[3.0]]), np.array([[10.0], [99.0]]),
                         np.array([[1.0]]), 0.99, 0.95)
    assert adv[0, 0] == pytest.approx(3.0 - 10.0)


def test_gae_lambda_zero_is_td_error(rng):
    r = rng.normal(size=(6, 3))
    v = rng.normal(size=(7, 3))
    adv, _ = compute_gae(r, v, np.zeros((6, 3)), 0.97, 0.0)
    td = r + 0.97 * v[1:] - v[:-1]
    assert np.allclose(adv, td)


def test_gae_lambda_one_telescopes_to_discounted_return(rng):
    gamma = 0.95
    T = 10
    r = rng.normal(size=(T, 1))
    v = rng.normal(size=(T + 1, 1))
    adv, ret = compute_gae(r, v, np.zeros((T, 1)), gamma, 1.0)
    empirical = sum(gamma ** k * r[k, 0] for k in range(T)) + gamma ** T * v[T, 0]
    assert ret[0, 0] == pytest.approx(empirical, abs=1e-9)


def test_gae_masks_episode_boundaries(rng):
    r = np.ones((4, 1))
    v = np.zeros((5, 1))
    dones = np.zeros((4, 1))
    dones[1, 0] = 1.0
    adv, _ = compute_gae(r, v, dones, 0.9, 1.0)
    assert adv[1, 0] == pytest.approx(1.0)          # no bootstrap across done
    assert adv[0, 0] == pytest.approx(1.0 + 0.9)


def test_gae_misaligned_raises():
    with pytest.raises(DataError):
        compute_gae(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)))


# -- PPO surrogate semantics ----------------------------------------------------------

def test_clipped_surrogate_ratio_one_identity():
    logp = Tensor(np.zeros(4), requires_grad=True)
    adv = np.array([1.0, -2.0, 0.5, 3.0])
    ratio = ad.exp(logp - np.zeros(4))
    surr = ad.minimum(ratio * adv, ad.clip(ratio, 0.8, 1.2) * adv)
    assert np.allclose(surr.data, adv)


def test_clipped_branch_has_zero_gradient():
    """Positive advantage with ratio beyond 1+eps: the clipped term is active
    and the gradient through the ratio vanishes."""
    eps = 0.2
    logp_old = 0.0
    logp = Tensor(np.array([np.log(1.0 + 2 * eps)]), requires_grad=True)
    adv = np.array([2.0])
    ratio = ad.exp(logp - logp_old)
    surr = ad.minimum(ratio * adv, ad.clip(ratio, 1 - eps, 1 + eps) * adv)
    assert surr.data[0] == pytest.approx((1 + eps) * 2.0)
    ad.sum_(surr).backward()
    assert logp.grad[0] == 0.0


def test_advantage_scaling_preserves_preferred_candidate(rng):
    """Positive rescaling of the advantage field leaves the surrogate's
    ranking over candidate ratios unchanged."""
    ratios = np.linspace(0.5, 1.5, 21)
    adv = 1.7
    def surrogate(a):
        return np.minimum(ratios * a, np.clip(ratios, 0.8, 1.2) * a)
    for scale in (0.1, 1.0, 13.0):
        assert np.argmax(surrogate(adv * scale)) == np.argmax(surrogate(adv))


# -- collector contracts -----------------------------------------------------------------


def _calm_actor(trainer):
    """Pin the policy near zero action so nothing terminates mid-test."""
    last = trainer.actor.trunk.layers[-1]
    last.weight.data[:] = 0.0
    last.bias.data[:] = 0.0
    trainer.actor.log_std.data[:] = -40.0


def test_collect_tick_rate_contract(tmp_path):
    cfg = smoke_config(0, env={"max_steps": 100000},
                       train={"num_envs": 2, "steps_per_iteration": 25})
    tr = Trainer(cfg, str(tmp_path / "run"))
    _calm_actor(tr)
    batch, *_ = collect_rollouts(
        tr.actor, tr.critic, tr.model, tr.envs, tr.obs, tr.priv, 25,
        cfg.steps_per_tick, tr.rng_collect, tr.collector, tr.replay,
        0.99, 0.95)
    # no terminations on flat terrain in 25 steps: exactly T/5 ticks per env,
    # each opening one staged record
    assert not any(d for d in batch.dones.ravel())
    assert tr.collector.length.sum() == 2 * (25 // cfg.steps_per_tick)


def test_collect_h_held_fixed_within_windows(tmp_path):
    cfg = smoke_config(0, env={"max_steps": 100000},
                       train={"num_envs": 2, "steps_per_iteration": 30})
    tr = Trainer(cfg, str(tmp_path / "run"))
    _calm_actor(tr)
    batch, *_ = collect_rollouts(
        tr.actor, tr.critic, tr.model, tr.envs, tr.obs, tr.priv, 30,
        cfg.steps_per_tick, tr.rng_collect, tr.collector, tr.replay, 0.99, 0.95)
    h = batch.h  # (T, B, d_h)
    K = cfg.steps_per_tick
    for w in range(30 // K):
        win = h[w * K:(w + 1) * K]
        assert np.all(win == win[0])
    # consecutive windows differ (the memory actually updates)
    assert not np.array_equal(h[0], h[K])


def _collect_on_the_clock(tmp_path, steps=240):
    """A fresh trainer's first collection: four envs on flat ground, where
    the seeded-init actor ends most episodes between clock ticks. Returns
    (trainer, batch, episode returns, the (obs, x) of each model.tick call)."""
    cfg = smoke_config(0, train={"num_envs": 4, "steps_per_iteration": steps})
    tr = Trainer(cfg, str(tmp_path / "run"))
    ticked, tick = [], tr.model.tick

    def recording_tick(obs, x, *args, **kwargs):
        ticked.append((obs.copy(), x.copy()))
        return tick(obs, x, *args, **kwargs)

    tr.model.tick = recording_tick
    batch, _, _, _, returns = collect_rollouts(
        tr.actor, tr.critic, tr.model, tr.envs, tr.obs, tr.priv, steps,
        cfg.steps_per_tick, tr.rng_collect, tr.collector, tr.replay, 0.99, 0.95)
    ended = np.argwhere(batch.dones)[:, 0]
    assert np.count_nonzero((ended + 1) % cfg.steps_per_tick) > 5
    return tr, batch, returns, ticked


def _episodes(dones):
    """(env, first step, last step) of each episode that `dones` closes, in
    the order the collector closes them: by step, then by env."""
    start = np.zeros(dones.shape[1], dtype=np.int64)
    episodes = []
    for t, i in np.argwhere(dones):
        episodes.append((i, start[i], t))
        start[i] = t + 1
    return episodes


def test_collect_ticks_the_whole_batch_on_one_clock(tmp_path):
    tr, batch, _, ticked = _collect_on_the_clock(tmp_path)
    K = tr.cfg.steps_per_tick
    assert len(ticked) == 240 // K
    for w, (obs, _) in enumerate(ticked):
        assert obs.shape == (4, tr.cfg.env.obs_dim)
        assert np.array_equal(obs.astype(batch.obs.dtype), batch.obs[w * K])


def test_env_reset_between_ticks_acts_on_cleared_memory(tmp_path):
    tr, batch, _, _ = _collect_on_the_clock(tmp_path)
    K, T = tr.cfg.steps_per_tick, batch.rewards.shape[0]
    checked = 0
    for i, first, _ in _episodes(batch.dones):
        clock = -(-first // K) * K
        if first == clock or clock >= T:
            continue
        assert not batch.h[first:clock, i].any()
        assert not batch.rollout[first:clock, i].any()
        assert batch.h[clock, i].any() and batch.rollout[clock, i].any()
        checked += 1
    assert checked > 5
    # the rewards of steps with no open record land in no staged row: the
    # last row of the staging area, which no episode reached, stays zero
    staged = tr.collector.episode["reward"]
    assert max(tr.collector.length.max(), tr.replay.episodes["length"].max()) \
        < staged.shape[1]
    assert not staged[:, -1].any()


def test_replay_records_open_on_the_clock(tmp_path):
    """Each closed episode's records open at the clock ticks of its run, one
    per tick: a record holds the obs and the GAE return of its tick and the
    summed rewards of its window, so together the records hold the episode's
    return minus the rewards of its steps before its first tick. The model
    state of the episode's first tick is the true state there."""
    tr, batch, returns, ticked = _collect_on_the_clock(tmp_path)
    K = tr.cfg.steps_per_tick
    episodes = _episodes(batch.dones)
    assert len(episodes) == len(returns)
    stored = zip(tr.replay.episodes["start"], tr.replay.episodes["length"])
    pre_tick = 0
    for (i, first, last), episode_return in zip(episodes, returns):
        rewards = batch.rewards[:, i]
        assert rewards[first:last + 1].sum() == pytest.approx(episode_return, abs=1e-9)
        ticks = np.arange(-(-first // K) * K, last + 1, K)
        if len(ticks) < 2:                      # too short for replay
            continue
        start, n = next(stored)
        assert n == len(ticks)
        records = {f: ring[start:start + n] for f, ring in tr.replay.rows.items()}
        windows = [rewards[t:min(t + K, last + 1)].sum() for t in ticks]
        assert records["reward"] == pytest.approx(windows, abs=1e-12)
        assert records["reward"].sum() == pytest.approx(
            episode_return - rewards[first:ticks[0]].sum(), abs=1e-9)
        assert np.array_equal(records["obs"].astype(batch.obs.dtype), batch.obs[ticks, i])
        assert np.array_equal(records["value_target"], batch.returns[ticks, i])
        assert np.array_equal(ticked[ticks[0] // K][1][i], records["x"][0])
        pre_tick += ticks[0] > first
    assert next(stored, None) is None
    assert pre_tick > 5


def test_collect_rewards_match_env_replay():
    """Scripted constant actions: a one-env batch and a PlanarEnv built from
    the batch's child seed earn exactly the same rewards."""
    env_cfg = EnvConfig(terrain_jitter=False, max_steps=100000)
    batch_env = EnvBatch(env_cfg, 1, seed=123)
    batch_env.reset_all()
    replay_env = PlanarEnv(env_cfg, seed=env_seeds(123, 1)[0])
    replay_env.reset()
    action = env_cfg.to_physical(np.array([0.2, 0.1, 0.0, 0.05]))
    for _ in range(40):
        _, _, out, _ = batch_env.step(action[None])
        assert not out.code[0]
        assert out.reward[0] == replay_env.step(action)[2].reward


def _random_episode(rng, n, obs_dim=6, action_dim=2):
    """An episode as SequenceReplay.add_episode takes it: a row per record."""
    return {"obs": rng.normal(size=(n, obs_dim)), "action": rng.normal(size=(n, action_dim)),
            "reward": rng.normal(size=n), "value_target": rng.normal(size=n),
            "x": rng.normal(size=(n, 7)), "floor_now": rng.normal(size=n),
            "terminal_x": rng.normal(size=7), "terminal_floor": float(rng.normal())}


def test_replay_sequences_and_missing_fields(rng):
    replay = SequenceReplay(capacity=100, obs_dim=6, action_dim=2)
    episode = _random_episode(rng, 10)
    replay.add_episode(episode)
    batch = replay.sample_sequences(3, 4, rng)
    assert batch["obs"].shape == (3, 4, 6)
    assert batch["x_prev"].shape == (3, 7)
    assert replay.sample_sequences(2, 50, rng) is None  # too short

    for field in ("x", "terminal_x"):
        bad = dict(episode)
        del bad[field]
        with pytest.raises(DataError, match=f"'{field}'"):
            replay.add_episode(bad)


def test_replay_capacity_eviction(rng):
    replay = SequenceReplay(capacity=12, obs_dim=6, action_dim=2)
    for _ in range(5):
        replay.add_episode(_random_episode(rng, 5))
    assert replay.total <= 12
    assert len(replay.episodes["length"]) == 2


def test_replay_draws_match_list_reference():
    """The ring replay and the list-of-dicts reference, filled with the same
    episodes (short ones skipped, the ring wrapping and evicting many times),
    draw bit-identical sequences, the derived x_prev/x_next/floor_next
    included, and leave their generators in the same state."""
    fill = np.random.default_rng(7)
    replay = SequenceReplay(capacity=40, obs_dim=6, action_dim=2)
    reference = ListReplay(capacity=40)
    rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    drawn = 0
    for _ in range(60):
        episode = _random_episode(fill, int(fill.integers(1, 16)))
        replay.add_episode(episode)
        reference.add_episode(episode_records(episode))
        assert replay.total == reference.total
        got = replay.sample_sequences(5, 4, rng_new)
        want = reference.sample_sequences(5, 4, rng_ref)
        assert (got is None) == (want is None)
        if want is not None:
            drawn += 1
            assert set(got) == set(want)
            for f in want:
                assert got[f].dtype == want[f].dtype
                assert np.array_equal(got[f], want[f]), f
    assert drawn > 50
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert int(replay.episodes["start"][-1]) > 3 * 40        # the ring wrapped


def test_stop_gradient_contract_over_full_ppo_phase(tmp_path):
    cfg = smoke_config(3, train={"num_envs": 2, "steps_per_iteration": 40})
    tr = Trainer(cfg, str(tmp_path / "run"))
    batch, *_ = collect_rollouts(
        tr.actor, tr.critic, tr.model, tr.envs, tr.obs, tr.priv, 40,
        cfg.steps_per_tick, tr.rng_collect, tr.collector, tr.replay, 0.99, 0.95)
    before = param_checksum(tr.model)
    actor_before = param_checksum(tr.actor)
    ppo_update(batch, tr.actor, tr.critic, tr.opt_ac, tr.rng_ppo,
               epochs=cfg.train.ppo_epochs, minibatches=cfg.train.ppo_minibatches)
    assert param_checksum(tr.model) == before          # bit-identical
    assert param_checksum(tr.actor) != actor_before    # actor actually moved


# -- trainer end-to-end --------------------------------------------------------------------

def test_trainer_metrics_schema_and_checkpoints(tmp_path):
    cfg = smoke_config(2, train={"iterations": 3, "num_envs": 2,
                                 "steps_per_iteration": 60, "checkpoint_every": 2})
    out = Trainer(cfg, str(tmp_path / "run")).run()
    files = sorted(os.listdir(out))
    assert "metrics.jsonl" in files and "config.json" in files
    assert any(f.startswith("checkpoint_") for f in files)
    with open(os.path.join(out, "metrics.jsonl")) as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 3
    for row in rows:
        assert "episodic_return" in row and "terrain_level" in row
        assert set(row["model_loss"]) >= {"reward_nll", "value_nll", "latent_kl",
                                          "action_cloning", "com",
                                          "reconstruction", "total"}


def test_metrics_rows_report_replay_size(tmp_path):
    cfg = smoke_config(3, train={"num_envs": 2, "steps_per_iteration": 60})
    tr = Trainer(cfg, str(tmp_path / "run"))
    rows = [tr.run_iteration() for _ in range(3)]
    for row in rows:
        assert row["schema_version"] == training.METRICS_SCHEMA_VERSION == 2
        assert set(row["replay"]) == {"episodes", "records", "skipped_short"}
        for norm in (row["ppo"]["grad_norm_actor"], row["ppo"]["grad_norm_critic"],
                     row["model_grad_norm"]):
            assert np.isfinite(norm)
    assert rows[-1]["replay"] == {"episodes": len(tr.replay.episodes["length"]),
                                  "records": tr.replay.total,
                                  "skipped_short": tr.replay.skipped_short}
    assert sum(rows[-1]["replay"].values()) > 0
    assert json.loads(json.dumps(rows[-1])) == rows[-1]


def test_config_rejects_replay_smaller_than_one_episode():
    # max_steps 300 at 5 steps per tick: 60 records in the longest episode
    assert smoke_config(0, train={"replay_capacity": 60}).max_episode_records == 60
    with pytest.raises(ConfigError) as err:
        smoke_config(0, train={"replay_capacity": 59})
    assert err.value.field == "train.replay_capacity"


def test_resume_reproduces_next_iteration_bit_exactly(tmp_path):
    cfg = smoke_config(4, train={"iterations": 3, "num_envs": 2,
                                 "steps_per_iteration": 50, "checkpoint_every": 1,
                                 "save_resume_state": True})
    # contiguous run: capture iteration-3 metrics
    tr1 = Trainer(cfg, str(tmp_path / "a"))
    rows = [tr1.run_iteration() for _ in range(3)]
    tr1.save_resume_state(str(tmp_path / "ignore.pkl"))

    tr2 = Trainer(cfg, str(tmp_path / "b"))
    tr2.run_iteration()
    tr2.run_iteration()
    tr2.save_resume_state(str(tmp_path / "state.pkl"))

    tr3 = Trainer(cfg, str(tmp_path / "c"))
    tr3.load_resume_state(str(tmp_path / "state.pkl"))
    row3 = tr3.run_iteration()
    assert json.dumps(row3, sort_keys=True) == json.dumps(rows[2], sort_keys=True)


def _resume_trainer(tmp_path, name, seed=4):
    cfg = smoke_config(seed, train={"iterations": 3, "num_envs": 2,
                                    "steps_per_iteration": 50})
    return Trainer(cfg, str(tmp_path / name))


_TRIPPED = []


def _trip():
    _TRIPPED.append(True)
    return {}


class _Tripwire:
    def __reduce__(self):
        return (_trip, ())


def test_resume_rejects_pickle_without_running_it(tmp_path):
    path = tmp_path / "resume_state.pkl"
    path.write_bytes(pickle.dumps({"arrays": _Tripwire()}))
    with pytest.raises(ArtifactMismatchError):
        _resume_trainer(tmp_path, "a").load_resume_state(str(path))
    assert not _TRIPPED


def test_resume_rejects_truncated_file(tmp_path):
    tr = _resume_trainer(tmp_path, "a")
    tr.run_iteration()
    path = tmp_path / "state.kpt"
    tr.save_resume_state(str(path))
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(ArtifactMismatchError, match="truncated"):
        _resume_trainer(tmp_path, "b").load_resume_state(str(path))


def test_resume_rejects_agent_checkpoint(tmp_path):
    tr = _resume_trainer(tmp_path, "a")
    path = tmp_path / "agent.kpt"
    tr.save_checkpoint(str(path))
    with pytest.raises(ArtifactMismatchError, match="not a resume state"):
        tr.load_resume_state(str(path))


@pytest.mark.parametrize("kind", ["kinoplan-resume-2", "kinoplan-resume-3",
                                  "kinoplan-resume-4"])
def test_resume_rejects_previous_resume_kind(tmp_path, kind):
    tr = _resume_trainer(tmp_path, "a")
    path = tmp_path / "state.kpt"
    tr.save_resume_state(str(path))
    arrays, meta = load_checkpoint(str(path))
    save_checkpoint(str(path), arrays, {**meta, "kind": kind})
    with pytest.raises(ArtifactMismatchError, match="not a resume state"):
        _resume_trainer(tmp_path, "b").load_resume_state(str(path))


def _resume_file(tmp_path):
    """A resume file written after one iteration, read back as (arrays, meta)."""
    tr = _resume_trainer(tmp_path, "a")
    tr.run_iteration()
    path = tmp_path / "state.kpt"
    tr.save_resume_state(str(path))
    return (path, *load_checkpoint(str(path)))


@pytest.mark.parametrize("name", ["replay.obs", "replay.terminal_x",
                                  "collector.episode.x", "opt_ac.m.actor.log_std",
                                  "envs.x", "envs.floor_z"])
def test_resume_rejects_array_of_wrong_shape(tmp_path, name):
    path, arrays, meta = _resume_file(tmp_path)
    arrays[name] = arrays[name][..., :-1]
    save_checkpoint(str(path), arrays, meta)
    with pytest.raises(ArtifactMismatchError, match=name.split(".", 1)[1]):
        _resume_trainer(tmp_path, "b").load_resume_state(str(path))


@pytest.mark.parametrize("name", ["opt_model.__t__", "opt_ac.v.critic.extra",
                                  "envs.contact", "envs.extra", "model.extra"])
def test_resume_rejects_missing_or_extra_array(tmp_path, name):
    path, arrays, meta = _resume_file(tmp_path)
    if name in arrays:
        del arrays[name]
    else:
        arrays[name] = np.zeros(3)
    save_checkpoint(str(path), arrays, meta)
    with pytest.raises(ArtifactMismatchError, match=name.split(".", 1)[1]):
        _resume_trainer(tmp_path, "b").load_resume_state(str(path))


def test_resume_rejects_other_config(tmp_path):
    path = tmp_path / "state.kpt"
    _resume_trainer(tmp_path, "a", seed=4).save_resume_state(str(path))
    with pytest.raises(ArtifactMismatchError, match="another config"):
        _resume_trainer(tmp_path, "b", seed=5).load_resume_state(str(path))


def test_resume_keeps_halved_learning_rates(tmp_path, monkeypatch):
    """A non-finite rollback halves both Adam rates; a resumed run must go on
    at the halved rates, not at the configured ones."""
    cfg = smoke_config(4, train={"iterations": 1, "num_envs": 2,
                                 "steps_per_iteration": 50, "checkpoint_every": 1,
                                 "save_resume_state": True})
    tr = Trainer(cfg, str(tmp_path / "a"))
    real_iteration = tr.run_iteration
    calls = []

    def fails_once():
        calls.append(1)
        if len(calls) == 1:
            raise TrainingError("non-finite PPO loss")
        return real_iteration()

    monkeypatch.setattr(tr, "run_iteration", fails_once)
    out = tr.run()
    halved = cfg.train.learning_rate * 0.5
    assert tr.lr_halved and (tr.opt_model.lr, tr.opt_ac.lr) == (halved, halved)
    tr.save_resume_state(str(tmp_path / "state.kpt"))

    resumed = Trainer(cfg, str(tmp_path / "b"))
    resumed.load_resume_state(str(tmp_path / "state.kpt"))
    assert resumed.lr_halved
    assert (resumed.opt_model.lr, resumed.opt_ac.lr) == (halved, halved)
    assert "resume_state.kpt" in os.listdir(out)


@pytest.mark.slow
def test_smoke_training_return_improves(tmp_path):
    """2 envs, 200 iterations, flat terrain: the moving-average return at the
    end of the first 100 iterations beats the starting average."""
    cfg = smoke_config(7, env={"max_steps": 300},
                       train={"iterations": 200, "num_envs": 2,
                              "steps_per_iteration": 120, "checkpoint_every": 100,
                              "save_resume_state": False})
    out = Trainer(cfg, str(tmp_path / "run")).run()
    with open(os.path.join(out, "metrics.jsonl")) as f:
        rows = [json.loads(line) for line in f]
    returns = [r["episodic_return"] for r in rows if r["episodic_return"] is not None]
    assert len(returns) >= 150
    early = np.mean(returns[:10])
    late = np.mean(returns[90:110])
    assert late > early


# -- PPO step size and executed actions ------------------------------------------------------

SEEDS = (0, 1, 3, 7)


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_stores_executed_actions_in_box(tmp_path, seed):
    """Replay feeds the model's GRU and its action-cloning target, and the
    planner queries the model only inside [-1, 1]; records must hold the
    clipped action the env ran, not the raw Gaussian sample."""
    cfg = smoke_config(seed, train={"num_envs": 2, "steps_per_iteration": 40})
    tr = Trainer(cfg, str(tmp_path / "run"))
    batch, *_ = collect_rollouts(
        tr.actor, tr.critic, tr.model, tr.envs, tr.obs, tr.priv, 40,
        cfg.steps_per_tick, tr.rng_collect, tr.collector, tr.replay, 0.99, 0.95)
    assert np.any(np.abs(batch.actions) > 1.0)   # some samples left the box
    assert tr.replay.total, "no episode closed within 40 steps"
    assert np.all(np.abs(tr.replay.state_arrays()["action"]) <= 1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_first_ppo_update_stays_in_trust_region(tmp_path, seed, monkeypatch):
    """One iteration from the seeded init: the clipped surrogate bounds the
    update only while optimizer steps are small. An oversized step pushes
    every ratio out of [1 - eps, 1 + eps] after the first minibatch
    (clip_fraction 15/16) and the actor mean at the reset observation out
    of the action box."""
    collected = []

    def recording_collect(*args, **kwargs):
        out = collect_rollouts(*args, **kwargs)
        collected.append(out[0])
        return out

    monkeypatch.setattr(training, "collect_rollouts", recording_collect)
    tr = Trainer(smoke_config(seed), str(tmp_path / "run"))
    row = tr.run_iteration()
    batch = collected[0]
    mean = tr.actor(batch.obs[0], batch.h[0], batch.rollout[0]).mean.data
    assert np.all(np.abs(mean) <= 1.0), mean
    assert row["ppo"]["clip_fraction"] < 15 / 16


def _random_ppo_problem(T: int, hidden: tuple[int, ...], return_scale: float = 1.0):
    """A seeded actor and critic, an Adam over both and a random (T, 4)
    rollout batch, whose observation is priv's leading columns, as the env
    lays them out; returns them with the generator they were drawn from."""
    rng = np.random.default_rng(0)
    obs_dim, priv_dim, d_h, horizon, act = 12, 14, 8, 2, 3
    actor = Actor(obs_dim, d_h, horizon, act, rng, hidden=hidden)
    critic = Critic(priv_dim, d_h, horizon, rng, hidden=hidden)
    params = {f"actor.{k}": v for k, v in actor.named_parameters().items()}
    params.update({f"critic.{k}": v for k, v in critic.named_parameters().items()})
    B = 4
    batch = training.RolloutBatch(
        priv=np.concatenate([rng.normal(size=(T, B, obs_dim)),
                             rng.normal(size=(T, B, priv_dim))[..., obs_dim:]], axis=-1),
        h=rng.normal(size=(T, B, d_h)), rollout=rng.normal(size=(T, B, horizon * 7)),
        actions=rng.normal(size=(T, B, act)), log_probs=rng.normal(size=(T, B)) - 3.0,
        rewards=rng.normal(size=(T, B)), dones=np.zeros((T, B)),
        advantages=rng.normal(size=(T, B)),
        returns=rng.normal(size=(T, B)) * return_scale)
    return batch, actor, critic, Adam(params, lr=1e-4), rng


def _ppo_peak_increase(minibatches: int, rows: int) -> int:
    """Traced peak during one PPO epoch over `minibatches` minibatches of
    `rows` rows each, above the traced level at entry."""
    batch, actor, critic, opt, rng = _random_ppo_problem(minibatches * rows // 4, (64, 64))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ppo_update(batch, actor, critic, opt, rng, epochs=1, minibatches=minibatches)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_ppo_update_memory_does_not_grow_with_minibatches():
    """Each minibatch's tape is freed before the next is built, so four
    minibatches peak about as high as one of the same size."""
    one = _ppo_peak_increase(1, 512)
    four = _ppo_peak_increase(4, 512)
    assert four < 1.5 * one, (one, four)


def test_critic_error_does_not_scale_the_actor_step():
    """The actor's and the critic's gradients are clipped each on its own:
    returns 100x larger change the critic's loss and gradient, and must
    leave every actor update bit for bit as it was. Under one joint norm
    the critic's gradient sets the actor's scale from minibatch to
    minibatch, and Adam turns those swings into different steps."""
    def after(return_scale):
        batch, actor, critic, opt, rng = _random_ppo_problem(16, (16, 16), return_scale)
        opt.lr = 1e-3
        ppo_update(batch, actor, critic, opt, rng, epochs=2, minibatches=4, grad_clip=1.0)
        return param_checksum(actor), param_checksum(critic)

    (actor_1, critic_1), (actor_100, critic_100) = after(1.0), after(100.0)
    assert critic_1 != critic_100
    assert actor_1 == actor_100


def test_ppo_passes_match_the_joint_loss_bit_for_bit(monkeypatch):
    """The actor and critic passes, the critic's on the worker thread, leave
    the parameters, every Adam moment and the stats of one backward of the
    joint loss on one thread."""
    threads = set()
    forward = Critic.forward

    def recording_forward(self, *args):
        threads.add(threading.get_ident())
        return forward(self, *args)

    problems = [_random_ppo_problem(64, (64, 64)) for _ in range(2)]
    ref_batch, ref_actor, ref_critic, ref_opt, ref_rng = problems[1]
    ref_stats = joint_loss_ppo_update(ref_batch, ref_actor, ref_critic, ref_opt, ref_rng,
                                      epochs=2, minibatches=4)
    monkeypatch.setattr(Critic, "forward", recording_forward)
    batch, actor, critic, opt, rng = problems[0]
    stats = ppo_update(batch, actor, critic, opt, rng, epochs=2, minibatches=4)

    assert len(threads) == 1 and threading.get_ident() not in threads
    assert (param_checksum(actor), param_checksum(critic)) \
        == (param_checksum(ref_actor), param_checksum(ref_critic))
    assert opt.t == ref_opt.t == 8
    for name in opt.params:
        assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
        assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name
    assert stats == ref_stats


def test_nonfinite_critic_loss_raises_before_any_step():
    """A NaN return makes the joint loss non-finite: the update raises
    before Adam's first step, and its worker thread is gone."""
    batch, actor, critic, opt, rng = _random_ppo_problem(16, (16, 16))
    batch.returns[3, 1] = np.nan
    before = (param_checksum(actor), param_checksum(critic))
    threads = threading.enumerate()
    with pytest.raises(TrainingError, match="non-finite PPO loss"):
        ppo_update(batch, actor, critic, opt, rng, epochs=1, minibatches=1)
    assert (param_checksum(actor), param_checksum(critic)) == before
    assert opt.t == 0
    assert threading.enumerate() == threads


def test_critic_pass_error_reaches_the_caller(monkeypatch):
    """An exception in the critic pass on the worker thread is raised by
    ppo_update itself, after the actor pass, with no step taken."""
    def failing_forward(self, *args):
        raise DataError("critic failed")

    monkeypatch.setattr(Critic, "forward", failing_forward)
    batch, actor, critic, opt, rng = _random_ppo_problem(16, (16, 16))
    with pytest.raises(DataError, match="critic failed"):
        ppo_update(batch, actor, critic, opt, rng, epochs=1, minibatches=2)
    assert opt.t == 0
