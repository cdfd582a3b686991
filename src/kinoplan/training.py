"""Joint training: on-policy rollout collection with the two-rate model
update, sequence replay for the supervised model loss, GAE, and PPO updates
of the expert actor and privileged critic.

The actor runs every simulator step (50 Hz); the internal model runs on one
clock for the whole batch, one tick every `steps_per_tick` steps (10 Hz),
and the actor reuses the held (h, rollout) in between. An env reset between
ticks acts on cleared memory until the next. Replay records live at the
model rate, one per tick window: the observation, executed action, true
state and floor height at the tick, the window's summed reward and its
value target. Each record field is an array with a row per record, staged
per env by `Collector` and kept in rings by `SequenceReplay`; the state at
a window's end is the next row's, or the episode's terminal state.

PPO splits each minibatch into an actor pass and a critic pass, each a
forward, its backward and its network's gradient clip, the critic's on a
worker thread; the graphs share only constants, so the bits are the joint loss's.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import no_grad
from .config import ExperimentConfig
from .env import OBS_DIM, EnvBatch, curriculum_advance
from .errors import ArtifactMismatchError, DataError, TrainingError
from .model import InternalModel, LOSS_TERMS
from .nn import (NET_DTYPE, Adam, check_arrays, clip_grad_norm, load_checkpoint,
                 save_checkpoint)
from .policy import Actor, Critic
from .state import IDX_PX, X_DIM

METRICS_SCHEMA_VERSION = 2
# "-5": staged records open on one clock for the batch; a "-4" file's may not
RESUME_KIND = "kinoplan-resume-5"


@dataclass
class RolloutBatch:
    """On-policy arrays over (T, B), with their GAE advantages and returns."""

    priv: np.ndarray
    h: np.ndarray
    rollout: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    obs = property(lambda self: self.priv[..., :OBS_DIM])    # not stored: obs leads priv

    @property
    def size(self) -> int:
        return self.rewards.size


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float = 0.99, lam: float = 0.95
                ) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage recursion with episode-boundary masking.

    rewards/dones: (T, B); values: (T+1, B) including the bootstrap row.
    Returns (advantages, returns) with returns = advantages + values[:T].
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if values.shape[0] != rewards.shape[0] + 1 or rewards.shape != dones.shape:
        raise DataError("misaligned GAE inputs")
    T = rewards.shape[0]
    adv = np.zeros_like(rewards)
    running = np.zeros(rewards.shape[1])
    for t in range(T - 1, -1, -1):
        mask = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * mask - values[t]
        running = delta + gamma * lam * mask * running
        adv[t] = running
    return adv, adv + values[:-1]


class SequenceReplay:
    """Closed episodes in a ring of `capacity` records, `rows` holding one
    array per record field; uniform draws of record sequences.

    Episode e is rows start[e] .. start[e] + length[e] - 1 (mod capacity),
    ended in `terminal_x[e]` over `terminal_floor[e]`. `start` counts rows
    ever written, so each episode begins where the one before ends; adding
    one evicts the oldest whole episodes until it fits. A draw derives
    `x_prev`, x of the row before its first (at an episode's start the first
    itself), and `x_next`/`floor_next`, x/floor_now of the row after each
    record (the terminal state after an episode's last).
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        self.capacity = capacity
        self.record = np.dtype([("obs", np.float64, obs_dim),
                                ("action", np.float64, action_dim),
                                ("reward", np.float64), ("value_target", np.float64),
                                ("x", np.float64, X_DIM), ("floor_now", np.float64)])
        # one np.empty for all fields: the ring is mapped, not carved from the
        # heap, and a page of it is touched only when a row is written
        ring = np.empty(capacity, self.record)
        self.rows = {f: ring[f] for f in self.record.names}
        self.episodes = {"start": np.zeros(0, dtype=np.int64),
                         "length": np.zeros(0, dtype=np.int64),
                         "terminal_x": np.zeros((0, X_DIM)), "terminal_floor": np.zeros(0)}
        self.skipped_short = 0

    @property
    def total(self) -> int:
        return int(self.episodes["length"].sum())

    def _rows_in_use(self) -> np.ndarray:
        return (self.episodes["start"][:1] + np.arange(self.total)) % self.capacity

    def add_episode(self, episode: dict, min_len: int = 2):
        """Store (n, ...) arrays of the record fields, `terminal_x` and `terminal_floor`."""
        for f in (*self.rows, "terminal_x", "terminal_floor"):
            if episode.get(f) is None:
                raise DataError(f"replay episode missing field '{f}'")
        n = len(episode["reward"])
        if n < min_len:
            self.skipped_short += 1
            return
        if n > self.capacity:
            raise DataError(f"episode of {n} records exceeds replay capacity {self.capacity}")
        eps = self.episodes
        head = int(eps["start"][-1] + eps["length"][-1]) if eps["start"].size else 0
        total, drop = self.total, 0
        while total + n > self.capacity:
            total -= int(eps["length"][drop])
            drop += 1
        for f, ring in self.rows.items():
            ring[(head + np.arange(n)) % self.capacity] = episode[f]
        new = {"start": head, "length": n, "terminal_x": episode["terminal_x"],
               "terminal_floor": episode["terminal_floor"]}
        self.episodes = {k: np.concatenate([v[drop:], [new[k]]]) for k, v in eps.items()}

    def sample_sequences(self, batch: int, seq_len: int, rng: np.random.Generator
                         ) -> dict | None:
        """`batch` draws of `seq_len` consecutive records of one episode."""
        start, length = self.episodes["start"], self.episodes["length"]
        eligible = np.flatnonzero(length >= seq_len)
        if not eligible.size:
            return None
        weights = (length[eligible] - seq_len + 1).astype(np.float64)
        weights /= weights.sum()
        ep = np.empty(batch, dtype=np.int64)
        first = np.empty(batch, dtype=np.int64)
        for b in range(batch):
            ep[b] = eligible[int(rng.choice(len(eligible), p=weights))]
            first[b] = rng.integers(0, int(length[ep[b]]) - seq_len + 1)
        offset = first[:, None] + np.arange(seq_len)
        rows = (start[ep, None] + offset) % self.capacity
        out = {f: ring[rows] for f, ring in self.rows.items()}
        out["x_prev"] = self.rows["x"][(rows[:, 0] - (first > 0)) % self.capacity]
        last = offset + 1 == length[ep, None]
        after = (rows + 1) % self.capacity
        out["x_next"] = np.where(last[..., None], self.episodes["terminal_x"][ep, None],
                                 self.rows["x"][after])
        out["floor_next"] = np.where(last, self.episodes["terminal_floor"][ep, None],
                                     self.rows["floor_now"][after])
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The rows in use, oldest first, and the episode arrays."""
        rows = self._rows_in_use()
        return {**{f: ring[rows] for f, ring in self.rows.items()}, **self.episodes,
                "skipped_short": np.array([self.skipped_short])}

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Inverse of state_arrays(); names, shapes and dtypes must match."""
        length = arrays.get("length", self.episodes["length"])
        total, n = int(length.sum()), length.size
        if total > self.capacity:
            raise ArtifactMismatchError(f"replay state of {total} records exceeds its "
                                        f"capacity of {self.capacity}")
        check_arrays(arrays, {
            **{f: ((total, *ring.shape[1:]), ring.dtype) for f, ring in self.rows.items()},
            **{k: ((n, *v.shape[1:]), v.dtype) for k, v in self.episodes.items()},
            "skipped_short": ((1,), np.dtype(np.int64))}, "replay")
        self.episodes = {k: arrays[k] for k in self.episodes}
        rows = self._rows_in_use()
        for f, ring in self.rows.items():
            ring[rows] = arrays[f]
        self.skipped_short = int(arrays["skipped_short"][0])


class Collector:
    """Per-environment model state for the two-rate loop, and each env's
    episode so far: env i's records are rows 0 .. length[i] - 1 of the
    (B, max_records, ...) arrays in `episode`, one per record field, each
    opened at a clock tick. The last row is the open window, its reward
    summed as the window runs; an env with length 0 (reset since the last
    tick) has no open window. The state x is float64; h, z and the rollout
    feed only the networks, are NET_DTYPE and a reset zeroes them."""

    ARRAYS = ("x", "h", "z", "rollout_cur", "length")

    def __init__(self, num_envs: int, d_h: int, d_z: int, horizon: int,
                 replay: SequenceReplay, max_records: int):
        self.x = np.zeros((num_envs, X_DIM))
        self.h = np.zeros((num_envs, d_h), dtype=NET_DTYPE)
        self.z = np.zeros((num_envs, d_z), dtype=NET_DTYPE)
        self.rollout_cur = np.zeros((num_envs, horizon * X_DIM), dtype=NET_DTYPE)
        self.length = np.zeros(num_envs, dtype=np.int64)
        staged = np.zeros((num_envs, max_records), replay.record)
        self.episode = {f: staged[f] for f in replay.record.names}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of ARRAYS and of the episode rows in use."""
        used = int(self.length.max())
        return {**{k: getattr(self, k).copy() for k in self.ARRAYS},
                **{f"episode.{f}": a[:, :used].copy() for f, a in self.episode.items()}}

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Inverse of state_arrays(); names, shapes and dtypes must match."""
        # more rows than an episode holds cannot match the episode arrays' shape
        used = min(int(np.max(arrays.get("length", 0))), self.episode["reward"].shape[1])
        check_arrays(arrays, {
            **{k: (getattr(self, k).shape, getattr(self, k).dtype) for k in self.ARRAYS},
            **{f"episode.{f}": ((a.shape[0], used, *a.shape[2:]), a.dtype)
               for f, a in self.episode.items()}}, "collector")
        for k in self.ARRAYS:
            setattr(self, k, arrays[k])
        for f, a in self.episode.items():
            a[:, :used] = arrays[f"episode.{f}"]


def collect_rollouts(actor: Actor, critic: Critic, model: InternalModel,
                     envs: EnvBatch, obs: np.ndarray, priv: np.ndarray,
                     steps: int, steps_per_tick: int, rng: np.random.Generator,
                     collector: Collector, replay: SequenceReplay,
                     gamma: float, lam: float):
    """Run B environments for `steps` fast steps on one clock: at every step
    t with t % steps_per_tick == 0, one model tick refreshes (h, rollout) of
    all B envs, and each env's open replay record closes and a new one opens.
    An env reset between clock ticks acts on cleared memory until the next,
    where its model state starts from the true state; its steps up to it go
    to PPO but open no record. The record a tick opens in env i at step t
    holds obs[t, i], the executed clip(actions[t, i]) and, once GAE has run,
    returns[t, i]; an episode goes to replay after the GAE of the call that
    ends it. `steps` is a multiple of steps_per_tick (the config enforces
    it), so every call starts on the clock.

    Returns (batch: RolloutBatch, obs, priv, success, episode_return), the
    last two arrays over the episodes this call ended, in the order they ended.
    """
    B, K = envs.num_envs, steps_per_tick
    # PPO rows go straight into (T, B, ...) arrays, the networks' inputs and
    # outputs in NET_DTYPE; values gets the bootstrap row T, and each step's
    # B critic values are computed as it is collected
    values = np.empty((steps + 1, B))
    net = partial(np.empty, dtype=NET_DTYPE)
    batch = RolloutBatch(
        priv=net((steps, *priv.shape)), h=net((steps, *collector.h.shape)),
        rollout=net((steps, *collector.rollout_cur.shape)),
        actions=net((steps, B, actor.action_dim)), log_probs=net((steps, B)),
        rewards=np.empty((steps, B)), dones=np.empty((steps, B)))
    staged = collector.episode
    envs_all = np.arange(B)
    closed = []               # (env, step ended, episode) of episodes ended here
    success, episode_return = [], []

    for t in range(steps):
        tick = t % K == 0
        if tick:
            # every open record's window ends here and a new one opens
            rows = collector.length.copy()
            collector.x[rows == 0] = envs.state.x[rows == 0]
            staged["obs"][envs_all, rows] = obs
            staged["x"][envs_all, rows] = envs.state.x
            staged["floor_now"][envs_all, rows] = envs.floor_height(envs.state.x[:, IDX_PX])
            staged["reward"][envs_all, rows] = 0.0
            collector.length += 1
            # model tick: posterior update + imagination for the whole batch
            collector.x[:], collector.h[:], collector.z[:], collector.rollout_cur[:] = \
                model.tick(obs, collector.x, collector.h, collector.z, rng=rng,
                           floor_fn=envs.floor_height)

        with no_grad():
            dist = actor(obs, collector.h, collector.rollout_cur)
            actions = dist.sample(rng=rng).data
            log_probs = dist.log_prob(actions).data
            values[t] = critic(priv, collector.h, collector.rollout_cur).data
        # PPO rows keep the raw sample that log_probs scores; the env and the
        # replay records get the executed action, clipped to the box
        executed = np.clip(actions, -1.0, 1.0)
        if tick:
            staged["action"][envs_all, rows] = executed

        batch.priv[t] = priv
        batch.h[t] = collector.h
        batch.rollout[t] = collector.rollout_cur
        batch.actions[t] = actions
        batch.log_probs[t] = log_probs

        phys = envs.cfg.to_physical(executed)
        obs, priv, out, terminal = envs.step(phys)
        dones = out.code != 0
        # an env reset since the last clock tick has no open record
        open_ = np.flatnonzero(collector.length)
        staged["reward"][open_, collector.length[open_] - 1] += out.reward[open_]
        batch.rewards[t] = out.reward
        batch.dones[t] = dones
        success.append(out.success[dones])
        episode_return.append(terminal.episode_return)

        for i, x_end, floor_end in zip(np.flatnonzero(dones), terminal.x, terminal.floor):
            n = collector.length[i]
            closed.append((i, t, {
                **{f: a[i, :n].copy() for f, a in staged.items()},
                "terminal_x": x_end, "terminal_floor": floor_end}))
        # a done env's next episode starts with its memory cleared
        collector.h[dones] = 0.0
        collector.z[dones] = 0.0
        collector.rollout_cur[dones] = 0.0
        collector.length[dones] = 0

    # bootstrap value of the state after the last step, then GAE targets
    with no_grad():
        values[steps] = critic(priv, collector.h, collector.rollout_cur).data
    batch.advantages, batch.returns = compute_gae(batch.rewards, values,
                                                  batch.dones, gamma, lam)

    def set_value_targets(value_target, env, last):
        """Targets of an episode's n records whose step `last` is in this call:
        all open on the clock, the latest at its last tick, so record r at
        step last - last % K - K * (n - 1 - r); those from an earlier call
        (a negative step) keep their targets."""
        opened_at = last - last % K - K * np.arange(len(value_target))[::-1]
        mine = opened_at >= 0
        value_target[mine] = batch.returns[opened_at[mine], env]

    for i in envs_all:
        set_value_targets(staged["value_target"][i, :collector.length[i]], i, steps - 1)
    for i, last, episode in closed:
        set_value_targets(episode["value_target"], i, last)
        replay.add_episode(episode)

    return batch, obs, priv, np.concatenate(success), np.concatenate(episode_return)


def ppo_update(batch: RolloutBatch, actor: Actor, critic: Critic, optimizer: Adam,
               rng: np.random.Generator, epochs: int = 4, minibatches: int = 4,
               clip_ratio: float = 0.2, entropy_coef: float = 0.005,
               grad_clip: float = 1.0) -> dict:
    """Clipped-surrogate PPO over the flattened batch, advantages normalized;
    the internal model is untouched by construction (h/rollout enter as constants).
    The actions and the GAE targets enter the loss in NET_DTYPE. Each pass clips
    its network's gradients to `grad_clip` (stats: the pre-clip norms' means);
    the one Adam step follows a check that the joint loss is finite. The critic's
    pass runs on a worker thread that lives as long as this call: with one BLAS
    thread the two passes use two cores, but a multi-threaded BLAS already does,
    and the passes' calls then contend for its threads and run slower."""
    n = batch.rewards.size
    priv = batch.priv.reshape(n, -1)
    h = batch.h.reshape(n, -1)
    roll = batch.rollout.reshape(n, -1)
    actions = batch.actions.reshape(n, -1).astype(NET_DTYPE, copy=False)
    logp_old = batch.log_probs.reshape(n).astype(NET_DTYPE, copy=False)
    adv = batch.advantages.reshape(n)
    adv = ((adv - adv.mean()) / (adv.std() + 1e-8)).astype(NET_DTYPE)
    returns = batch.returns.reshape(n).astype(NET_DTYPE)

    def actor_pass(mb, priv_mb, h_mb, roll_mb):
        dist = actor(priv_mb[:, :actor.obs_dim], h_mb, roll_mb)    # obs leads priv
        logp = dist.log_prob(actions[mb])
        ratio = ad.exp(logp - logp_old[mb])
        finite = np.isfinite(ratio.data)
        adv_mb = adv[mb]
        surr = ad.minimum(ratio * adv_mb,
                          ad.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv_mb)
        surr = ad.where(finite, surr, np.zeros_like(adv_mb))
        denom = max(int(finite.sum()), 1)
        policy_term = ad.sum_(surr) * (1.0 / denom)
        entropy = ad.mean(dist.entropy())
        loss = -policy_term - entropy_coef * entropy
        loss.backward()
        return loss.data, {
            "policy_loss": float(-policy_term.data), "entropy": float(entropy.data),
            "clip_fraction": float(np.mean(np.abs(ratio.data - 1.0) > clip_ratio)),
            "skipped": int((~finite).sum()),
            "grad_norm_actor": clip_grad_norm(actor.named_parameters(), grad_clip)}

    def critic_pass(mb, priv_mb, h_mb, roll_mb):
        value_loss = ad.mean(ad.square(critic(priv_mb, h_mb, roll_mb) - returns[mb]))
        value_loss.backward()
        return value_loss.data, {
            "value_loss": float(value_loss.data),
            "grad_norm_critic": clip_grad_norm(critic.named_parameters(), grad_clip)}

    def minibatch_step(mb, pool) -> dict:
        """One Adam step on rows `mb`; only floats leave it, so its tapes go with it."""
        inputs = (mb, priv[mb], h[mb], roll[mb])    # one gather, shared by both networks
        optimizer.zero_grad()
        critic_job = pool.submit(critic_pass, *inputs)
        actor_loss, stats = actor_pass(*inputs)
        value_loss, critic_stats = critic_job.result()
        if not np.isfinite(float(actor_loss + value_loss)):
            raise TrainingError("non-finite PPO loss")
        optimizer.step()
        return {**stats, **critic_stats}

    stats = {**dict.fromkeys(("policy_loss", "value_loss", "entropy", "clip_fraction",
                              "grad_norm_actor", "grad_norm_critic"), 0.0), "skipped": 0}
    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(epochs):
            for mb in np.array_split(rng.permutation(n), minibatches):
                for key, value in minibatch_step(mb, pool).items():
                    stats[key] += value
    for key in stats.keys() - {"skipped"}:
        stats[key] /= max(epochs * minibatches, 1)     # array_split makes `minibatches` parts
    return stats


# Trainer attributes a resume file restores as they are, from its JSON header
_RESUMED_ATTRS = ("iteration", "env_steps_total", "level", "success_window",
                  "recent_returns", "lr_halved")


class Trainer:
    """Alternates rollout collection, supervised model updates, PPO updates,
    and curriculum advancement; writes metrics/checkpoints into the run dir."""

    def __init__(self, config: ExperimentConfig, out_dir: str):
        self.cfg = config.validate()
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

        seeds = np.random.SeedSequence(config.seed)
        (s_env, s_model, s_actor, s_critic, s_collect, s_model_up, s_ppo) = \
            seeds.spawn(7)
        self.rng_collect = np.random.default_rng(s_collect)
        self.rng_model = np.random.default_rng(s_model_up)
        self.rng_ppo = np.random.default_rng(s_ppo)

        tc = config.train
        self.envs = EnvBatch(config.env, tc.num_envs,
                             seed=int(s_env.generate_state(1)[0] % 2**31))
        self.model = InternalModel(config.model, config.env.body,
                                   np.random.default_rng(s_model))
        horizon = config.model.imagination_horizon
        self.actor = Actor(config.env.obs_dim, config.model.d_h, horizon,
                           config.model.action_dim, np.random.default_rng(s_actor))
        self.critic = Critic(config.env.priv_dim, config.model.d_h, horizon,
                             np.random.default_rng(s_critic))
        self.opt_model = Adam(self.model.named_parameters(), lr=tc.learning_rate)
        ac_params = {f"actor.{k}": v for k, v in self.actor.named_parameters().items()}
        ac_params.update(
            {f"critic.{k}": v for k, v in self.critic.named_parameters().items()})
        self.opt_ac = Adam(ac_params, lr=tc.learning_rate)

        self.replay = SequenceReplay(tc.replay_capacity, config.env.obs_dim,
                                     config.model.action_dim)
        self.collector = Collector(tc.num_envs, config.model.d_h, config.model.d_z,
                                   horizon, self.replay, config.max_episode_records)
        self.obs, self.priv = self.envs.reset_all()

        self.iteration = 0
        self.env_steps_total = 0
        self.level = config.env.terrain_level
        self.envs.level = self.level
        self.success_window: list[bool] = []
        self.recent_returns: list[float] = []
        self.lr_halved = False
        self._metrics_path = os.path.join(out_dir, "metrics.jsonl")

    # -- persistence -----------------------------------------------------------

    def _owners(self):
        """Whatever has state_arrays()/load_state(), by name prefix: the
        parameters, the Adam states, then the rest a resume file holds."""
        return (("model", self.model), ("actor", self.actor), ("critic", self.critic),
                ("opt_model", self.opt_model), ("opt_ac", self.opt_ac),
                ("replay", self.replay), ("collector", self.collector),
                ("envs", self.envs))

    def _rngs(self):
        return self.rng_collect, self.rng_model, self.rng_ppo, *self.envs.rngs

    def checkpoint_arrays(self, owners: int = 3) -> dict:
        """Copies of the state arrays of the first `owners` of _owners() (3:
        the parameters, 5: and the Adam states), each name prefixed by its
        owner."""
        return {f"{prefix}.{k}": v for prefix, owner in self._owners()[:owners]
                for k, v in owner.state_arrays().items()}

    def load_arrays(self, arrays: dict, owners: int = 5):
        """Inverse of checkpoint_arrays(owners)."""
        for prefix, owner in self._owners()[:owners]:
            owner.load_state({k[len(prefix) + 1:]: v for k, v in arrays.items()
                              if k.startswith(prefix + ".")})

    def save_checkpoint(self, path: str):
        meta = {"kind": "kinoplan-agent", "iteration": self.iteration,
                "config": self.cfg.to_dict()}
        save_checkpoint(path, self.checkpoint_arrays(), meta)

    def save_resume_state(self, path: str):
        """Everything the next iteration reads, in the checkpoint format:
        arrays go to the buffers, the rest (RNG states included) to the
        JSON header."""
        arrays = self.checkpoint_arrays(len(self._owners()))
        arrays.update(obs=self.obs, priv=self.priv)
        state = {k: getattr(self, k) for k in _RESUMED_ATTRS}
        state.update(lr=[self.opt_model.lr, self.opt_ac.lr],
                     rng=[g.bit_generator.state for g in self._rngs()])
        save_checkpoint(path, arrays,
                        {"kind": RESUME_KIND, "config": self.cfg.to_dict(), "state": state})

    def load_resume_state(self, path: str):
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != RESUME_KIND:
            raise ArtifactMismatchError(f"not a resume state file: {path}")
        if meta.get("config") != self.cfg.to_dict():
            raise ArtifactMismatchError(
                f"resume state was written for another config: {path}")
        state = meta["state"]
        if len(state["rng"]) != len(self._rngs()):
            raise ArtifactMismatchError(f"resume state holds {len(state['rng'])} "
                                        f"generators, expected {len(self._rngs())}: {path}")
        self.load_arrays(arrays, len(self._owners()))
        self.opt_model.lr, self.opt_ac.lr = state["lr"]
        for g, rng_state in zip(self._rngs(), state["rng"]):
            g.bit_generator.state = rng_state
        self.obs, self.priv = arrays["obs"], arrays["priv"]
        for k in _RESUMED_ATTRS:
            setattr(self, k, state[k])
        self.envs.level = self.level

    # -- core loop ----------------------------------------------------------------

    def run_iteration(self) -> dict:
        tc = self.cfg.train
        batch, self.obs, self.priv, success, returns = collect_rollouts(
            self.actor, self.critic, self.model, self.envs, self.obs, self.priv,
            tc.steps_per_iteration, self.cfg.steps_per_tick, self.rng_collect,
            self.collector, self.replay, tc.gamma, tc.gae_lambda)
        self.env_steps_total += batch.size

        self.success_window.extend(success.tolist())
        self.recent_returns.extend(returns.tolist())
        self.success_window = self.success_window[-tc.curriculum_window:]
        self.recent_returns = self.recent_returns[-50:]

        model_stats = {k: 0.0 for k in LOSS_TERMS}
        model_stats["total"] = model_grad_norm = 0.0
        n_model = 0
        for _ in range(tc.model_updates_per_iteration):
            seq = self.replay.sample_sequences(tc.model_batch, tc.model_seq_len,
                                               self.rng_model)
            if seq is None:
                break
            loss, breakdown = self.model.model_loss(seq, self.rng_model)
            self.opt_model.zero_grad()
            loss.backward()
            model_grad_norm += clip_grad_norm(self.opt_model.params, tc.grad_clip_model)
            self.opt_model.step()
            for k, v in breakdown.items():
                model_stats[k] += v
            n_model += 1
        if n_model:
            model_stats = {k: v / n_model for k, v in model_stats.items()}

        ppo_stats = ppo_update(batch, self.actor, self.critic, self.opt_ac,
                               self.rng_ppo, tc.ppo_epochs, tc.ppo_minibatches,
                               tc.clip_ratio, tc.entropy_coef, tc.grad_clip_ac)

        if tc.curriculum and len(self.success_window) >= tc.curriculum_window:
            rate = float(np.mean(self.success_window))
            new_level = curriculum_advance(self.level, rate)
            if new_level != self.level:
                self.level = new_level
                self.envs.level = new_level
                self.success_window = []

        self.iteration += 1
        row = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "iteration": self.iteration,
            "env_steps_total": self.env_steps_total,
            "episodic_return": (float(np.mean(self.recent_returns))
                                if self.recent_returns else None),
            "terrain_level": self.level,
            "success_rate": (float(np.mean(self.success_window))
                             if self.success_window else None),
            "episodes_completed": len(success),
            "model_updates": n_model,
            "model_loss": {k: round(v, 6) for k, v in model_stats.items()},
            "model_grad_norm": round(model_grad_norm / max(n_model, 1), 6),
            "ppo": {k: round(float(v), 6) for k, v in ppo_stats.items()},
            "replay": {"episodes": len(self.replay.episodes["length"]),
                       "records": self.replay.total,
                       "skipped_short": self.replay.skipped_short},
        }
        return row

    def run(self) -> str:
        tc = self.cfg.train
        with open(os.path.join(self.out_dir, "config.json"), "w") as f:
            f.write(self.cfg.resolved_json())
        metrics = open(self._metrics_path, "a")
        try:
            while self.iteration < tc.iterations:
                snapshot = self.checkpoint_arrays(5)
                try:
                    row = self.run_iteration()
                except TrainingError as e:
                    if self.lr_halved:
                        raise TrainingError(
                            f"second non-finite failure at iteration "
                            f"{self.iteration}: {e}") from e
                    self.load_arrays(snapshot)
                    self.opt_model.lr *= 0.5
                    self.opt_ac.lr *= 0.5
                    self.lr_halved = True
                    continue
                metrics.write(json.dumps(row, sort_keys=True) + "\n")
                metrics.flush()
                if self.iteration % tc.checkpoint_every == 0 \
                        or self.iteration == tc.iterations:
                    self.save_checkpoint(os.path.join(
                        self.out_dir, f"checkpoint_{self.iteration:06d}.kpt"))
                    if tc.save_resume_state:
                        self.save_resume_state(os.path.join(
                            self.out_dir, "resume_state.kpt"))
        finally:
            metrics.close()
        self.save_checkpoint(os.path.join(self.out_dir, "checkpoint_final.kpt"))
        return self.out_dir


def train(config: ExperimentConfig, out_dir: str) -> str:
    """Train per the configuration; returns the run directory."""
    return Trainer(config, out_dir).run()


def resume(run_dir: str) -> str:
    """Continue the run in `run_dir` from its resume_state.kpt up to its
    config's train.iterations, appending to its metrics.jsonl."""
    state_path = os.path.join(run_dir, "resume_state.kpt")
    if not os.path.isfile(state_path):
        raise ArtifactMismatchError(f"no resume state in {run_dir}")
    trainer = Trainer(ExperimentConfig.load(os.path.join(run_dir, "config.json")), run_dir)
    trainer.load_resume_state(state_path)
    return trainer.run()
