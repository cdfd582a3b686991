"""Joint training: on-policy rollout collection with the two-rate model
update, sequence replay for the supervised model loss, GAE, and PPO updates
of the expert actor and privileged critic.

The actor runs every simulator step (50 Hz); the internal model refreshes
its memory and imagined rollout every `steps_per_tick` steps (10 Hz), and
the actor reuses the held (h, rollout) in between. Replay records live at
the model rate: each record spans one tick window with the window's summed
reward and the true states at both ends.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import no_grad
from .config import ExperimentConfig
from .env import EnvBatch, curriculum_advance
from .errors import ArtifactMismatchError, DataError, TrainingError
from .model import InternalModel, LOSS_TERMS
from .nn import Adam, clip_grad_norm, load_checkpoint, save_checkpoint
from .policy import Actor, Critic
from .state import IDX_PX, X_DIM

METRICS_SCHEMA_VERSION = 1
# "-2": the env batch is written as one array tree, not one snapshot per env
RESUME_KIND = "kinoplan-resume-2"


@dataclass
class RolloutBatch:
    """On-policy arrays over (T, B); advantages normalized per batch."""

    obs: np.ndarray
    priv: np.ndarray
    h: np.ndarray
    rollout: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    generation: int = 0

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
    """Episode-segmented replay of model-rate records; uniform sequence draws."""

    FIELDS = ("obs", "action", "reward", "value_target", "x", "x_next",
              "x_prev", "floor_now", "floor_next")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.episodes: list[dict] = []
        self.total = 0
        self.skipped_short = 0

    def add_episode(self, records: list[dict], min_len: int = 2):
        if len(records) < min_len:
            self.skipped_short += 1
            return
        for rec in records:
            missing = [f for f in self.FIELDS if f not in rec or rec[f] is None]
            if missing:
                raise DataError(f"replay record missing field '{missing[0]}'")
        episode = {f: np.asarray([rec[f] for rec in records]) for f in self.FIELDS}
        self.episodes.append(episode)
        self.total += len(records)
        while self.total > self.capacity and len(self.episodes) > 1:
            evicted = self.episodes.pop(0)
            self.total -= evicted["reward"].shape[0]

    def sample_sequences(self, batch: int, seq_len: int, rng: np.random.Generator
                         ) -> dict | None:
        eligible = [ep for ep in self.episodes if ep["reward"].shape[0] >= seq_len]
        if not eligible:
            return None
        weights = np.array([ep["reward"].shape[0] - seq_len + 1 for ep in eligible],
                           dtype=np.float64)
        weights /= weights.sum()
        out = {f: [] for f in self.FIELDS}
        for _ in range(batch):
            ep = eligible[int(rng.choice(len(eligible), p=weights))]
            start = int(rng.integers(0, ep["reward"].shape[0] - seq_len + 1))
            for f in self.FIELDS:
                if f == "x_prev":
                    out[f].append(ep["x_prev"][start])
                else:
                    out[f].append(ep[f][start:start + seq_len])
        return {f: np.asarray(v) for f, v in out.items()}


class Collector:
    """Per-environment model-state bookkeeping for the two-rate loop."""

    def __init__(self, num_envs: int, d_h: int, d_z: int, horizon: int):
        self.num_envs = num_envs
        self.x = np.zeros((num_envs, X_DIM))
        self.h = np.zeros((num_envs, d_h))
        self.z = np.zeros((num_envs, d_z))
        self.h_cur = np.zeros((num_envs, d_h))
        self.rollout_cur = np.zeros((num_envs, horizon * X_DIM))
        self.phase = np.zeros(num_envs, dtype=np.int64)
        self.window_reward = np.zeros(num_envs)
        self.open_record: list[dict | None] = [None] * num_envs
        self.episode_records: list[list[dict]] = [[] for _ in range(num_envs)]

    def reset_env(self, i: int, x0: np.ndarray):
        self.x[i] = x0
        self.h[i] = 0.0
        self.z[i] = 0.0
        self.phase[i] = 0
        self.window_reward[i] = 0.0
        self.open_record[i] = None
        self.episode_records[i] = []


def collect_rollouts(actor: Actor, critic: Critic, model: InternalModel,
                     envs: EnvBatch, obs: np.ndarray, priv: np.ndarray,
                     steps: int, steps_per_tick: int, rng: np.random.Generator,
                     collector: Collector, replay: SequenceReplay,
                     gamma: float, lam: float, generation: int = 0,
                     deterministic: bool = False):
    """Run B environments for `steps` fast steps, refreshing (h, rollout)
    every `steps_per_tick` steps per env, storing PPO rows and model-rate
    replay records.

    Returns (batch: RolloutBatch, obs, priv, episode_infos, tick_count).
    """
    B = envs.num_envs
    # PPO rows go straight into (T, B, ...) arrays; values gets the bootstrap
    # row T, and each step's B critic values are computed as it is collected
    values = np.empty((steps + 1, B))
    batch = RolloutBatch(
        obs=np.empty((steps, *obs.shape)), priv=np.empty((steps, *priv.shape)),
        h=np.empty((steps, *collector.h_cur.shape)),
        rollout=np.empty((steps, *collector.rollout_cur.shape)),
        actions=np.empty((steps, B, actor.action_dim)), log_probs=np.empty((steps, B)),
        rewards=np.empty((steps, B)), dones=np.empty((steps, B)),
        values=values[:-1], generation=generation)
    episode_infos = []
    closed_episodes: list[list[dict]] = []
    tick_count = 0

    for t in range(steps):
        tick_ids = np.where(collector.phase % steps_per_tick == 0)[0]
        if tick_ids.size:
            tick_count += tick_ids.size
            x_tick = envs.state.x[tick_ids]
            floors = envs.floor_height(x_tick[:, IDX_PX], tick_ids)
            # close the previous window: the current true state ends it
            for k, i in enumerate(tick_ids):
                rec = collector.open_record[i]
                if rec is not None:
                    rec["x_next"] = x_tick[k].copy()
                    rec["floor_next"] = float(floors[k])
                    rec["reward"] = collector.window_reward[i]
                    collector.episode_records[i].append(rec)
                collector.window_reward[i] = 0.0
            # model tick: posterior update + imagination for the sub-batch
            x1, h1, z1, rollout_flat = model.tick(
                obs[tick_ids], collector.x[tick_ids], collector.h[tick_ids],
                collector.z[tick_ids], rng=rng,
                floor_fn=partial(envs.floor_height, rows=tick_ids))
            collector.x[tick_ids] = x1
            collector.h[tick_ids] = h1
            collector.z[tick_ids] = z1
            collector.h_cur[tick_ids] = h1
            collector.rollout_cur[tick_ids] = rollout_flat
            for k, i in enumerate(tick_ids):
                x_now = x_tick[k].copy()
                collector.open_record[i] = {
                    "obs": obs[i].copy(),
                    "x": x_now,
                    "x_prev": (collector.episode_records[i][-1]["x"]
                               if collector.episode_records[i] else x_now),
                    "floor_now": float(floors[k]),
                    "env": int(i),
                    "action": None, "reward": None, "value_target": None,
                    "x_next": None, "floor_next": None,
                }

        with no_grad():
            dist = actor(obs, collector.h_cur, collector.rollout_cur)
            if deterministic:
                actions = dist.mean.data
            else:
                actions = dist.sample(rng=rng).data
            log_probs = dist.log_prob(actions).data
            values[t] = critic(priv, collector.h_cur, collector.rollout_cur).data
        # PPO rows keep the raw sample that log_probs scores; the env and the
        # replay records get the executed action, clipped to the box
        executed = np.clip(actions, -1.0, 1.0)

        for i in tick_ids:
            collector.open_record[i]["action"] = executed[i].copy()
            collector.open_record[i]["t_index"] = t

        batch.obs[t] = obs
        batch.priv[t] = priv
        batch.h[t] = collector.h_cur
        batch.rollout[t] = collector.rollout_cur
        batch.actions[t] = actions
        batch.log_probs[t] = log_probs

        phys = envs.cfg.to_physical(executed)
        obs, priv, rewards, dones, infos = envs.step(phys)
        collector.window_reward += rewards
        batch.rewards[t] = rewards
        batch.dones[t] = dones

        for i in range(B):
            if dones[i]:
                info = infos[i]
                episode_infos.append(info)
                rec = collector.open_record[i]
                if rec is not None and rec.get("action") is not None:
                    rec["x_next"] = np.asarray(info["terminal_x"], dtype=np.float64)
                    rec["floor_next"] = float(info["terminal_floor"])
                    rec["reward"] = collector.window_reward[i]
                    collector.episode_records[i].append(rec)
                closed_episodes.append(collector.episode_records[i])
                collector.reset_env(i, envs.state.x[i].copy())
            else:
                collector.phase[i] += 1

    # bootstrap value of the state after the last step, then GAE targets
    with no_grad():
        values[steps] = critic(priv, collector.h_cur, collector.rollout_cur).data
    batch.advantages, batch.returns = compute_gae(batch.rewards, values,
                                                  batch.dones, gamma, lam)

    # value targets for replay records created this call; records carried over
    # from earlier calls were patched when their call's returns were available
    for i in range(B):
        recs = list(collector.episode_records[i])
        if collector.open_record[i] is not None:
            recs.append(collector.open_record[i])
        for rec in recs:
            if rec.get("value_target") is None and "t_index" in rec:
                rec["value_target"] = float(batch.returns[rec["t_index"], i])
    for episode in closed_episodes:
        for rec in episode:
            if rec.get("value_target") is None and "t_index" in rec:
                rec["value_target"] = float(batch.returns[rec["t_index"], rec["env"]])
        replay.add_episode([r for r in episode if r.get("reward") is not None])

    return batch, obs, priv, episode_infos, tick_count


def ppo_update(batch: RolloutBatch, actor: Actor, critic: Critic, optimizer: Adam,
               rng: np.random.Generator, epochs: int = 4, minibatches: int = 4,
               clip_ratio: float = 0.2, entropy_coef: float = 0.005,
               grad_clip: float = 1.0, normalize_advantages: bool = True) -> dict:
    """Clipped-surrogate PPO over the flattened batch; internal-model
    parameters are untouched by construction (h/rollout enter as constants)."""
    T, B = batch.rewards.shape
    n = T * B
    obs = batch.obs.reshape(n, -1)
    priv = batch.priv.reshape(n, -1)
    h = batch.h.reshape(n, -1)
    roll = batch.rollout.reshape(n, -1)
    actions = batch.actions.reshape(n, -1)
    logp_old = batch.log_probs.reshape(n)
    adv = batch.advantages.reshape(n)
    returns = batch.returns.reshape(n)
    if normalize_advantages:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    def minibatch_step(mb) -> dict:
        """One optimizer step on rows `mb`. Only floats leave it, so its tape
        is freed before the next minibatch builds one."""
        dist = actor(obs[mb], h[mb], roll[mb])
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
        vpred = critic(priv[mb], h[mb], roll[mb])
        value_loss = ad.mean(ad.square(vpred - returns[mb]))
        loss = -policy_term - entropy_coef * entropy + value_loss
        if not np.isfinite(float(loss.data)):
            raise TrainingError("non-finite PPO loss")
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(optimizer.params, grad_clip)
        optimizer.step()
        return {"policy_loss": float(-policy_term.data),
                "value_loss": float(value_loss.data),
                "entropy": float(entropy.data),
                "clip_fraction": float(np.mean(np.abs(ratio.data - 1.0) > clip_ratio)),
                "skipped": int((~finite).sum())}

    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
             "clip_fraction": 0.0, "skipped": 0}
    updates = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for mb in np.array_split(perm, minibatches):
            for key, value in minibatch_step(mb).items():
                stats[key] += value
            updates += 1
    for key in ("policy_loss", "value_loss", "entropy", "clip_fraction"):
        stats[key] /= max(updates, 1)
    return stats


# Trainer attributes a resume file restores as they are
_RESUMED_ATTRS = ("iteration", "env_steps_total", "obs", "priv", "level",
                  "success_window", "recent_returns", "lr_halved")


def _split_arrays(tree, arrays: dict, path: str):
    """Copy of a dict/list tree with every ndarray moved into `arrays` under
    its path and replaced by a reference to it."""
    if isinstance(tree, np.ndarray):
        arrays[path] = tree
        return {"__array__": path}
    if isinstance(tree, dict):
        return {k: _split_arrays(v, arrays, f"{path}/{k}") for k, v in tree.items()}
    if isinstance(tree, list):
        return [_split_arrays(v, arrays, f"{path}/{i}") for i, v in enumerate(tree)]
    return tree


def _join_arrays(tree, arrays: dict):
    """Inverse of _split_arrays."""
    if isinstance(tree, dict):
        if set(tree) == {"__array__"}:
            return arrays[tree["__array__"]]
        return {k: _join_arrays(v, arrays) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_join_arrays(v, arrays) for v in tree]
    return tree


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

        self.replay = SequenceReplay(tc.replay_capacity)
        self.collector = Collector(tc.num_envs, config.model.d_h, config.model.d_z,
                                   horizon)
        self.obs, self.priv = self.envs.reset_all()
        for i in range(tc.num_envs):
            self.collector.reset_env(i, self.envs.state.x[i].copy())

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
        return (("model", self.model), ("actor", self.actor), ("critic", self.critic),
                ("opt_model", self.opt_model), ("opt_ac", self.opt_ac))

    def _rngs(self):
        return self.rng_collect, self.rng_model, self.rng_ppo

    def checkpoint_arrays(self, optimizers: bool = False) -> dict:
        """Copies of the parameters (plus the Adam state with `optimizers`),
        each name prefixed by its owner."""
        owners = self._owners() if optimizers else self._owners()[:3]
        return {f"{prefix}.{k}": v for prefix, owner in owners
                for k, v in owner.state_arrays().items()}

    def load_arrays(self, arrays: dict):
        """Inverse of checkpoint_arrays(optimizers=True)."""
        for prefix, owner in self._owners():
            owner.load_state({k[len(prefix) + 1:]: v for k, v in arrays.items()
                              if k.startswith(prefix + ".")})

    def save_checkpoint(self, path: str):
        meta = {"kind": "kinoplan-agent", **self.model.checkpoint_meta(),
                "iteration": self.iteration,
                "config": self.cfg.to_dict()}
        save_checkpoint(path, self.checkpoint_arrays(), meta)

    def save_resume_state(self, path: str):
        """Everything the next iteration reads, in the checkpoint format:
        arrays go to the buffers, the rest (RNG states included) to the
        JSON header."""
        arrays = self.checkpoint_arrays(optimizers=True)
        state = {k: getattr(self, k) for k in _RESUMED_ATTRS}
        state.update(lr=[self.opt_model.lr, self.opt_ac.lr],
                     rng=[g.bit_generator.state for g in self._rngs()],
                     replay=vars(self.replay), collector=vars(self.collector),
                     envs=self.envs.snapshot())
        meta = {"kind": RESUME_KIND, "config": self.cfg.to_dict(),
                "state": _split_arrays(state, arrays, "state")}
        save_checkpoint(path, arrays, meta)

    def load_resume_state(self, path: str):
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != RESUME_KIND:
            raise ArtifactMismatchError(f"not a resume state file: {path}")
        if meta.get("config") != self.cfg.to_dict():
            raise ArtifactMismatchError(
                f"resume state was written for another config: {path}")
        self.load_arrays(arrays)
        state = _join_arrays(meta["state"], arrays)
        self.opt_model.lr, self.opt_ac.lr = state.pop("lr")
        for g, rng_state in zip(self._rngs(), state.pop("rng")):
            g.bit_generator.state = rng_state
        vars(self.replay).update(state.pop("replay"))
        vars(self.collector).update(state.pop("collector"))
        self.envs.restore(state.pop("envs"))
        for k in _RESUMED_ATTRS:
            setattr(self, k, state[k])
        self.envs.level = self.level

    # -- core loop ----------------------------------------------------------------

    def run_iteration(self) -> dict:
        tc = self.cfg.train
        batch, self.obs, self.priv, infos, ticks = collect_rollouts(
            self.actor, self.critic, self.model, self.envs, self.obs, self.priv,
            tc.steps_per_iteration, self.cfg.steps_per_tick, self.rng_collect,
            self.collector, self.replay, tc.gamma, tc.gae_lambda,
            generation=self.iteration)
        self.env_steps_total += batch.size

        for info in infos:
            self.success_window.append(bool(info["success"]))
            self.recent_returns.append(float(info["episode_return"]))
        self.success_window = self.success_window[-tc.curriculum_window:]
        self.recent_returns = self.recent_returns[-50:]

        model_stats = {k: 0.0 for k in LOSS_TERMS}
        model_stats["total"] = 0.0
        n_model = 0
        for _ in range(tc.model_updates_per_iteration):
            seq = self.replay.sample_sequences(tc.model_batch, tc.model_seq_len,
                                               self.rng_model)
            if seq is None:
                break
            loss, breakdown = self.model.model_loss(seq, self.rng_model)
            self.opt_model.zero_grad()
            loss.backward()
            clip_grad_norm(self.opt_model.params, tc.grad_clip_model)
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
            "episodes_completed": len(infos),
            "model_updates": n_model,
            "model_loss": {k: round(v, 6) for k, v in model_stats.items()},
            "ppo": {k: round(float(v), 6) for k, v in ppo_stats.items()},
        }
        return row

    def run(self) -> str:
        tc = self.cfg.train
        with open(os.path.join(self.out_dir, "config.json"), "w") as f:
            f.write(self.cfg.resolved_json())
        metrics = open(self._metrics_path, "a")
        try:
            while self.iteration < tc.iterations:
                snapshot = self.checkpoint_arrays(optimizers=True)
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
