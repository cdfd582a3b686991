"""The benchmark's workloads and the planner-quality oracle run.

Every workload drives kinoplan in a closed loop from one process, builds all
of its inputs from the workload seed, and repeats one unit of work (a train
iteration or one eval episode). The harness times the units; each workload
checks every operation it runs and counts the failed ones. README.md in this
directory records why each workload exists.

All three use stairs at level 2 with jitter and a seeded-init agent: the
repository cannot yet produce a trained checkpoint.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from kinoplan import evaluate, planner
from kinoplan.config import ExperimentConfig
from kinoplan.env import PlanarEnv
from kinoplan.model import InternalModel
from kinoplan.nn import param_checksum
from kinoplan.planner import ConstraintSet, PlannerConfig
from kinoplan.policy import Actor, Critic
from kinoplan.training import Trainer

TERRAIN = {"terrain_kind": "stairs", "terrain_level": 2, "terrain_jitter": True}

# A seeded-init actor pitches over within 10 to 20 steps, so no episode
# reaches model_seq_len model ticks and the model update never runs. Training
# therefore lifts the pitch limit and ends episodes by timeout instead, with
# max_steps below steps_per_iteration so that every iteration closes episodes.
TRAIN_ENV = {"pitch_limit": 1e9, "max_steps": 200}

# Config overrides per size. "full" is the default config; "tiny" only serves
# the benchmark's self-check.
SIZES = {
    "full": {},
    "tiny": {
        "model": {"d_h": 16, "d_z": 4, "d_e": 16, "embed_hidden": 16,
                  "head_hidden": 16, "decoder_hidden": 16,
                  "imagination_horizon": 2},
        # the warm start hands the planner-horizon rollout to the actor, so
        # planner.horizon must equal model.imagination_horizon
        "planner": {"horizon": 2, "iterations": 2, "samples": 24,
                    "policy_samples": 8, "elites": 8},
        "train": {"steps_per_iteration": 40, "num_envs": 2,
                  "model_updates_per_iteration": 2, "model_batch": 4,
                  "model_seq_len": 4, "ppo_epochs": 2, "ppo_minibatches": 2},
        "train_env": {"max_steps": 30},
    },
}

DEADLINE_S = 0.1   # one model tick at 10 Hz

# The seeded-init agent stands in for a trained checkpoint, a fixed artifact:
# its initialization is the same for every workload seed. The workload seed
# drives the envs (terrain jitter, commanded speed, friction) and sampling.
AGENT_SEED = 0


def experiment_config(seed: int, size: str, train: bool = False) -> ExperimentConfig:
    sized = SIZES[size]
    env = dict(TERRAIN)
    if train:
        env.update(TRAIN_ENV)
        env.update(sized.get("train_env", {}))
    data = {"seed": seed, "env": env,
            "model": sized.get("model", {}), "planner": sized.get("planner", {}),
            "train": {**sized.get("train", {}), "curriculum": False}}
    return ExperimentConfig.from_dict(data)


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator per input stream, derived from the workload seed."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def seeded_agent(config: ExperimentConfig):
    """(model, actor, critic) initialized from AGENT_SEED."""
    rng = np.random.default_rng(AGENT_SEED)
    m = config.model
    model = InternalModel(m, config.env.body, rng)
    actor = Actor(config.env.obs_dim, m.d_h, m.imagination_horizon, m.action_dim, rng)
    critic = Critic(config.env.priv_dim, m.d_h, m.imagination_horizon, rng)
    return model, actor, critic


def hook(obj, method: str, after):
    """Call `after(args)` after each call of `obj.method`. The method is looked
    up on the class at call time, so a tracer installed later still sees it."""
    cls = type(obj)

    def hooked(*args, **kwargs):
        out = getattr(cls, method)(obj, *args, **kwargs)
        after(args)
        return out

    setattr(obj, method, hooked)


def report_exception(workload: str):
    print(f"[{workload}] failed operation:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=np.float64)).all() for v in values)


class TickClock:
    """Wall time of each complete control tick: a model-rate decision plus the
    `steps_per_tick` env steps it drives. `restart()` drops a partial tick."""

    def __init__(self, steps_per_tick: int):
        self.steps_per_tick = steps_per_tick
        self.ticks: list[float] = []
        self._in_tick = 0
        self._last = time.perf_counter()

    def restart(self, *_):
        self._in_tick = 0
        self._last = time.perf_counter()

    def stepped(self, *_):
        self._in_tick += 1
        if self._in_tick == self.steps_per_tick:
            now = time.perf_counter()
            self.ticks.append(now - self._last)
            self._last = now
            self._in_tick = 0


class Workload:
    """One unit of work per `run_unit()`; `attempted`/`failed` count the
    operations it checked, `env_steps` the env steps it drove."""

    name = ""
    op = ""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.config = experiment_config(seed, size, train=self.name == "train")
        self.reset_counters()

    def reset_counters(self):
        self.clock = TickClock(self.config.steps_per_tick)
        self.attempted = self.failed = self.env_steps = 0

    def layer_counters(self) -> dict:
        """Per-layer metrics the workload counts itself."""
        return {}

    def close(self):
        pass


class TrainWorkload(Workload):
    """Default ExperimentConfig training (64 envs x 240 steps) under TRAIN_ENV,
    starting from the seeded-init agent; the workload seed is the config seed
    and drives the envs and every sampling RNG of the Trainer."""

    name = "train"
    op = "train iteration"
    setups = 3                # set-up repetitions per run; the median is reported
    FINGERPRINT_AFTER = 2     # timed iterations before the parameter checksums

    def setup(self, out_dir: Path):
        tc = self.config.train
        self.trainer = None               # release the previous set-up first
        self.trainer = Trainer(self.config, str(out_dir / f"train-seed{self.seed}"))
        for module, fixed in zip((self.trainer.model, self.trainer.actor,
                                  self.trainer.critic), seeded_agent(self.config)):
            module.load_state(fixed.state_arrays())
        self.ppo_steps = 0
        hook(self.trainer.envs, "step", self.clock_step)
        hook(self.trainer.opt_ac, "step", self.count_ppo_step)
        self.trainer.run_iteration()      # warm-up: fills replay
        self.reset_counters()
        self.units = 0
        self.expected_ppo = tc.ppo_epochs * tc.ppo_minibatches
        self.model_update_ratios: list[float] = []
        self.fingerprint = None

    def clock_step(self, *_):
        self.clock.stepped()

    def count_ppo_step(self, *_):
        self.ppo_steps += 1

    def run_unit(self):
        tc = self.config.train
        self.attempted += 1
        self.ppo_steps = 0
        self.clock.restart()
        try:
            row = self.trainer.run_iteration()
        except Exception:
            report_exception(self.name)
            self.failed += 1
            return
        self.env_steps += tc.steps_per_iteration * tc.num_envs
        self.model_update_ratios.append(
            row["model_updates"] / tc.model_updates_per_iteration)
        problems = []
        if row["model_updates"] != tc.model_updates_per_iteration:
            problems.append(f"{row['model_updates']} model updates, "
                            f"configured {tc.model_updates_per_iteration}")
        if self.ppo_steps != self.expected_ppo:
            problems.append(f"{self.ppo_steps} PPO updates, expected {self.expected_ppo}")
        losses = [*row["model_loss"].values(), *row["ppo"].values()]
        if not finite(losses):
            problems.append(f"non-finite loss in {row['model_loss']} / {row['ppo']}")
        if problems:
            print(f"[train] iteration {row['iteration']}: " + "; ".join(problems),
                  file=sys.stderr)
            self.failed += 1
        self.units += 1
        if self.units == self.FINGERPRINT_AFTER:
            self.fingerprint = {
                "after_timed_iterations": self.units,
                "model": param_checksum(self.trainer.model),
                "actor": param_checksum(self.trainer.actor),
                "critic": param_checksum(self.trainer.critic),
            }

    def layer_counters(self) -> dict:
        ratios = self.model_update_ratios
        return {"training.model_updates_ratio": min(ratios) if ratios else 0.0}


class EvalWorkload(Workload):
    """Seeded-init agent on one PlanarEnv; one eval episode per unit. The
    warm-up episode runs on fixed inputs so that set-up does the same work
    for every seed."""

    setups = 9

    def setup(self, out_dir: Path):
        cfg = self.config
        self.model, self.actor, _ = seeded_agent(cfg)
        self.start_recording()
        self.env = PlanarEnv(cfg.env, seed=0)
        self.rng = np.random.default_rng(0)
        self.episode()                    # warm-up
        self.env = PlanarEnv(cfg.env, seed=int(stream(self.seed, "env").integers(2**31)))
        self.rng = stream(self.seed, self.name)
        hook(self.env, "step", self.env_step)
        hook(self.env, "reset", self.env_reset)
        self.reset_counters()
        self.start_recording()

    def env_reset(self, *_):
        self.clock.restart()

    def env_step(self, args):
        self.clock.stepped()

    def run_unit(self):
        try:
            out = self.episode()
        except Exception:
            report_exception(self.name)
            self.attempted += 1
            self.failed += 1
            return
        self.env_steps += out.steps
        if not finite(out.episode_return):
            print(f"[{self.name}] non-finite episode return", file=sys.stderr)
            self.failed += 1
        self.episode_done(out)

    def episode_done(self, out):
        pass


class PlanWorkload(EvalWorkload):
    """Planner episodes with the default PlannerConfig and ModelConfig."""

    name = "plan"
    op = "mppi_plan call"
    FINGERPRINT_CALLS = 100

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.original_plan = evaluate.mppi_plan
        evaluate.mppi_plan = self.checked_plan
        self.lo, self.hi = self.config.constraints.action_box()

    def close(self):
        evaluate.mppi_plan = self.original_plan

    def start_recording(self):
        self.call_s: list[float] = []
        self.actions = hashlib.sha256()
        self.feasible = self.candidates = 0
        self.iterations = self.iteration_fallbacks = self.action_fallbacks = 0

    def episode(self):
        cfg = self.config
        return evaluate.run_planner_episode(self.env, self.model, self.actor, cfg,
                                            cfg.env.terrain_level, self.rng)

    def checked_plan(self, *args, **kwargs):
        t0 = time.perf_counter()
        a0, plan, trace = self.original_plan(*args, **kwargs)
        self.call_s.append(time.perf_counter() - t0)
        self.attempted += 1
        if not finite(a0) or (a0 < self.lo).any() or (a0 > self.hi).any():
            print(f"[plan] action {a0} non-finite or outside the action box",
                  file=sys.stderr)
            self.failed += 1
        if len(self.call_s) <= self.FINGERPRINT_CALLS:
            self.actions.update(np.asarray(a0, dtype=np.float64).tobytes())
        pcfg = self.config.planner
        for it in trace.iterations:
            self.feasible += it.feasible_count
            self.candidates += pcfg.samples + pcfg.policy_samples
            self.iteration_fallbacks += bool(it.infeasible_fallback)
        self.iterations += len(trace.iterations)
        self.action_fallbacks += bool(trace.action_fallback)
        return a0, plan, trace

    @property
    def fingerprint(self):
        if len(self.call_s) < self.FINGERPRINT_CALLS:
            return None
        return {"first_calls": self.FINGERPRINT_CALLS,
                "executed_actions_sha256": self.actions.hexdigest()}

    def layer_counters(self) -> dict:
        calls = len(self.call_s)
        return {
            "planner.feasible_share": self.feasible / max(self.candidates, 1),
            "planner.infeasible_fallback_rate":
                self.iteration_fallbacks / max(self.iterations, 1),
            "planner.action_fallback_rate": self.action_fallbacks / max(calls, 1),
            "planner.deadline_miss": sum(s > DEADLINE_S for s in self.call_s),
        }


class PolicyWorkload(EvalWorkload):
    """B=1 deterministic-actor episodes; the model refreshes every 5 steps."""

    name = "policy"
    op = "env step"
    FINGERPRINT_EPISODES = 50

    def start_recording(self):
        self.returns: list[float] = []

    def episode(self):
        cfg = self.config
        return evaluate.run_policy_episode(self.env, self.model, self.actor, cfg,
                                           cfg.env.terrain_level, self.rng)

    def env_step(self, args):
        super().env_step(args)
        self.attempted += 1
        if not finite(args[0]):
            print(f"[policy] non-finite action {args[0]}", file=sys.stderr)
            self.failed += 1

    def episode_done(self, out):
        self.returns.append(out.episode_return)

    @property
    def fingerprint(self):
        n = self.FINGERPRINT_EPISODES
        if len(self.returns) < n:
            return None
        head = np.asarray(self.returns[:n], dtype=np.float64)
        return {"first_episodes": n,
                "returns_sha256": hashlib.sha256(head.tobytes()).hexdigest(),
                "returns_head": [float(r) for r in head[:5]]}


WORKLOADS = {w.name: w for w in (TrainWorkload, PlanWorkload, PolicyWorkload)}


# -- planner quality against the Riccati optimum --------------------------------

LQR_A = np.array([[1.0, 0.1], [0.0, 1.0]])
LQR_B = np.array([[0.0], [0.1]])
LQR_Q = np.diag([1.0, 0.1])
LQR_R = np.array([[0.1]])
LQR_GAMMA = 0.99
LQR_STEPS = 25
LQR_MAX_RATIO = 1.10      # the bound the planner's own LQR test holds


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LqrModel:
    """Planner surface for the 2-D discrete LQR; the value is -x'Px."""

    def __init__(self, P: np.ndarray):
        self.P = P

    def warm_start(self, y_prev, horizon, rng):
        return y_prev, planner.GaussianActionPlan(np.zeros((horizon, 1)),
                                                  np.ones((horizon, 1)))

    def begin(self, y0, n):
        return np.tile(np.asarray(y0, dtype=np.float64), (n, 1))

    def step(self, x, actions, rng):
        cost = np.einsum("ni,ij,nj->n", x, LQR_Q, x) \
            + np.einsum("ni,ij,nj->n", actions, LQR_R, actions)
        x_next = x @ LQR_A.T + actions @ LQR_B.T
        xs = np.zeros((x.shape[0], 7))
        xs[:, :2] = x_next
        return x_next, -cost, xs

    def value_mean(self, x):
        return -np.einsum("ni,ij,nj->n", x, self.P, x)


def lqr_cost_ratio(root: Path, seed: int, size: str) -> tuple[float, int, int]:
    """Closed-loop MPPI at the configured budget from fixed starts on the unit
    circle, planner RNGs drawn from the workload seed, scored as discounted
    cost over the Riccati optimum x0'Px0.

    Returns (mean ratio, runs attempted, runs failed)."""
    oracles = load_oracles(root)
    P, _ = oracles.discounted_riccati(LQR_A, LQR_B, LQR_Q, LQR_R, LQR_GAMMA)
    budget = SIZES[size].get("planner", {})
    cfg = PlannerConfig(**{**budget, "gamma": LQR_GAMMA})
    cset = ConstraintSet.unbounded([-8.0], [8.0], height_rate_dim=0)
    angles = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi) if size == "full" else (0.0,)
    repeats = 3 if size == "full" else 1
    model = LqrModel(P)
    ratios, failed = [], 0
    for i, angle in enumerate(angles):
        x0 = np.array([math.cos(angle), math.sin(angle)])
        for r in range(repeats):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i, r]))
            try:
                cost = oracles.lqr_rollout_cost(
                    LQR_A, LQR_B, LQR_Q, LQR_R, x0,
                    _mppi_policy(model, cfg, cset, rng), LQR_STEPS, LQR_GAMMA, P)
            except Exception:
                report_exception("lqr")
                failed += 1
                continue
            ratio = cost / float(x0 @ P @ x0)
            if not math.isfinite(ratio):
                failed += 1
                continue
            ratios.append(ratio)
    mean = float(np.mean(ratios)) if ratios else float("inf")
    return mean, len(angles) * repeats, failed


def _mppi_policy(model, cfg, cset, rng):
    state = {"plan": None, "t": 0}

    def policy(x):
        a0, state["plan"], _ = planner.mppi_plan(state["plan"], x, model, cfg, cset,
                                                 rng, call_index=state["t"])
        state["t"] += 1
        return a0

    return policy
