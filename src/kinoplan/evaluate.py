"""Checkpoint evaluation: policy-only rollouts, planner rollouts (with or
without the terminal value bootstrap), aggregate reports, and the
predicted-vs-actual CoM height trace."""

from __future__ import annotations

import csv
import json
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import no_grad
from .config import ExperimentConfig
from .env import TERMINATIONS, PlanarEnv, StepOutcome
from .errors import ArtifactMismatchError, ConfigError
from .model import InternalModel
from .nn import load_checkpoint
from .planner import ModelPlannerAdapter, mppi_plan
from .policy import Actor, Critic
from .state import IDX_PZ, ModelState

EVAL_MODES = ("policy_only", "planner", "planner_no_bootstrap")
REPORT_SCHEMA_VERSION = 1


def load_agent(path: str):
    """Rebuild (config, model, actor, critic) from an agent checkpoint."""
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "kinoplan-agent":
        raise ArtifactMismatchError(f"not an agent checkpoint: {path}")
    config = ExperimentConfig.from_dict(meta["config"])
    rng = np.random.default_rng(0)
    model = InternalModel(config.model, config.env.body, rng)
    horizon = config.model.imagination_horizon
    actor = Actor(config.env.obs_dim, config.model.d_h, horizon,
                  config.model.action_dim, rng)
    critic = Critic(config.env.priv_dim, config.model.d_h, horizon, rng)
    for prefix, module in (("model", model), ("actor", actor), ("critic", critic)):
        module.load_state({k[len(prefix) + 1:]: v for k, v in arrays.items()
                           if k.startswith(prefix + ".")})
    return config, model, actor, critic


@dataclass
class EpisodeOutcome:
    episode_return: float
    success: bool
    steps: int
    termination: str
    violation_count: int = 0
    infeasible_events: int = 0
    traces: list | None = None


def _outcome(env: PlanarEnv, out: StepOutcome, **kw) -> EpisodeOutcome:
    """The outcome of the episode that `env` ended with the step report `out`."""
    return EpisodeOutcome(float(env.state.episode_return), bool(out.success),
                          int(env.state.step_count), TERMINATIONS[int(out.code)], **kw)


def run_policy_episode(env: PlanarEnv, model: InternalModel, actor: Actor,
                       config: ExperimentConfig, level: int,
                       rng: np.random.Generator) -> EpisodeOutcome:
    """Deterministic actor at the fast rate; model memory refreshed each tick."""
    obs, _ = env.reset(level=level)
    x = env.state.x.copy()[None]
    h = np.zeros((1, config.model.d_h))
    z = np.zeros((1, config.model.d_z))
    phase = 0
    while True:
        if phase % config.steps_per_tick == 0:
            x, h, z, rollout_flat = model.tick(obs[None], x, h, z,
                                               floor_fn=env.terrain.floor_height)
        with no_grad():
            a = actor(obs[None], h, rollout_flat).mean.data[0]
        obs, _, out = env.step(env.cfg.to_physical(np.minimum(np.maximum(a, -1.0), 1.0)))
        phase += 1
        if out.code:
            return _outcome(env, out)


def run_planner_episode(env: PlanarEnv, model: InternalModel, actor: Actor,
                        config: ExperimentConfig, level: int,
                        rng: np.random.Generator, bootstrap: bool = True,
                        keep_traces: bool = False) -> EpisodeOutcome:
    """Plan at the model rate; hold each planned action for the fast window."""
    obs, _ = env.reset(level=level)
    adapter = ModelPlannerAdapter(model, actor, floor_fn=env.terrain.floor_height)
    y_prev = ModelState(env.state.x.copy(), np.zeros(config.model.d_h),
                        np.zeros(config.model.d_z))
    violations = 0
    infeasible = 0
    traces = [] if keep_traces else None
    call_index = 0
    while True:
        adapter.begin_tick(obs)
        a0, plan_prev, trace = mppi_plan(
            None if call_index == 0 else plan_prev, y_prev, adapter, config.planner,
            config.constraints, rng, call_index=call_index, bootstrap=bootstrap)
        y_prev = adapter.tick_state
        trace.actual_pz = float(env.state.x[IDX_PZ])
        if trace.one_step_violation > 0:
            violations += 1
        infeasible += trace.infeasible_events
        if keep_traces:
            traces.append(trace)
        phys = env.cfg.to_physical(np.minimum(np.maximum(a0, -1.0), 1.0))
        for _ in range(config.steps_per_tick):
            obs, _, out = env.step(phys)
            if out.code:
                return _outcome(env, out, violation_count=violations,
                                infeasible_events=infeasible, traces=traces)
        call_index += 1


def _run_episode(mode: str, env, model, actor, config, level, rng,
                 keep_traces: bool = False) -> EpisodeOutcome:
    """One episode in `mode`, one of EVAL_MODES (`evaluate` checks them)."""
    if mode == "policy_only":
        return run_policy_episode(env, model, actor, config, level, rng)
    return run_planner_episode(env, model, actor, config, level, rng,
                               bootstrap=mode == "planner", keep_traces=keep_traces)


def evaluate(checkpoint: str, terrains: list[str], levels: list[int],
             seeds: list[int], episodes: int, modes: list[str],
             out_dir: str | None = None) -> dict:
    """E episodes per (terrain, level, seed, mode); statistics are aggregated
    over seeds with their sample counts. Writes report.json/report.csv and a
    planner trace JSONL when out_dir is given."""
    if episodes < 1:
        raise ConfigError("episodes", f"must be >= 1, got {episodes}")
    for name, values in (("modes", modes), ("terrains", terrains), ("levels", levels),
                         ("seeds", seeds)):
        if not values:
            raise ConfigError(name, "must name at least one")
    config, model, actor, _ = load_agent(checkpoint)
    for mode in modes:
        if mode not in EVAL_MODES:
            raise ConfigError("mode", f"unknown mode '{mode}' (choose from {EVAL_MODES})")

    rows = []
    trace_sink = []
    for terrain in terrains:
        for level in levels:
            for mode in modes:
                per_seed_returns = []
                per_seed_success = []
                violation_total = 0
                infeasible_total = 0
                for seed in seeds:
                    rng = np.random.default_rng(
                        np.random.SeedSequence([seed, zlib.crc32(terrain.encode()),
                                                level]).generate_state(1)[0])
                    env_cfg = replace(config.env, terrain_kind=terrain,
                                      terrain_level=level)
                    env = PlanarEnv(env_cfg, seed=seed)
                    rets, succ = [], []
                    for ep in range(episodes):
                        out = _run_episode(mode, env, model, actor, config, level,
                                           rng, keep_traces=bool(out_dir))
                        rets.append(out.episode_return)
                        succ.append(out.success)
                        violation_total += out.violation_count
                        infeasible_total += out.infeasible_events
                        if out.traces:
                            for tr in out.traces:
                                rec = tr.to_json()
                                rec.update({"terrain": terrain, "level": level,
                                            "mode": mode, "seed": seed,
                                            "episode": ep})
                                trace_sink.append(rec)
                    per_seed_returns.append(float(np.mean(rets)))
                    per_seed_success.append(float(np.mean(succ)))
                rows.append({
                    "terrain": terrain, "level": level, "mode": mode,
                    "seeds": len(seeds), "episodes_per_seed": episodes,
                    "sample_count": len(seeds) * episodes,
                    "success_rate": float(np.mean(per_seed_success)),
                    "success_std": float(np.std(per_seed_success)),
                    "mean_return": float(np.mean(per_seed_returns)),
                    "std_return": float(np.std(per_seed_returns)),
                    "violation_count": violation_total,
                    "infeasible_events": infeasible_total,
                })
    report = {"schema_version": REPORT_SCHEMA_VERSION, "checkpoint": checkpoint,
              "modes": modes, "rows": rows}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        fields = list(rows[0].keys()) if rows else []
        with open(os.path.join(out_dir, "report.csv"), "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=fields)
            w.writeheader()
            w.writerows(rows)
        with open(os.path.join(out_dir, "planner_traces.jsonl"), "w") as f:
            for rec in trace_sink:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    return report


def com_trace(checkpoint: str, terrain: str, level: int, seed: int,
              out_csv: str, episodes: int = 1) -> str:
    """Predicted-vs-actual CoM height series: one row per planner call with
    the posterior estimate (offset 0), the open-loop mean-plan predictions
    (offsets 1..H-1), and the realized height at that call."""
    config, model, actor, _ = load_agent(checkpoint)
    horizon = config.planner.horizon
    env_cfg = replace(config.env, terrain_kind=terrain, terrain_level=level)
    env = PlanarEnv(env_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    rows = []
    for ep in range(episodes):
        out = run_planner_episode(env, model, actor, config, level, rng,
                                  keep_traces=True)
        for t, tr in enumerate(out.traces):
            rows.append([t] + [float(v) for v in tr.predicted_pz]
                        + [float(tr.actual_pz)])
    os.makedirs(os.path.dirname(out_csv) or ".", exist_ok=True)
    with open(out_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t"] + [f"pred_offset_{k}" for k in range(horizon)] + ["actual_pz"])
        w.writerows(rows)
    return out_csv
