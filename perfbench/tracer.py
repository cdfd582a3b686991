"""In-process span tracer that wraps kinoplan's public functions from outside.

Each wrapped call records one span: name, parent span, the timed unit it
belongs to (a train iteration or an eval episode), start and end. Spans stay
in memory in flat typed arrays and are written out once, after the run.
Per-name aggregates (call count, inclusive time, self time = inclusive time
minus the time of wrapped child calls) are kept alongside.

Every function is wrapped where its caller looks it up: a name imported with
`from .x import f` is patched in the importing module, a method on its class.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# (span name, module that holds the looked-up attribute, attribute path)
SPANS = (
    ("env.EnvBatch.step", "env", "EnvBatch.step"),
    ("env.PlanarEnv.step", "env", "PlanarEnv.step"),
    ("env.PlanarEnv.reset", "env", "PlanarEnv.reset"),
    ("terrain.render_depth_scan", "env", "render_depth_scan"),
    ("terrain.build_terrain", "env", "build_terrain"),
    ("model.embed", "model", "InternalModel.embed"),
    ("model.rollout_batch", "model", "InternalModel.rollout_batch"),
    ("model.prior_update", "model", "InternalModel.prior_update"),
    ("model.model_loss", "model", "InternalModel.model_loss"),
    ("nn.GruCell.forward", "nn", "GruCell.forward"),
    ("nn.Adam.step", "nn", "Adam.step"),
    ("nn.clip_grad_norm", "training", "clip_grad_norm"),
    ("autodiff.Tensor.backward", "autodiff", "Tensor.backward"),
    ("policy.Actor.forward", "policy", "Actor.forward"),
    ("policy.Critic.forward", "policy", "Critic.forward"),
    ("training.collect_rollouts", "training", "collect_rollouts"),
    ("training.ppo_update", "training", "ppo_update"),
    ("training.compute_gae", "training", "compute_gae"),
    ("training.SequenceReplay.sample_sequences", "training",
     "SequenceReplay.sample_sequences"),
    ("training.SequenceReplay.add_episode", "training", "SequenceReplay.add_episode"),
    ("planner.mppi_plan", "evaluate", "mppi_plan"),
    ("planner.warm_start", "planner", "ModelPlannerAdapter.warm_start"),
    ("planner.rollout_candidates", "planner", "rollout_candidates"),
    ("planner.adapter.step", "planner", "ModelPlannerAdapter.step"),
    ("planner.value_mean", "planner", "ModelPlannerAdapter.value_mean"),
    ("planner.select_elites", "planner", "select_elites"),
    ("planner.fit_elite_plan", "planner", "fit_elite_plan"),
    ("evaluate.run_planner_episode", "evaluate", "run_planner_episode"),
    ("evaluate.run_policy_episode", "evaluate", "run_policy_episode"),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)


class Tracer:
    """Install with `install()`, remove with `uninstall()`; spans are recorded
    only while installed. `unit` tags new spans with the current timed unit."""

    def __init__(self):
        self.unit = -1
        self.count = [0] * len(SPANS)
        self.incl_s = [0.0] * len(SPANS)
        self.self_s = [0.0] * len(SPANS)
        self.name_id = array("h")
        self.parent = array("i")
        self.unit_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for nid, (_, module, path) in enumerate(SPANS):
            owner = importlib.import_module(f"kinoplan.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(nid, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, nid: int, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.unit_id.append(self.unit)
            self.end.append(0.0)
            self._open.append(idx)
            self._child_s.append(0.0)
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                self._open.pop()
                child = self._child_s.pop()
                dur = t1 - t0
                self.count[nid] += 1
                self.incl_s[nid] += dur
                self.self_s[nid] += dur - child
                if self._child_s:
                    self._child_s[-1] += dur

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, self seconds, inclusive seconds)."""
        return {name: (self.count[i], self.self_s[i], self.incl_s[i])
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path):
        """Write every recorded span as columns of one .npz file."""
        import numpy as np

        np.savez(path, names=np.array(SPAN_NAMES),
                 name_id=np.asarray(self.name_id), parent=np.asarray(self.parent),
                 unit=np.asarray(self.unit_id), start=np.asarray(self.start),
                 end=np.asarray(self.end))
