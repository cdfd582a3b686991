"""Runs one workload, untraced or traced, and assembles its result record.

Untraced (`trace=False`): set the workload up several times (the median is
`setup_s`), repeat units of work for at least `seconds`, then score the
planner against the LQR oracle. Reports the end-to-end metrics.

Traced (`trace=True`): run the units untraced for `seconds`, set up again
from the same seed, and replay exactly as many units with the tracer
installed. The replay does the same work, so the difference of the two wall
times is the tracing overhead. Reports the per-layer metrics, normalized per
timed operation (train iteration, planner call, or env step).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import SPAN_NAMES, Tracer
from workloads import LQR_MAX_RATIO, WORKLOADS, lqr_cost_ratio

# A workload that cannot make progress still ends: it stops after this many
# times `seconds` even if its fingerprint prefix is not reached.
MAX_OVERRUN = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "env_steps_per_s": "steps/s",
    "tick_ms_p50": "ms",
    "plan_lqr_cost_ratio": "ratio",
}

# Per-layer metrics besides the per-span ones. The tick p95 is measured in the
# untraced pass. It is reported here, without a bound, because on a shared
# 2-vCPU VM interference from other tenants moved it by 27-35 % across ten
# runs, more than the largest bound an end-to-end metric may have.
DERIVED_UNITS = {
    "tick_ms_p95": "ms",
    "env.resets_per_1k_steps": "1/1000steps",
    "training.replay_sample_hit_ratio": "ratio",
    "training.model_updates_ratio": "ratio",
    "planner.feasible_share": "ratio",
    "planner.infeasible_fallback_rate": "ratio",
    "planner.action_fallback_rate": "ratio",
    "planner.deadline_miss": "count",
    "trace.ops": "count",
    "trace.overhead_ms_per_op": "ms/op",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.count"] = "1/op"
        units[f"{name}.self_ms"] = "ms/op"
        units[f"{name}.incl_ms"] = "ms/op"
    units.update(DERIVED_UNITS)
    return units


def timed_units(workload, seconds: float, units: int | None = None,
                tracer: Tracer | None = None) -> tuple[float, int]:
    """Run units until `seconds` have passed and the workload's fingerprint
    prefix is complete, or exactly `units` when given. Returns (wall seconds,
    units run)."""
    done = 0
    t0 = time.perf_counter()
    while True:
        if units is not None and done >= units:
            break
        elapsed = time.perf_counter() - t0
        if units is None and elapsed >= seconds and (
                workload.fingerprint is not None or elapsed >= MAX_OVERRUN * seconds):
            break
        if tracer is not None:
            tracer.unit = done
        workload.run_unit()
        done += 1
    return time.perf_counter() - t0, done


def run_untraced(root: Path, out_dir: Path, name: str, seed: int, seconds: float,
                 size: str) -> dict:
    cls = WORKLOADS[name]
    workload = cls(seed, size)
    setup_s = []
    for _ in range(cls.setups if size == "full" else 1):
        t0 = time.perf_counter()
        workload.setup(out_dir)
        setup_s.append(time.perf_counter() - t0)
    wall, units = timed_units(workload, seconds)
    workload.close()
    ratio, lqr_runs, lqr_failed = lqr_cost_ratio(root, seed, size)
    attempted = workload.attempted + lqr_runs
    failed = workload.failed + lqr_failed
    ticks_ms = np.asarray(workload.clock.ticks) * 1e3
    if ticks_ms.size == 0:
        raise RuntimeError("no complete control tick was timed")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (attempted - failed) / attempted,
        "env_steps_per_s": workload.env_steps / wall,
        "tick_ms_p50": float(np.percentile(ticks_ms, 50)),
        "plan_lqr_cost_ratio": ratio,
    }
    correct = failed == 0 and ratio <= LQR_MAX_RATIO
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
        "detail": {
            "op": cls.op, "units": units, "timed_wall_s": wall, "setup_s_all": setup_s,
            "ticks": int(ticks_ms.size), "tick_ms_p95": float(np.percentile(ticks_ms, 95)),
            "env_steps": workload.env_steps,
            "workload_ops": workload.attempted, "workload_failed": workload.failed,
            "lqr_runs": lqr_runs, "lqr_failed": lqr_failed,
            "fingerprint": workload.fingerprint,
        },
    }


def run_traced(out_dir: Path, name: str, seed: int, seconds: float, size: str) -> dict:
    cls = WORKLOADS[name]
    plain = cls(seed, size)
    plain.setup(out_dir)
    wall_plain, units = timed_units(plain, seconds)
    plain.close()
    plain_counts = (plain.attempted, plain.failed, plain.fingerprint)
    tick_ms_p95 = float(np.percentile(plain.clock.ticks, 95)) * 1e3
    del plain                             # free its memory before the replay

    traced = cls(seed, size)
    traced.setup(out_dir)
    tracer = Tracer()
    tracer.install()
    try:
        wall_traced, _ = timed_units(traced, seconds, units=units, tracer=tracer)
    finally:
        tracer.uninstall()
        traced.close()

    ops = max(traced.attempted, 1)
    metrics = dict.fromkeys(DERIVED_UNITS, 0.0)
    totals = tracer.totals()
    for span, (count, self_s, incl_s) in totals.items():
        metrics[f"{span}.count"] = count / ops
        metrics[f"{span}.self_ms"] = self_s * 1e3 / ops
        metrics[f"{span}.incl_ms"] = incl_s * 1e3 / ops
    steps = totals["env.PlanarEnv.step"][0]
    samples = totals["training.SequenceReplay.sample_sequences"][0]
    metrics["env.resets_per_1k_steps"] = (
        1000.0 * totals["env.PlanarEnv.reset"][0] / steps if steps else 0.0)
    metrics["training.replay_sample_hit_ratio"] = (
        totals["model.model_loss"][0] / samples if samples else 0.0)
    metrics.update(traced.layer_counters())
    metrics["tick_ms_p95"] = tick_ms_p95
    metrics["trace.ops"] = traced.attempted
    metrics["trace.overhead_ms_per_op"] = (wall_traced - wall_plain) * 1e3 / ops
    metrics["trace.overhead_pct"] = 100.0 * (wall_traced - wall_plain) / wall_plain

    spans_path = out_dir / f"trace-{name}-seed{seed}.npz"
    tracer.save(spans_path)
    attempted = plain_counts[0] + traced.attempted
    failed = plain_counts[1] + traced.failed
    units_of = per_layer_units()
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units_of[k]}
                    for k in units_of},
        "detail": {
            "units": units, "untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
            "spans": len(tracer.start), "spans_file": str(spans_path.relative_to(out_dir.parent)),
            "op": cls.op, "fingerprint_untraced": plain_counts[2],
            "fingerprint_traced": traced.fingerprint,
        },
    }


def provenance(root: Path, name: str, seed: int, seconds: float, trace: bool,
               size: str) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_revision": git_revision(root),
        "src_sha256": src.hexdigest(),
    }


def git_revision(root: Path) -> str | None:
    """Commit named by .git/HEAD in the checkout itself, if it is a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(root: Path, name: str, seed: int, seconds: float, trace: bool,
        size: str) -> dict:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    if trace:
        result = run_traced(out_dir, name, seed, seconds, size)
    else:
        result = run_untraced(root, out_dir, name, seed, seconds, size)
    result["detail"]["run_wall_s"] = time.perf_counter() - t0
    result["provenance"] = provenance(root, name, seed, seconds, trace, size)
    record_path = out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result
