"""The benchmark drives kinoplan from outside, through perfbench/workloads.py:
each workload must still set up and run a unit at the self-check size, so a
change to what it calls fails here rather than in a benchmark run."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train", "plan", "policy"])
def test_workload_runs_a_unit_at_tiny_size(tmp_path, name):
    workload = _load_workloads().WORKLOADS[name](0, "tiny")
    try:                        # the plan workload patches evaluate.mppi_plan
        workload.setup(tmp_path)
        workload.run_unit()
        assert workload.attempted >= 1
        assert workload.failed == 0
    finally:
        workload.close()


def test_lqr_cost_ratio_is_finite_at_tiny_size():
    ratio, attempted, failed = _load_workloads().lqr_cost_ratio(ROOT, 0, "tiny")
    assert math.isfinite(ratio)
    assert attempted >= 1 and failed == 0
