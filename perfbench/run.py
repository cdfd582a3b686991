"""Benchmark entry point, run from the root of a kinoplan checkout:

    python3 perfbench/run.py --workload {train,plan,policy} --seed N \
        --seconds S --trace {0,1}

Prints the full result record (metrics, checks, behaviour fingerprint,
provenance) and, as the last line of standard output, the summary object
{"correct", "attempted", "failed", "metrics"}. The record and the trace spans
are also written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "plan", "policy")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is the self-check's reduced configuration")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def limit_blas_threads():
    """One BLAS thread unless the caller chose a count; never more than nproc.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "1")
        count = int(value) if value.isdigit() and int(value) > 0 else 1
        os.environ[var] = str(min(count, nproc))


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "kinoplan", ROOT / "tests" / "oracles.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from the root "
                  "of a kinoplan checkout", file=sys.stderr)
            return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    result = harness.run(ROOT, args.workload, args.seed, args.seconds,
                         bool(args.trace), args.size)
    print(json.dumps({k: result[k] for k in ("provenance", "detail")}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
