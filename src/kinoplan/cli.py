"""Experiment runner front door.

Subcommands:
    train   --config cfg.json [--out DIR]   (default: the config's out_dir,
            else a new directory under the output root)
    train   --resume RUN_DIR                continue RUN_DIR from its
            resume_state.kpt to the config's train.iterations
    eval    --checkpoint ck.kpt --mode planner[,policy_only,...] [--terrains ...]
            [--levels ...] [--seeds ...] [--episodes N] [--out DIR]
    trace   --checkpoint ck.kpt --terrain gap [--level N] [--seed N] [--out DIR]

Exit codes: 0 success, 1 internal failure, 2 config error, 3 artifact
mismatch. KINOPLAN_OUT_ROOT sets the default output root (default ./runs).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .config import ExperimentConfig
from .errors import ArtifactMismatchError, ConfigError, DimensionError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3


def _out_root(explicit: str | None) -> str:
    return explicit or os.environ.get("KINOPLAN_OUT_ROOT", "runs")


def _run_dir(root: str, tag: str, seed: int) -> str:
    base = os.path.join(root, f"{tag}_s{seed}")
    path = base
    k = 2
    while os.path.exists(path):
        path = f"{base}_{k}"
        k += 1
    return path


def cmd_train(args) -> int:
    from .training import resume, train
    if args.resume:
        if args.out:
            raise ConfigError("--out", "a resumed run continues in RUN_DIR")
        run_dir = resume(args.resume)
    else:
        config = ExperimentConfig.load(args.config)
        out_dir = (args.out or config.out_dir
                   or _run_dir(_out_root(None), config.run_tag, config.seed))
        run_dir = train(config, out_dir)
    print(f"run directory: {run_dir}")
    return EXIT_OK


def _parse_list(raw: str, conv):
    return [conv(v) for v in raw.split(",") if v != ""]


def cmd_eval(args) -> int:
    from .evaluate import evaluate
    modes = _parse_list(args.mode, str)
    terrains = _parse_list(args.terrains, str)
    levels = _parse_list(args.levels, int)
    seeds = _parse_list(args.seeds, int)
    out_dir = args.out or os.path.join(_out_root(None), "eval")
    report = evaluate(args.checkpoint, terrains, levels, seeds, args.episodes,
                      modes, out_dir=out_dir)
    for row in report["rows"]:
        print(f"{row['terrain']:>7} L{row['level']} {row['mode']:<22} "
              f"success={row['success_rate']:.2f} return={row['mean_return']:.2f}"
              f"±{row['std_return']:.2f} (n={row['sample_count']})")
    print(f"report written to {out_dir}")
    return EXIT_OK


def cmd_trace(args) -> int:
    from .evaluate import com_trace
    out_dir = args.out or os.path.join(_out_root(None), "trace")
    out_csv = os.path.join(out_dir, f"com_trace_{args.terrain}_L{args.level}"
                                    f"_s{args.seed}.csv")
    path = com_trace(args.checkpoint, args.terrain, args.level, args.seed, out_csv)
    print(f"trace written to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kinoplan", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train from a config file, or resume a run")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--resume", metavar="RUN_DIR")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--mode", default="policy_only",
                   help="comma-separated: policy_only, planner, planner_no_bootstrap")
    e.add_argument("--terrains", default="flat")
    e.add_argument("--levels", default="0")
    e.add_argument("--seeds", default="0")
    e.add_argument("--episodes", type=int, default=4)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("trace", help="predicted-vs-actual CoM height trace")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--terrain", required=True)
    r.add_argument("--level", type=int, default=0)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_trace)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArtifactMismatchError, DimensionError) as e:
        print(f"artifact mismatch: {e}", file=sys.stderr)
        return EXIT_ARTIFACT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
