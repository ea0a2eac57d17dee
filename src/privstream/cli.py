"""Command-line entry points: run sweeps and generate data."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import synth_mixture
from .experiment import emit_csv, load_config, run_experiment


def _cmd_run(args) -> int:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    cfg = load_config(args.config, overrides)
    report = run_experiment(cfg)
    paths = emit_csv(report, cfg.out_dir, cfg.prefix)
    print(f"clients={report.client_count} grid={report.grid_points} "
          f"delta={report.delta:.3e}")
    print(f"{'method':<12}{'k':>4}{'eps':>8}{'mean cost':>16}{'std':>12}{'time(s)':>10}")
    for cell in report.cells:
        if cell.error:
            print(f"{cell.method:<12}{cell.k:>4}{cell.epsilon:>8g}  FAILED: {cell.error}")
        else:
            print(f"{cell.method:<12}{cell.k:>4}{cell.epsilon:>8g}"
                  f"{cell.mean_cost:>16.1f}{cell.std_cost:>12.1f}"
                  f"{cell.wall_time_s:>10.2f}")
    for path in paths:
        print(f"wrote {path}")
    if report.failed_cells:
        print(f"{len(report.failed_cells)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_gen_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    cloud = synth_mixture(args.components, args.points_per_component, args.box_side, rng)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("x,y\n")
        for x, y in cloud.points:
            handle.write(f"{float(x)!r},{float(y)!r}\n")
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="privstream",
        description="Differentially private streaming submodular maximization benchmark",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("config", help="path to a flat key = value config file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field (repeatable)")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-synth", help="write a synthetic client CSV")
    p_gen.add_argument("--components", type=int, default=10)
    p_gen.add_argument("--points-per-component", type=int, default=500)
    p_gen.add_argument("--box-side", type=float, default=20.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
