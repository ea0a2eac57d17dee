"""Command-line entry points: run sweeps, generate data, self-check."""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .accounting import PrivacyParams
from .data import synth_mixture
from .experiment import emit_csv, load_config, run_experiment
from .noise import GUMBEL, NoiseSource, private_argmax
from .objectives import coverage_oracle, kmedians_oracle
from .streaming import PssmConfig, build_guess_ladder, pssm, threshold_stream
from .submodular import check_submodular_monotone, sensitivity_probe


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
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("x,y\n")
        for x, y in cloud.points:
            handle.write(f"{float(x)!r},{float(y)!r}\n")
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


def _cmd_check(_args) -> int:
    rng = np.random.default_rng(20240)
    ok = True

    guesses = build_guess_ladder(1.0, 123.0, 0.3)
    xs = rng.uniform(1.0, 123.0, size=2000)
    covered = all(any(x <= g <= (1 + 0.3) * x + 1e-9 for g in guesses) for x in xs)
    ok &= _check("guess ladder covers [E, m]", covered, f"T={len(guesses)}")

    src = NoiseSource(GUMBEL, 1.0, seed=7)
    draws = np.array([src.draw() for _ in range(20000)])
    draws.sort()
    cdf = np.exp(-np.exp(-draws))
    grid = np.arange(1, len(draws) + 1) / len(draws)
    ks = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - grid + 1 / len(draws)))))
    ok &= _check("gumbel sampler matches closed-form CDF", ks < 0.015, f"KS={ks:.4f}")

    sel = NoiseSource(GUMBEL, 1.0, seed=11)  # 2*sens/eps at sens 1, eps 2
    wins = sum(private_argmax([0.0, math.log(3)], sel) for _ in range(40000)) / 40000
    ok &= _check("private argmax hits exponential-mechanism rates",
                 abs(wins - 0.75) < 0.02, f"p1={wins:.3f}")

    clients = rng.uniform(0, 10, size=(40, 2))
    cand_pts = [tuple(p) for p in rng.uniform(0, 10, size=(25, 2))]
    km = kmedians_oracle(clients, cand_pts)
    rep = check_submodular_monotone(km, cand_pts, 2000, rng)
    ok &= _check("k-medians oracle is monotone submodular", rep.passed,
                 f"{rep.trials} trials")

    records = [int(i) for i in rng.integers(0, 12, size=30)]
    probe = sensitivity_probe(coverage_oracle, records, list(range(12)), 300, rng)
    ok &= _check("coverage oracle sensitivity at most 1", probe <= 1 + 1e-9,
                 f"probe={probe:.3f}")

    cov = coverage_oracle(records)
    cfg = PssmConfig(k=3, theta=0.2, privacy=PrivacyParams(0.9, 1e-6),
                     noise_kind="zero", master_seed=1)
    selected, diag = pssm(cov, list(range(12)), cfg)
    best = max(cov.evaluate(threshold_stream(cov, list(range(12)), 3, g))
               for g in diag.guesses)
    ok &= _check("noiseless run reduces to best threshold pass",
                 cov.evaluate(selected) == best, f"value={best}")

    return 0 if ok else 1


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

    p_check = sub.add_parser("check", help="run the quick property suite")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
