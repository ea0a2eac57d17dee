"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 benchmarks/run.py --workload desk_sweep --seed 1 --seconds 30 --trace 0

Each run is a closed loop in one process and one thread: the next solver run
starts when the previous one returns. With ``--trace 0`` it prints the
end-to-end metrics (setup_s, runs_per_s, peak_rss_mb); with ``--trace 1`` it
prints the per-layer metrics from a separate traced phase and writes the
spans to benchmarks/out/. See benchmarks/README.md.
"""
from __future__ import annotations

import os

# One thread: no BLAS thread pool, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# Modules that import numpy or privstream (workloads, calibration, layers)
# are imported inside functions: a set-up sample must time those imports.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("desk_sweep", "private_sweep", "privacy_audit")
SETUP_SAMPLES = 7        # fresh processes timed per run for setup_s
REF_SHARE = 0.1          # reference timing after a round, as a share of the round
REF_MIN_S = 0.01
SETUP_REF_S = 0.05


def _require_program() -> None:
    missing = [p for p in (SRC / "privstream" / "__init__.py", ROOT / "configs" / "desk_scale.cfg")
               if not p.is_file()]
    if missing:
        sys.exit(f"benchmark: program files missing: {', '.join(map(str, missing))}")
    sys.path.insert(0, str(SRC))


def _import_workloads():
    import workloads

    where = Path(sys.modules["privstream"].__file__).resolve()
    if SRC not in where.parents:
        sys.exit(f"benchmark: privstream imported from {where}, not from {SRC}")
    return workloads


def _setup_child(name: str, seed: int) -> None:
    start = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[name]().setup(seed)
    wall = time.perf_counter() - start
    import calibration

    print(repr(calibration.to_reference(wall, calibration.unit_seconds(SETUP_REF_S))))


def _setup_seconds(name: str, seed: int) -> float:
    """Median set-up time, in reference seconds, over fresh processes run
    one after another: a single process's import time alone spreads by
    up to 50%."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _timed_rounds(workload, state, seconds: float = math.inf, rounds: int | None = None,
                  tracer=None):
    """Whole rounds until ``seconds`` have passed, or ``rounds`` rounds ran;
    returns (median runs/s, runs, rounds).

    Each round's rate is in reference seconds (see calibration.py), from
    reference timings taken right before and right after the round.
    """
    import calibration

    round_fn = workload.round if tracer is None else tracer.traced(
        workload.round, "bench.round", span=True)
    rates = []
    runs = 0
    before = calibration.unit_seconds(REF_MIN_S)
    start = time.perf_counter()
    while (len(rates) < rounds) if rounds else (time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        n = round_fn(state)
        wall = time.perf_counter() - t0
        after = calibration.unit_seconds(max(REF_MIN_S, REF_SHARE * wall))
        rates.append(n / calibration.to_reference(wall, (before + after) / 2.0))
        before = after
        runs += n
        if tracer is not None:
            tracer.count("bench.runs", n)
    return statistics.median(rates), runs, len(rates)


def _run_plain(workloads, name: str, seed: int, seconds: float):
    setup_s = _setup_seconds(name, seed)
    workload = workloads.WORKLOADS[name]()
    state = workload.setup(seed)
    runs_per_s, attempted, _ = _timed_rounds(workload, state, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checks
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "runs_per_s": {"value": runs_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return metrics, attempted, state.failed, [(workload, state)]


def _run_traced(workloads, name: str, seed: int, seconds: float):
    import layers
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]()
    plain_state = workload.setup(seed)
    plain_rps, attempted, rounds = _timed_rounds(workload, plain_state, seconds / 2)

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        tracer.scope = name
        state = workload.setup(seed)
        # The same rounds again, traced, so the overhead compares equal work.
        traced_rps, traced_runs, _ = _timed_rounds(workload, state, rounds=rounds, tracer=tracer)
        attempted += traced_runs
        failed = plain_state.failed + state.failed
        # One round of each other workload, for the layers this one never calls.
        checked = [(workload, plain_state), (workload, state)]
        for other in NAMES:
            if other == name:
                continue
            tracer.scope = other
            aux = workloads.WORKLOADS[other]()
            aux_state = aux.setup(seed)
            tracer.count("bench.runs", aux.round(aux_state))
            checked.append((aux, aux_state))
    finally:
        tracer.restore()

    scopes = [name] + [other for other in NAMES if other != name]
    metrics, sources = layers.layer_metrics(tracer, scopes)
    metrics["trace.runs_per_s"] = {"value": traced_rps, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {"value": (plain_rps / traced_rps - 1.0) * 100.0, "unit": "%"}
    out = workloads.OUT_DIR / f"trace-{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out, metrics, sources)
    print(f"trace written to {out.relative_to(ROOT)}", file=sys.stderr)
    return metrics, attempted, failed, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _require_program()
    if args.setup_child:
        _setup_child(args.workload, args.seed)
        return 0

    workloads = _import_workloads()
    from checks import CheckFailed

    run = _run_traced if args.trace else _run_plain
    metrics, attempted, failed, checked = run(workloads, args.workload, args.seed, args.seconds)
    correct = True
    for workload, state in checked:
        try:
            workload.check(state)
        except CheckFailed as exc:
            print(f"check failed ({workload.name}): {exc}", file=sys.stderr)
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
