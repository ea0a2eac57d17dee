"""Benchmark sweep: four methods across k and epsilon grids, CSV output.

Each (method, k, epsilon, seed) cell solves the same k-medians instance;
cells are seeded independently from the master seed so any execution order
produces identical output files.
"""
from __future__ import annotations

import math
import time
import typing
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .accounting import ADVANCED, BASIC, PrivacyParams
from .data import PointCloud, load_points_csv, make_grid, synth_mixture
from .noise import GUMBEL, LAPLACE, derive_seed
from .objectives import kmedians_oracle
from .streaming import (
    PssmConfig,
    _is_int,
    build_guess_ladder,
    ladder_floor,
    pssm,
    threshold_stream_with_tail_fill,
)

METHODS = ("laplace", "gumbel", "nonprivate", "random")

_DATA_TAG = 101
_SHUFFLE_TAG = 102


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition; every field can be set from the config file or CLI."""

    dataset: str = "synthetic"
    components: int = 10
    points_per_component: int = 500
    box_side: float = 20.0
    csv_path: str | None = None
    x_column: str = "x"
    y_column: str = "y"
    max_rows: int | None = None
    grid_side: int = 30
    k_values: tuple[int, ...] = (5, 10, 20)
    epsilon_values: tuple[float, ...] = (0.1, 1.0)
    theta: float = 0.2
    delta: float | None = None  # None -> 1/|P|^1.5
    repetitions: int = 20
    composition: str = "basic"
    master_seed: int = 0
    methods: tuple[str, ...] = METHODS
    shuffle_stream: bool = False
    eta: float = 0.1
    out_dir: str = "results"
    prefix: str = ""

    def __post_init__(self):
        if self.dataset not in ("synthetic", "csv"):
            raise ValueError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ValueError("csv dataset requires csv_path")
        # Config files parse these with int(); code-built configs get the
        # same contract.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError(f"max_rows must be auto or at least 1, got {self.max_rows}")
        if not self.k_values or not all(_is_int(k) and k >= 1 for k in self.k_values):
            raise ValueError(f"k_values must be a non-empty list of integers >= 1, "
                             f"got {self.k_values}")
        if not self.epsilon_values or not all(
                math.isfinite(eps) and eps > 0 for eps in self.epsilon_values):
            raise ValueError(f"epsilon_values must be a non-empty list of finite "
                             f"values > 0, got {self.epsilon_values}")
        if len(set(self.k_values)) < len(self.k_values):
            raise ValueError(f"k_values must not repeat a value, got {self.k_values}")
        # Each epsilon names its CSV, so two sharing a label write one file.
        if len({format_eps(eps) for eps in self.epsilon_values}) < len(self.epsilon_values):
            raise ValueError(f"epsilon_values must not repeat a value or share a "
                             f"file label, got {self.epsilon_values}")
        if "/" in self.prefix or "\\" in self.prefix:
            raise ValueError(f"prefix must not contain a path separator, got {self.prefix!r}; "
                             f"set out_dir to choose the directory")
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.composition not in (BASIC, ADVANCED):
            raise ValueError(f"unknown composition mode {self.composition!r}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError(f"delta must be auto or lie in (0, 1), got {self.delta}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")


@dataclass
class CellStats:
    """Aggregated outcome of one (method, k, epsilon) cell.

    ``wall_time_s`` is the cell's own time, except that the first
    non-private cell to need them also times the sweep's best-singleton
    scan and each stream order's pass, which every (k, epsilon) shares.
    """

    method: str
    k: int
    epsilon: float
    mean_cost: float = math.nan
    std_cost: float = math.nan
    wall_time_s: float = 0.0
    n_seeds: int = 0
    resource_ok: bool = True
    error: str | None = None


@dataclass
class RunReport:
    """All cell statistics of one sweep plus the shared instance facts."""

    cells: list[CellStats] = field(default_factory=list)
    client_count: int = 0
    grid_points: int = 0
    delta: float = math.nan

    def cell(self, method: str, k: int, epsilon: float) -> CellStats | None:
        for c in self.cells:
            if c.method == method and c.k == k and c.epsilon == epsilon:
                return c
        return None

    @property
    def failed_cells(self) -> list[CellStats]:
        return [c for c in self.cells if c.error is not None]


def _load_clients(cfg: ExperimentConfig) -> PointCloud:
    if cfg.dataset == "csv":
        return load_points_csv(cfg.csv_path, cfg.x_column, cfg.y_column, cfg.max_rows)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, _DATA_TAG))
    return synth_mixture(cfg.components, cfg.points_per_component, cfg.box_side, rng)


def _build_stream(cfg: ExperimentConfig, clients: PointCloud) -> list[tuple[float, float]]:
    grid = make_grid(clients.bounding_box, cfg.grid_side)
    return list(map(tuple, grid.points.tolist()))  # Python floats, not numpy scalars


def _stream_for_rep(cfg: ExperimentConfig, base_stream: list, rep: int) -> list:
    # With shuffling on, every repetition streams the candidates in a fresh
    # seeded order, shared by all methods of that repetition, so reported
    # means average over stream orders instead of baking one order in.
    if not cfg.shuffle_stream:
        return base_stream
    rng = np.random.default_rng(derive_seed(cfg.master_seed, _SHUFFLE_TAG, rep))
    return [base_stream[i] for i in rng.permutation(len(base_stream))]


def _run_private(oracle, stream, cfg, method, k, epsilon, delta, seed):
    run_cfg = PssmConfig(
        k=k,
        theta=cfg.theta,
        privacy=PrivacyParams(epsilon, delta, cfg.composition),
        noise_kind=LAPLACE if method == "laplace" else GUMBEL,
        m_bound=oracle.num_agents,
        n_bound=len(stream),
        eta=cfg.eta,
        master_seed=seed,
    )
    selected, diag = pssm(oracle, stream, run_cfg)
    resource_ok = (
        diag.retained_total <= k * diag.num_guesses
        and diag.stream_length == len(stream)
    )
    return selected, resource_ok


def _best_singleton(oracle, stream, needed):
    # The max singleton value only caps E where it lies below ``needed``, so
    # the scan stops at the first singleton reaching it: min then returns
    # the same float as with the full max.
    best = None
    for e in stream:
        value = oracle.evaluate([e])
        if best is None or value > best:
            best = value
        if best >= needed:
            break
    return best


def _run_nonprivate(oracle, stream, cfg, best_singleton):
    """Solve the non-private baseline of every (k, epsilon) for one stream
    order.

    Each (k, epsilon) ladder starts at E = min(best singleton,
    k ln n / eps, m/2); the best-singleton cap gives it at least as many
    rungs as the private runs. Epsilon moves only E, so one threshold pass
    over the union of a k's ladders serves every epsilon, and one call of
    ``threshold_stream_with_tail_fill`` runs every k's union in the same
    pass. Returns ``{(k, epsilon): best set}``: each (k, epsilon) takes the
    argmax of its own ladder's sets, first wins in ascending order.
    """
    n, m = len(stream), float(oracle.num_agents)
    ladders = {
        (k, epsilon): build_guess_ladder(
            min(best_singleton, ladder_floor(k, epsilon, n, m)), m, cfg.theta)
        for k in cfg.k_values for epsilon in cfg.epsilon_values
    }
    unions = {k: sorted({O for epsilon in cfg.epsilon_values for O in ladders[k, epsilon]})
              for k in cfg.k_values}
    ladder_sets = threshold_stream_with_tail_fill(oracle, stream, unions)
    solved_by_guess = {(k, O): solved for k, sets in ladder_sets.items()
                       for O, solved in zip(unions[k], zip(sets, sets.values))}
    # max keeps the first of equal values.
    return {(k, epsilon): max((solved_by_guess[k, O] for O in guesses), key=itemgetter(1))[0]
            for (k, epsilon), guesses in ladders.items()}


def _run_random(stream, k, seed):
    if k >= len(stream):
        return list(stream)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(stream), size=k, replace=False)
    return [stream[i] for i in idx]


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run the full sweep. Infeasible cells are recorded with their error and
    the sweep continues; everything else is aggregated over the repetitions.
    """
    clients = _load_clients(cfg)
    stream = _build_stream(cfg, clients)
    delta = cfg.delta if cfg.delta is not None else 1.0 / len(clients) ** 1.5
    if not delta < 1 and {"laplace", "gumbel"} & set(cfg.methods):
        # Only the automatic delta of a one-client data set gets here.
        raise ValueError(
            f"the automatic delta 1/|P|^1.5 is {delta} for {len(clients)} client; "
            "private methods need delta in (0, 1), so set delta explicitly"
        )
    oracle = kmedians_oracle(clients.points, stream)

    report = RunReport(client_count=len(clients), grid_points=len(stream), delta=delta)
    # Every repetition streams the same elements, so one best singleton serves
    # the sweep; the first non-private cell finds it under its error isolation.
    needed = max(ladder_floor(k, epsilon, len(stream), oracle.num_agents)
                 for k in cfg.k_values for epsilon in cfg.epsilon_values)
    best_singleton = None
    # stream order -> {(k, epsilon): set} of the non-private pass.
    nonprivate = {}
    # Each repetition's stream order, shared by every cell.
    rep_streams = [_stream_for_rep(cfg, stream, rep) for rep in range(cfg.repetitions)]
    for method in METHODS:
        if method not in cfg.methods:
            continue
        method_idx = METHODS.index(method)
        for k_idx, k in enumerate(cfg.k_values):
            for eps_idx, epsilon in enumerate(cfg.epsilon_values):
                cell = CellStats(method=method, k=k, epsilon=epsilon)
                start = time.perf_counter()
                costs = []
                try:
                    for rep, rep_stream in enumerate(rep_streams):
                        seed = derive_seed(cfg.master_seed, method_idx, k_idx, eps_idx, rep)
                        if method == "nonprivate":
                            # Deterministic given data and order: one pass
                            # per stream order serves every (k, epsilon),
                            # and without shuffling every repetition too.
                            order = rep if cfg.shuffle_stream else 0
                            if order not in nonprivate:
                                if best_singleton is None:
                                    best_singleton = _best_singleton(oracle, stream, needed)
                                nonprivate[order] = _run_nonprivate(
                                    oracle, rep_stream, cfg, best_singleton)
                            S = nonprivate[order][k, epsilon]
                        elif method == "random":
                            S = _run_random(rep_stream, k, seed)
                        else:
                            S, ok = _run_private(
                                oracle, rep_stream, cfg, method, k, epsilon,
                                delta, seed,
                            )
                            cell.resource_ok = cell.resource_ok and ok
                        costs.append(oracle.clustering_cost(S))
                except Exception as exc:  # noqa: BLE001 - cell isolation
                    cell.error = f"{type(exc).__name__}: {exc}"
                else:
                    cell.mean_cost = float(np.mean(costs))
                    if len(costs) > 1 and max(costs) > min(costs):
                        cell.std_cost = float(np.std(costs, ddof=1))
                    else:
                        cell.std_cost = 0.0
                    cell.n_seeds = len(costs)
                cell.wall_time_s = time.perf_counter() - start
                report.cells.append(cell)
    return report


CSV_HEADER = "Params,Laplace,LaplaceEB,Ours,OursEB,Non-private,Non-privateEB,Random,RandomEB"

_CSV_COLUMNS = (("laplace", "Laplace"), ("gumbel", "Ours"),
                ("nonprivate", "Non-private"), ("random", "Random"))


def format_eps(epsilon: float) -> str:
    """Compact scientific label for file names: 0.1 -> '1E-1', 1.0 -> '1E0'."""
    mantissa, exponent = f"{epsilon:E}".split("E")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}E{int(exponent)}"


def emit_csv(report: RunReport, out_dir, prefix: str = "") -> list[Path]:
    """Write one plot-ready CSV per epsilon; returns the paths written.

    Rows are k values; per method the columns carry mean cost and its
    standard deviation, empty when the method was not run (or failed).
    """
    if not report.cells:
        raise ValueError("cannot emit an empty report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    epsilons = sorted({c.epsilon for c in report.cells})
    ks = sorted({c.k for c in report.cells})
    paths = []
    for epsilon in epsilons:
        path = out_dir / f"{prefix}eps_{format_eps(epsilon)}.csv"
        lines = [CSV_HEADER]
        for k in ks:
            row = [str(k)]
            for method, _ in _CSV_COLUMNS:
                cell = report.cell(method, k, epsilon)
                if cell is None or cell.error is not None or cell.n_seeds == 0:
                    row += ["", ""]
                else:
                    row += [repr(cell.mean_cost), repr(cell.std_cost)]
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_INT_FIELDS = [name for name, kind in _FIELD_TYPES.items() if kind in (int, int | None)]
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_value(key: str, raw: str):
    """Parse one raw config value by the type of its ExperimentConfig field."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown config key {key!r}")
    raw = raw.strip()
    args = typing.get_args(kind)
    if type(None) in args:
        if raw.lower() == "auto":  # unset; for delta that is 1/|P|^1.5
            return None
        kind = args[0]
    if kind is bool:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"{key} must be a boolean, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    try:
        if typing.get_origin(kind) is tuple:
            return tuple(args[0](part.strip()) for part in raw.split(",") if part.strip())
        return kind(raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config format (# starts a comment)."""
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key in lines:
            raise ValueError(f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        values[key] = _parse_value(key, raw)
    return values


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config file and apply ``key=value`` overrides on top."""
    values = parse_config_text(Path(path).read_text(encoding="utf-8"))
    if overrides:
        for key, raw in overrides.items():
            values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)
