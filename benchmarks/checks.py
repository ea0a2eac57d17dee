"""Output checks that recompute what they need from public inputs.

Nothing here calls privstream: distances, the normalizer G, greedy values,
ladders and noise scales are recomputed with plain numpy and the closed-form
formulas, so a fault in the program cannot also hide in its own check.
"""
from __future__ import annotations

import math

import numpy as np

# The header documented in the README for every sweep CSV.
CSV_HEADER = "Params,Laplace,LaplaceEB,Ours,OursEB,Non-private,Non-privateEB,Random,RandomEB"
CSV_METHODS = ("Laplace", "Ours", "Non-private", "Random")

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def l1_normalizer(clients: np.ndarray, grid: np.ndarray) -> float:
    """G: the L1 diameter of the joint bounding box of clients and grid."""
    points = np.vstack([clients, grid])
    return float((points.max(axis=0) - points.min(axis=0)).sum())


def desk_grid(clients: np.ndarray, side: int) -> np.ndarray:
    """The side x side grid over the clients' bounding box, row-major."""
    lo = clients.min(axis=0)
    hi = clients.max(axis=0)
    xs = np.linspace(lo[0], hi[0], side)
    ys = np.linspace(lo[1], hi[1], side)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def set_value(clients: np.ndarray, chosen, G: float) -> float:
    """f(S) = |P| - sum_p min_{v in S} d1(p, v) / G, with d(p, empty) = G."""
    dmin = np.full(len(clients), G)
    for v in chosen:
        np.minimum(dmin, np.abs(clients - np.asarray(v, dtype=float)).sum(axis=1), out=dmin)
    return float(len(clients) - dmin.sum() / G)


def greedy_bounds(clients: np.ndarray, grid: np.ndarray, G: float, k_max: int):
    """Greedy over the grid: for j = 1..k_max, f(greedy_j) and an upper bound
    on OPT_j, f(greedy_j) plus its j largest marginal gains (submodularity:
    f(OPT) <= f(S) + sum over OPT of f(e | S)). Builds the dense matrix."""
    dist = (np.abs(clients[:, None, 0] - grid[None, :, 0])
            + np.abs(clients[:, None, 1] - grid[None, :, 1]))
    dmin = np.full(len(clients), G)
    gains = np.maximum(dmin[:, None] - dist, 0.0).sum(axis=0) / G
    lows, highs = [], []
    for j in range(1, k_max + 1):
        np.minimum(dmin, dist[:, int(np.argmax(gains))], out=dmin)
        gains = np.maximum(dmin[:, None] - dist, 0.0).sum(axis=0) / G
        value = float(len(clients) - dmin.sum() / G)
        lows.append(value)
        highs.append(value + float(np.sort(gains)[-j:].sum()))
    return lows, highs


def parse_sweep_csv(text: str, k_values) -> dict:
    """Parse one sweep CSV into {k: {method: (mean, std)}}; every cell filled."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == CSV_HEADER, f"bad CSV header {lines[:1]!r}")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        _require(len(fields) == 1 + 2 * len(CSV_METHODS), f"bad CSV row {line!r}")
        cells = {}
        for j, method in enumerate(CSV_METHODS):
            mean_s, std_s = fields[1 + 2 * j], fields[2 + 2 * j]
            _require(bool(mean_s) and bool(std_s), f"empty {method} cell in row {line!r}")
            cells[method] = (float(mean_s), float(std_s))
        rows[int(fields[0])] = cells
    _require(sorted(rows) == sorted(k_values),
             f"CSV rows {sorted(rows)} do not match k values {sorted(k_values)}")
    return rows


def check_sweep(csv_texts: dict, epsilon_values, k_values, theta: float, repetitions: int,
                clients: np.ndarray, grid: np.ndarray) -> None:
    """Check the sweep CSVs ({file name: text}) against the instance.

    Every mean cost lies in (0, |P| G], and its value f = |P| - cost/G is at
    most the greedy upper bound on OPT_k, since every method returns at most
    k elements. The non-private ladder's mean value clears
    OPT/(2(1+theta)) >= f(greedy)/(2(1+theta)): its first rung E is at most
    the best singleton, so some rung O lies in [OPT/(1+theta), OPT] and that
    rung alone reaches min(O/2, OPT - O/2). One repetition has std 0.
    """
    labels = {name: float(name.rsplit("eps_", 1)[1][:-len(".csv")]) for name in csv_texts}
    _require(sorted(labels.values()) == sorted(float(e) for e in epsilon_values),
             f"CSV files {sorted(csv_texts)} do not match epsilons {list(epsilon_values)}")
    G = l1_normalizer(clients, grid)
    greedy, opt_bound = greedy_bounds(clients, grid, G, max(k_values))
    ceiling = len(clients) * G
    for name, text in csv_texts.items():
        for k, cells in parse_sweep_csv(text, k_values).items():
            for method, (mean, std) in cells.items():
                _require(0.0 < mean <= ceiling * (1 + REL_TOL),
                         f"{name} k={k} {method}: mean cost {mean} outside (0, {ceiling}]")
                _require(math.isfinite(std) and std >= 0.0 and (repetitions > 1 or std == 0.0),
                         f"{name} k={k} {method}: bad std {std} over {repetitions} repetitions")
                value = len(clients) - mean / G
                _require(value <= opt_bound[k - 1] * (1 + REL_TOL),
                         f"{name} k={k} {method}: value {value:.6f} above the bound "
                         f"{opt_bound[k - 1]:.6f} on any {k}-set")
            value = len(clients) - cells["Non-private"][0] / G
            floor = greedy[k - 1] / (2.0 * (1.0 + theta))
            _require(value >= floor * (1 - REL_TOL),
                     f"{name} k={k}: non-private value {value:.6f} below the threshold "
                     f"guarantee {floor:.6f} (greedy {greedy[k - 1]:.6f})")


def ladder(k: int, epsilon: float, n: int, m: float, theta: float) -> tuple[float, float]:
    """The ladder's first rung E = min(k ln n / eps, m/2) and its top rung m."""
    return min(k * math.log(max(n, 2)) / epsilon, m / 2.0), float(m)


def noise_scale(kind: str, composition: str, k: int, epsilon: float, delta: float, T: int) -> float:
    """Per-instance noise scale from the closed-form calibration.

    Half of epsilon pays for the T threshold instances (basic: an even split
    of (eps/2, delta); advanced: eps' = eps/(4 sqrt(2T ln((T+1)/delta))),
    delta' = delta/(T+1)). Laplace: sqrt(32 k ln(1/delta'))/eps'. Gumbel:
    8/(eps' ln 2) ln(2/(eps' delta')).
    """
    if composition == "basic":
        eps_i, delta_i = epsilon / 2.0 / T, delta / T
    else:
        eps_i = epsilon / (4.0 * math.sqrt(2.0 * T * math.log((T + 1) / delta)))
        delta_i = delta / (T + 1)
    if kind == "laplace":
        return math.sqrt(32.0 * k * math.log(1.0 / delta_i)) / eps_i
    return 8.0 / (eps_i * math.log(2.0)) * math.log(2.0 / (eps_i * delta_i))


def check_private_run(selected, diag, *, kind: str, composition: str, k: int, epsilon: float,
                      delta: float, theta: float, m: float, stream, clients: np.ndarray,
                      G: float) -> None:
    """Check one pssm output and its diagnostics against public inputs."""
    n = len(stream)
    _require(len(selected) <= k, f"|S| = {len(selected)} exceeds k = {k}")
    _require(len(set(selected)) == len(selected), f"repeated elements in {selected}")
    members = set(stream)
    _require(all(e in members for e in selected), f"elements outside the stream in {selected}")

    guesses = tuple(diag.guesses)
    T = len(guesses)
    _require(diag.stream_length == n, f"stream_length {diag.stream_length} != n = {n}")
    _require(diag.retained_total <= k * T, f"retained_total {diag.retained_total} > k T = {k * T}")
    _require(diag.marginal_calls <= T * n, f"marginal_calls {diag.marginal_calls} > T n = {T * n}")
    _require(len(diag.per_guess_sizes) == T and len(diag.per_guess_values) == T,
             "per-guess records do not match the ladder")
    _require(all(0 <= s <= k for s in diag.per_guess_sizes), f"rung sizes {diag.per_guess_sizes}")

    E, top = ladder(k, epsilon, n, m, theta)
    _require(_close(diag.lower_estimate, E), f"E = {diag.lower_estimate}, expected {E}")
    _require(_close(guesses[-1], top), f"top rung {guesses[-1]}, expected m = {top}")
    if E < top:
        _require(_close(guesses[0], E), f"first rung {guesses[0]}, expected E = {E}")
    for lo, hi in zip(guesses, guesses[1:]):
        _require(lo < hi <= lo * (1.0 + theta) * (1 + REL_TOL),
                 f"rungs {lo} -> {hi} break the ratio 1 + theta = {1 + theta}")

    scale = diag.budget.laplace_scale if kind == "laplace" else diag.budget.gumbel_scale
    expected = noise_scale(kind, composition, k, epsilon, delta, T)
    _require(scale is not None and _close(scale, expected),
             f"{kind} scale {scale}, expected {expected}")

    chosen = diag.chosen_index
    _require(0 <= chosen < T, f"chosen index {chosen} outside the ladder")
    value = set_value(clients, selected, G)
    _require(_close(value, diag.per_guess_values[chosen]),
             f"f(S) = {value}, reported {diag.per_guess_values[chosen]}")


def check_audit(counts_a: dict, counts_b: dict, runs: int, epsilon: float, delta: float,
                stream, k: int) -> float:
    """Criterion 9's frequency-ratio bound between two neighbouring data sets.

    counts map frozenset outputs to frequencies over ``runs`` runs each. Every
    output frequency p must stay within e^eps * 1.15 times its neighbour's q,
    plus delta and a 4-sigma Monte-Carlo margin on both estimates. Returns the
    worst slack-adjusted ratio seen.
    """
    bound = math.exp(epsilon) * 1.15
    members = set(stream)
    for counts in (counts_a, counts_b):
        _require(sum(counts.values()) == runs, f"frequencies sum to {sum(counts.values())}, not {runs}")
        for key in counts:
            _require(len(key) <= k and key <= members, f"impossible output {sorted(key)}")
    worst = 0.0
    for key in set(counts_a) | set(counts_b):
        pa = counts_a.get(key, 0) / runs
        pb = counts_b.get(key, 0) / runs
        for p, q in ((pa, pb), (pb, pa)):
            slack = (delta + 4.0 * math.sqrt(p * (1 - p) / runs)
                     + 4.0 * bound * math.sqrt(q * (1 - q) / runs) + 10.0 / runs)
            _require(p <= bound * q + slack,
                     f"output {sorted(key)}: frequency {p:.5f} vs neighbour {q:.5f} "
                     f"breaks e^eps*1.15 = {bound:.3f} at {runs} runs")
            if q > 0 and p > slack:
                worst = max(worst, (p - slack) / q)
    return worst
