"""Test-only helpers: an additive objective, randomized monotonicity,
submodularity and sensitivity probes, single-guess references for the
threshold passes, an exhaustive optimizer, a reader for the sweep's CSVs,
a bounded-noise utility check for one threshold instance and a worst-case
coverage instance generator.

The test modules import this as ``support``; pytest puts ``tests/`` on the
import path because the directory is not a package.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from privstream.experiment import _CSV_COLUMNS, CSV_HEADER
from privstream.objectives import CoverageObjective
from privstream.streaming import _BLOCK_GATE, SparseInstance, _check_k, _scan
from privstream.submodular import ObjectiveOracle


class ModularObjective(ObjectiveOracle):
    """Additive objective f(S) = sum of per-element non-negative weights."""

    def __init__(self, weights: dict):
        if any(w < 0 for w in weights.values()):
            raise ValueError("modular weights must be non-negative")
        self.weights = dict(weights)
        self.sensitivity = max(weights.values(), default=0.0)

    def evaluate(self, S) -> float:
        return float(sum(self.weights[e] for e in set(S)))


def marginal_gain(f: ObjectiveOracle, e, S) -> float:
    """Marginal gain of e over S, 0 when e is already in S."""
    state = f.make_state()
    for x in S:
        state.accept(x)
    return state.marginal(e)


@dataclass
class PropertyReport:
    """Outcome of randomized monotonicity/submodularity probing."""

    trials: int
    empty_value: float
    monotonicity_violations: list = field(default_factory=list)
    submodularity_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            abs(self.empty_value) <= 1e-12
            and not self.monotonicity_violations
            and not self.submodularity_violations
        )


def check_submodular_monotone(f: ObjectiveOracle, V, trials: int, rng) -> PropertyReport:
    """Probe random chains S subset T and e outside T for violations of
    monotonicity (marginal >= 0) and diminishing returns
    (marginal(e, T) <= marginal(e, S)), at 1e-9 relative tolerance.
    """
    V = list(V)
    if len(V) < 2:
        raise ValueError("need at least two elements to probe")
    report = PropertyReport(trials=trials, empty_value=f.evaluate(()))
    for _ in range(trials):
        size_t = int(rng.integers(0, len(V)))
        t_idx = rng.choice(len(V), size=size_t, replace=False) if size_t else []
        T = [V[i] for i in t_idx]
        keep = rng.random(size_t) < 0.5 if size_t else []
        S = [e for e, kept in zip(T, keep) if kept]
        outside = [e for e in V if e not in set(T)]
        if not outside:
            continue
        e = outside[int(rng.integers(0, len(outside)))]
        gain_s = marginal_gain(f, e, S)
        gain_t = marginal_gain(f, e, T)
        tol = 1e-9 * max(1.0, abs(gain_s), abs(gain_t))
        if gain_t < -tol or gain_s < -tol:
            report.monotonicity_violations.append((e, tuple(S), tuple(T), gain_s, gain_t))
        if gain_t > gain_s + tol:
            report.submodularity_violations.append((e, tuple(S), tuple(T), gain_s, gain_t))
    return report


def sensitivity_probe(builder, A, V, trials: int, rng) -> float:
    """Empirical lower bound on the sensitivity of the objective family.

    ``builder`` maps a data set to an oracle. Each trial forms a neighbor of
    A by dropping or duplicating one random record, samples a random subset
    of the element domain V, and records |f_A(S) - f_B(S)|; the max over
    trials is returned and must not exceed the declared sensitivity.
    """
    A = list(A)
    V = list(V)
    if not A:
        raise ValueError("data set must be non-empty")
    f_a = builder(A)
    worst = 0.0
    for _ in range(trials):
        i = int(rng.integers(0, len(A)))
        if rng.random() < 0.5 and len(A) > 1:
            B = A[:i] + A[i + 1:]
        else:
            B = A + [A[i]]
        f_b = builder(B)
        size = int(rng.integers(0, len(V) + 1))
        idx = rng.choice(len(V), size=size, replace=False) if size else []
        S = [V[j] for j in idx]
        worst = max(worst, abs(f_a.evaluate(S) - f_b.evaluate(S)))
    return worst


def threshold_stream(f: ObjectiveOracle, V, k: int, O: float) -> list:
    """One noiseless pass: accept e while |S| < k and f(e|S) >= O/(2k).

    The result satisfies f(S) >= min(O/2, f(OPT) - O/2).
    """
    _check_k(k)
    if not O > 0:
        raise ValueError(f"guess O must be positive, got {O}")
    state = f.make_state()
    bar = O / (2.0 * k)
    for e in V:
        if len(state) >= k:
            break
        if state.marginal(e) >= bar:
            state.accept(e)
    return state.selected


def per_guess_tail_fill(f: ObjectiveOracle, V, k: int, O: float) -> list:
    """One separate noiseless tail-fill pass for the single guess O of k:
    the reference for ``threshold_stream_with_tail_fill``'s sets."""
    V = list(V)
    state = f.make_state()
    bar = O / (2.0 * k)
    for i, e in enumerate(V):
        if len(state) >= k:
            break
        if len(V) - i <= k - len(state):
            if e not in state._selected_set:
                state.accept(e)
        elif state.marginal(e) >= bar:
            state.accept(e)
    return state.selected


_BRUTE_FORCE_LIMIT = 10**7


def brute_force_opt(f: ObjectiveOracle, V, k: int):
    """Exhaustive maximizer over all subsets of V of size at most k.

    Ties break toward smaller, lexicographically earlier (in stream order)
    subsets. Refuses instances where C(|V|, k) exceeds 10^7 rather than
    silently truncating.
    """
    V = list(V)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    k = min(k, len(V))
    if math.comb(len(V), k) > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"C({len(V)}, {k}) exceeds the enumeration guard of {_BRUTE_FORCE_LIMIT}"
        )
    best_set: tuple = ()
    best_value = f.evaluate(())
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(len(V)), size):
            value = f.evaluate(V[i] for i in combo)
            if value > best_value:
                best_value = value
                best_set = combo
    return [V[i] for i in best_set], best_value


def read_report_csv(path) -> dict[tuple[int, str], tuple[float, float]]:
    """Parse a file written by emit_csv back into {(k, column): (mean, std)}."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    out = {}
    names = [label for _, label in _CSV_COLUMNS]
    for line in lines[1:]:
        fields = line.split(",")
        k = int(fields[0])
        for j, label in enumerate(names):
            mean_s, std_s = fields[1 + 2 * j], fields[2 + 2 * j]
            if mean_s:
                out[(k, label)] = (float(mean_s), float(std_s))
    return out


class _BoundedUniformNoise:
    # Duck-typed stand-in source whose draws stay inside [lo, hi].
    kind = "bounded-uniform"

    def __init__(self, lo, hi, rng):
        self.lo = lo
        self.hi = hi
        self._rng = rng

    def draw(self) -> float:
        return self._rng.uniform(self.lo, self.hi)


def bounded_noise_utility_check(f: ObjectiveOracle, V, k: int, O: float,
                                a_l: float, a_u: float, b_l: float, b_u: float,
                                rng) -> bool:
    """Verify the utility floor of one noisy threshold instance under bounded
    noise: threshold noise in [a_l, a_u], score noise in [b_l, b_u].

    Every accepted element clears its check despite worst-case noise, giving
    f(S) >= O/2 - k*b_u + k*a_l when the instance fills, and every rejected
    optimum element was nearly worthless, giving
    f(S) >= f(OPT) - O/2 - k*max(a_u - b_l, 0) otherwise; the check asserts
    the min of both floors against the exact optimum. With zero-width bounds
    it is exactly the noiseless threshold guarantee.
    """
    if a_l > a_u or b_l > b_u:
        raise ValueError("noise bounds must be ordered: a_l <= a_u, b_l <= b_u")
    V = list(V)
    if len(V) >= _BLOCK_GATE:
        # The stand-in sources only draw(); the scan reads score noise in
        # blocks from real sources once one rung sees this many elements.
        raise ValueError(f"the stream must stay below {_BLOCK_GATE} elements")
    inst = SparseInstance(
        threshold=O / (2.0 * k),
        capacity=k,
        threshold_noise=_BoundedUniformNoise(a_l, a_u, rng),
        score_noise=_BoundedUniformNoise(b_l, b_u, rng),
    )
    (state,), _, _ = _scan(f, V, [inst], len(V))
    _, opt_value = brute_force_opt(f, V, k)
    floor = min(
        O / 2.0 - k * b_u + k * a_l,
        opt_value - O / 2.0 - k * max(a_u - b_l, 0.0),
    )
    achieved = state.value
    return achieved >= floor - 1e-9 * max(1.0, abs(floor))


@dataclass(frozen=True)
class HardCoverageInstance:
    """A worst-case coverage data set: a hidden k-subset repeated L times.

    The set family is all singletons of the universe, so the unique optimum
    covers exactly the hidden subset and achieves k*L.
    """

    universe: tuple
    target: tuple
    multiplicity: int
    dataset: tuple

    @property
    def opt_value(self) -> int:
        return len(self.target) * self.multiplicity

    def oracle(self) -> CoverageObjective:
        return CoverageObjective(self.dataset)


def generate_hard_instance(
    universe_size: int, k: int, epsilon: float, delta: float, c: float, rng
) -> HardCoverageInstance:
    """Sample a hard coverage instance for privacy/utility trade-off probing.

    The hidden target is a uniform k-subset of the universe and every target
    element is repeated L = ceil(ln(c*(e^eps - 1)/delta) / (2*eps)) times.
    Warns (does not fail) when the data set is smaller than the
    k*(e^eps - 1)/delta regime the hardness argument assumes. Note the
    hardness statement is sometimes quoted with e^eps and sometimes with
    e^(2*eps) constants; this generator uses the chain-of-neighbors form
    (2*eps exponent steps) throughout.
    """
    if not 1 <= k <= universe_size:
        raise ValueError(f"need 1 <= k <= universe_size, got k={k}, |U|={universe_size}")
    if not epsilon > 0 or not 0 < delta < 1 or not c > 0:
        raise ValueError("require epsilon > 0, delta in (0, 1), c > 0")
    multiplicity = max(1, math.ceil(math.log(c * math.expm1(epsilon) / delta) / (2 * epsilon)))
    if k * multiplicity < k * math.expm1(epsilon) / delta:
        warnings.warn(
            f"instance size k*L = {k * multiplicity} is below the hardness "
            f"regime k*(e^eps - 1)/delta = {k * math.expm1(epsilon) / delta:.1f}",
            stacklevel=2,
        )
    universe = tuple(range(universe_size))
    target = tuple(sorted(int(i) for i in rng.choice(universe_size, size=k, replace=False)))
    dataset = tuple(e for e in target for _ in range(multiplicity))
    return HardCoverageInstance(
        universe=universe, target=target, multiplicity=multiplicity, dataset=dataset
    )
