"""Test-only helpers: a bounded-noise utility check for one threshold
instance and a worst-case coverage instance generator.

The test modules import this as ``support``; pytest puts ``tests/`` on the
import path because the directory is not a package.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from privstream.objectives import CoverageObjective
from privstream.streaming import _BLOCK_GATE, SparseInstance, _scan
from privstream.submodular import ObjectiveOracle, brute_force_opt


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
