"""Laplace/Gumbel noise sources and private argmax selection.

All samplers are inverse-CDF transforms of a seeded uniform stream, so a
(kind, seed) pair fully determines the sample sequence. The uniform engine
is a splitmix64 counter: the streaming algorithms spin up many short
independent streams (two per guess instance per run), and unlike the stdlib
Mersenne Twister this engine costs essentially nothing to construct while
passing the distributional test battery in the suite.

Randomness here is statistical, not cryptographic, and no floating-point
hardening (snapping etc.) is applied; see README for the caveats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

LAPLACE = "laplace"
GUMBEL = "gumbel"
ZERO_FOR_TEST = "zero"

_KINDS = (LAPLACE, GUMBEL, ZERO_FOR_TEST)

# Smallest/largest uniforms fed to the inverse CDFs; keeps log() finite.
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53

_MASK64 = (1 << 64) - 1

_log = math.log


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed (splitmix64 chain).

    Used to give every parallel noise stream an independent seed that is a
    pure function of (master_seed, instance_index, stream_tag), so results
    do not depend on scheduling order.
    """
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (int(p) & _MASK64)) & _MASK64
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


class NoiseSource:
    """A seeded scalar noise stream of a fixed kind, scale and location.

    ``zero`` sources always return their location (0 by default); they exist
    so the streaming algorithms can be exercised in their noiseless limit and
    are rejected by every budget constructor that reports a privacy guarantee.

    The uniform engine is a splitmix64 counter started at ``seed``, the
    :func:`derive_seed` mix of the constructor's seed parts. :meth:`spawn`
    derives a sibling stream by mixing further parts onto that seed, so
    ``NoiseSource(kind, scale, (a,)).spawn(b, c)`` draws exactly what
    ``NoiseSource(kind, scale, (a, b, c))`` draws.

    A source is single-consumer state: concurrent users must each own an
    independently seeded instance (derive seeds from a master seed and a
    consumer index). The pure functions in this module are freely shareable.
    """

    __slots__ = ("kind", "scale", "location", "seed", "_state")

    def __init__(self, kind: str, scale: float, seed, location: float = 0.0):
        _check_kind(kind, scale)
        self.kind = kind
        self.scale = float(scale)
        self.location = float(location)
        self.seed = self._state = derive_seed(seed) if isinstance(seed, int) else derive_seed(*seed)

    def spawn(self, *parts: int, kind: str | None = None, scale: float | None = None) -> NoiseSource:
        """A fresh stream seeded with this source's seed parts plus ``parts``.

        Mixes only the new parts onto the stored seed (not the current
        counter), and keeps this source's kind, scale and location unless
        ``kind`` or ``scale`` is given.
        """
        if kind is None and scale is None:
            kind, scale = self.kind, self.scale
        else:
            kind = self.kind if kind is None else kind
            scale = self.scale if scale is None else float(scale)
            _check_kind(kind, scale)
        x = self.seed
        for p in parts:
            x = ((x ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
            x ^= x >> 27
            x = (x * 0x94D049BB133111EB) & _MASK64
            x ^= x >> 31
        child = object.__new__(NoiseSource)
        child.kind = kind
        child.scale = scale
        child.location = self.location
        child.seed = child._state = x
        return child

    def uniform(self) -> float:
        """One uniform draw clamped to the open interval (0, 1)."""
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16  # top 53 bits * 2^-53
        if u < _U_LO:
            return _U_LO
        if u > _U_HI:
            return _U_HI
        return u

    def draw(self) -> float:
        """One draw from the source's own distribution.

        The counter step and the inverse CDF run inline: this is the engine's
        hot path. It computes exactly what ``uniform`` followed by
        :func:`sample_laplace` or :func:`sample_gumbel` computes.
        """
        kind = self.kind
        if kind == ZERO_FOR_TEST:
            return self.location
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16
        if u < _U_LO:
            u = _U_LO
        elif u > _U_HI:
            u = _U_HI
        if kind == GUMBEL:
            return self.location - self.scale * _log(-_log(u))
        u -= 0.5
        if u >= 0:
            return self.location + -self.scale * _log(1.0 - 2.0 * u)
        return self.location + self.scale * _log(1.0 + 2.0 * u)


def _check_kind(kind: str, scale: float) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if kind != ZERO_FOR_TEST and not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")


def sample_laplace(scale: float, source) -> float:
    """Draw from the two-sided Laplace distribution with mean 0.

    Inverse CDF: x = -scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|).
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if source.kind == ZERO_FOR_TEST:
        return 0.0
    u = source.uniform() - 0.5
    if u >= 0:
        return -scale * math.log(1.0 - 2.0 * u)
    return scale * math.log(1.0 + 2.0 * u)


def sample_gumbel(location: float, scale: float, source) -> float:
    """Draw from the Gumbel distribution via x = location - scale*ln(-ln u)."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if source.kind == ZERO_FOR_TEST:
        return location
    u = source.uniform()
    return location - scale * math.log(-math.log(u))


def gumbel_cdf(x: float, location: float = 0.0, scale: float = 1.0) -> float:
    """Gumbel CDF exp(-exp(-(x - location)/scale))."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    z = (x - location) / scale
    if z < -700.0:  # exp(-z) would overflow; the CDF is 0 in double precision
        return 0.0
    return math.exp(-math.exp(-z))


@dataclass(frozen=True)
class ScoredCandidate:
    """A selection-domain entry: public index plus private utility score."""

    index: int
    score: float


def private_argmax(candidates, epsilon: float, sensitivity: float, source) -> int:
    """Select a candidate index with exponential-mechanism probabilities.

    Adds Gumbel(0, 2*sensitivity/epsilon) noise to every score and returns
    the argmax. The induced selection distribution is exactly
    exp(eps*q/(2*sens)) / sum(...), i.e. the exponential mechanism, without
    ever exponentiating a large score. A ``zero`` source degenerates to the
    exact argmax with first-wins tie-breaking. Non-finite scores are rejected.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")

    exact = source.kind == ZERO_FOR_TEST
    scale = 2.0 * sensitivity / epsilon
    best_index = candidates[0].index
    best_value = -math.inf
    for cand in candidates:
        value = cand.score
        if not math.isfinite(value):
            raise ValueError(f"candidate {cand.index} has non-finite score {value}")
        if not exact:
            value += 0.0 - scale * _log(-_log(source.uniform()))  # sample_gumbel(0, scale)
        if value > best_value:
            best_value = value
            best_index = cand.index
    return best_index
