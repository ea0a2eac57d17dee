"""Laplace/Gumbel noise sources and private argmax selection.

:meth:`NoiseSource.draw` is the one sampler: an inverse-CDF transform of a
seeded uniform stream, so a (kind, seed) pair fully determines the sample
sequence. The uniform engine is a splitmix64 counter: the streaming
algorithms spin up many short independent streams (two per guess instance
per run), and unlike the stdlib Mersenne Twister this engine costs
essentially nothing to construct while passing the distributional test
battery in the suite. The private selection is no separate sampler either:
:func:`private_argmax` adds one draw of a Gumbel source of scale
2*sens/(eps/2) to each rung's value (``pssm`` spends half its epsilon on it).

Randomness here is statistical, not cryptographic, and no floating-point
hardening (snapping etc.) is applied; see README for the caveats.
"""
from __future__ import annotations

import math

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
    return _mix(0x9E3779B97F4A7C15, parts)


def _mix(x: int, parts) -> int:
    # x < 2^64 and p & _MASK64 < 2^64, so their XOR needs no further mask.
    for p in parts:
        x = ((x ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


class NoiseSource:
    """A seeded scalar noise stream of a fixed kind and scale.

    ``zero`` sources always return 0; they exist so the streaming algorithms
    can be exercised in their noiseless limit and are rejected by every
    budget constructor that reports a privacy guarantee.

    The uniform engine is a splitmix64 counter started at ``seed``, the
    :func:`derive_seed` mix of the constructor's seed parts. :meth:`spawn`
    derives a sibling stream by mixing further parts onto that seed, so
    ``NoiseSource(kind, scale, (a,)).spawn(b, c)`` draws exactly what
    ``NoiseSource(kind, scale, (a, b, c))`` draws.

    A source is single-consumer state: concurrent users must each own an
    independently seeded instance (derive seeds from a master seed and a
    consumer index). The pure functions in this module are freely shareable.
    """

    __slots__ = ("kind", "scale", "seed", "_state")

    def __init__(self, kind: str, scale: float, seed):
        _check_kind(kind, scale)
        self.kind = kind
        self.scale = float(scale)
        self.seed = self._state = derive_seed(seed) if isinstance(seed, int) else derive_seed(*seed)

    def spawn(self, *parts: int, kind: str | None = None, scale: float | None = None) -> NoiseSource:
        """A fresh stream seeded with this source's seed parts plus ``parts``.

        Mixes only the new parts onto the stored seed (not the current
        counter), and keeps this source's kind and scale unless ``kind`` or
        ``scale`` is given.
        """
        if kind is None and scale is None:
            kind, scale = self.kind, self.scale
        else:
            kind = self.kind if kind is None else kind
            scale = self.scale if scale is None else float(scale)
            _check_kind(kind, scale)
        child = object.__new__(NoiseSource)
        child.kind = kind
        child.scale = scale
        child.seed = child._state = _mix(self.seed, parts)
        return child

    def draw(self) -> float:
        """One draw from the source's own distribution.

        One splitmix64 counter step gives a uniform u clamped into (0, 1);
        the inverse CDF maps it to -scale*ln(-ln u) (Gumbel) or
        -scale*sign(u - 1/2)*ln(1 - 2|u - 1/2|) (Laplace).
        """
        kind = self.kind
        if kind == ZERO_FOR_TEST:
            return 0.0
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16
        if u < _U_LO:
            u = _U_LO
        elif u > _U_HI:
            u = _U_HI
        if kind == GUMBEL:
            return -self.scale * _log(-_log(u))
        u -= 0.5
        if u >= 0:
            return -self.scale * _log(1.0 - 2.0 * u)
        return self.scale * _log(1.0 + 2.0 * u)


def _check_kind(kind: str, scale: float) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if kind != ZERO_FOR_TEST and not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")


def private_argmax(scores, source) -> int:
    """Index of the largest ``score + source.draw()``, first wins on ties.

    With a Gumbel source of scale 2*sensitivity/epsilon this is the
    exponential mechanism: index i wins with probability
    exp(eps*q_i/(2*sens)) / sum(...), without ever exponentiating a large
    score. A ``zero`` source gives the exact argmax. Empty or non-finite
    scores are rejected.
    """
    scores = list(scores)
    if not scores:
        raise ValueError("scores must be non-empty")
    best_index, best_value = 0, -math.inf
    for i, q in enumerate(scores):
        if not math.isfinite(q):
            raise ValueError(f"scores must be finite, got {q} at index {i}")
        value = q + source.draw()
        if value > best_value:
            best_index, best_value = i, value
    return best_index
