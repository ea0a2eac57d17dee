"""Laplace/Gumbel noise sources and private argmax selection.

Every sample is an inverse-CDF transform of a seeded uniform stream, so a
(kind, seed) pair fully determines the sample sequence. The uniform engine
is a splitmix64 counter: the streaming algorithms spin up many short
independent streams (two per guess instance per run), and unlike the stdlib
Mersenne Twister this engine costs essentially nothing to construct while
passing the distributional test battery in the suite. Because it is a
counter, the j-th draw of a stream is a pure function of (seed, j):
:meth:`NoiseSource.draw` takes one step, and :func:`draw_block` takes the
next ``count`` steps of several streams at once as numpy ``uint64``
arithmetic, returning exactly what ``count`` calls of ``draw()`` on each
would. Both apply the inverse CDF with ``math.log``; numpy's ``log``,
off in the last bit on about 0.35% of inputs, gives
:func:`draw_block_approx`'s values, each with the uniform that
:func:`inverse_cdf` maps to the exact draw. The private selection is no
separate sampler either: :func:`private_argmax` adds one draw of a Gumbel
source of scale 2*sens/(eps/2) to each rung's value (``pssm`` spends half
its epsilon on it).

Randomness here is statistical, not cryptographic, and no floating-point
hardening (snapping etc.) is applied; see README for the caveats.
"""
from __future__ import annotations

import math

import numpy as np

LAPLACE = "laplace"
GUMBEL = "gumbel"
ZERO_FOR_TEST = "zero"

_KINDS = (LAPLACE, GUMBEL, ZERO_FOR_TEST)

# Smallest uniform fed to the inverse CDFs; keeps log() finite. The largest
# uniform a counter step gives is (2^53 - 1) * 2^-53 = 1 - 2^-53 < 1.
_U_LO = 2.0 ** -53

_MASK64 = (1 << 64) - 1
_STEP = 0x9E3779B97F4A7C15  # splitmix64's counter increment

# draw_block_approx's draws are less than APPROX_SLACK * scale off the exact
# ones: a draw is at most 37 * scale in size (ln 2^-53 = -36.7), numpy 2.4's
# log on x86-64 was at most 1 ulp off there, and the tests ask 2^-40 * scale.
APPROX_SLACK = 2.0 ** -30

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

        One splitmix64 counter step gives a uniform u in [2^-53, 1) (a 0 is
        raised to 2^-53); the inverse CDF maps it to -scale*ln(-ln u)
        (Gumbel) or -scale*sign(u - 1/2)*ln(1 - 2|u - 1/2|) (Laplace).
        """
        kind = self.kind
        if kind == ZERO_FOR_TEST:
            return 0.0
        z = self._state = (self._state + _STEP) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16
        if u < _U_LO:
            u = _U_LO
        if kind == GUMBEL:
            return -self.scale * _log(-_log(u))
        u -= 0.5
        if u >= 0:
            return -self.scale * _log(1.0 - 2.0 * u)
        return self.scale * _log(1.0 + 2.0 * u)


def draw_block(sources, count: int) -> list[list[float]]:
    """The next ``count`` draws of each source, one list per source.

    Equals ``count`` calls of :meth:`NoiseSource.draw` on each source bit
    for bit, and advances each source by ``count`` (a ``zero`` source, whose
    ``draw()`` keeps no counter, gives zeros). The sources must share one
    kind and scale. The counter steps and the finalizer run as numpy
    ``uint64`` arithmetic, which wraps modulo 2^64 as draw()'s masks do; the
    inverse CDF applies ``math.log`` to each value, and its other steps are
    single IEEE operations that numpy rounds as Python does.
    """
    return _block(sources, count, _exact_log)[0]


def draw_block_approx(sources, count: int) -> tuple[list[list[float]], list[list]]:
    """(values, uniforms): :func:`draw_block`'s draws with numpy's ``log``,
    less than ``APPROX_SLACK * scale`` off, and the uniforms of the exact
    draws. Zero sources, and scales at which the slack could underflow or a
    draw overflow, give exact draws and None for uniforms."""
    if sources[0].kind == ZERO_FOR_TEST or not 2.0 ** -900 < sources[0].scale < 2.0 ** 900:
        return draw_block(sources, count), [[None] * count for _ in sources]
    values, u = _block(sources, count, np.log)
    return values, u.tolist()


def inverse_cdf(kind: str, scale: float, u: float) -> float:
    """The draw of a ``kind`` source of scale ``scale`` at the uniform ``u``.
    draw() inlines the same lines: the call would add ~6% to a scalar draw."""
    if kind == GUMBEL:
        return -scale * _log(-_log(u))
    u -= 0.5
    if u >= 0:
        return -scale * _log(1.0 - 2.0 * u)
    return scale * _log(1.0 + 2.0 * u)


def _block(sources, count: int, log):
    # (draws, uniforms) of the sources' next count steps, the draws through
    # inverse_cdf with ``log`` for ln; zero sources give zeros and None.
    kind, scale = sources[0].kind, sources[0].scale
    if any(s.kind != kind or s.scale != scale for s in sources):
        raise ValueError("a block's sources must share one kind and scale")
    if kind == ZERO_FOR_TEST:
        return [[0.0] * count for _ in sources], None
    z = np.array([s._state for s in sources], dtype=np.uint64)[:, None]
    z = z + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_STEP)
    advance = count * _STEP
    for s in sources:
        s._state = (s._state + advance) & _MASK64
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    z >>= 11
    u = np.maximum(z, 1, out=z) * 1.1102230246251565e-16  # a 0 becomes _U_LO
    if kind == GUMBEL:
        return (-scale * log(-log(u))).tolist(), u
    # 1 - 2|u - 1/2| is the argument of both of inverse_cdf's Laplace logs.
    return (np.where(u >= 0.5, -scale, scale) * log(1.0 - 2.0 * np.abs(u - 0.5))).tolist(), u


def _exact_log(x):
    # np.vectorize(math.log) read 2-4% slower on private_sweep than this map.
    return np.fromiter(map(_log, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


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
