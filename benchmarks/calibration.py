"""Reference seconds: wall time corrected for how fast the host runs right now.

The benchmark host is shared, and its speed drifts by 20-50% within minutes:
the same fixed loop took 14 ms and, a minute later, 22 ms. A throughput
timed on such a host moves with the neighbours, not with the program. So
every interval the benchmark reports is bracketed by timings of a fixed
reference unit (benchmark code that never changes with the program: a
pure-Python loop and small numpy reductions, like the program's own mix),
and converted to reference seconds:

    reference_s = wall_s * REF_UNIT_S / (measured seconds per reference unit)

REF_UNIT_S is the reference unit's median time on the 2-core host the
benchmark was written on, so reference seconds read close to wall seconds
there. A program change moves the interval and not the reference, so it
shows in full.
"""
from __future__ import annotations

import time

import numpy as np

REF_UNIT_S = 0.0008

_A = np.linspace(0.0, 1.0, 5000)
_B = _A[::-1].copy()


def _reference_unit() -> float:
    acc = 0
    table = {}
    for i in range(1500):
        acc += (i * 2654435761) % 1000003
        table[i & 63] = acc
    total = 0.0
    for _ in range(40):
        total += float(np.maximum(_A - _B, 0.0).sum())
    return acc + total


def unit_seconds(budget_s: float) -> float:
    """Seconds per reference unit, timed over whole units for about budget_s."""
    _reference_unit()  # first calls warm numpy's dispatch
    units = 0
    start = time.perf_counter()
    while True:
        _reference_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / units


def to_reference(wall_s: float, unit_s: float) -> float:
    return wall_s * REF_UNIT_S / unit_s
