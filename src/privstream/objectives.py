"""Concrete objective families: k-medians coverage and max-coverage.

The k-medians objective treats every client as one agent whose utility of a
set S of open facilities is 1 - d(client, S)/G under the Manhattan metric,
with d(client, empty) = G, so each agent's utility lies in [0, 1] and the
total is monotone, submodular and decomposable. Minimizing the clustering
cost sum_p d(p, S) is equivalent to maximizing this objective.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .submodular import DecomposableObjective, OracleState


def _max_pairwise_l1(clients: np.ndarray, candidates: np.ndarray) -> float:
    # max_{p,v} |px-vx|+|py-vy| via the four sign corners of the l1 ball:
    # max over s in {-1,1}^2 of max_v(s.v) + max_p(-s.p); exact and O(n).
    worst = 0.0
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            cand_part = (sx * candidates[:, 0] + sy * candidates[:, 1]).max()
            client_part = (-sx * clients[:, 0] - sy * clients[:, 1]).max()
            worst = max(worst, cand_part + client_part)
    return float(worst)


def bounding_box_l1_diameter(points: np.ndarray) -> float:
    """L1 diameter of the axis-aligned bounding box of the points."""
    mins = points.min(axis=0)
    maxs = points.max(axis=0)
    return float((maxs - mins).sum())


class _KMediansState(OracleState):
    # Owns a per-client nearest-distance vector; accept() tightens it in
    # place, so marginals and accepts each cost one vectorized pass over the
    # clients, in the oracle's buffers. The value is summed off it only when
    # read: the threshold ladders accept far more often than they read one.
    # A superset's distances are elementwise <= a subset's (min is exact),
    # and subtraction, max and pairwise summation all keep that order, so
    # gains never grow and never exceed the empty state's.
    exact_diminishing_returns = True

    def __init__(self, oracle):
        super().__init__(oracle)
        self._dmin = np.full(oracle.num_agents, oracle.normalizer)

    def marginal(self, e) -> float:
        if e in self._selected_set:
            return 0.0
        if self.selected:
            return self._gain(e)
        # Every empty state answers the same gain, so the oracle keeps it.
        gains = self.oracle._empty_gains
        gain = gains.get(e)
        if gain is None:
            gain = gains[e] = self._gain(e)
        return gain

    def _gain(self, e) -> float:
        oracle = self.oracle
        buf = oracle._scratch
        np.subtract(self._dmin, oracle._shared_column(e), out=buf)
        np.maximum(buf, 0.0, out=buf)
        return float(buf.sum() / oracle.normalizer)

    def accept(self, e) -> None:
        np.minimum(self._dmin, self.oracle._shared_column(e), out=self._dmin)
        self.selected.append(e)
        self._selected_set.add(e)

    @property
    def value(self) -> float:
        if not self.selected:
            return 0.0
        oracle = self.oracle
        return float(oracle.num_agents - self._dmin.sum() / oracle.normalizer)


class KMediansObjective(DecomposableObjective):
    """Decomposable k-medians facility objective over 2-D points.

    clients: private demand points, one agent each.
    candidates: public facility locations (the stream's element domain).
    normalizer: public constant G >= every client-candidate distance; defaults
        to the L1 diameter of the joint bounding box. Distances are capped at
        G, so a G inside the 1e-9 slack below the largest distance still
        keeps every utility in [0, 1]. G must be finite; G = 0 (every point
        coincides) leaves every utility 0/0, so asking for any value raises.
    """

    def __init__(self, clients, candidates, normalizer: float | None = None):
        clients = np.asarray(clients, dtype=float)
        if clients.ndim != 2 or clients.shape[1] != 2 or len(clients) == 0:
            raise ValueError("clients must be a non-empty (n, 2) array")
        if not np.isfinite(clients).all():
            raise ValueError("client coordinates must be finite")
        super().__init__(num_agents=len(clients))
        self.clients = clients
        self.candidates = [tuple(map(float, v)) for v in candidates]
        if not self.candidates:
            raise ValueError("candidate set must be non-empty")
        cand_arr = np.asarray(self.candidates, dtype=float)
        if not np.isfinite(cand_arr).all():
            raise ValueError("candidate coordinates must be finite")
        required = _max_pairwise_l1(clients, cand_arr)
        if normalizer is None:
            normalizer = bounding_box_l1_diameter(np.vstack([clients, cand_arr]))
        if not math.isfinite(normalizer):
            raise ValueError(f"normalizer must be finite, got {normalizer}")
        if normalizer < required - 1e-9:
            raise ValueError(
                f"normalizer {normalizer} is below the maximum client-candidate "
                f"distance {required}; per-agent utilities would leave [0, 1]"
            )
        self.normalizer = float(normalizer)
        # d(p, e) = |px - ex| + |py - ey| is assembled from per-coordinate
        # vectors, so a g x g grid keeps 2g vectors rather than g^2 columns.
        self._xcols: dict = {}
        self._ycols: dict = {}
        self._empty_gains: dict = {}
        self._scratch = np.empty(len(clients))
        self._last_column = np.empty(len(clients))
        self._last_element = None

    def _require_positive_normalizer(self) -> None:
        # Checked where a value is first computed, not in __init__, so a
        # degenerate oracle can still be built (e.g. to get its state type).
        if not self.normalizer > 0:
            raise ValueError(
                "normalizer is 0 (every client and candidate coincide), so "
                "every utility 1 - d/G would be 0/0"
            )

    def _column(self, e, out=None) -> np.ndarray:
        # Bit-identical to np.abs(clients - e).sum(axis=1): the same two
        # absolute differences, added once.
        ex, ey = e
        dx = self._xcols.get(ex)
        if dx is None:
            dx = self._xcols[ex] = self._coordinate_distances(0, ex)
        dy = self._ycols.get(ey)
        if dy is None:
            dy = self._ycols[ey] = self._coordinate_distances(1, ey)
        return np.add(dx, dy, out=out)

    def _shared_column(self, e) -> np.ndarray:
        # The states' column buffer keeps the element asked for last: the
        # threshold ladders ask several states about one element in a row,
        # and accept it right after its marginal.
        if e != self._last_element:
            self._column(e, out=self._last_column)
            self._last_element = e
        return self._last_column

    def _coordinate_distances(self, axis: int, coordinate) -> np.ndarray:
        self._require_positive_normalizer()
        return np.abs(self.clients[:, axis] - float(coordinate))

    def _min_distances(self, S) -> np.ndarray:
        # Starts from d(p, empty) = G, as the incremental state does, so the
        # two agree exactly even where a distance exceeds G (by <= 1e-9).
        cols = [self._column(e) for e in S]
        if not cols:
            self._require_positive_normalizer()
            return np.full(self.num_agents, self.normalizer)
        return np.minimum.reduce(cols, initial=self.normalizer)

    def evaluate(self, S) -> float:
        S = set(S)
        if not S:
            return 0.0
        dmin = self._min_distances(S)
        return float(self.num_agents - dmin.sum() / self.normalizer)

    def agent_values(self, S) -> np.ndarray:
        return 1.0 - self._min_distances(set(S)) / self.normalizer

    def clustering_cost(self, S) -> float:
        """sum_p d(p, S) with d(p, empty) = G; the quantity the benchmark reports."""
        return float(self._min_distances(set(S)).sum())

    def make_state(self) -> _KMediansState:
        return _KMediansState(self)


def kmedians_oracle(clients, candidates, normalizer: float | None = None) -> KMediansObjective:
    """Build the decomposable k-medians objective (see KMediansObjective)."""
    return KMediansObjective(clients, candidates, normalizer)


class _CoverageState(OracleState):
    exact_diminishing_returns = True  # a count, or 0 once selected

    def marginal(self, e) -> float:
        if e in self._selected_set:
            return 0.0
        return float(self.oracle._counts.get(e, 0))

    def accept(self, e) -> None:
        # Adds the integer count of a new element: exact in floating point,
        # so value stays equal to evaluate()'s sum of the same counts.
        if e not in self._selected_set:
            self._selected_set.add(e)
            self.value += self.oracle._counts.get(e, 0)
        self.selected.append(e)


class CoverageObjective(DecomposableObjective):
    """Multiset coverage by singletons: f(T) counts records whose label is in T.

    One agent per record with utility in {0, 1}, so the objective is
    decomposable with sensitivity 1.
    """

    def __init__(self, records):
        records = list(records)
        super().__init__(num_agents=len(records))
        self.records = records
        self._counts = Counter(records)

    def evaluate(self, S) -> float:
        return float(sum(self._counts.get(e, 0) for e in set(S)))

    def agent_values(self, S) -> np.ndarray:
        chosen = set(S)
        return np.array([1.0 if r in chosen else 0.0 for r in self.records])

    def make_state(self) -> _CoverageState:
        return _CoverageState(self)


def coverage_oracle(records) -> CoverageObjective:
    """Build the multiset coverage objective (see CoverageObjective)."""
    return CoverageObjective(records)
