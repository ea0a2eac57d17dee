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

# The k-medians oracle sorts its clients into a _BUCKETS x _BUCKETS grid of
# cells over their bounding box, once, for its gain bounds.
_BUCKETS = 24
_CAP_ROWS = 256  # candidates per numpy pass of the gain_caps table


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


def _cells(coords: np.ndarray) -> np.ndarray:
    # Each coordinate's cell along one axis; a zero span is a single cell.
    # Dividing first keeps a subnormal span from overflowing the scale.
    low = coords.min()
    share = (coords - low) / ((coords.max() - low) or 1.0)
    return np.minimum((share * _BUCKETS).astype(np.intp), _BUCKETS - 1)


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

    def __init__(self, oracle, dmin=None):
        # dmin: a G-filled vector the state may own, e.g. a row of the block
        # that make_states fills for several states at once.
        super().__init__(oracle)
        self._dmin = np.full(oracle.num_agents, oracle.normalizer) if dmin is None else dmin
        self._ceilings = None

    def ceilings(self) -> np.ndarray:
        """U_b = max of the nearest distances over each client bucket."""
        if self._ceilings is None:
            oracle = self.oracle
            self._ceilings = np.maximum.reduceat(self._dmin[oracle._bucket_order],
                                                 oracle._bucket_starts)
        return self._ceilings

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
        self._ceilings = None
        self.selected.append(e)
        self._selected_set.add(e)

    @property
    def value(self) -> float:
        if not self.selected:
            return 0.0
        oracle = self.oracle
        return max(float(oracle.num_agents - self._dmin.sum() / oracle.normalizer), 0.0)


class KMediansObjective(DecomposableObjective):
    """Decomposable k-medians facility objective over 2-D points.

    clients: private demand points, one agent each.
    candidates: public facility locations (the stream's element domain).
    normalizer: public constant G >= every client-candidate distance; defaults
        to the L1 diameter of the joint bounding box. Distances are capped at
        G, so a G inside the 1e-9 slack below the largest distance still
        keeps every utility in [0, 1]. G must be finite and >= 0; G = 0
        (every point coincides) leaves every utility 0/0, so asking for any
        value raises.
    """

    def __init__(self, clients, candidates, normalizer: float | None = None):
        clients = np.asarray(clients, dtype=float)
        if clients.ndim != 2 or clients.shape[1] != 2 or len(clients) == 0:
            raise ValueError("clients must be a non-empty (n, 2) array")
        if not np.isfinite(clients).all():
            raise ValueError("client coordinates must be finite")
        super().__init__(num_agents=len(clients))
        self.clients = clients
        cand_arr = np.asarray(candidates, dtype=float)
        if cand_arr.ndim != 2 or cand_arr.shape[1] != 2 or len(cand_arr) == 0:
            raise ValueError("candidates must be a non-empty (m, 2) array")
        self.candidates = list(map(tuple, cand_arr.tolist()))
        if not np.isfinite(cand_arr).all():
            raise ValueError("candidate coordinates must be finite")
        required = _max_pairwise_l1(clients, cand_arr)
        if normalizer is None:
            normalizer = bounding_box_l1_diameter(np.vstack([clients, cand_arr]))
        if not math.isfinite(normalizer):
            raise ValueError(f"normalizer must be finite, got {normalizer}")
        if normalizer < 0:
            raise ValueError(f"normalizer must be >= 0, got {normalizer}")
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
        # Client buckets for gain_bounds: the clients sorted by cell, each
        # non-empty cell's start and size in that order, and the box
        # spanned by its clients' own coordinates.
        cell = _cells(clients[:, 0]) * _BUCKETS + _cells(clients[:, 1])
        self._bucket_order = np.argsort(cell, kind="stable")
        counts = np.bincount(cell)
        nonempty = counts > 0
        self._bucket_starts = (np.cumsum(counts) - counts)[nonempty]
        self._bucket_counts = counts[nonempty].astype(float)
        members = clients[self._bucket_order]
        self._bucket_low = np.minimum.reduceat(members, self._bucket_starts).T.copy()
        self._bucket_high = np.maximum.reduceat(members, self._bucket_starts).T.copy()
        self._xfloors: dict = {}
        self._yfloors: dict = {}
        self._caps: dict = {}  # gain_caps's table, filled on its first call

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

    def _floors(self, e) -> np.ndarray:
        # L_b(e): the l1 distance from e to each bucket's box, assembled
        # from per-coordinate vectors as _column is.
        ex, ey = e
        fx = self._xfloors.get(ex)
        if fx is None:
            fx = self._xfloors[ex] = self._box_distances(0, ex)
        fy = self._yfloors.get(ey)
        if fy is None:
            fy = self._yfloors[ey] = self._box_distances(1, ey)
        return fx + fy

    def _box_distances(self, axis: int, coordinate) -> np.ndarray:
        self._require_positive_normalizer()
        c = float(coordinate)
        low, high = self._bucket_low[axis], self._bucket_high[axis]
        return np.maximum(np.maximum(low - c, c - high), 0.0)

    def gain_bounds(self, states):
        # bound(e) = (T - sum_b n_b min(U_b, L_b(e)) + 1e-9 T) / G with
        # T = sum_b n_b U_b, for all states at once: T once per call, then
        # one np.minimum and one matvec per element. Exactly, T minus the
        # sum is sum_b n_b max(U_b - L_b, 0), which no computed marginal's
        # numerator exceeds by more than 1e-13 T: rounding is monotone and
        # client p of bucket b lies in b's box, so per axis |fl(px - ex)|
        # >= fl(box distance), the column fl(|dx| + |dy|) >= L_b and, as
        # dmin_p <= U_b, fl(max(dmin_p - col_p, 0)) <= fl(max(U_b - L_b,
        # 0)) <= U_b, and numpy's pairwise sum of n <= 10^6 such
        # non-negative terms errs by a relative O(log n 2^-53). The two
        # matvecs over at most 576 buckets of non-negative terms each err by
        # under 576 2^-53 T < 1e-13 T, and their difference rounds once
        # more, by at most 2^-53 T. The absolute slack 1e-9 T covers all of
        # it, however much the difference cancels. Sums, differences and
        # products by integer counts stay exact or within these relative
        # errors for subnormal values too. Both numerators then meet one
        # rounded division by G, which is monotone.
        ceilings = np.array([state.ceilings() for state in states])
        counts = self._bucket_counts
        normalizer = self.normalizer
        top = ceilings @ counts
        top += top * 1e-9
        clipped = np.empty_like(ceilings)

        def bound(e) -> np.ndarray:
            np.minimum(ceilings, self._floors(e), out=clipped)
            return (top - clipped @ counts) / normalizer

        return bound

    def gain_caps(self):
        # gain_bounds's bound at U_b = G, which covers every state (none has a
        # distance above G), tabulated over the candidates on the first call.
        normalizer, counts, caps = self.normalizer, self._bucket_counts, self._caps
        top = normalizer * self.num_agents
        top += top * 1e-9

        def fill(rows):
            floors = np.minimum([self._floors(e) for e in rows], normalizer)
            caps.update(zip(rows, ((top - floors @ counts) / normalizer).tolist()))

        if not caps:
            for start in range(0, len(self.candidates), _CAP_ROWS):
                fill(self.candidates[start:start + _CAP_ROWS])

        def cap(e) -> float:
            try:
                return caps[e]
            except KeyError:
                fill([e])
                return caps[e]

        return cap

    def _min_distances(self, S) -> np.ndarray:
        # Starts from d(p, empty) = G, as the incremental state does, so the
        # two agree exactly even where a distance exceeds G (by <= 1e-9).
        # Each column is folded in place; min is exact, so the order of the
        # folds does not matter.
        self._require_positive_normalizer()
        dmin = np.full(self.num_agents, self.normalizer)
        for e in S:
            np.minimum(dmin, self._column(e, out=self._scratch), out=dmin)
        return dmin

    def evaluate(self, S) -> float:
        S = set(S)
        if not S:
            return 0.0
        dmin = self._min_distances(S)
        # With every client at distance G the rounded sum can exceed |P| G.
        return max(float(self.num_agents - dmin.sum() / self.normalizer), 0.0)

    def clustering_cost(self, S) -> float:
        """sum_p d(p, S) with d(p, empty) = G; the quantity the benchmark reports."""
        return float(self._min_distances(set(S)).sum())

    def make_state(self) -> _KMediansState:
        return _KMediansState(self)

    def make_states(self, count: int) -> list[_KMediansState]:
        # One G-filled (count, |P|) block backs all the states, one row each,
        # and lives exactly as long as they do: one allocation instead of
        # count fresh vectors whose pages fault in again on every run.
        block = np.full((count, self.num_agents), self.normalizer)
        return [_KMediansState(self, row) for row in block]


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
        self._counts = Counter(records)
        super().__init__(num_agents=self._counts.total())

    def evaluate(self, S) -> float:
        return float(sum(self._counts.get(e, 0) for e in set(S)))

    def make_state(self) -> _CoverageState:
        return _CoverageState(self)


def coverage_oracle(records) -> CoverageObjective:
    """Build the multiset coverage objective (see CoverageObjective)."""
    return CoverageObjective(records)
