"""Threshold streaming for submodular maximization, private and not.

One pass, cardinality k: a guess ladder covers the unknown optimum with
geometrically spaced values, each guess runs an independent threshold
instance (accept e when its marginal gain beats guess/(2k)), and a private
argmax picks among the finished sets. Privacy comes from noising both sides
of every threshold comparison: Laplace noise for arbitrary sensitivity-1
objectives, Gumbel noise for decomposable ones.
"""
from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass

from .accounting import BudgetSplit, PrivacyParams, split_budget
from .noise import GUMBEL, LAPLACE, ZERO_FOR_TEST, NoiseSource, draw_block, private_argmax
from .submodular import ObjectiveOracle


def ladder_floor(k: int, epsilon: float, n: int, m: float) -> float:
    """The ladder's lower estimate E = min(k ln max(n, 2) / eps, m/2); n and m
    are public bounds on the stream length and the number of agents."""
    return min(k * math.log(max(n, 2)) / epsilon, m / 2.0)


@functools.lru_cache(maxsize=256, typed=True)
def build_guess_ladder(E: float, m: float, theta: float) -> tuple[float, ...]:
    """Geometric guesses (E, (1+theta)E, ...) capped and completed by m.

    For every x in [E, m] some guess O satisfies x <= O <= (1+theta)x.
    Collapses to the single guess (m,) when E >= m.

    Memoized: a ladder is a pure function of public inputs, and repeated
    runs on one configuration rebuild the same one.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not (0 < E < math.inf and 0 < m < math.inf):
        raise ValueError(f"E and m must be positive and finite, got E={E}, m={m}")
    if E >= m:
        return (m,)
    guesses = []
    # The 1e-9 nudge keeps exact powers (e.g. m/E = 2^j) from losing their
    # top rung to floating-point log round-off.
    top = int(math.floor(math.log(m / E) / math.log(1.0 + theta) + 1e-9))
    for i in range(top + 1):
        value = E * (1.0 + theta) ** i
        if value >= m * (1.0 - 1e-12):
            break
        guesses.append(value)
    guesses.append(float(m))
    return tuple(guesses)


def _check_k(k) -> None:
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


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


def threshold_stream_with_tail_fill(f: ObjectiveOracle, V, k: int, guesses) -> list[list]:
    """Noiseless threshold passes for an ascending ladder of guesses, run in
    one pass over V; returns one set per guess.

    Each guess O accepts e while |S| < k and f(e|S) >= O/(2k), and tops its
    set up to k from the stream tail: once the elements left no longer
    exceed the free slots, every remaining element is accepted outright.
    Only sensible without noise; the sweep's non-private baseline uses it.

    The sets equal those of separate per-guess passes. Rungs that accepted
    the same sequence share one oracle state: bars ascend, so such a group
    is a contiguous run of rungs and the rungs that accept an element are a
    prefix of it. A splitting group's accepting part replays its sequence
    into a fresh state, which reproduces the per-guess state exactly. When
    the states declare ``exact_diminishing_returns``, groups are visited
    from the highest bars down and a group skips its marginal when a group
    with a subset of its set already measured a gain below all its bars.
    """
    _check_k(k)
    guesses = list(guesses)
    if not guesses:
        raise ValueError("guesses must be non-empty")
    if not all(O > 0 for O in guesses):
        raise ValueError(f"guesses must be positive, got {guesses}")
    if any(b < a for a, b in zip(guesses, guesses[1:])):
        raise ValueError(f"guesses must ascend, got {guesses}")
    bars = [O / (2.0 * k) for O in guesses]
    V = list(V)
    root = f.make_state()
    skip = root.exact_diminishing_returns
    # (first rung, end rung, state); active groups run from highest bars down.
    active = [(0, len(bars), root)]
    full = []
    for i, e in enumerate(V):
        if not active:
            break
        left = len(V) - i
        # (gain bound, selected set) of groups that rejected e; filled only
        # when skip holds.
        ruled_out = []
        groups = []
        for lo, hi, state in active:
            if left <= k - len(state.selected):
                if e not in state._selected_set:
                    state.accept(e)
                groups.append((lo, hi, state))  # full only once V is spent
                continue
            bound = None
            if ruled_out:
                for g, sub in reversed(ruled_out):
                    if g < bars[lo] and sub <= state._selected_set:
                        bound = g
                        break
            if bound is None:
                gain = state.marginal(e)
                split = bisect.bisect_right(bars, gain, lo, hi)
            else:
                gain, split = bound, lo
            if split == lo:
                if skip:
                    ruled_out.append((gain, state._selected_set))
                groups.append((lo, hi, state))
                continue
            if split < hi:
                groups.append((split, hi, state))
                accepted = f.make_state()
                for x in state.selected:
                    accepted.accept(x)
                state = accepted
            state.accept(e)
            (full if len(state.selected) >= k else groups).append((lo, split, state))
        active = groups
    sets: list = [None] * len(bars)
    for lo, hi, state in full + active:
        for r in range(lo, hi):
            sets[r] = list(state.selected)
    return sets


class SparseInstance:
    """One noisy above-threshold instance with a Top-answer budget of k.

    Answers Top when f(e|S) + score_noise >= threshold + threshold_noise.
    The threshold noise is redrawn after every Top (each of the up-to-k
    acceptances compares against an independent noisy threshold) and the
    instance halts permanently after the k-th Top.
    """

    __slots__ = ("threshold", "capacity", "count", "halted",
                 "threshold_noise", "score_noise", "_alpha")

    def __init__(self, threshold: float, capacity: int, threshold_noise, score_noise):
        self.threshold = float(threshold)
        self.capacity = int(capacity)
        self.count = 0
        self.threshold_noise = threshold_noise
        self.score_noise = score_noise
        self.halted = self.capacity <= 0
        self._alpha = threshold_noise.draw() if not self.halted else 0.0

    def step(self, state, e, cap: float | None, beta: float) -> bool:
        """Answer the query f(e|S) of ``state`` with score noise ``beta``, the
        next draw of ``score_noise``; True means Top. Halted instances
        always answer Bottom without touching the threshold noise.

        The noise comes first. When 0 <= f(e|S) <= cap holds exactly, the
        answer is already fixed once beta >= bar (Top) or cap + beta < bar
        (Bottom): float addition rounds monotonically, so f(e|S) + beta lies
        between beta and cap + beta. Only the noisy bars in between ask the
        state for its marginal; the answers, draws and their order are those
        of checking every marginal.
        """
        if self.halted:
            return False
        bar = self.threshold + self._alpha
        if beta < bar:
            if cap is not None and cap + beta < bar:
                return False
            if state.marginal(e) + beta < bar:
                return False
        self.count += 1
        if self.count >= self.capacity:
            self.halted = True
        else:
            self._alpha = self.threshold_noise.draw()
        return True


# Score noise is drawn for _BLOCK elements at a time, one block for all live
# rungs, when that makes at least _BLOCK_GATE draws; smaller windows draw one
# value per check. On a 2-core x86 machine (Python 3.11, numpy 2.4) a block
# cost ~30 us plus ~0.3-0.4 us per value against ~1.5 us per scalar draw, so
# below about 32 values a block saves nothing.
_BLOCK = 32
_BLOCK_GATE = 32


def _scan(f: ObjectiveOracle, V, instances, n: int) -> tuple[list, int, int]:
    """Stream V once through the instances, each with a fresh oracle state
    that accepts an element when its instance answers Top; an instance
    leaves the scan once it halts. Raises once V outgrows n. Returns
    (states, elements streamed, threshold checks).

    When the states declare ``exact_diminishing_returns``, an empty probe
    state's marginal bounds every check's f(e|S), so the checks get it as
    ``cap``; it is asked once per element that reaches a live instance.

    Score noise is read ahead: for each window of _BLOCK elements (fewer
    once the stream bound n is closer), the live rungs' next draws for the
    whole window come from one :func:`draw_block` call when there are at
    least _BLOCK_GATE of them, and each check consumes its rung's next
    value. Draws past a rung's halt or the end of V are discarded; nothing
    reads a score source after the scan. Each check consumes the value it
    would draw on its own, so answers and states do not depend on the
    windows.
    """
    states = [f.make_state() for _ in instances]
    # (instance, state, its next score draw) of every live rung.
    live = [(inst, state, inst.score_noise.draw)
            for inst, state in zip(instances, states) if not inst.halted]
    probe = f.make_state()
    if not probe.exact_diminishing_returns:
        probe = None
    cap = None
    checks = 0
    streamed = 0
    block_end = 0
    for e in V:
        streamed += 1
        if streamed > n:
            raise ValueError(
                f"stream exceeds the declared n_bound of {n}; the lower "
                "estimate E depends on it"
            )
        if not live:
            continue
        if probe is not None:
            cap = probe.marginal(e)
        checks += len(live)
        if streamed > block_end:
            length = min(_BLOCK, n - streamed + 1)
            block_end = streamed + length - 1
            if len(live) * length >= _BLOCK_GATE:
                rows = draw_block([inst.score_noise for inst, _, _ in live], length)
                live = [(inst, state, iter(row).__next__)
                        for (inst, state, _), row in zip(live, rows)]
            elif streamed > 1:  # the previous window may have read a block
                live = [(inst, state, inst.score_noise.draw) for inst, state, _ in live]
        halted = False
        for inst, state, next_beta in live:
            if inst.step(state, e, cap, next_beta()):
                state.accept(e)
                halted = halted or inst.halted
        if halted:
            live = [rung for rung in live if not rung[0].halted]
    return states, streamed, checks


@dataclass
class PssmConfig:
    """Inputs of one private streaming maximization run.

    m_bound/n_bound are public upper bounds on the number of agents and the
    stream length. Private runs require m_bound: the ladder is built from
    it, so it must not be read off the private data. Only the noiseless
    ``zero`` kind falls back to a decomposable oracle's agent count.
    n_bound defaults to len(V). eta is the failure probability quoted in the
    reported theoretical error bound; it does not change the algorithm.
    """

    k: int
    theta: float
    privacy: PrivacyParams
    noise_kind: str = GUMBEL
    m_bound: float | None = None
    n_bound: int | None = None
    eta: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        _check_k(self.k)
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.noise_kind not in (LAPLACE, GUMBEL, ZERO_FOR_TEST):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")


@dataclass
class RunDiagnostics:
    """Resource and selection bookkeeping for one maximizer run."""

    guesses: tuple[float, ...]
    per_guess_sizes: tuple[int, ...]
    per_guess_values: tuple[float, ...]
    chosen_index: int
    lower_estimate: float
    stream_length: int
    # Threshold checks made (one per live rung and element), not oracle
    # marginals: a check whose noise already decides it computes none.
    marginal_calls: int
    retained_total: int
    budget: BudgetSplit | None = None
    reported_error_bound: float | None = None

    @property
    def num_guesses(self) -> int:
        return len(self.guesses)


@functools.lru_cache(maxsize=256)
def _reported_error_bound(noise_kind, scale, k, n, T, eta, selection_epsilon) -> float:
    # Additive error quoted at failure probability eta: the k accepted checks
    # each pay their eta-quantile score/threshold noise, plus the private
    # selection's utility tail. Reporting only; never drives behavior.
    n = max(n, 2)
    if noise_kind == LAPLACE:
        score_tail = 2.0 * scale * math.log(2 * n * T / eta)
        threshold_tail = scale * math.log(2 * k * T / eta)
    else:
        score_tail = scale * math.log(2 * n * T / eta)
        threshold_tail = scale * math.log(max(math.log(2 * k * T / eta), math.e))
    selection_tail = (2.0 / selection_epsilon) * math.log(2 * T / eta)
    return k * (score_tail + threshold_tail) + selection_tail


def pssm(f: ObjectiveOracle, V, cfg: PssmConfig) -> tuple[list, RunDiagnostics]:
    """Private streaming submodular maximization under a cardinality constraint.

    Runs one noisy threshold instance per ladder guess over a single pass of
    V, then privately selects among the per-guess sets with half the epsilon
    budget. With Laplace noise any sensitivity-1 oracle is accepted; Gumbel
    noise requires a decomposable oracle. The ``zero`` noise kind runs the
    noiseless limit (exact threshold checks and exact argmax) and reports no
    privacy guarantee.
    """
    private = cfg.noise_kind != ZERO_FOR_TEST
    if private and f.sensitivity != 1:
        raise ValueError(
            f"private runs require a sensitivity-1 oracle, got {f.sensitivity}"
        )
    if cfg.noise_kind == GUMBEL and not f.decomposable:
        raise ValueError("gumbel noise calibration requires a decomposable oracle")

    if cfg.m_bound is not None:
        m = float(cfg.m_bound)
    elif not private and f.decomposable:
        m = float(f.num_agents)  # noiseless runs claim no privacy
    else:
        raise ValueError("m_bound is required for private runs and non-decomposable oracles")
    V = list(V) if cfg.n_bound is None else V
    n = cfg.n_bound if cfg.n_bound is not None else len(V)

    E = ladder_floor(cfg.k, cfg.privacy.epsilon, n, m)
    guesses = build_guess_ladder(E, m, cfg.theta)
    T = len(guesses)

    # Rung i draws its threshold noise from stream (master_seed, i, 0) and
    # its score noise from (master_seed, i, 1); the selection draws from
    # (master_seed, T, 2). All are spawned from one root seeded
    # (master_seed,), which mixes only the two extra parts per stream.
    if private:
        budget = split_budget(cfg.privacy, T, cfg.noise_kind, k=cfg.k)
        scale = budget.laplace_scale if cfg.noise_kind == LAPLACE else budget.gumbel_scale
        # Lap(sigma) on the threshold vs Lap(2 sigma) on scores; Gumbel(gamma) on both.
        threshold_root = NoiseSource(cfg.noise_kind, scale, seed=(cfg.master_seed,))
        score_root = threshold_root.spawn(scale=2.0 * scale if cfg.noise_kind == LAPLACE else scale)
        # The exponential mechanism: Gumbel(2*sens/eps_sel) noise on each value.
        selection_source = threshold_root.spawn(
            T, 2, kind=GUMBEL, scale=2.0 * f.sensitivity / budget.selection_epsilon)
    else:
        budget = None
        threshold_root = score_root = selection_source = NoiseSource(ZERO_FOR_TEST, 0.0, seed=0)
    instances = [
        SparseInstance(
            threshold=guess / (2.0 * cfg.k),
            capacity=cfg.k,
            threshold_noise=threshold_root.spawn(i, 0),
            score_noise=score_root.spawn(i, 1),
        )
        for i, guess in enumerate(guesses)
    ]
    states, streamed, checks = _scan(f, V, instances, n)

    values = tuple(state.value for state in states)
    chosen = private_argmax(values, selection_source)

    sizes = tuple(inst.count for inst in instances)
    diagnostics = RunDiagnostics(
        guesses=guesses,
        per_guess_sizes=sizes,
        per_guess_values=values,
        chosen_index=chosen,
        lower_estimate=E,
        stream_length=streamed,
        marginal_calls=checks,
        retained_total=sum(len(state._selected_set) for state in states),
        budget=budget,
        reported_error_bound=(
            _reported_error_bound(cfg.noise_kind, scale, cfg.k, streamed, T,
                                  cfg.eta, budget.selection_epsilon)
            if private else 0.0
        ),
    )
    return list(states[chosen].selected), diagnostics
