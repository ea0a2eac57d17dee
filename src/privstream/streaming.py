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
import itertools
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .accounting import BudgetSplit, PrivacyParams, split_budget
from .noise import (APPROX_SLACK, GUMBEL, LAPLACE, ZERO_FOR_TEST, NoiseSource, draw_block,
                    draw_block_approx, inverse_cdf, private_argmax)
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


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_k(k) -> None:
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def threshold_stream_with_tail_fill(f: ObjectiveOracle, V, ladders) -> dict[int, list[list]]:
    """Noiseless threshold passes for every k's ascending ladder of guesses,
    all run in one pass over V; returns ``{k: sets}``, one set per guess.

    ``ladders`` maps each cardinality k to its ascending guesses. Each guess
    O of k accepts e while |S| < k and f(e|S) >= O/(2k), and tops its set up
    to k from the stream tail: once the elements left no longer exceed the
    free slots, every remaining element is accepted outright. Only sensible
    without noise; the sweep's non-private baseline uses it.

    The sets equal those of separate per-guess passes. Every k's rungs form
    one ladder ordered by bar, and the rungs of any k that accepted the
    same sequence form a group on one oracle state; all start in one group
    on one empty state. The rungs of a group that accept an element are a
    prefix of it in bar order, found by bisecting the gain among their
    bars. A splitting group's accepting part replays its sequence into a
    fresh state, which reproduces the per-guess state exactly. A rung whose
    set reaches its own k leaves with a snapshot of the set and its value,
    and rungs whose k puts them into the tail fill split off onto a replayed
    state. Sharing pays off where bars coincide across k: the bar of a
    guess E (1+theta)^i is E (1+theta)^i / (2k), the same for every k
    wherever E is k ln n / eps.

    While more elements are left than the largest k (so no rung can
    tail-fill), the oracle's ``gain_bounds`` (k-medians has them) bound
    every group's marginal in one call per element, rebuilt only after an
    accept, and a group whose bound lies below all its bars rejects without
    a marginal. When the states declare ``exact_diminishing_returns``, the
    groups are visited from the highest bars down and a group skips its
    marginal when a group with a subset of its set already measured a gain
    below all its bars.

    Each k's list of sets has ``values``, f of each set read off the pass's
    states (equal to ``f.evaluate``), so the sweep evaluates no set again.
    """
    ladder_sets = {}
    rungs = []  # (bar, k, index of its guess) of every k's ladder
    for k, guesses in ladders.items():
        _check_k(k)
        guesses = list(guesses)
        if not guesses:
            raise ValueError(f"guesses of k={k} must be non-empty")
        if not all(O > 0 for O in guesses):
            raise ValueError(f"guesses of k={k} must be positive, got {guesses}")
        if any(b < a for a, b in zip(guesses, guesses[1:])):
            raise ValueError(f"guesses of k={k} must ascend, got {guesses}")
        ladder_sets[k] = _LadderSets(len(guesses))
        rungs += [(O / (2.0 * k), k, r) for r, O in enumerate(guesses)]
    if not rungs:
        raise ValueError("ladders must map at least one k to its guesses")
    rungs.sort()

    def settle(members, state):
        # The members' sets and values, read off their group's state.
        value = state.value
        for _, k, r in members:
            ladder_sets[k][r] = list(state.selected)
            ladder_sets[k].values[r] = value

    def accept(members, state, e):
        # The state accepts e; returns the members whose k it has not filled.
        state.accept(e)
        size = len(state.selected)
        if size not in ladder_sets:
            return members
        settle([m for m in members if m[1] == size], state)
        return [m for m in members if m[1] != size]

    V = list(V)
    bounded = len(V) - max(ladders)  # elements with no rung able to tail-fill
    # (members ascending by bar, state) of the groups that accept on their
    # bars, from the highest bars down, and of the groups that tail-fill.
    active = [(rungs, f.make_state())]
    tails = []
    skip = active[0][1].exact_diminishing_returns
    # (f.gain_bounds of the active groups, their lowest bars); reset by
    # every accept.
    bounds = None
    for i, e in enumerate(V):
        if not (active or tails):
            break
        visit = range(len(active))
        if i < bounded:
            if bounds is None:
                bounds = (f.gain_bounds([state for _, state in active]),
                          np.array([members[0][0] for members, _ in active]))
            gain_bound, lowest = bounds
            if gain_bound is not None:
                # Only groups whose bound reaches their lowest bar may accept.
                visit = (~(gain_bound(e) < lowest)).nonzero()[0].tolist()
        else:
            # Rungs whose free slots cover the elements left split off to
            # tail-fill, on a replay of the state when other rungs stay.
            kept = []
            for members, state in active:
                fill = len(V) - i + len(state.selected)
                stay = [m for m in members if m[1] < fill]
                if len(stay) < len(members):
                    tails.append(([m for m in members if m[1] >= fill],
                                  _replay(f, state) if stay else state))
                if stay:
                    kept.append((stay, state))
            active = kept
            visit = range(len(active))
            tails = [(members if e in state._selected_set else accept(members, state, e), state)
                     for members, state in tails]
            tails = [group for group in tails if group[0]]
        # (gain bound, selected set) of groups that rejected e; filled only
        # when skip holds.
        ruled_out = []
        groups = []
        done = 0  # active[:done] is settled for e
        for j in visit:
            groups += active[done:j]
            done = j + 1
            members, state = active[j]
            bound = None
            if ruled_out:
                for g, sub in reversed(ruled_out):
                    if g < members[0][0] and sub <= state._selected_set:
                        bound = g
                        break
            if bound is None:
                gain = state.marginal(e)
                split = bisect.bisect_right(members, gain, key=_BAR)
            else:
                gain, split = bound, 0
            if split == 0:
                if skip:
                    ruled_out.append((gain, state._selected_set))
                groups.append(active[j])
                continue
            bounds = None
            if split < len(members):
                groups.append((members[split:], state))
                state = _replay(f, state)
            members = accept(members[:split], state, e)
            if members:
                groups.append((members, state))
        active = groups + active[done:]
    for members, state in active + tails:
        settle(members, state)
    return ladder_sets


_BAR = itemgetter(0)  # a ladder member's bar


def _replay(f: ObjectiveOracle, state):
    # A fresh state that accepted state's sequence: equal to it exactly.
    replayed = f.make_state()
    for x in state.selected:
        replayed.accept(x)
    return replayed


class _LadderSets(list):
    # One k's sets from threshold_stream_with_tail_fill, one per guess;
    # ``values`` holds the f of each, as the pass's states read it.
    def __init__(self, rungs: int):
        super().__init__([None] * rungs)
        self.values = [None] * rungs


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

    def step(self, state, e, cap: float | None, beta: float, u: float | None = None) -> bool:
        """Answer the query f(e|S) of ``state`` with score noise ``beta``, the
        next draw of ``score_noise``; True means Top. Halted instances
        always answer Bottom without touching the threshold noise.

        The noise comes first. When 0 <= f(e|S) <= cap holds exactly, the
        answer is already fixed once beta >= bar (Top) or cap + beta < bar
        (Bottom): float addition rounds monotonically, so f(e|S) + beta lies
        between beta and cap + beta. Only the noisy bars in between ask the
        state for its marginal; the answers, draws and their order are those
        of checking every marginal. With a uniform ``u``, beta is
        :func:`draw_block_approx`'s, within s = APPROX_SLACK * scale of the
        exact draw, so beta - s >= bar settles Top and cap + (beta + s) < bar
        Bottom, rounding included; other checks recompute the draw from u.
        """
        if self.halted:
            return False
        bar = self.threshold + self._alpha
        if u is not None:
            slack = self.score_noise.scale * APPROX_SLACK
            if cap is not None and cap + (beta + slack) < bar:
                return False
            if beta - slack < bar:
                beta = inverse_cdf(self.score_noise.kind, self.score_noise.scale, u)
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


class _Drawn:
    # Noise drawn ahead: draw() hands out the values in order.
    __slots__ = ("draw",)

    def __init__(self, values):
        self.draw = iter(values).__next__


# Score noise is drawn for _BLOCK elements at a time, one block for all live
# rungs, when that makes at least _BLOCK_GATE draws; smaller windows draw one
# value per check. A run's threshold noise, at most k values per rung, is
# drawn in one exact block by the same gate. On a 2-core x86 machine (Python
# 3.11, numpy 2.4) a score block costs ~12-17 us plus ~0.05 us per value,
# an exact block ~0.15-0.25 us per value, and a scalar draw ~0.7-0.8 us.
_BLOCK = 32
_BLOCK_GATE = 32
_EXACT = itertools.repeat(None).__next__  # the uniform of a scalar, exact draw


def _scan(f: ObjectiveOracle, V, instances, n: int) -> tuple[list, int, int]:
    """Stream V once through the instances, each with a fresh oracle state
    that accepts an element when its instance answers Top; an instance
    leaves the scan once it halts. Raises once V outgrows n. Returns
    (states, elements streamed, threshold checks).

    The rung states come from one ``f.make_states`` call. The checks get
    ``f.gain_caps()``'s cap on every state's f(e|S), if any, as ``cap``,
    asked once per element that reaches a live instance.

    Score noise is read ahead: for each window of _BLOCK elements (fewer
    once the stream bound n is closer), the live rungs' next draws for the
    whole window come from one :func:`draw_block_approx` call when there
    are at least _BLOCK_GATE of them, and each check consumes its rung's
    next value and uniform. Draws past a rung's halt or the end of V are
    discarded; nothing reads a score source after the scan. Each check
    decides as the value it would draw on its own does, so answers and
    states do not depend on the windows.
    """
    states = f.make_states(len(instances))
    gain_cap = f.gain_caps()
    # (instance, state, its next score draw, that draw's uniform or None
    # for an exact draw) of every live rung.
    live = [(inst, state, inst.score_noise.draw, _EXACT)
            for inst, state in zip(instances, states) if not inst.halted]
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
        if gain_cap is not None:
            cap = gain_cap(e)
        checks += len(live)
        if streamed > block_end:
            length = min(_BLOCK, n - streamed + 1)
            block_end = streamed + length - 1
            if len(live) * length >= _BLOCK_GATE:
                rows, uniforms = draw_block_approx(
                    [inst.score_noise for inst, _, _, _ in live], length)
                live = [(inst, state, iter(row).__next__, iter(us).__next__)
                        for (inst, state, _, _), row, us in zip(live, rows, uniforms)]
            elif streamed > 1:  # the previous window may have read a block
                live = [(inst, state, inst.score_noise.draw, _EXACT)
                        for inst, state, _, _ in live]
        halted = False
        for inst, state, next_beta, next_u in live:
            if inst.step(state, e, cap, next_beta(), next_u()):
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
        if self.n_bound is not None and not (_is_int(self.n_bound) and self.n_bound >= 0):
            raise ValueError(f"n_bound must be an integer >= 0, got {self.n_bound!r}")
        # derive_seed reads a seed modulo 2^64, so anything else would alias one.
        if not (_is_int(self.master_seed) and 0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must be an integer in [0, 2^64), "
                             f"got {self.master_seed!r}")
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
    # (master_seed, T, 2). Each rung's two sources are spawned from a root
    # seeded (master_seed,), which mixes only the two extra parts.
    if private:
        budget = split_budget(cfg.privacy, T, cfg.noise_kind, k=cfg.k)
        scale = budget.laplace_scale if cfg.noise_kind == LAPLACE else budget.gumbel_scale
        # Lap(sigma) on the threshold vs Lap(2 sigma) on scores; Gumbel(gamma) on both.
        score_scale = 2.0 * scale if cfg.noise_kind == LAPLACE else scale
        threshold_root = NoiseSource(cfg.noise_kind, scale, (cfg.master_seed,))
        score_root = NoiseSource(cfg.noise_kind, score_scale, (cfg.master_seed,))
        # The exponential mechanism: Gumbel(2*sens/eps_sel) noise on each value.
        selection_source = NoiseSource(GUMBEL, 2.0 * f.sensitivity / budget.selection_epsilon,
                                       (cfg.master_seed, T, 2))
    else:
        budget = None
        threshold_root = score_root = selection_source = NoiseSource(ZERO_FOR_TEST, 0.0, seed=0)
    threshold_noise = [threshold_root.spawn(i, 0) for i in range(T)]
    if T * cfg.k >= _BLOCK_GATE:
        # A rung draws at most k threshold values, so one block fetches all
        # of them; each rung reads its row in order, unread values are
        # discarded and nothing reads a threshold source again.
        threshold_noise = [_Drawn(row) for row in draw_block(threshold_noise, cfg.k)]
    instances = [
        SparseInstance(
            threshold=guess / (2.0 * cfg.k),
            capacity=cfg.k,
            threshold_noise=noise,
            score_noise=score_root.spawn(i, 1),
        )
        for i, (guess, noise) in enumerate(zip(guesses, threshold_noise))
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
