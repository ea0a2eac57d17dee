import collections
import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privstream import streaming
from privstream.accounting import PrivacyParams
from privstream.noise import (
    GUMBEL,
    LAPLACE,
    ZERO_FOR_TEST,
    NoiseSource,
    draw_block_approx,
    inverse_cdf,
)
from privstream.objectives import coverage_oracle, kmedians_oracle
from privstream.streaming import (
    PssmConfig,
    SparseInstance,
    _scan,
    build_guess_ladder,
    pssm,
    threshold_stream_with_tail_fill,
)
from support import (
    ModularObjective,
    bounded_noise_utility_check,
    brute_force_opt,
    per_guess_tail_fill,
    threshold_stream,
)


def zero_source():
    return NoiseSource(ZERO_FOR_TEST, 0.0, seed=0)


def make_cfg(**kwargs):
    defaults = dict(
        k=3,
        theta=0.2,
        privacy=PrivacyParams(0.9, 1e-6),
        noise_kind=ZERO_FOR_TEST,
        master_seed=0,
    )
    defaults.update(kwargs)
    return PssmConfig(**defaults)


def test_ladder_examples():
    # theta is restricted to (0, 1); 0.999999999999 reproduces doubling
    near_one = 1.0 - 1e-13
    guesses = build_guess_ladder(1.0, 8.0, near_one)
    assert guesses == pytest.approx((1.0, 2.0, 4.0, 8.0))
    assert len(guesses) == 4
    guesses = build_guess_ladder(1.0, 10.0, near_one)
    assert guesses == pytest.approx((1.0, 2.0, 4.0, 8.0, 10.0))
    assert len(guesses) == 5


def test_ladder_degenerate_and_validation():
    assert build_guess_ladder(12.0, 5.0, 0.5) == (5.0,)
    with pytest.raises(ValueError):
        build_guess_ladder(1.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        build_guess_ladder(0.0, 10.0, 0.5)
    # m = inf used to overflow int(); E = inf used to collapse to {m}.
    for E, m in ((1.0, math.inf), (math.inf, 10.0), (math.inf, math.inf),
                 (math.nan, 10.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            build_guess_ladder(E, m, 0.5)


@given(
    E=st.floats(0.01, 50),
    ratio=st.floats(1.0, 400),
    theta=st.floats(0.01, 0.99),
    xs=st.lists(st.floats(0, 1), min_size=1, max_size=20),
)
@settings(max_examples=150)
# E + 1.0 * (m - E) rounds one ulp above m here.
@example(E=24.701878118844434, ratio=342.0, theta=0.5, xs=[1.0])
def test_ladder_covers_range(E, ratio, theta, xs):
    m = E * ratio
    guesses = build_guess_ladder(E, m, theta)
    assert guesses[-1] == m
    for frac in xs:
        # The interpolation can round past m; the ladder covers [E, m].
        x = min(E + frac * (m - E), m)
        assert any(x <= g <= (1 + theta) * x * (1 + 1e-9) for g in guesses)


def test_ladder_dense_coverage():
    rng = np.random.default_rng(0)
    guesses = build_guess_ladder(2.0, 900.0, 0.2)
    for x in rng.uniform(2.0, 900.0, size=10_000):
        assert any(x <= g <= 1.2 * x * (1 + 1e-9) for g in guesses)


def test_threshold_stream_hand_trace():
    f = ModularObjective({"a": 3.0, "b": 2.0, "c": 1.0})
    S = threshold_stream(f, ["a", "b", "c"], k=2, O=6.0)
    assert S == ["a", "b"]
    value = f.evaluate(S)
    _, opt = brute_force_opt(f, ["a", "b", "c"], 2)
    assert opt == 5.0
    assert value >= min(6.0 / 2, opt - 6.0 / 2)


def test_threshold_stream_edge_cases():
    f = ModularObjective({"a": 3.0, "b": 2.0})
    assert threshold_stream(f, [], 2, 1.0) == []
    # O above 2k * max singleton: nothing can pass
    assert threshold_stream(f, ["a", "b"], 2, 2 * 2 * 3.0 + 1) == []
    for k in (0, 2.5):
        with pytest.raises(ValueError, match="k must"):
            threshold_stream(f, ["a"], k, 1.0)


def test_tail_fill_tops_up():
    f = ModularObjective({i: 0.01 for i in range(6)})
    # Nothing passes, the last 3 fill the set.
    assert threshold_stream_with_tail_fill(f, list(range(6)), {3: [100.0]}) == {3: [[3, 4, 5]]}
    g = ModularObjective({0: 9.0, 1: 0.01, 2: 0.01, 3: 0.01})
    # 0 passes, the tail provides the filler.
    assert threshold_stream_with_tail_fill(g, [0, 1, 2, 3], {2: [10.0]}) == {2: [[0, 3]]}


def assert_ladder_matches_per_guess(f, V, ladders):
    # One pass over every k's ladder against a separate pass per (k, guess).
    ladder_sets = threshold_stream_with_tail_fill(f, V, ladders)
    assert list(ladder_sets) == list(ladders)
    for k, guesses in ladders.items():
        sets = ladder_sets[k]
        assert sets == [per_guess_tail_fill(f, V, k, O) for O in guesses], k
        assert sets.values == [f.evaluate(S) for S in sets], k
    return ladder_sets


# Two or three distinct k per pass, from 1 up to past |V| (up to 16
# elements), where the tail fill starts at the first element.
several_k = st.lists(st.integers(1, 18), min_size=2, max_size=3, unique=True)
# One fraction list per k; each guess is 2k * (best singleton) * fraction.
per_k_fracs = st.lists(st.lists(st.floats(0.001, 1.5), min_size=1, max_size=12),
                       min_size=3, max_size=3)


def fracs_ladders(ks, fracs, top):
    return {k: sorted(2 * k * top * x for x in k_fracs) for k, k_fracs in zip(ks, fracs)}


@given(
    clients=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=25),
    candidates=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1,
                        max_size=10, unique=True),
    picks=st.lists(st.integers(0, 9), min_size=1, max_size=16),
    ks=several_k,
    fracs=per_k_fracs,
)
@settings(max_examples=150, deadline=None)
def test_ladder_matches_per_guess_passes_kmedians(clients, candidates, picks, ks, fracs):
    V = [candidates[i % len(candidates)] for i in picks]  # repeats allowed
    f = kmedians_oracle(np.array(clients, dtype=float), candidates, normalizer=30.0)
    top = max(f.evaluate([e]) for e in V)
    assert_ladder_matches_per_guess(f, V, fracs_ladders(ks, fracs, top))


@given(
    records=st.lists(st.integers(0, 6), min_size=1, max_size=30),
    V=st.lists(st.integers(0, 8), min_size=1, max_size=16),
    ks=several_k,
    bars=st.lists(st.lists(st.one_of(st.integers(1, 8), st.floats(0.01, 9.0)),
                           min_size=1, max_size=10), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_ladder_matches_per_guess_passes_coverage(records, V, ks, bars):
    # Integer bars equal some gains exactly: the >= tie. Coverage has no
    # gain bounds, so only shared states and the subset skip act.
    f = coverage_oracle(records)
    assert_ladder_matches_per_guess(
        f, V, {k: sorted(2.0 * k * b for b in k_bars) for k, k_bars in zip(ks, bars)})


def sweep_ladders(ks, cs, cap, m, theta):
    # Built as the sweep's non-private baseline builds them: for each c (ln n
    # / eps there) E = min(cap, k c, m/2), and each k takes the sorted union
    # of its ladders. Wherever k c sets E, the bar E (1+theta)^i / (2k) of
    # a guess barely depends on k, and is one float for k a power of 2 apart.
    return {k: sorted({O for c in cs for O in build_guess_ladder(min(cap, k * c, m / 2.0), m, theta)})
            for k in ks}


@given(
    coverage=st.booleans(),
    clients=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=25),
    candidates=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1,
                        max_size=10, unique=True),
    picks=st.lists(st.integers(0, 9), min_size=1, max_size=16),
    # From 1 to past |V|, with powers of 2 so that some bars coincide
    # exactly: capacity and the tail fill both split groups shared across k.
    ks=st.lists(st.one_of(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 18)),
                min_size=2, max_size=4, unique=True),
    cs=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=2),
    theta=st.sampled_from([0.1, 0.2, 0.5]),
)
@example(coverage=False, clients=[(0, 0), (12, 3), (5, 9), (7, 7), (1, 11), (10, 0)],
         candidates=[(0, 1), (11, 3), (6, 8), (2, 10)], picks=[0, 1, 2, 3, 1, 0, 2, 3],
         ks=[1, 2, 4, 8], cs=[0.05], theta=0.2)
@settings(max_examples=150, deadline=None)
def test_ladder_shares_groups_across_k_like_the_sweep(coverage, clients, candidates, picks, ks,
                                                      cs, theta):
    V = [candidates[i % len(candidates)] for i in picks]  # repeats allowed
    if coverage:
        f = coverage_oracle([x for x, _ in clients])
        V = [x for x, _ in V]
    else:
        f = kmedians_oracle(np.array(clients, dtype=float), candidates, normalizer=30.0)
    m = float(f.num_agents)
    cap = max(f.evaluate([e]) for e in V) or m  # the best singleton
    assert_ladder_matches_per_guess(f, V, sweep_ladders(ks, cs, cap, m, theta))


def test_ladder_edge_cases():
    # bar == gain exactly: bars 1, 2, 3 against gains 1 (label 2), 2 (1), 3 (0).
    f = coverage_oracle([0, 0, 0, 1, 1, 2])
    sets = assert_ladder_matches_per_guess(f, [2, 1, 0, 3], {2: [4.0, 8.0, 12.0]})
    assert sets == {2: [[2, 1], [1, 0], [0, 3]]}  # the last rung's 3 is tail fill
    # A repeated element: its second copy gains 0 and the tail fill skips it.
    g = coverage_oracle([0, 0, 1])
    sets = assert_ladder_matches_per_guess(g, [0, 1, 0, 0], {3: [0.6, 60.0]})
    assert sets == {3: [[0, 1], [1, 0]]}
    # A higher rung rules a lower one out only from a subset of its set. At
    # (11, 0) the bar-2.5 rung holds (5, 2) and gains 0.27 < 0.75, while the
    # bar-0.75 rung holds (0, 10) instead and gains 0.87.
    h = kmedians_oracle(np.array([[12.0, 2.0], [8.0, 12.0], [0.0, 2.0], [12.0, 6.0]]),
                        [(11, 0), (0, 10), (5, 2)], normalizer=30.0)
    sets = assert_ladder_matches_per_guess(h, [(0, 10), (5, 2), (11, 0), (0, 10)], {2: [3.0, 10.0]})
    assert sets == {2: [[(0, 10), (11, 0)], [(5, 2), (0, 10)]]}
    # k close to |V| on k-medians: every rung fills up, and the top rung
    # (bar 30 = |P|) clears nothing, so the tail fill supplies all of it.
    rng = np.random.default_rng(5)
    h = kmedians_oracle(rng.uniform(0, 10, size=(30, 2)),
                        [tuple(p) for p in rng.uniform(0, 10, size=(8, 2))])
    [sets] = assert_ladder_matches_per_guess(h, h.candidates, {7: [1.0, 5.0, 40.0, 420.0]}).values()
    assert all(len(S) == 7 for S in sets)
    assert sets[-1] == h.candidates[1:]


def test_ladder_makes_fewer_marginal_calls_than_per_guess_passes():
    rng = np.random.default_rng(8)
    f = kmedians_oracle(rng.uniform(0, 20, size=(400, 2)),
                        [tuple(p) for p in rng.uniform(0, 20, size=(120, 2))])
    calls = [0]
    base = type(f.make_state())

    class CountingState(base):
        def marginal(self, e):
            calls[0] += 1
            return super().marginal(e)

    f.make_state = lambda: CountingState(f)
    # k ln n / eps sets E, so the bars of k = 5, 10 and 20 are equal.
    ladders = {k: build_guess_ladder(k * math.log(120) / 0.5, 400.0, 0.2) for k in (5, 10, 20)}
    ladder_sets = threshold_stream_with_tail_fill(f, f.candidates, ladders)
    ladder_calls, calls[0] = calls[0], 0
    # One call for all k shares their groups; one call per k cannot.
    for k, guesses in ladders.items():
        assert threshold_stream_with_tail_fill(f, f.candidates, {k: guesses}) == {k: ladder_sets[k]}
    per_k_calls, calls[0] = calls[0], 0
    assert ladder_calls < per_k_calls
    for k, guesses in ladders.items():
        assert ladder_sets[k] == [per_guess_tail_fill(f, f.candidates, k, O) for O in guesses]
    assert per_k_calls < calls[0]
    # Without the oracle's gain bounds the ladder computes more marginals
    # and selects the same sets.
    per_guess_calls, calls[0] = calls[0], 0
    f.gain_bounds = lambda states: None
    assert threshold_stream_with_tail_fill(f, f.candidates, ladders) == ladder_sets
    assert ladder_calls < calls[0] < per_guess_calls


@given(
    clients=st.lists(st.tuples(st.floats(0, 20), st.floats(0, 20)), min_size=1, max_size=60),
    candidates=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1,
                        max_size=12, unique=True),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=16),
    surplus=st.integers(-2, 6),
    smaller=st.lists(st.integers(1, 16), max_size=2),
    fracs=per_k_fracs,
)
@example(clients=[(8.5997775739739, 13.02791527661212)] * 3, candidates=[(0, 0)], picks=[0],
         surplus=0, smaller=[], fracs=[[1.0], [1.0], [1.0]])  # every client at distance G
@settings(max_examples=150, deadline=None)
def test_ladder_with_gain_bounds_matches_per_guess_passes(clients, candidates, picks, surplus,
                                                          smaller, fracs):
    # |V| minus the largest k from -2 to 6: the gain bounds apply only while
    # more than the largest k elements are left, so streams shorter than,
    # equal to and just longer than it cross that boundary. Up to two
    # smaller k share the pass.
    V = [candidates[i % len(candidates)] for i in picks]  # repeats allowed
    k_max = max(1, len(V) - surplus)
    ks = [k_max] + sorted({k for k in smaller if k < k_max})
    f = kmedians_oracle(np.array(clients), candidates)
    if f.normalizer == 0:
        return  # every point coincides: no value exists
    top = max(f.evaluate([e]) for e in V) or 1.0
    assert_ladder_matches_per_guess(f, V, fracs_ladders(ks, fracs, top))


def test_ladder_validation():
    f = coverage_oracle([0, 1])
    with pytest.raises(ValueError, match="ladders"):
        threshold_stream_with_tail_fill(f, [0, 1], {})
    # One bad ladder among good ones fails the whole pass.
    for guesses in ([], [0.0], [-1.0, 2.0], [math.nan], [2.0, 1.0]):
        with pytest.raises(ValueError, match="guesses of k=2"):
            threshold_stream_with_tail_fill(f, [0, 1], {1: [1.0], 2: guesses, 3: [1.0]})
    for k in (0, 2.5):
        with pytest.raises(ValueError, match="k must"):
            threshold_stream_with_tail_fill(f, [0, 1], {1: [1.0], k: [1.0]})
    assert threshold_stream_with_tail_fill(f, [0, 1], {1: [1.0, 1.0]}) == {1: [[0], [0]]}


class ConstantMarginal:
    """Oracle-state stub whose every marginal is one fixed query value."""

    def __init__(self, value):
        self.value = value

    def marginal(self, e):
        return self.value


def query(inst, value):
    # The scan draws a live instance's score noise for each check.
    beta = 0.0 if inst.halted else inst.score_noise.draw()
    return inst.step(ConstantMarginal(value), "e", None, beta)


def test_sparse_instance_zero_noise_trace():
    inst = SparseInstance(1.5, 2, zero_source(), zero_source())
    answers = [query(inst, q) for q in [2.0, 1.0, 3.0]]
    assert answers == [True, False, True]
    assert inst.halted and inst.count == 2
    assert query(inst, 100.0) is False  # halted: always Bottom


def test_sparse_instance_zero_capacity():
    inst = SparseInstance(1.5, 0, zero_source(), zero_source())
    assert inst.halted
    assert query(inst, 10.0) is False


def test_sparse_instance_boundary_symmetry():
    # Lap(2s) score noise vs Lap(s) threshold noise: a query exactly at the
    # threshold is Top with probability 1/2 by symmetry of the difference.
    sigma = 2.0
    tops = 0
    n = 100_000
    for i in range(n):
        inst = SparseInstance(
            1.5, 1,
            NoiseSource(LAPLACE, sigma, seed=(i, 0)),
            NoiseSource(LAPLACE, 2 * sigma, seed=(i, 1)),
        )
        tops += query(inst, 1.5)
    assert tops / n == pytest.approx(0.5, abs=0.01)


class RecordedNoise:
    """Noise source that records its draws; scripted values come first."""

    def __init__(self, source, script=()):
        self.source = source
        self.script = list(script)
        self.draws = []

    def draw(self):
        x = self.script.pop(0) if self.script else self.source.draw()
        self.draws.append(x)
        return x


# One check a RecordingInstance answered: the beta and uniform it was given,
# its bar and cap, its answer, and the exact draw if step recomputed it.
Check = collections.namedtuple("Check", "beta u bar cap answer exact")


class RecordingInstance(SparseInstance):
    """A SparseInstance that records each check it answers while live. The
    scan draws score noise ahead in blocks, so a source's draws are not what
    its checks consumed, and a block's beta is within the slack of the draw
    rather than the draw itself."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checks = []

    def step(self, state, e, cap, beta, u=None):
        if self.halted:
            return super().step(state, e, cap, beta, u)
        bar = self.threshold + self._alpha
        exact = []  # the exact draw, when step recomputes it from u
        real = streaming.inverse_cdf
        streaming.inverse_cdf = lambda *args: exact.append(real(*args)) or exact[-1]
        try:
            answer = super().step(state, e, cap, beta, u)
        finally:
            streaming.inverse_cdf = real
        self.checks.append(Check(beta, u, bar, cap, answer, exact[0] if exact else None))
        return answer


def reference_scan(f, V, instances):
    # The scan and step before noise-first checks and block draws: every
    # live rung asks its state for f(e|S), then draws its score noise on
    # its own and compares. Returns the states, the checks and each rung's
    # score draws.
    states = [f.make_state() for _ in instances]
    betas = [[] for _ in instances]
    checks = 0
    for e in V:
        for inst, state, drawn in zip(instances, states, betas):
            if inst.halted:
                continue
            checks += 1
            query_value = state.marginal(e)
            beta = inst.score_noise.draw()
            drawn.append(beta)
            if query_value + beta >= inst.threshold + inst._alpha:
                inst.count += 1
                if inst.count >= inst.capacity:
                    inst.halted = True
                else:
                    inst._alpha = inst.threshold_noise.draw()
                state.accept(e)
    return states, checks, betas


def make_rungs(kind, scale, seed, thresholds, k, scripts=None):
    # Scripted score noise has only draw(), so it must stay below the block
    # gate; unscripted score noise is a real source that blocks can read.
    scripts = scripts or {}

    def score_noise(i):
        source = NoiseSource(kind, 2 * scale, seed=(seed, i, 1))
        return RecordedNoise(source, scripts[i, 1]) if (i, 1) in scripts else source

    return [
        RecordingInstance(
            threshold, k,
            RecordedNoise(NoiseSource(kind, scale, seed=(seed, i, 0)), scripts.get((i, 0), ())),
            score_noise(i),
        )
        for i, threshold in enumerate(thresholds)
    ]


@contextlib.contextmanager
def recorded_blocks():
    """Yields a list of (number of sources, count), one per block drawn,
    exact or approximate."""
    blocks = []
    patched = {}
    for name in ("draw_block", "draw_block_approx"):
        real = patched[name] = getattr(streaming, name)

        def draw(sources, count, real=real):
            blocks.append((len(sources), count))
            return real(sources, count)

        setattr(streaming, name, draw)
    try:
        yield blocks
    finally:
        for name, real in patched.items():
            setattr(streaming, name, real)


def assert_scan_matches_reference(f, V, kind, scale, seed, thresholds, k, scripts=None):
    """Runs the scan and the reference on twin rungs, asserts that each rung
    consumed the same threshold and score noise in the same order, answered
    each check as the exact comparison does, and ended in the same state;
    returns the scan's states, its blocks and its rungs."""
    new = make_rungs(kind, scale, seed, thresholds, k, scripts)
    old = make_rungs(kind, scale, seed, thresholds, k, scripts)
    with recorded_blocks() as blocks:
        states, streamed, checks = _scan(f, V, new, len(V))
    ref_states, ref_checks, ref_betas = reference_scan(f, V, old)
    assert (streamed, checks) == (len(V), ref_checks)
    for a, b, state, ref, betas in zip(new, old, states, ref_states, ref_betas):
        assert state.selected == ref.selected
        assert (a.count, a.halted) == (b.count, b.halted)
        assert state.value == ref.value  # per_guess_values
        assert a.threshold_noise.draws == b.threshold_noise.draws
        assert len(a.checks) == len(betas)
        for check, beta in zip(a.checks, betas):
            if check.u is None:
                assert check.beta == beta
                continue
            exact = inverse_cdf(a.score_noise.kind, a.score_noise.scale, check.u)
            assert exact == beta
            if check.exact is not None:
                assert check.exact == beta
            else:
                # Certified: the exact comparison decides without a marginal.
                assert check.answer == (beta >= check.bar)
                assert check.answer or check.cap + beta < check.bar
    return states, blocks, new


def certified(rungs):
    """How many checks of the rungs were answered from an approximate beta."""
    return sum(c.u is not None and c.exact is None for r in rungs for c in r.checks)


def exactness_oracles(rng):
    clients = rng.uniform(-8, 8, size=(60, 2))
    candidates = [tuple(p) for p in rng.uniform(-8, 8, size=(12, 2))]
    farthest = np.abs(clients[:, None, :] - np.array(candidates)).sum(axis=2).max()
    # G inside the 1e-9 slack below the farthest distance caps some distances.
    tight = kmedians_oracle(clients, candidates, normalizer=float(farthest) - 5e-10)
    records = [int(r) for r in rng.integers(0, 8, size=40)]
    weights = {i: float(w) for i, w in enumerate(rng.uniform(0, 1, size=10))}
    return [
        (kmedians_oracle(clients, candidates), candidates),
        (tight, candidates),
        (coverage_oracle(records), list(range(10))),
        (ModularObjective(weights), list(weights)),
    ]


@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL, ZERO_FOR_TEST])
@pytest.mark.parametrize("oracle_index", range(4))
def test_noise_first_scan_matches_reference(kind, oracle_index):
    # Noise from far below to far above the gains, thresholds across them,
    # streams with repeated elements, capacities 1-4.
    certified_checks = 0
    for trial in range(12):
        rng = np.random.default_rng([oracle_index, trial])
        f, domain = exactness_oracles(rng)[oracle_index]
        # 6 rungs x 5 elements stay below the block gate; 25 elements draw
        # blocks; 70 elements draw blocks of 32, 32 and 6, the last one only
        # while at least 6 rungs are live.
        length = (5, 25, 70)[trial // 4]
        V = [domain[i] for i in rng.integers(0, len(domain), size=length)]
        top = max(f.make_state().marginal(e) for e in domain)
        thresholds = sorted(rng.uniform(0.0, 1.2 * top, size=6))
        scale = 0.0 if kind == ZERO_FOR_TEST else top * (0.02, 0.3, 3.0)[trial % 3]
        _, blocks, rungs = assert_scan_matches_reference(f, V, kind, scale, trial, thresholds,
                                                         k=1 + trial % 4)
        assert bool(blocks) == (length > 5)
        certified_checks += certified(rungs)
        assert all(count == min(32, length - 32 * j) for j, (_, count) in enumerate(blocks))
    # Blocks of real noise answer checks from their approximate betas.
    assert (certified_checks > 0) == (kind != ZERO_FOR_TEST)


def test_scan_block_gate_and_mixed_windows():
    # One rung: a first window of 32 elements makes one block of 32 draws;
    # the last 8 elements fall below the gate and draw one by one.
    f = coverage_oracle([int(r) for r in np.random.default_rng(5).integers(0, 6, size=30)])
    V = [i % 6 for i in range(40)]
    for kind in (LAPLACE, GUMBEL):
        states, blocks, _ = assert_scan_matches_reference(f, V, kind, 0.5, 9, [2.0], 40)
        assert blocks == [(1, 32)]
        assert len(states[0].selected) < 40
    # Below the gate from the start: 5 rungs of 6 elements read 30 draws.
    _, blocks, _ = assert_scan_matches_reference(f, V[:6], LAPLACE, 0.5, 9, [1.0] * 5, 2)
    assert blocks == []
    # A rung that halts inside a block discards the rest of its row, and the
    # next block is drawn for the rungs still live.
    _, blocks, _ = assert_scan_matches_reference(f, V * 2, LAPLACE, 0.01, 3,
                                                 [0.1, 1.0, 1e6], 2)
    assert blocks[0] == (3, 32) and blocks[1][0] < 3


def test_noise_first_scan_ties():
    # beta == bar: Top without the marginal, and 0 + beta >= bar agrees.
    # Then 0's gain 2 with beta = -1 stays below bar = 1.5 + 0.
    f = coverage_oracle([0, 0, 1])
    states, _, _ = assert_scan_matches_reference(
        f, [5, 0], ZERO_FOR_TEST, 0.0, 0, [1.5], 2,
        scripts={(0, 0): [0.5, 0.0], (0, 1): [2.0, -1.0]})
    assert states[0].selected == [5]
    # cap + beta == bar: undecided, so the marginal decides. Element 0 has
    # cap 2; bar = 1 + 0 and beta = -1 tie for the empty state (Top), and
    # its repeat gains 0 < 2 (Bottom).
    states, _, _ = assert_scan_matches_reference(
        f, [0, 0], ZERO_FOR_TEST, 0.0, 0, [1.0], 2,
        scripts={(0, 1): [-1.0, -1.0]})
    assert states[0].selected == [0]
    # The same tie on k-medians floats: bar is cap + beta rounded.
    rng = np.random.default_rng(3)
    g = kmedians_oracle(rng.uniform(0, 5, size=(30, 2)),
                        [tuple(p) for p in rng.uniform(0, 5, size=(4, 2))])
    e = g.candidates[0]
    cap = g.make_state().marginal(e)
    beta = -0.3 * cap
    states, _, _ = assert_scan_matches_reference(
        g, [e, g.candidates[1], e], ZERO_FOR_TEST, 0.0, 0, [cap + beta], 3,
        scripts={(0, 1): [beta, beta, beta]})
    assert states[0].selected[0] == e
    # Without exact_diminishing_returns there is no cap: after 0.1, the
    # evaluate-difference gain of 0.2 is (0.1 + 0.2) - 0.1 > 0.2, and a bar
    # at that gain is Top although the empty-state gain 0.2 lies below it.
    h = ModularObjective({"a": 0.1, "b": 0.2})
    states, _, _ = assert_scan_matches_reference(
        h, ["a", "b"], ZERO_FOR_TEST, 0.0, 0, [(0.1 + 0.2) - 0.1], 2,
        scripts={(0, 0): [0.0, 0.0], (0, 1): [1.0, 0.0]})
    assert states[0].selected == ["a", "b"]


def _near_tie_seed(kind, cap):
    """The first seed whose rung 0 score source of make_rungs(kind, 1.0,
    seed, ...) starts with a draw that numpy's log puts below the exact one,
    also once cap is added to both; None if numpy's log matched throughout."""
    for seed in range(20_000):
        values, uniforms = draw_block_approx([NoiseSource(kind, 2.0, seed=(seed, 0, 1))], 1)
        exact = inverse_cdf(kind, 2.0, uniforms[0][0])
        if cap + values[0][0] < cap + exact:
            return seed
    return None


@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL])
@pytest.mark.parametrize("cap", [0.0, 1.0])
def test_scan_answers_near_ties_as_the_exact_draw_does(kind, cap, monkeypatch):
    # One rung of capacity 1 reads a block of 32 draws; its first check has
    # the bar at cap + the exact draw. Label 1 gains 0 (cap 0), so the exact
    # answer is Top by beta >= bar; label 0 gains 1 (cap 1), so cap + beta
    # == bar leaves it open and f(e|empty) + beta >= bar answers Top. The
    # block's beta lies an ulp below the exact draw, so only the slack keeps
    # cap + beta < bar from certifying Bottom.
    f = coverage_oracle([0])
    e = 1 if cap == 0.0 else 0
    V = [e] + list(range(10, 41))  # the rest gain 0
    found = _near_tie_seed(kind, cap)
    seed = 0 if found is None else found
    bar = cap + NoiseSource(kind, 2.0, seed=(seed, 0, 1)).draw()
    scripts = {(0, 0): [0.0]}  # alpha = 0, so the bar is the threshold
    states, blocks, rungs = assert_scan_matches_reference(f, V, kind, 1.0, seed, [bar], 1,
                                                          scripts=scripts)
    assert blocks == [(1, 32)] and states[0].selected == [e]
    if found is None:
        pytest.skip("numpy's log matched math.log on every draw searched")
    assert rungs[0].checks[0].exact is not None  # the exact draw decided
    monkeypatch.setattr(streaming, "APPROX_SLACK", 0.0)
    states, _, _ = _scan(f, V, make_rungs(kind, 1.0, seed, [bar], 1, scripts), len(V))
    assert states[0].selected[:1] != [e]


def test_noise_first_pssm_skips_most_marginals():
    # 2,000 clients: with 500, the rungs' noise decided every check of this
    # run.
    rng = np.random.default_rng(14)
    f = kmedians_oracle(rng.uniform(0, 20, size=(2000, 2)),
                        [tuple(p) for p in rng.uniform(0, 20, size=(150, 2))])
    calls = [0]
    requested = []
    base = type(f.make_state())

    class CountingState(base):
        def marginal(self, e):
            calls[0] += 1
            return super().marginal(e)

    make_states = f.make_states

    def counting_states(count):
        # The scan asks for its rungs' states, one each, and nothing more.
        requested.append(count)
        states = make_states(count)
        for state in states:
            state.__class__ = CountingState
        return states

    f.make_states = counting_states
    cfg = make_cfg(noise_kind=LAPLACE, k=5, m_bound=2000.0, master_seed=3)
    _, diag = pssm(f, f.candidates, cfg)
    assert requested == [diag.num_guesses]
    assert 0 < calls[0] < diag.marginal_calls / 2


def _grid_instance(kind, seed):
    # 2,000 clients, a 12 x 12 grid of candidates and a shuffled stream.
    rng = np.random.default_rng(21)
    clients = rng.uniform(0, 20, size=(2000, 2))
    side = np.linspace(0, 20, 12)
    grid = [(x, y) for y in side for x in side]
    V = [grid[i] for i in np.random.default_rng(seed).permutation(len(grid))]
    cfg = make_cfg(noise_kind=kind, k=5, m_bound=2000.0, master_seed=seed)
    return clients, grid, V, cfg


@pytest.mark.parametrize("kind, seed", [(LAPLACE, 0), (GUMBEL, 1)])
def test_pssm_on_a_cold_oracle_matches_a_warm_one(kind, seed):
    # Which marginals a run computes depends on what the oracle has cached;
    # its answers, draws and selection must not.
    clients, grid, V, cfg = _grid_instance(kind, seed)
    warm = kmedians_oracle(clients, grid)
    state = warm.make_state()
    for e in grid:
        state.marginal(e)
    assert len(warm._empty_gains) == len(grid)
    assert pssm(kmedians_oracle(clients, grid), V, cfg) == pssm(warm, V, cfg)


@pytest.mark.parametrize("kind, seed", [(LAPLACE, 0), (GUMBEL, 1)])
def test_pssm_computes_few_exact_empty_gains(kind, seed):
    # The checks' caps come from the oracle's table, so an exact empty-state
    # gain is computed only where a check's noise leaves the answer open.
    clients, grid, V, cfg = _grid_instance(kind, seed)
    f = kmedians_oracle(clients, grid)
    _, diag = pssm(f, V, cfg)
    assert len(f._empty_gains) < diag.stream_length / 10


@pytest.mark.parametrize("kind", [LAPLACE, GUMBEL, ZERO_FOR_TEST])
def test_pssm_threshold_block_matches_scalar_draws(kind, monkeypatch):
    # With T k >= the gate, one block holds every rung's k threshold draws;
    # with the gate out of reach every draw is scalar. Runs must agree.
    rng = np.random.default_rng(15)
    f = kmedians_oracle(rng.uniform(0, 20, size=(200, 2)),
                        [tuple(p) for p in rng.uniform(0, 20, size=(60, 2))])
    for seed in range(4):
        V = [f.candidates[i] for i in rng.permutation(60)]
        cfg = make_cfg(noise_kind=kind, k=8, m_bound=200.0, master_seed=seed)
        with recorded_blocks() as blocks:
            blocked = pssm(f, V, cfg)
        T = blocked[1].num_guesses
        assert T * cfg.k >= 32 and blocks[0] == (T, cfg.k)
        with monkeypatch.context() as patch:
            patch.setattr(streaming, "_BLOCK_GATE", math.inf)
            with recorded_blocks() as blocks:
                scalar = pssm(f, V, cfg)
        assert blocks == []
        assert blocked == scalar


def test_pssm_walks_the_whole_stream_after_every_rung_halts():
    # Every record is label 0, so f({0}) = m tops every rung's bar (at most
    # m/2k, noiseless) and each k = 1 rung halts on the first element. The
    # rest of the stream is still counted: the n_bound check needs it.
    f = coverage_oracle([0] * 6)
    V = list(range(40))
    _, diag = pssm(f, V, make_cfg(k=1, n_bound=len(V)))
    assert diag.per_guess_sizes == (1,) * diag.num_guesses
    assert diag.stream_length == len(V)
    short = make_cfg(k=1, n_bound=len(V) - 1)
    for stream in (V, (e for e in V)):
        with pytest.raises(ValueError, match="n_bound of 39"):
            pssm(f, stream, short)


def random_coverage_instance(rng, n_labels=15, n_records=40):
    universe = list(range(n_labels))
    records = [int(r) for r in rng.integers(0, n_labels, size=n_records)]
    return coverage_oracle(records), universe


def test_pssm_noiseless_reduction():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f, stream = random_coverage_instance(rng)
        cfg = make_cfg()
        selected, diag = pssm(f, stream, cfg)
        best = max(
            f.evaluate(threshold_stream(f, stream, cfg.k, g)) for g in diag.guesses
        )
        assert f.evaluate(selected) == best


def test_pssm_empty_stream():
    f = coverage_oracle([1, 2, 3])
    selected, diag = pssm(f, [], make_cfg(n_bound=4))
    assert selected == []
    assert diag.stream_length == 0


def test_pssm_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(8)
    f, stream = random_coverage_instance(rng)
    m = float(f.num_agents)
    cfg = make_cfg(noise_kind=GUMBEL, m_bound=m, master_seed=123)
    sel_a, diag_a = pssm(f, stream, cfg)
    sel_b, diag_b = pssm(f, stream, make_cfg(noise_kind=GUMBEL, m_bound=m, master_seed=123))
    assert sel_a == sel_b
    assert diag_a.per_guess_sizes == diag_b.per_guess_sizes
    assert diag_a.per_guess_values == diag_b.per_guess_values
    assert diag_a.chosen_index == diag_b.chosen_index
    outcomes = {
        tuple(pssm(f, stream, make_cfg(noise_kind=GUMBEL, m_bound=m, master_seed=s))[0])
        for s in range(6)
    }
    assert len(outcomes) > 1  # seeds actually steer the run


def test_pssm_validation():
    f = ModularObjective({"a": 1.0})
    with pytest.raises(ValueError):
        pssm(f, ["a"], make_cfg(noise_kind=GUMBEL))  # not decomposable
    cov = coverage_oracle([1, 1, 2])
    with pytest.raises(ValueError, match="n_bound"):
        pssm(cov, [1, 2, 3], make_cfg(noise_kind=LAPLACE, m_bound=3.0, n_bound=2))
    scaled = ModularObjective({"a": 3.0})
    with pytest.raises(ValueError):
        pssm(scaled, ["a"], make_cfg(noise_kind=LAPLACE, m_bound=4.0))  # sensitivity != 1
    # Private runs need a public m_bound: the agent count would give the
    # neighbours [0, 1, 2] and [0, 1] ladders 1.5...3.0 and 1.0...2.0.
    for records in ([0, 1, 2], [0, 1]):
        with pytest.raises(ValueError, match="m_bound"):
            pssm(coverage_oracle(records), [0, 1, 2, 3],
                 make_cfg(noise_kind=GUMBEL, k=2, n_bound=4))
    _, diag = pssm(coverage_oracle([0, 1, 2]), [0, 1, 2, 3], make_cfg(k=2, n_bound=4))
    assert diag.guesses[-1] == 3.0  # the noiseless kind keeps the agent count
    for m_bound in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            pssm(cov, [1, 2, 3], make_cfg(noise_kind=LAPLACE, m_bound=m_bound))
    for k in (2.5, 2.0, 0):
        with pytest.raises(ValueError, match="k must"):
            make_cfg(k=k)
    # A float n_bound used to reach draw_block's integer counter (100.0) or
    # silently move the ladder floor k ln n / eps (150.5).
    for n_bound in (100.0, 150.5, -1, math.inf):
        with pytest.raises(ValueError, match="n_bound"):
            make_cfg(n_bound=n_bound)


def test_pssm_config_rejects_out_of_contract_seeds_and_counts():
    # derive_seed reads a seed as int(seed) mod 2^64 and True is the int 1,
    # so without these checks each value would alias an in-range seed or 1.
    for seed in (1.5, True, 2**64 + 1, 2**64, -1, "1"):
        with pytest.raises(ValueError, match="master_seed"):
            make_cfg(master_seed=seed)
    with pytest.raises(ValueError, match="k must"):
        make_cfg(k=True)
    with pytest.raises(ValueError, match="n_bound"):
        make_cfg(n_bound=True)
    f = coverage_oracle([0, 1, 2])
    runs = [pssm(f, [0, 1, 2, 3], make_cfg(noise_kind=GUMBEL, k=2, m_bound=3.0, master_seed=seed))
            for seed in (0, 2**64 - 1, np.uint64(2**64 - 1))]
    assert runs[1] == runs[2]


def test_pssm_single_pass_and_call_counts():
    # Stream of labels the records never mention: every marginal is 0, no
    # instance ever accepts, so each element is offered to all T instances.
    f = coverage_oracle(["x"] * 5)
    stream = ["a", "b", "c"]
    selected, diag = pssm(f, stream, make_cfg(n_bound=3))
    assert selected == []
    assert diag.marginal_calls == diag.num_guesses * len(stream)
    assert diag.per_guess_sizes == (0,) * diag.num_guesses


def test_pssm_resource_invariants():
    rng = np.random.default_rng(9)
    f, stream = random_coverage_instance(rng)
    cfg = make_cfg(noise_kind=GUMBEL, m_bound=float(f.num_agents), master_seed=5)
    selected, diag = pssm(f, stream, cfg)
    assert len(selected) <= cfg.k
    assert set(selected) <= set(stream)
    assert diag.retained_total <= cfg.k * diag.num_guesses
    assert diag.marginal_calls <= diag.num_guesses * len(stream)
    assert diag.stream_length == len(stream)
    assert diag.budget is not None
    assert diag.reported_error_bound > 0


def test_pssm_zero_noise_reports_no_guarantee():
    f = coverage_oracle([1, 2, 2])
    _, diag = pssm(f, [1, 2], make_cfg())
    assert diag.budget is None
    assert diag.reported_error_bound == 0.0


def test_state_values_monotone_under_accepts():
    rng = np.random.default_rng(10)
    f, stream = random_coverage_instance(rng)
    state = f.make_state()
    last = 0.0
    for e in stream[:10]:
        state.accept(e)
        assert state.value >= last - 1e-12
        last = state.value


def test_bounded_noise_zero_width_matches_noiseless_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f, stream = random_coverage_instance(rng, n_labels=10, n_records=25)
        O = float(rng.uniform(1.0, 20.0))
        assert bounded_noise_utility_check(
            f, stream[:10], k=3, O=O, a_l=0.0, a_u=0.0, b_l=0.0, b_u=0.0,
            rng=np.random.default_rng(0),
        )


def test_bounded_noise_uniform_bounds_hold():
    rng = np.random.default_rng(12)
    for trial in range(100):
        f, stream = random_coverage_instance(rng, n_labels=10, n_records=25)
        O = float(rng.uniform(1.0, 20.0))
        assert bounded_noise_utility_check(
            f, stream[:10], k=3, O=O, a_l=-0.1, a_u=0.1, b_l=-0.1, b_u=0.1,
            rng=np.random.default_rng(trial),
        )


def test_bounded_noise_vacuous_bounds_run_clean():
    f = coverage_oracle([1, 2, 3, 4])
    assert bounded_noise_utility_check(
        f, [1, 2, 3, 4], k=2, O=4.0, a_l=-1000.0, a_u=1000.0,
        b_l=-1000.0, b_u=1000.0, rng=np.random.default_rng(1),
    )
    with pytest.raises(ValueError):
        bounded_noise_utility_check(
            f, [1], k=1, O=1.0, a_l=1.0, a_u=-1.0, b_l=0.0, b_u=0.0,
            rng=np.random.default_rng(2),
        )
