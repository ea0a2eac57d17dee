import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream import streaming
from privstream.accounting import PrivacyParams
from privstream.noise import GUMBEL, LAPLACE, ZERO_FOR_TEST, NoiseSource
from privstream.objectives import coverage_oracle, kmedians_oracle
from privstream.streaming import (
    PssmConfig,
    SparseInstance,
    _scan,
    build_guess_ladder,
    pssm,
    threshold_stream,
    threshold_stream_with_tail_fill,
)
from privstream.submodular import ModularObjective, brute_force_opt
from support import bounded_noise_utility_check


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
def test_ladder_covers_range(E, ratio, theta, xs):
    m = E * ratio
    guesses = build_guess_ladder(E, m, theta)
    assert guesses[-1] == m
    for frac in xs:
        x = E + frac * (m - E)
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
    [S] = threshold_stream_with_tail_fill(f, list(range(6)), 3, [100.0])
    assert S == [3, 4, 5]  # nothing passes, the last 3 fill the set
    g = ModularObjective({0: 9.0, 1: 0.01, 2: 0.01, 3: 0.01})
    [S] = threshold_stream_with_tail_fill(g, [0, 1, 2, 3], 2, [10.0])
    assert S == [0, 3]  # 0 passes, the tail provides the filler


def per_guess_tail_fill(f, V, k, O):
    # Reference: one separate tail-fill pass for the single guess O.
    V = list(V)
    state = f.make_state()
    bar = O / (2.0 * k)
    for i, e in enumerate(V):
        if len(state) >= k:
            break
        if len(V) - i <= k - len(state):
            if e not in state._selected_set:
                state.accept(e)
        elif state.marginal(e) >= bar:
            state.accept(e)
    return state.selected


def assert_ladder_matches_per_guess(f, V, k, guesses):
    sets = threshold_stream_with_tail_fill(f, V, k, guesses)
    assert sets == [per_guess_tail_fill(f, V, k, O) for O in guesses]
    return sets


@given(
    clients=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=25),
    candidates=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1,
                        max_size=10, unique=True),
    picks=st.lists(st.integers(0, 9), min_size=1, max_size=16),
    k_extra=st.integers(-16, 1),
    fracs=st.lists(st.floats(0.001, 1.5), min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_ladder_matches_per_guess_passes_kmedians(clients, candidates, picks, k_extra, fracs):
    V = [candidates[i % len(candidates)] for i in picks]  # repeats allowed
    k = max(1, len(V) + k_extra)  # up to |V| + 1, so the tail fill fires
    f = kmedians_oracle(np.array(clients, dtype=float), candidates, normalizer=30.0)
    top = max(f.evaluate([e]) for e in V)
    guesses = sorted(2 * k * top * x for x in fracs)
    assert_ladder_matches_per_guess(f, V, k, guesses)


@given(
    records=st.lists(st.integers(0, 6), min_size=1, max_size=30),
    V=st.lists(st.integers(0, 8), min_size=1, max_size=16),
    k=st.integers(1, 17),
    bars=st.lists(st.one_of(st.integers(1, 8), st.floats(0.01, 9.0)), min_size=1, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_ladder_matches_per_guess_passes_coverage(records, V, k, bars):
    # Integer bars equal some gains exactly: the >= tie.
    f = coverage_oracle(records)
    assert_ladder_matches_per_guess(f, V, k, sorted(2.0 * k * b for b in bars))


def test_ladder_edge_cases():
    # bar == gain exactly: bars 1, 2, 3 against gains 1 (label 2), 2 (1), 3 (0).
    f = coverage_oracle([0, 0, 0, 1, 1, 2])
    sets = assert_ladder_matches_per_guess(f, [2, 1, 0, 3], 2, [4.0, 8.0, 12.0])
    assert sets == [[2, 1], [1, 0], [0, 3]]  # the last rung's 3 is tail fill
    # A repeated element: its second copy gains 0 and the tail fill skips it.
    g = coverage_oracle([0, 0, 1])
    sets = assert_ladder_matches_per_guess(g, [0, 1, 0, 0], 3, [0.6, 60.0])
    assert sets == [[0, 1], [1, 0]]
    # A higher rung rules a lower one out only from a subset of its set. At
    # (11, 0) the bar-2.5 rung holds (5, 2) and gains 0.27 < 0.75, while the
    # bar-0.75 rung holds (0, 10) instead and gains 0.87.
    h = kmedians_oracle(np.array([[12.0, 2.0], [8.0, 12.0], [0.0, 2.0], [12.0, 6.0]]),
                        [(11, 0), (0, 10), (5, 2)], normalizer=30.0)
    sets = assert_ladder_matches_per_guess(h, [(0, 10), (5, 2), (11, 0), (0, 10)], 2, [3.0, 10.0])
    assert sets == [[(0, 10), (11, 0)], [(5, 2), (0, 10)]]
    # k close to |V| on k-medians: every rung fills up, and the top rung
    # (bar 30 = |P|) clears nothing, so the tail fill supplies all of it.
    rng = np.random.default_rng(5)
    h = kmedians_oracle(rng.uniform(0, 10, size=(30, 2)),
                        [tuple(p) for p in rng.uniform(0, 10, size=(8, 2))])
    sets = assert_ladder_matches_per_guess(h, h.candidates, 7, [1.0, 5.0, 40.0, 420.0])
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
    k = 5
    guesses = build_guess_ladder(k * math.log(120) / 0.5, 400.0, 0.2)
    sets = threshold_stream_with_tail_fill(f, f.candidates, k, guesses)
    ladder_calls, calls[0] = calls[0], 0
    assert sets == [per_guess_tail_fill(f, f.candidates, k, O) for O in guesses]
    assert ladder_calls < calls[0]


def test_ladder_validation():
    f = coverage_oracle([0, 1])
    for guesses in ([], [0.0], [-1.0, 2.0], [math.nan], [2.0, 1.0]):
        with pytest.raises(ValueError, match="guesses"):
            threshold_stream_with_tail_fill(f, [0, 1], 1, guesses)
    for k in (0, 2.5):
        with pytest.raises(ValueError, match="k must"):
            threshold_stream_with_tail_fill(f, [0, 1], k, [1.0])
    assert threshold_stream_with_tail_fill(f, [0, 1], 1, [1.0, 1.0]) == [[0], [0]]


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


class RecordingInstance(SparseInstance):
    """A SparseInstance that records the score noise each check consumes:
    the scan draws score noise ahead in blocks, so a source's draws are not
    what its checks consumed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.betas = []

    def step(self, state, e, cap, beta):
        if not self.halted:
            self.betas.append(beta)
        return super().step(state, e, cap, beta)


def reference_scan(f, V, instances):
    # The scan and step before noise-first checks and block draws: every
    # live rung asks its state for f(e|S), then draws its score noise on
    # its own and compares.
    states = [f.make_state() for _ in instances]
    checks = 0
    for e in V:
        for inst, state in zip(instances, states):
            if inst.halted:
                continue
            checks += 1
            query_value = state.marginal(e)
            beta = inst.score_noise.draw()
            inst.betas.append(beta)
            if query_value + beta >= inst.threshold + inst._alpha:
                inst.count += 1
                if inst.count >= inst.capacity:
                    inst.halted = True
                else:
                    inst._alpha = inst.threshold_noise.draw()
                state.accept(e)
    return states, checks


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
    """Yields a list of (number of sources, count), one per block drawn."""
    blocks = []
    real = streaming.draw_block

    def draw_block(sources, count):
        blocks.append((len(sources), count))
        return real(sources, count)

    streaming.draw_block = draw_block
    try:
        yield blocks
    finally:
        streaming.draw_block = real


def assert_scan_matches_reference(f, V, kind, scale, seed, thresholds, k, scripts=None):
    """Runs the scan and the reference on twin rungs, asserts that each rung
    consumed the same threshold and score noise in the same order and ended
    in the same state; returns the scan's states and its blocks."""
    new = make_rungs(kind, scale, seed, thresholds, k, scripts)
    old = make_rungs(kind, scale, seed, thresholds, k, scripts)
    with recorded_blocks() as blocks:
        states, streamed, checks = _scan(f, V, new, len(V))
    ref_states, ref_checks = reference_scan(f, V, old)
    assert (streamed, checks) == (len(V), ref_checks)
    for a, b, state, ref in zip(new, old, states, ref_states):
        assert state.selected == ref.selected
        assert (a.count, a.halted) == (b.count, b.halted)
        assert state.value == ref.value  # per_guess_values
        assert a.threshold_noise.draws == b.threshold_noise.draws
        assert a.betas == b.betas
    return states, blocks


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
        _, blocks = assert_scan_matches_reference(f, V, kind, scale, trial, thresholds,
                                                  k=1 + trial % 4)
        assert bool(blocks) == (length > 5)
        assert all(count == min(32, length - 32 * j) for j, (_, count) in enumerate(blocks))


def test_scan_block_gate_and_mixed_windows():
    # One rung: a first window of 32 elements makes one block of 32 draws;
    # the last 8 elements fall below the gate and draw one by one.
    f = coverage_oracle([int(r) for r in np.random.default_rng(5).integers(0, 6, size=30)])
    V = [i % 6 for i in range(40)]
    for kind in (LAPLACE, GUMBEL):
        states, blocks = assert_scan_matches_reference(f, V, kind, 0.5, 9, [2.0], 40)
        assert blocks == [(1, 32)]
        assert len(states[0].selected) < 40
    # Below the gate from the start: 5 rungs of 6 elements read 30 draws.
    _, blocks = assert_scan_matches_reference(f, V[:6], LAPLACE, 0.5, 9, [1.0] * 5, 2)
    assert blocks == []
    # A rung that halts inside a block discards the rest of its row, and the
    # next block is drawn for the rungs still live.
    _, blocks = assert_scan_matches_reference(f, V * 2, LAPLACE, 0.01, 3,
                                              [0.1, 1.0, 1e6], 2)
    assert blocks[0] == (3, 32) and blocks[1][0] < 3


def test_noise_first_scan_ties():
    # beta == bar: Top without the marginal, and 0 + beta >= bar agrees.
    # Then 0's gain 2 with beta = -1 stays below bar = 1.5 + 0.
    f = coverage_oracle([0, 0, 1])
    states, _ = assert_scan_matches_reference(
        f, [5, 0], ZERO_FOR_TEST, 0.0, 0, [1.5], 2,
        scripts={(0, 0): [0.5, 0.0], (0, 1): [2.0, -1.0]})
    assert states[0].selected == [5]
    # cap + beta == bar: undecided, so the marginal decides. Element 0 has
    # cap 2; bar = 1 + 0 and beta = -1 tie for the empty state (Top), and
    # its repeat gains 0 < 2 (Bottom).
    states, _ = assert_scan_matches_reference(
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
    states, _ = assert_scan_matches_reference(
        g, [e, g.candidates[1], e], ZERO_FOR_TEST, 0.0, 0, [cap + beta], 3,
        scripts={(0, 1): [beta, beta, beta]})
    assert states[0].selected[0] == e
    # Without exact_diminishing_returns there is no cap: after 0.1, the
    # evaluate-difference gain of 0.2 is (0.1 + 0.2) - 0.1 > 0.2, and a bar
    # at that gain is Top although the empty-state gain 0.2 lies below it.
    h = ModularObjective({"a": 0.1, "b": 0.2})
    states, _ = assert_scan_matches_reference(
        h, ["a", "b"], ZERO_FOR_TEST, 0.0, 0, [(0.1 + 0.2) - 0.1], 2,
        scripts={(0, 0): [0.0, 0.0], (0, 1): [1.0, 0.0]})
    assert states[0].selected == ["a", "b"]


def test_noise_first_pssm_skips_most_marginals():
    rng = np.random.default_rng(14)
    f = kmedians_oracle(rng.uniform(0, 20, size=(500, 2)),
                        [tuple(p) for p in rng.uniform(0, 20, size=(150, 2))])
    calls = [0]
    base = type(f.make_state())

    class CountingState(base):
        def marginal(self, e):
            calls[0] += 1
            return super().marginal(e)

    f.make_state = lambda: CountingState(f)
    cfg = make_cfg(noise_kind=LAPLACE, k=5, m_bound=500.0, master_seed=3)
    _, diag = pssm(f, f.candidates, cfg)
    assert 0 < calls[0] < diag.marginal_calls


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
