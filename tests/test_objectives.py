import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privstream.objectives import CoverageObjective, coverage_oracle, kmedians_oracle
from privstream.submodular import (
    ModularObjective,
    brute_force_opt,
    check_submodular_monotone,
    marginal_gain,
)
from support import generate_hard_instance


def test_kmedians_hand_values():
    f = kmedians_oracle([(0.0, 0.0)], [(3.0, 4.0)], normalizer=10.0)
    assert f.evaluate([(3.0, 4.0)]) == pytest.approx(0.3)  # d=7, 1 - 7/10
    assert f.evaluate([]) == 0.0
    assert f.clustering_cost([]) == 10.0  # d(p, empty) = G


def test_kmedians_normalizer_validation():
    with pytest.raises(ValueError):
        kmedians_oracle([(0.0, 0.0)], [(3.0, 4.0)], normalizer=5.0)
    # default normalizer is the bounding-box l1 diameter: always valid
    f = kmedians_oracle([(0.0, 0.0), (1.0, 9.0)], [(3.0, 4.0), (-2.0, 0.0)])
    assert f.normalizer == pytest.approx((3.0 - (-2.0)) + (9.0 - 0.0))


def test_kmedians_degenerate_normalizer():
    # Every point coincides: G = 0 and each utility would be 0/0. Building
    # the oracle works; asking for any value raises instead of giving NaN.
    f = kmedians_oracle([[0.0, 0.0]], [(0.0, 0.0)])
    assert f.evaluate([]) == 0.0
    state = f.make_state()
    for ask in (lambda: f.evaluate([(0.0, 0.0)]), lambda: state.marginal((0.0, 0.0)),
                lambda: state.accept((0.0, 0.0)), lambda: f.agent_values([])):
        with pytest.raises(ValueError, match="normalizer is 0"):
            ask()
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            kmedians_oracle([(0.0, 0.0)], [(3.0, 4.0)], normalizer=bad)
    with pytest.raises(ValueError, match="finite"):
        kmedians_oracle([(0.0, np.inf)], [(3.0, 4.0)])
    with pytest.raises(ValueError, match="finite"):
        kmedians_oracle([(0.0, 0.0)], [(np.nan, 4.0)])


def test_kmedians_normalizer_slack_caps_distances():
    # G may sit up to 1e-9 below the largest distance; distances are capped
    # at G, so utilities stay in [0, 1] and the far client counts as unserved.
    f = kmedians_oracle([(0.0, 0.0), (3.0, 4.0)], [(3.0, 4.0)], normalizer=7.0 - 5e-10)
    assert f.agent_values([(3.0, 4.0)]).tolist() == [0.0, 1.0]
    assert f.clustering_cost([(3.0, 4.0)]) == f.normalizer


coordinate = st.floats(-1e3, 1e3, allow_subnormal=False)


@given(
    clients=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30),
    candidates=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8),
)
@example(clients=[(-1.5, 2.25), (0.1, -0.3), (-1.5, 2.25)],
         candidates=[(-1.5, -0.3), (0.1, 2.25), (-1.5, -0.3), (1e-3, -7.0)])
@settings(max_examples=150, deadline=None)
def test_kmedians_column_is_bit_identical(clients, candidates):
    # Non-grid, negative and repeated coordinates: the per-coordinate column
    # is the full column, and a state's marginal the full-column formula.
    arr = np.asarray(clients, dtype=float)
    f = kmedians_oracle(arr, candidates, normalizer=5e3)
    state = f.make_state()
    for e in candidates + candidates[::-1]:
        full = np.abs(arr - np.asarray(e, dtype=float)).sum(axis=1)
        assert f._column(e).tobytes() == full.tobytes()
        gain = float(np.maximum(state._dmin - full, 0.0).sum() / f.normalizer)
        assert state.marginal(e) == gain
        if len(state) < 3:
            state.accept(e)


def test_kmedians_grid_caches_two_vectors_per_side():
    rng = np.random.default_rng(18)
    g = 7
    grid = [(x * 1.5, -3.0 + y * 0.5) for x in range(g) for y in range(g)]
    f = kmedians_oracle(rng.uniform(-4, 10, size=(40, 2)), grid)
    state = f.make_state()
    for e in grid:
        for x in grid:
            state.marginal(x)
        state.accept(e)
    f.evaluate(grid)
    assert len(f._xcols) == len(f._ycols) == g
    assert len(f._empty_gains) == g * g


def _state_value_is_exact(f, picks):
    state = f.make_state()
    assert state.value == 0.0
    for e in picks:
        state.marginal(e)
        state.accept(e)
        assert state.value == f.evaluate(state.selected)
    assert state.selected == list(picks)
    unread = f.make_state()  # a value first read after every accept
    for e in picks:
        unread.accept(e)
    assert unread.value == state.value


def test_kmedians_empty_state_value_is_zero():
    # Three distances of G = 0.1 sum to 0.30000000000000004, so the value
    # formula n - sum(d)/G would read -4.4e-16 for the empty set.
    f = kmedians_oracle([[0.0, 0.0], [0.05, 0.0], [0.1, 0.0]], [(0.0, 0.0)], normalizer=0.1)
    assert f.num_agents - np.full(3, 0.1).sum() / 0.1 != 0.0
    assert f.make_state().value == 0.0
    assert f.evaluate([]) == 0.0


point = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda p: (p[0] * 0.7, p[1] * 1.3))


@given(
    clients=st.lists(point, min_size=1, max_size=12),
    candidates=st.lists(point, min_size=1, max_size=6, unique=True),
    slack=st.sampled_from([None, 0.0, 2e-10, 9e-10]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kmedians_state_value_equals_evaluate(clients, candidates, slack, data):
    arr_c, arr_v = np.asarray(clients), np.asarray(candidates)
    far = float(np.abs(arr_c[:, None, :] - arr_v[None, :, :]).sum(axis=2).max())
    if far == 0.0:
        return  # every point coincides: see test_kmedians_degenerate_normalizer
    normalizer = None if slack is None else far - slack  # None: bounding-box default
    f = kmedians_oracle(clients, candidates, normalizer)
    picks = data.draw(st.lists(st.sampled_from(f.candidates), max_size=10))  # repeats allowed
    _state_value_is_exact(f, picks)


@given(records=st.lists(st.integers(0, 5), min_size=1, max_size=20),
       picks=st.lists(st.integers(0, 7), max_size=12))
@settings(max_examples=150)
def test_coverage_state_value_equals_evaluate(records, picks):
    _state_value_is_exact(coverage_oracle(records), picks)


@given(weights=st.lists(st.floats(0, 1e6), min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), max_size=12))
@example(weights=[0.1, 1.1, 0.3], picks=[0, 2, 1])  # a running sum of gains drifts here
@settings(max_examples=150)
def test_generic_state_value_equals_evaluate(weights, picks):
    f = ModularObjective(dict(enumerate(weights)))
    _state_value_is_exact(f, [p % len(weights) for p in picks])


def test_kmedians_cost_identity():
    rng = np.random.default_rng(11)
    clients = rng.uniform(0, 20, size=(60, 2))
    candidates = [tuple(p) for p in rng.uniform(0, 20, size=(30, 2))]
    f = kmedians_oracle(clients, candidates)
    for _ in range(100):
        size = int(rng.integers(0, 6))
        S = [candidates[i] for i in rng.choice(30, size=size, replace=False)]
        cost = f.clustering_cost(S)
        assert cost == pytest.approx(
            f.normalizer * (f.num_agents - f.evaluate(S)), rel=1e-9
        )


def test_kmedians_state_matches_evaluate_difference():
    rng = np.random.default_rng(12)
    clients = rng.uniform(0, 10, size=(40, 2))
    candidates = [tuple(p) for p in rng.uniform(0, 10, size=(20, 2))]
    f = kmedians_oracle(clients, candidates)
    state = f.make_state()
    chosen = []
    for i in rng.permutation(20)[:8]:
        e = candidates[i]
        incremental = state.marginal(e)
        direct = f.evaluate(chosen + [e]) - f.evaluate(chosen)
        assert incremental == pytest.approx(direct, rel=1e-9, abs=1e-9)
        state.accept(e)
        chosen.append(e)
        assert state.value == pytest.approx(f.evaluate(chosen), rel=1e-9)


def test_kmedians_is_monotone_submodular():
    rng = np.random.default_rng(13)
    clients = rng.uniform(0, 10, size=(50, 2))
    candidates = [tuple(p) for p in rng.uniform(0, 10, size=(14, 2))]
    f = kmedians_oracle(clients, candidates)
    report = check_submodular_monotone(f, candidates, 2000, rng)
    assert report.passed


def test_kmedians_agent_sum():
    rng = np.random.default_rng(14)
    clients = rng.uniform(0, 5, size=(25, 2))
    candidates = [tuple(p) for p in rng.uniform(0, 5, size=(10, 2))]
    f = kmedians_oracle(clients, candidates)
    S = candidates[:3]
    values = f.agent_values(S)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert f.evaluate(S) == pytest.approx(values.sum(), rel=1e-12)


def test_coverage_counts():
    f = coverage_oracle(["a", "a", "b"])
    assert f.evaluate([("a")]) == 2.0
    assert f.evaluate([]) == 0.0
    assert f.evaluate(["a", "b"]) == 3.0
    assert marginal_gain(f, "a", ["a"]) == 0.0
    assert marginal_gain(f, "z", []) == 0.0
    state = f.make_state()
    state.accept("b")
    assert state.value == 1.0


def test_hard_instance_construction():
    rng = np.random.default_rng(15)
    with pytest.warns(UserWarning):
        inst = generate_hard_instance(64, 4, epsilon=1.0, delta=0.01, c=1.0, rng=rng)
    assert inst.multiplicity == 3  # ceil(ln((e-1)/0.01)/2)
    assert inst.opt_value == 12
    assert len(inst.dataset) == 12
    assert set(inst.dataset) == set(inst.target)
    assert all(e in inst.universe for e in inst.target)


def test_hard_instance_opt_reached_and_never_beaten():
    rng = np.random.default_rng(16)
    with pytest.warns(UserWarning):
        inst = generate_hard_instance(12, 3, epsilon=1.0, delta=0.01, c=1.0, rng=rng)
    oracle = inst.oracle()
    assert oracle.evaluate(inst.target) == inst.opt_value
    best_set, best_value = brute_force_opt(oracle, list(inst.universe), 3)
    assert best_value == inst.opt_value
    assert set(best_set) == set(inst.target)


def test_hard_instance_validation():
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError):
        generate_hard_instance(3, 5, 1.0, 0.01, 1.0, rng)
    with pytest.raises(ValueError):
        generate_hard_instance(8, 2, -1.0, 0.01, 1.0, rng)
