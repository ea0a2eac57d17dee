import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privstream.objectives import (
    CoverageObjective,
    _max_pairwise_l1,
    coverage_oracle,
    kmedians_oracle,
)
from support import (
    ModularObjective,
    brute_force_opt,
    check_submodular_monotone,
    generate_hard_instance,
    marginal_gain,
)


def test_kmedians_hand_values():
    f = kmedians_oracle([(0.0, 0.0)], [(3.0, 4.0)], normalizer=10.0)
    assert f.evaluate([(3.0, 4.0)]) == pytest.approx(0.3)  # d=7, 1 - 7/10
    assert f.evaluate([]) == 0.0
    assert f.clustering_cost([]) == 10.0  # d(p, empty) = G
    # Three clients at distance G from the only candidate: the rounded sum of
    # their distances exceeds 3 G, and the value still reads 0.
    f = kmedians_oracle([(8.5997775739739, 13.02791527661212)] * 3, [(0.0, 0.0)])
    assert f.num_agents - np.full(3, f.normalizer).sum() / f.normalizer < 0.0
    state = f.make_state()
    state.accept((0.0, 0.0))
    assert f.evaluate([(0.0, 0.0)]) == state.value == 0.0


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
    for state in (f.make_state(), *f.make_states(2)):
        assert state.value == 0.0
        for ask in (lambda: f.evaluate([(0.0, 0.0)]), lambda: state.marginal((0.0, 0.0)),
                    lambda: state.accept((0.0, 0.0)), lambda: f.agent_values([]),
                    lambda: f.clustering_cost([])):
            with pytest.raises(ValueError, match="normalizer is 0"):
                ask()
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            kmedians_oracle([(0.0, 0.0)], [(3.0, 4.0)], normalizer=bad)
    # Within the 1e-9 slack of the 1e-10 distance, yet negative.
    with pytest.raises(ValueError, match="-5e-10"):
        kmedians_oracle([(0, 0)], [(1e-10, 0)], normalizer=-5e-10)
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


def _outcome(ask):
    # What a call gives, or the error it raises.
    try:
        result = ask()
    except ValueError as exc:
        return "raises", str(exc)
    return "gives", result.tobytes() if isinstance(result, np.ndarray) else float(result).hex()


_STATE_OPS = ("accept", "marginal", "value", "bound")


@given(
    clients=st.lists(point, min_size=1, max_size=12),
    candidates=st.lists(point, min_size=1, max_size=6, unique=True),
    slack=st.sampled_from([None, 0.0, 9e-10]),
    count=st.integers(1, 4),
    ops=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_STATE_OPS), st.integers(0, 5)),
                 max_size=25),  # (state, op, candidate), indices taken modulo; repeats allowed
)
@example(clients=[(0.0, 0.0)], candidates=[(0.0, 0.0)], slack=None, count=2,
         ops=[(0, op, 0) for op in _STATE_OPS] + [(1, "value", 0)])  # G = 0
@settings(max_examples=150, deadline=None)
def test_kmedians_block_states_match_single_states(clients, candidates, slack, count, ops):
    arr_c, arr_v = np.asarray(clients), np.asarray(candidates)
    far = float(np.abs(arr_c[:, None, :] - arr_v[None, :, :]).sum(axis=2).max())
    normalizer = None if slack is None or far == 0.0 else far - slack
    f = kmedians_oracle(clients, candidates, normalizer)
    block = f.make_states(count)
    singles = [f.make_state() for _ in range(count)]
    ops = [(i % count, op, f.candidates[c % len(f.candidates)]) for i, op, c in ops]
    for i, op, e in ops:
        rows = [state._dmin.copy() for state in block]
        outcomes = []
        for state in (block[i], singles[i]):
            if op == "accept":
                outcomes.append(_outcome(lambda: state.accept(e) or 0.0))
            elif op == "marginal":
                outcomes.append(_outcome(lambda: state.marginal(e)))
            elif op == "value":
                outcomes.append(_outcome(lambda: state.value))
            else:
                outcomes.append(_outcome(lambda: f.gain_bounds([state])(e)))
        assert outcomes[0] == outcomes[1]
        for j, (state, single) in enumerate(zip(block, singles)):
            assert state.selected == single.selected
            assert state._dmin.tobytes() == single._dmin.tobytes()
            if j != i or op != "accept":
                assert state._dmin.tobytes() == rows[j].tobytes()


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


def _assert_buckets_partition_clients(f):
    order, starts = f._bucket_order, f._bucket_starts
    counts = f._bucket_counts.astype(int)
    assert sorted(order.tolist()) == list(range(f.num_agents))
    assert starts.tolist() == np.concatenate([[0], np.cumsum(counts)[:-1]]).tolist()
    for b, (start, count) in enumerate(zip(starts, counts)):
        members = f.clients[order[start:start + count]]
        assert (f._bucket_low[:, b] <= members).all()
        assert (members <= f._bucket_high[:, b]).all()


# Client layouts for the bound tests: zero spans on one or both axes, spans
# of subnormal width, candidates on clients, and G tight inside the 1e-9
# slack below the largest distance. picks: the states' accepted sequences.
_BOUND_LAYOUTS = dict(
    layout=st.sampled_from(["scatter", "vertical", "horizontal", "single", "subnormal"]),
    clients=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40),
    candidates=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8),
    coincide=st.booleans(),
    tight=st.booleans(),
    picks=st.lists(st.lists(st.integers(0, 11), max_size=6), min_size=1, max_size=4),
)


def _layout_oracle(layout, clients, candidates, coincide, tight):
    # The oracle for one of _BOUND_LAYOUTS, or None when G would be 0 or
    # below (see test_kmedians_degenerate_normalizer).
    if layout == "vertical":
        clients = [(clients[0][0], y) for _, y in clients]
    elif layout == "horizontal":
        clients = [(x, clients[0][1]) for x, _ in clients]
    elif layout == "single":
        clients = clients[:1]
    elif layout == "subnormal":
        clients = [(x * 1e-315, y * 1e-315) for x, y in clients]
    if coincide:
        candidates = candidates + clients[:4]
    required = _max_pairwise_l1(np.asarray(clients, dtype=float),
                                np.asarray(candidates, dtype=float))
    if not required > 1e-9:
        return None
    return kmedians_oracle(clients, candidates, required - 1e-9 if tight else None)


@given(**_BOUND_LAYOUTS)
@example(layout="single", clients=[(1.0, 2.0)], candidates=[(1.0, 2.0), (4.0, -3.0)],
         coincide=False, tight=True, picks=[[], [0], [0, 0], [1, 0, 1]])
@example(layout="vertical", clients=[(0.5, 0.0), (0.0, 7.25), (0.0, -3.0)],
         candidates=[(0.5, 1.0), (-2.0, 7.25)], coincide=True, tight=True,
         picks=[[0, 0], [2, 3, 2], []])
# The state {x} sits just beyond e from every bucket of coincident clients,
# so U_b lies just above L_b(e) and sum_b n_b U_b - sum_b n_b min(U_b, L_b)
# cancels all but 1.4e-5 (first) or 8.9e-10 (second) of itself. The bound
# then falls ~1e-15 below the marginal without its 1e-9 sum_b n_b U_b slack,
# and in the second also with a 1 + 1e-9 factor on the difference instead.
@example(layout="scatter",
         clients=[(9.009, -7.117)] * 7 + [(8.973, -3.763)] * 5 + [(-1.533, 6.554)] * 6,
         candidates=[(629.756, 316.535), (629.7635, 316.5404)], coincide=False, tight=True,
         picks=[[1]])
@example(layout="scatter",
         clients=[(-5.264, 6.025)] * 3 + [(1.643, -8.117)] * 10 + [(-1.337, -0.419)] * 7
         + [(-6.805, 4.692)] * 6 + [(-7.727, -2.175)] * 6,
         candidates=[(652.079, 742.703), (652.079000956, 742.703000284)], coincide=False,
         tight=True, picks=[[1], [1, 0]])
@settings(max_examples=200, deadline=None)
def test_kmedians_gain_bounds_never_fall_below_a_marginal(layout, clients, candidates,
                                                          coincide, tight, picks):
    # No tolerance: each state's bound must be >= the marginal it computes,
    # including for elements it holds (gain 0) or accepted twice.
    f = _layout_oracle(layout, clients, candidates, coincide, tight)
    if f is None:
        return
    _assert_buckets_partition_clients(f)
    states = []
    for sequence in picks:
        state = f.make_state()
        for i in sequence:
            state.accept(f.candidates[i % len(f.candidates)])
        states.append(state)
    bound = f.gain_bounds(states)
    for e in f.candidates + [tuple(p) for p in f.clients.tolist()]:
        caps = bound(e)
        assert len(caps) == len(states)
        for cap, state in zip(caps, states):
            assert cap >= state.marginal(e)


@given(**_BOUND_LAYOUTS)
@example(layout="single", clients=[(1.0, 2.0)], candidates=[(1.0, 2.0), (4.0, -3.0)],
         coincide=False, tight=True, picks=[[0], [0, 0], [2, 1]])
@example(layout="subnormal", clients=[(0.0, 0.0), (1e3, 5.0), (500.0, 0.0)],
         candidates=[(3.0, -1.0)], coincide=True, tight=True, picks=[[1], [2, 0]])
# Without its 1e-9 T slack, the cap of (0, 0) falls below its empty gain.
@example(layout="scatter",
         clients=[(0.0, 0.0), (0.0, 1.0295263409814197), (339.30144423770184, -1.169629084415078)],
         candidates=[(0.0, 0.0)], coincide=False, tight=False, picks=[[]])
@settings(max_examples=200, deadline=None)
def test_kmedians_gain_caps_never_fall_below_a_marginal(layout, clients, candidates,
                                                        coincide, tight, picks):
    # No tolerance: one cap per element bounds every state's marginal, the
    # empty state's and those after accepts, for each candidate and for one
    # element that is not a candidate, whose cap is computed on its own.
    f = _layout_oracle(layout, clients, candidates, coincide, tight)
    if f is None:
        return
    (x, y), (px, py) = f.candidates[0], f.clients[0]
    outside = ((x + px) / 2, (y + py) / 2)
    while outside in f.candidates:
        outside = (outside[0] + 1.0, outside[1])
    cap = f.gain_caps()
    assert sorted(f._caps) == sorted(set(f.candidates))
    elements = f.candidates + [outside]
    for sequence in [[]] + picks:
        state = f.make_state()
        for i in sequence:
            state.accept(elements[i % len(elements)])
        for e in elements:
            assert cap(e) >= state.marginal(e)
    assert outside in f._caps


def test_kmedians_degenerate_oracles_build_their_buckets():
    # A zero span on one or both axes puts every client in one cell along
    # it; building never divides by it, nor overflows on a subnormal span.
    # One client gives G = 0 too, and then the bounds raise like every
    # other value.
    for clients in ([[0.0, 0.0]], [[2.0, y] for y in range(5)],
                    [[x, -1.0] for x in range(5)], [[3.0, 3.0]] * 4,
                    [[0.0, 0.0], [1e-308, 5e-324], [5e-309, 0.0]]):
        f = kmedians_oracle(clients, [(0.0, 0.0)])
        _assert_buckets_partition_clients(f)
    f = kmedians_oracle([[0.0, 0.0]], [(0.0, 0.0)])
    assert f.normalizer == 0.0
    assert len(f._bucket_counts) == 1
    bound = f.gain_bounds([f.make_state()])
    with pytest.raises(ValueError, match="normalizer is 0"):
        bound((0.0, 0.0))
    with pytest.raises(ValueError, match="normalizer is 0"):
        f.gain_caps()((0.0, 0.0))


def test_kmedians_candidates_must_be_points_in_the_plane():
    # A third coordinate used to build with an explicit G, and the first
    # marginal then failed to unpack it; G's check read two coordinates.
    for candidates in ([(0, 0, 5), (1, 2, 7)], [], [1.0, 2.0], [[(0, 0)], [(1, 1)]]):
        with pytest.raises(ValueError, match=r"candidates must be a non-empty \(m, 2\) array"):
            kmedians_oracle([[0, 0], [1, 1]], candidates, normalizer=10.0)


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
