import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream.objectives import (
    CoverageObjective,
    coverage_oracle,
    generate_hard_instance,
    kmedians_oracle,
    manhattan,
)
from privstream.submodular import brute_force_opt, check_submodular_monotone, marginal_gain


def test_manhattan_basics():
    assert manhattan((0, 0), (3, 4)) == 7.0
    assert manhattan((1.5, -2.0), (1.5, -2.0)) == 0.0


@given(
    ax=st.floats(-100, 100), ay=st.floats(-100, 100),
    bx=st.floats(-100, 100), by=st.floats(-100, 100),
)
def test_manhattan_symmetry(ax, ay, bx, by):
    assert manhattan((ax, ay), (bx, by)) == manhattan((bx, by), (ax, ay))


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
