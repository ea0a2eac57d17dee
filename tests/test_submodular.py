import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privstream.objectives import coverage_oracle
from privstream.submodular import ObjectiveOracle
from support import (
    ModularObjective,
    brute_force_opt,
    check_submodular_monotone,
    marginal_gain,
    sensitivity_probe,
)


class SquaredSize(ObjectiveOracle):
    """Supermodular control: f(S) = |S|^2 violates diminishing returns."""

    def evaluate(self, S):
        return float(len(set(S)) ** 2)


class Scaled(ObjectiveOracle):
    def __init__(self, inner, factor):
        super().__init__()
        self.inner = inner
        self.factor = factor
        self.sensitivity = factor * inner.sensitivity

    def evaluate(self, S):
        return self.factor * self.inner.evaluate(S)


def exhaustive_best(f, V, k):
    # Independent include/exclude recursion, used to cross-check the
    # combinations-based optimizer.
    best = f.evaluate(())

    def rec(i, chosen):
        nonlocal best
        best = max(best, f.evaluate(chosen))
        if i == len(V) or len(chosen) == k:
            return
        rec(i + 1, chosen + [V[i]])
        rec(i + 1, chosen)

    rec(0, [])
    return best


def test_modular_marginals():
    f = ModularObjective({"a": 3.0, "b": 2.0})
    assert marginal_gain(f, "a", []) == 3.0
    assert marginal_gain(f, "a", ["a"]) == 0.0
    assert f.evaluate(["a", "b"]) == 5.0


def test_generic_state_matches_marginal():
    f = ModularObjective({"a": 3.0, "b": 2.0, "c": 1.0})
    state = f.make_state()
    assert state.marginal("b") == 2.0
    state.accept("b")
    assert state.value == 2.0
    assert state.marginal("b") == 0.0
    state.accept("a")
    assert state.value == pytest.approx(f.evaluate(state.selected))


def test_brute_force_modular():
    f = ModularObjective({"a": 3.0, "b": 2.0, "c": 1.0})
    best_set, best_value = brute_force_opt(f, ["a", "b", "c"], 2)
    assert best_value == 5.0
    assert set(best_set) == {"a", "b"}
    full_set, full_value = brute_force_opt(f, ["a", "b", "c"], 7)
    assert set(full_set) == {"a", "b", "c"}
    assert full_value == 6.0


def test_brute_force_guard():
    f = ModularObjective({i: 1.0 for i in range(60)})
    with pytest.raises(ValueError):
        brute_force_opt(f, list(range(60)), 10)


def test_brute_force_against_independent_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(20):
        records = [int(r) for r in rng.integers(0, 10, size=25)]
        f = coverage_oracle(records)
        V = list(range(10))
        _, value = brute_force_opt(f, V, 3)
        assert value == exhaustive_best(f, V, 3)


@given(st.lists(st.floats(0, 100), min_size=2, max_size=8), st.data())
@settings(max_examples=60)
def test_chain_consistency(weights, data):
    elements = list(range(len(weights)))
    f = ModularObjective(dict(zip(elements, weights)))
    size = data.draw(st.integers(0, len(elements) - 1))
    S = elements[:size]
    e = elements[size]
    assert f.evaluate(S + [e]) == pytest.approx(
        f.evaluate(S) + marginal_gain(f, e, S), rel=1e-9, abs=1e-12
    )


def test_property_checker_accepts_modular():
    rng = np.random.default_rng(1)
    f = ModularObjective({i: float(i % 5) for i in range(12)})
    report = check_submodular_monotone(f, list(range(12)), 500, rng)
    assert report.passed
    assert report.empty_value == 0.0


def test_property_checker_flags_supermodular():
    rng = np.random.default_rng(2)
    report = check_submodular_monotone(SquaredSize(), list(range(8)), 500, rng)
    assert report.submodularity_violations
    assert not report.passed


def test_coverage_probe_within_declared_sensitivity():
    rng = np.random.default_rng(3)
    records = [int(r) for r in rng.integers(0, 8, size=40)]
    probe = sensitivity_probe(coverage_oracle, records, list(range(8)), 400, rng)
    assert 0.0 < probe <= 1.0 + 1e-9


def test_scaled_probe_within_scaled_sensitivity():
    rng = np.random.default_rng(5)
    records = [int(r) for r in rng.integers(0, 6, size=30)]
    factor = 2.5
    probe = sensitivity_probe(
        lambda data: Scaled(coverage_oracle(data), factor),
        records, list(range(6)), 400, rng,
    )
    assert probe <= factor + 1e-9
    assert probe > 1.0  # the scale actually shows up


def test_coverage_agent_sum_consistency():
    records = ["a", "a", "b", "c"]
    f = coverage_oracle(records)
    for S in ([], ["a"], ["a", "b"], ["c"], ["a", "b", "c"]):
        assert f.evaluate(S) == sum(1.0 for r in records if r in S)  # one agent per record
    assert f.num_agents == 4


def test_brute_force_dominates_greedy():
    rng = np.random.default_rng(6)
    records = [int(r) for r in rng.integers(0, 9, size=30)]
    f = coverage_oracle(records)
    V = list(range(9))
    _, opt = brute_force_opt(f, V, 3)
    S = []
    for _ in range(3):
        gains = [(marginal_gain(f, e, S), e) for e in V if e not in S]
        S.append(max(gains)[1])
    assert opt >= f.evaluate(S)
    assert opt <= f.num_agents
