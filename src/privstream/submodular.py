"""Objective-function abstraction and property checkers.

Oracles are normalized so that evaluate(empty) = 0; concrete oracles in this
package satisfy that by construction and the property checker reports a
nonzero empty value as a violation. Elements can be any hashable values.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class OracleState:
    """Incrementally maintained view of evaluate() for one growing set.

    Each streaming instance owns one state: ``marginal(e)`` answers queries
    against the instance's current selected set without rebuilding it, and
    ``accept(e)`` grows the set. The generic implementation recomputes via
    evaluate(); oracles override :meth:`ObjectiveOracle.make_state` with an
    incremental form that must agree with the evaluate difference.

    ``value`` equals ``oracle.evaluate(selected)`` exactly whenever read,
    so callers read a set's value off its state; a state may compute it
    only when it is read.

    ``exact_diminishing_returns`` declares that a state whose set contains
    this one's never answers a larger marginal, exactly in floating point,
    and that every marginal lies in [0, the empty state's marginal]
    exactly. The private scan then decides most checks from the noise
    alone.
    """

    exact_diminishing_returns = False
    value: float = 0.0  # the empty set's; accept() stores each new value

    def __init__(self, oracle):
        self.oracle = oracle
        self.selected: list = []
        self._selected_set: set = set()

    def __len__(self):
        return len(self.selected)

    def marginal(self, e) -> float:
        if e in self._selected_set:
            return 0.0
        return self.oracle.evaluate(self.selected + [e]) - self.value

    def accept(self, e) -> None:
        # A repeated element is appended again (a noisy rung may accept it
        # twice); evaluate() reads S as a set, so the value is unchanged.
        self.selected.append(e)
        self._selected_set.add(e)
        self.value = self.oracle.evaluate(self.selected)


class ObjectiveOracle:
    """Base class for monotone submodular objectives with declared sensitivity."""

    sensitivity: float = 1.0
    decomposable: bool = False
    num_agents: int | None = None

    def evaluate(self, S) -> float:
        raise NotImplementedError

    def make_state(self) -> OracleState:
        return OracleState(self)

    def make_states(self, count: int) -> list[OracleState]:
        """``count`` fresh empty states; oracles may set them up in bulk."""
        return [self.make_state() for _ in range(count)]

    def gain_bounds(self, states):
        """None, or a function of an element e that returns, for each of
        ``states`` in order, a float no smaller than ``marginal(e)``,
        exactly in floating point. It holds until one of the states accepts."""
        return None


class DecomposableObjective(ObjectiveOracle):
    """Objective that is a sum over agents of [0, 1]-bounded submodular terms.

    Removing or adding one agent's record changes the total by at most 1, so
    the declared sensitivity is 1. Subclasses expose per-agent values for the
    sum-consistency checks.
    """

    decomposable = True

    def __init__(self, num_agents: int):
        if num_agents < 1:
            raise ValueError(f"need at least one agent, got {num_agents}")
        self.num_agents = num_agents

    def agent_values(self, S):
        """Per-agent utilities of S, in fixed agent order (sums to evaluate(S))."""
        raise NotImplementedError


def marginal_gain(f: ObjectiveOracle, e, S) -> float:
    """Marginal gain of e over S, 0 when e is already in S."""
    state = f.make_state()
    for x in S:
        state.accept(x)
    return state.marginal(e)


@dataclass
class PropertyReport:
    """Outcome of randomized monotonicity/submodularity probing."""

    trials: int
    empty_value: float
    monotonicity_violations: list = field(default_factory=list)
    submodularity_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            abs(self.empty_value) <= 1e-12
            and not self.monotonicity_violations
            and not self.submodularity_violations
        )


def check_submodular_monotone(f: ObjectiveOracle, V, trials: int, rng) -> PropertyReport:
    """Probe random chains S subset T and e outside T for violations of
    monotonicity (marginal >= 0) and diminishing returns
    (marginal(e, T) <= marginal(e, S)), at 1e-9 relative tolerance.
    """
    V = list(V)
    if len(V) < 2:
        raise ValueError("need at least two elements to probe")
    report = PropertyReport(trials=trials, empty_value=f.evaluate(()))
    for _ in range(trials):
        size_t = int(rng.integers(0, len(V)))
        t_idx = rng.choice(len(V), size=size_t, replace=False) if size_t else []
        T = [V[i] for i in t_idx]
        keep = rng.random(size_t) < 0.5 if size_t else []
        S = [e for e, kept in zip(T, keep) if kept]
        outside = [e for e in V if e not in set(T)]
        if not outside:
            continue
        e = outside[int(rng.integers(0, len(outside)))]
        gain_s = marginal_gain(f, e, S)
        gain_t = marginal_gain(f, e, T)
        tol = 1e-9 * max(1.0, abs(gain_s), abs(gain_t))
        if gain_t < -tol or gain_s < -tol:
            report.monotonicity_violations.append((e, tuple(S), tuple(T), gain_s, gain_t))
        if gain_t > gain_s + tol:
            report.submodularity_violations.append((e, tuple(S), tuple(T), gain_s, gain_t))
    return report


def sensitivity_probe(builder, A, V, trials: int, rng) -> float:
    """Empirical lower bound on the sensitivity of the objective family.

    ``builder`` maps a data set to an oracle. Each trial forms a neighbor of
    A by dropping or duplicating one random record, samples a random subset
    of the element domain V, and records |f_A(S) - f_B(S)|; the max over
    trials is returned and must not exceed the declared sensitivity.
    """
    A = list(A)
    V = list(V)
    if not A:
        raise ValueError("data set must be non-empty")
    f_a = builder(A)
    worst = 0.0
    for _ in range(trials):
        i = int(rng.integers(0, len(A)))
        if rng.random() < 0.5 and len(A) > 1:
            B = A[:i] + A[i + 1:]
        else:
            B = A + [A[i]]
        f_b = builder(B)
        size = int(rng.integers(0, len(V) + 1))
        idx = rng.choice(len(V), size=size, replace=False) if size else []
        S = [V[j] for j in idx]
        worst = max(worst, abs(f_a.evaluate(S) - f_b.evaluate(S)))
    return worst
