"""The oracle interface: objectives and their incremental states.

Oracles are normalized so that evaluate(empty) = 0; concrete oracles in this
package satisfy that by construction. Elements can be any hashable values.
"""
from __future__ import annotations


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
    alone, against :meth:`ObjectiveOracle.gain_caps`.
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

    def gain_caps(self):
        """None, or a function of e no smaller than any state's marginal(e),
        exactly; by default the empty state's, if exact_diminishing_returns."""
        probe = self.make_state()
        return probe.marginal if probe.exact_diminishing_returns else None

    def gain_bounds(self, states):
        """None, or a function of an element e that returns, for each of
        ``states`` in order, a float no smaller than ``marginal(e)``,
        exactly in floating point. It holds until one of the states accepts."""
        return None


class DecomposableObjective(ObjectiveOracle):
    """Objective that is a sum over agents of [0, 1]-bounded submodular terms.

    Removing or adding one agent's record changes the total by at most 1, so
    the declared sensitivity is 1.
    """

    decomposable = True

    def __init__(self, num_agents: int):
        if num_agents < 1:
            raise ValueError(f"need at least one agent, got {num_agents}")
        self.num_agents = num_agents
