"""Network states: the instantaneous description σ : V → Q.

The paper (Section 3.1) calls a map from nodes to automaton states a
*network state* or *instantaneous description*.  :class:`NetworkState` is a
thin mapping wrapper with the operations simulations need: uniform
initialisation, per-node update, state counting, and structural equality.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Callable, Optional

from repro.network.graph import Network, Node

State = Hashable

__all__ = ["NetworkState", "State", "require_states"]


def require_states(init: Mapping, nodes: Iterable[Node]) -> None:
    """Raise :class:`ValueError` naming the first few of ``nodes`` that
    ``init`` assigns no state."""
    missing = [v for v in nodes if v not in init]
    if missing:
        raise ValueError(f"initial state missing for nodes {missing[:5]!r}…")


class NetworkState(Mapping):
    """An assignment of one automaton state to every node of a network.

    Instances are mutable via :meth:`set` / ``state[v] = q`` but iteration
    order is the underlying dict order (insertion order of assignment).
    """

    def __init__(self, assignment: Optional[Mapping[Node, State]] = None) -> None:
        self._map: dict[Node, State] = dict(assignment) if assignment else {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def uniform(cls, net: Network, state: State) -> "NetworkState":
        """Every node of ``net`` in the same state (the paper's usual init)."""
        return cls({v: state for v in net})

    @classmethod
    def from_function(
        cls, net: Network, fn: Callable[[Node], State]
    ) -> "NetworkState":
        """Initialise each node ``v`` to ``fn(v)``."""
        return cls({v: fn(v) for v in net})

    # -- mapping protocol ------------------------------------------------
    def __getitem__(self, v: Node) -> State:
        return self._map[v]

    def __iter__(self) -> Iterator[Node]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __setitem__(self, v: Node, q: State) -> None:
        self._map[v] = q

    def set(self, v: Node, q: State) -> None:
        """Assign state ``q`` to node ``v``."""
        self._map[v] = q

    # -- queries -----------------------------------------------------------
    def states_of(self, nodes: Iterable[Node]) -> Iterator[State]:
        """The states of ``nodes``, in order, looked up without a Python
        call per node (the array engines encode large states through it)."""
        return map(self._map.__getitem__, nodes)

    def counts(self) -> Counter:
        """Multiplicity of each state over all nodes."""
        return Counter(self._map.values())

    def nodes_in(self, states: Iterable[State]) -> list[Node]:
        """All nodes whose state is in ``states`` (insertion order)."""
        wanted = set(states)
        return [v for v, q in self._map.items() if q in wanted]

    def restrict(self, nodes: Iterable[Node]) -> "NetworkState":
        """The state restricted to a node subset (e.g. after faults)."""
        keep = set(nodes)
        return NetworkState({v: q for v, q in self._map.items() if v in keep})

    def drop(self, nodes: Iterable[Node]) -> None:
        """Remove assignments for nodes that left the network."""
        for v in nodes:
            self._map.pop(v, None)

    def copy(self) -> "NetworkState":
        return NetworkState(self._map)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NetworkState):
            return self._map == other._map
        if isinstance(other, Mapping):
            return self._map == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkState({self._map!r})"
