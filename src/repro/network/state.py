"""Network states: the instantaneous description σ : V → Q.

The paper (Section 3.1) calls a map from nodes to automaton states a
*network state* or *instantaneous description*.  :class:`NetworkState` is a
thin mapping wrapper with the operations simulations need: uniform
initialisation, per-node update, state counting, and structural equality.

A state may be array-backed: :meth:`NetworkState.uniform` on an array-built
network, and every state the array engines return, hold one int code per
node and a decode table instead of a dict.  Reads (lookups, iteration,
``items()``, ``counts()``, equality) answer from the arrays; the first
operation that needs a dict, any mutation included, builds it once and
turns the state into a plain :class:`NetworkState`.  Either way it is the
same mapping: values are the Python objects of the alphabet, and
iteration follows the network's node order.
"""

from __future__ import annotations

import numbers
import operator
from collections import Counter
from collections.abc import Hashable, ItemsView, Iterable, Iterator, Mapping, ValuesView
from typing import Callable, Optional, Sequence

import numpy as np

from repro.network.graph import Network, Node, _ArrayNetwork

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
    A state the array engines return (or :meth:`uniform` builds on an
    array-built network) starts array-backed; its first mutation
    materialises the dict, in the same order.
    """

    def __init__(self, assignment: Optional[Mapping[Node, State]] = None) -> None:
        if isinstance(assignment, NetworkState):
            assignment = assignment.items()  # no per-node lookup call
        self._map: dict[Node, State] = dict(assignment) if assignment else {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def uniform(cls, net: Network, state: State) -> "NetworkState":
        """Every node of ``net`` in the same state (the paper's usual init)."""
        if cls is NetworkState and isinstance(net, _ArrayNetwork):
            decode = np.empty(1, dtype=object)
            decode[0] = state  # element-wise: a tuple state stays one entry
            return _ArrayState(
                net._vertices, np.zeros(len(net), dtype=np.int8), decode
            )
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

    def items(self):
        return self._map.items()

    def values(self):
        return self._map.values()

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


def _same_rows(a: Sequence, b: Sequence) -> bool:
    """True when the row label sequences ``a`` and ``b`` agree entry by
    entry (O(1) for two ranges)."""
    if a is b:
        return True
    if type(a) is type(b):
        return a == b
    return len(a) == len(b) and list(a) == list(b)


class _ArrayState(NetworkState):
    """A :class:`NetworkState` held as arrays: node ``rows[i]`` is in state
    ``decode[codes[i]]``.

    ``rows`` is the node order (a ``range(n)`` on an array-built network),
    ``codes`` a read-only int array with one entry per row, and ``decode``
    an object array listing distinct states.  :meth:`copy` shares all
    three, so a copy costs O(1) and the array engines can hand out a row
    of σ without decoding it.

    The first access to ``_map`` builds the dict, in row order, and turns
    the instance into a plain :class:`NetworkState`; every mutation goes
    through ``_map``, so none can reach the shared arrays.  The hook lives
    on this subclass, as on :class:`~repro.network.graph._ArrayNetwork`,
    so plain states keep the interpreter's fast attribute lookups.
    """

    def __init__(self, rows: Sequence, codes: np.ndarray, decode: np.ndarray) -> None:
        codes.flags.writeable = False
        self._rows = rows
        self._codes = codes
        self._decode = decode

    def __getattr__(self, name: str):
        # reached only for attributes missing from the instance
        if name != "_map":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        assignment = dict(zip(self._rows, self._decoded()))
        del self._rows, self._codes, self._decode
        self._map = assignment
        self.__class__ = NetworkState
        return assignment

    def _decoded(self) -> list:
        """Every row's state, in row order, as Python objects."""
        return self._decode[self._codes].tolist()

    def _aligned(self, order: Sequence) -> bool:
        """True when row ``i`` holds node ``order[i]`` for every ``i``."""
        return _same_rows(self._rows, order)

    # -- reads answered from the arrays ---------------------------------
    def __getitem__(self, v: Node) -> State:
        rows = self._rows
        if type(rows) is range:
            # ``range.index`` is O(1) only for Python ints, and only a
            # number can equal a node of a range
            try:
                i = operator.index(v)
            except TypeError:
                if not isinstance(v, numbers.Number):
                    raise KeyError(v) from None
            else:
                try:
                    return self._decode[self._codes[rows.index(i)]]
                except ValueError:
                    raise KeyError(v) from None
        return self._map[v]

    def __contains__(self, v: object) -> bool:
        rows = self._rows
        if type(rows) is range:
            try:
                return operator.index(v) in rows
            except TypeError:
                return isinstance(v, numbers.Number) and v in rows
        return v in self._map

    def __iter__(self) -> Iterator[Node]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def items(self):
        return _ArrayItems(self)

    def values(self):
        return _ArrayValues(self)

    def states_of(self, nodes: Iterable[Node]) -> Iterator[State]:
        return (self[v] for v in nodes)

    def counts(self) -> Counter:
        """Multiplicity of each state: one ``np.bincount``, keyed in order
        of first appearance, as a dict state counts."""
        codes, decode = self._codes, self._decode
        binc = np.bincount(codes, minlength=len(decode)).tolist()
        present = [c for c, k in enumerate(binc) if k]
        if len(present) > 1:
            present.sort(key=lambda c: (codes == c).argmax())
        return Counter({decode[c]: binc[c] for c in present})

    def copy(self) -> "NetworkState":
        return _ArrayState(self._rows, self._codes, self._decode)

    def __eq__(self, other: object) -> bool:
        if type(other) is _ArrayState and _same_rows(self._rows, other._rows):
            return self._decoded() == other._decoded()
        return super().__eq__(other)


class _ArrayItems(ItemsView):
    """``items()`` of an array state: one decode, then a C-level zip."""

    __slots__ = ()

    def __iter__(self):
        state = self._mapping
        if type(state) is _ArrayState:
            return zip(state._rows, state._decoded())
        return iter(state.items())  # materialised since the view was made


class _ArrayValues(ValuesView):
    """``values()`` of an array state: one decode of the code array."""

    __slots__ = ()

    def __iter__(self):
        state = self._mapping
        if type(state) is _ArrayState:
            return iter(state._decoded())
        return iter(state.values())
