"""Simple undirected graphs with fault (deletion) and churn support.

The :class:`Network` class is the substrate for every simulation in this
package.  Its mutable form is adjacency sets over hashable node
identifiers, with O(1) amortised edge insertion/removal and O(deg) node
removal.  Deletions model the paper's *decreasing benign faults*
(Section 1); the churn layer (:mod:`repro.runtime.churn`) additionally
re-adds nodes and edges mid-run, using the batch :meth:`Network.add_nodes`
/ :meth:`Network.add_edges` constructors, which amortise cache
invalidation over the whole batch.

For vectorized engines, :meth:`Network.to_csr` exports a
``scipy.sparse.csr_matrix`` adjacency plus a stable node ordering.  The
regular generator families (:mod:`repro.network.generators`) build a
network from edge arrays instead: nodes ``0..n-1`` and each edge listed
once, in the order the node-by-node construction would add it.  Such a
network answers its node queries, sizes, :meth:`~Network.copy` and
:meth:`~Network.to_csr` from the arrays; the adjacency sets are built on
the first query or mutation that needs them, by replaying the edges in
order, so neighbour iteration order is the same as if the network had
been built edge by edge.
"""

from __future__ import annotations

import numbers
import operator
from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

import numpy as np
from scipy import sparse

Node = Hashable
Edge = tuple[Node, Node]

__all__ = ["Network", "Node", "Edge", "canonical_edge"]


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return a canonical (sorted-by-repr) orientation of the edge ``{u, v}``.

    Undirected edges are stored both ways in the adjacency structure; when a
    single canonical tuple is needed (e.g. as a dictionary key for edge
    counters) we order the endpoints deterministically.
    """
    a, b = sorted((u, v), key=repr)
    return (a, b)


class Network:
    """A simple undirected graph with deletion faults.

    Parameters
    ----------
    nodes:
        Optional iterable of initial node identifiers (any hashable).
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints are added
        automatically.

    Notes
    -----
    Self-loops and parallel edges are rejected: the FSSGA model reads the
    states of *neighbours*, and the paper's graphs are simple.
    """

    #: The residue set ``S = {±d mod n}`` of a circulant the generator
    #: built (node ``i``'s neighbours are ``i + s mod n``), kept only while
    #: the network is array-built: the array engine then counts with a
    #: stencil instead of the CSR.
    _circulant: Optional[tuple[int, ...]] = None

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adj: dict[Node, set[Node]] = {}
        #: what the node queries read: ``_adj`` itself, or ``range(n)``
        #: while an array-built network has no adjacency sets yet
        self._vertices = self._adj
        #: ``(eu, ev)`` of an array-built network until ``_adj`` is built
        self._edge_arrays: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._num_edges = 0
        self._csr_cache: Optional[tuple] = None
        #: CSR exports actually built (cache misses) — telemetry reads the
        #: delta across a run to report export-cache effectiveness
        self.csr_rebuilds = 0
        self._symmetry = None
        self._orbit_cache = None
        #: orbit partitions actually computed (cache misses), mirroring
        #: :attr:`csr_rebuilds` for the symmetry layer
        self.orbit_rebuilds = 0
        if nodes is not None:
            for v in nodes:
                self.add_node(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    @staticmethod
    def _from_edges(n: int, eu: np.ndarray, ev: np.ndarray) -> "Network":
        """The network on nodes ``0..n-1`` with edges ``(eu[k], ev[k])``.

        Each undirected edge must be listed once, with no self-loops, in
        the order a node-by-node construction calls :meth:`add_edge`: the
        adjacency sets are built by replaying exactly that sequence, so
        neighbour iteration order matches the edge-by-edge network.
        """
        net = _ArrayNetwork()
        del net._adj
        eu = np.asarray(eu, dtype=np.int64)
        ev = np.asarray(ev, dtype=np.int64)
        eu.flags.writeable = ev.flags.writeable = False  # shared by copies
        net._vertices = range(n)
        net._edge_arrays = (eu, ev)
        net._num_edges = int(eu.shape[0])
        return net

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Add an isolated node (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()
            self._csr_cache = None
            self._orbit_cache = None

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed."""
        if u == v:
            raise ValueError(f"self-loop {u!r} not allowed in a simple network")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1
            self._csr_cache = None
            self._orbit_cache = None

    def add_nodes(self, nodes: Iterable[Node]) -> int:
        """Add many nodes at once; returns how many were actually new.

        Reserves the whole batch under a *single* CSR/orbit cache
        invalidation (per-node :meth:`add_node` invalidates per call), so
        lowering a churn plan's union topology stays O(batch) instead of
        O(batch × cache churn).  Insertion order is preserved.
        """
        added = 0
        for v in nodes:
            if v not in self._adj:
                self._adj[v] = set()
                added += 1
        if added:
            self._csr_cache = None
            self._orbit_cache = None
        return added

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Add many edges at once; returns how many were actually new.

        The batch counterpart of :meth:`add_edge` (endpoints are created
        as needed), with one cache invalidation for the whole batch.
        """
        added = 0
        for u, v in edges:
            if u == v:
                raise ValueError(
                    f"self-loop {u!r} not allowed in a simple network"
                )
            for w in (u, v):
                if w not in self._adj:
                    self._adj[w] = set()
                    added += 1  # a fresh endpoint also dirties the caches
            if v not in self._adj[u]:
                self._adj[u].add(v)
                self._adj[v].add(u)
                self._num_edges += 1
                added += 1
        if added:
            self._csr_cache = None
            self._orbit_cache = None
        return added

    # ------------------------------------------------------------------
    # faults (deletions)
    # ------------------------------------------------------------------
    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``{u, v}`` (an edge fault)."""
        if u not in self._adj or v not in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) not in network")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._csr_cache = None
        self._orbit_cache = None

    def remove_node(self, v: Node) -> None:
        """Delete node ``v`` and all incident edges (a node fault)."""
        if v not in self._adj:
            raise KeyError(f"node {v!r} not in network")
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        self._csr_cache = None
        self._orbit_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """``m = |E|``."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: Node) -> bool:
        return v in self._vertices

    def __iter__(self) -> Iterator[Node]:
        return iter(self._vertices)

    def nodes(self) -> list[Node]:
        """All node identifiers, in insertion order."""
        return list(self._vertices)

    def edges(self) -> list[Edge]:
        """Each undirected edge exactly once, canonically oriented.

        Dedup is by already-visited endpoint and orientation by a per-call
        repr cache, so the export costs two dict probes per stored entry
        rather than a ``sorted(key=repr)`` call per edge — this runs on
        every manifest snapshot and union-topology build, where the
        per-edge constant is the whole cost.
        """
        out: list[Edge] = []
        done: set = set()
        rep = {v: repr(v) for v in self._adj}
        for u in self._adj:
            ru = rep[u]
            for v in self._adj[u]:
                if v not in done:
                    out.append((u, v) if ru <= rep[v] else (v, u))
            done.add(u)
        return out

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Node) -> set[Node]:
        """The (live) neighbour set of ``v``.  Do not mutate the result."""
        return self._adj[v]

    def degree(self, v: Node) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Δ, the maximum degree (0 for an empty or edgeless network)."""
        return max((len(s) for s in self._adj.values()), default=0)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def component_of(self, v: Node) -> set[Node]:
        """The node set of the connected component containing ``v``."""
        seen = {v}
        frontier = deque([v])
        while frontier:
            u = frontier.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    def connected_components(self) -> list[set[Node]]:
        """All connected components, largest-first."""
        remaining = set(self._adj)
        comps: list[set[Node]] = []
        while remaining:
            v = next(iter(remaining))
            comp = self.component_of(v)
            comps.append(comp)
            remaining -= comp
        comps.sort(key=len, reverse=True)
        return comps

    def is_connected(self) -> bool:
        """True iff the network is connected (the empty network is not)."""
        if not self._adj:
            return False
        v = next(iter(self._adj))
        return len(self.component_of(v)) == len(self._adj)

    def bfs_distances(self, sources: Iterable[Node]) -> dict[Node, int]:
        """Hop distance from the nearest source, for every reachable node."""
        dist: dict[Node, int] = {}
        frontier = deque()
        for s in sources:
            if s not in self._adj:
                raise KeyError(f"source {s!r} not in network")
            if s not in dist:
                dist[s] = 0
                frontier.append(s)
        while frontier:
            u = frontier.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        return dist

    def eccentricity(self, v: Node) -> int:
        """Greatest hop distance from ``v`` within its component."""
        return max(self.bfs_distances([v]).values())

    def diameter(self) -> int:
        """Diameter of a connected network (raises if disconnected)."""
        if not self.is_connected():
            raise ValueError("diameter undefined on a disconnected network")
        return max(self.eccentricity(v) for v in self._adj)

    # ------------------------------------------------------------------
    # symmetry
    # ------------------------------------------------------------------
    def declare_symmetry(self, group) -> None:
        """Attach an :class:`~repro.network.symmetry.AutomorphismGroup`.

        Every generator is verified against the current topology
        (:class:`~repro.network.symmetry.SymmetryError` on failure) before
        the declaration sticks.  The declaration is *not* revoked by later
        mutations — consumers such as the quotient engine re-verify at
        lowering time and report a stale group as their blocker — but the
        cached orbit partition is invalidated exactly like the CSR cache.
        Pass ``None`` to clear the declaration.
        """
        if group is not None:
            group.verify(self)
        self._symmetry = group
        self._orbit_cache = None

    @property
    def symmetry(self):
        """The declared automorphism group, or ``None``."""
        return self._symmetry

    def orbit_partition(self):
        """The cached orbit partition under the declared group.

        Raises :class:`ValueError` when no group is declared.  The result
        is invalidated by every node/edge mutation (and by re-declaring),
        mirroring :meth:`to_csr`; :attr:`orbit_rebuilds` counts actual
        recomputations.
        """
        if self._symmetry is None:
            raise ValueError(
                "no automorphism group declared; call declare_symmetry() first"
            )
        if self._orbit_cache is None:
            from repro.network.symmetry import orbit_partition

            self._orbit_cache = orbit_partition(self, self._symmetry)
            self.orbit_rebuilds += 1
        return self._orbit_cache

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def copy(self) -> "Network":
        if self._edge_arrays is not None:
            g = Network._from_edges(len(self._vertices), *self._edge_arrays)
            g._circulant = self._circulant
        else:
            g = Network()
            g._adj = g._vertices = {
                v: set(nbrs) for v, nbrs in self._adj.items()
            }
            g._num_edges = self._num_edges
        g._symmetry = self._symmetry
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Network":
        """The induced subgraph on ``nodes`` (all of which must exist)."""
        keep = set(nodes)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"nodes not in network: {sorted(map(repr, missing))}")
        g = Network()
        for v in self._adj:
            if v in keep:
                g.add_node(v)
        for u, v in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v)
        return g

    def is_subgraph_of(self, other: "Network") -> bool:
        """True iff every node and edge of ``self`` exists in ``other``."""
        for v in self._adj:
            if v not in other:
                return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def node_index(self) -> dict[Node, int]:
        """A stable node → row-index map (insertion order)."""
        return {v: i for i, v in enumerate(self._vertices)}

    def to_csr(self) -> tuple[sparse.csr_matrix, list[Node]]:
        """Adjacency matrix in CSR form plus the node ordering used.

        The matrix is symmetric 0/1 with an empty diagonal.  Used by the
        vectorized synchronous engine to count neighbour states via a single
        sparse mat-mat product per step.

        The result is cached on the instance and invalidated by every
        node/edge mutation, so fault lowering (which re-exports the CSR
        only at topology changes) and repeated engine construction on a
        static network pay the export once.  Callers must treat the
        returned matrix and order as read-only snapshots.  An array-built
        network exports straight from its edge arrays, without building
        its adjacency sets.
        """
        if self._csr_cache is not None:
            return self._csr_cache
        order = self.nodes()
        n = len(order)
        if self._edge_arrays is not None:
            # both orientations of every listed edge, as COO; the nodes are
            # 0..n-1, so node ids are already row indices
            eu, ev = self._edge_arrays
            rows = np.concatenate((eu, ev))
            data = np.ones(rows.shape[0], dtype=np.int64)
            mat = sparse.csr_matrix(
                (data, (rows, np.concatenate((ev, eu)))), shape=(n, n)
            )
        else:
            # build the CSR arrays directly from the adjacency sets (each
            # row's entries are distinct by construction, so no COO
            # deduplication pass)
            index = {v: i for i, v in enumerate(order)}
            indptr = np.zeros(n + 1, dtype=np.int64)
            cols = np.empty(2 * self._num_edges, dtype=np.int64)
            k = 0
            for i, v in enumerate(order):
                for u in self._adj[v]:
                    cols[k] = index[u]
                    k += 1
                indptr[i + 1] = k
            data = np.ones(k, dtype=np.int64)
            mat = sparse.csr_matrix((data, cols[:k], indptr), shape=(n, n))
        mat.sort_indices()
        self.csr_rebuilds += 1
        self._csr_cache = (mat, order)
        return self._csr_cache

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (for cross-validation only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g) -> "Network":
        """Import a simple undirected :class:`networkx.Graph`."""
        net = cls(nodes=g.nodes(), edges=((u, v) for u, v in g.edges() if u != v))
        return net

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(n={self.num_nodes}, m={self.num_edges})"


class _ArrayNetwork(Network):
    """A :class:`Network` from :meth:`Network._from_edges` whose adjacency
    sets are not built yet.

    The first access to ``_adj`` builds them by replaying the edge arrays
    and turns the instance into a plain :class:`Network`.  The hook lives
    on this subclass, not on :class:`Network`, because a class that
    defines ``__getattr__`` loses the interpreter's fast attribute
    lookups, and materialized networks must not pay for laziness on every
    ``neighbors``/``has_edge`` call.
    """

    def __contains__(self, v: Node) -> bool:
        # ``in range`` is O(1) only for Python ints; other integer types
        # go through ``__index__``, and only a number can equal a node
        try:
            return operator.index(v) in self._vertices
        except TypeError:
            return isinstance(v, numbers.Number) and v in self._vertices

    def __getattr__(self, name: str):
        # reached only for attributes missing from the instance
        if name != "_adj":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        eu, ev = self._edge_arrays
        adj: dict[Node, set[Node]] = {v: set() for v in self._vertices}
        for u, v in zip(eu.tolist(), ev.tolist()):
            adj[u].add(v)
            adj[v].add(u)
        self._adj = self._vertices = adj
        self._edge_arrays = None
        self.__dict__.pop("_circulant", None)  # may be edited from here on
        self.__class__ = Network
        return adj
