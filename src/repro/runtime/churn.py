"""Topology dynamics: churn plans generalizing decreasing benign faults.

The paper's Section 2 sensitivity framework only ever *deletes* (decreasing
benign faults), and that is what :mod:`repro.runtime.faults` expresses.
Real deployments also see correlated regional outages, adversarial
targeting of high-centrality nodes, and node *arrival* (growth) —
Pritchard's divide-and-conquer follow-up (arXiv 0708.0580) motivates cheap
re-aggregation after exactly these changes.  This module is the general
layer: a :class:`ChurnPlan` is a time-ordered schedule of typed
:class:`TopologyEvent` s —

``node-down``
    delete a node and its incident edges (the classic node fault);
``edge-down``
    delete one edge (the classic edge fault);
``node-up``
    a node joins (or rejoins) the network carrying a boot ``state`` and an
    ``edges`` tuple of partners to attach to — partners not currently
    present are silently skipped, exactly like a preempted fault;
``edge-up``
    one edge appears between two currently-present nodes.

The reference simulator interprets a plan directly (events mutate the live
:class:`~repro.network.graph.Network` before the step whose time has
arrived — it is the conformance oracle).  The vectorized/batched engines
instead *lower* the plan: the union of every topology the schedule can
ever produce (:meth:`ChurnPlan.union_topology`) is exported once into the
construction-time CSR, not-yet-arrived nodes/edges start masked dead, and
each event flips incremental alive flags / stored-entry values — so churn
runs keep the vector fast path.  :class:`~repro.runtime.faults.FaultPlan` is
the deletion-only subclass of :class:`ChurnPlan`.

Process generators build the ROADMAP's sustained-churn scenarios:
:func:`regional_outage_plan` (a BFS ball around an epicenter, optionally
recovering), :func:`adversarial_plan` (highest-centrality targets first,
reusing :mod:`repro.network.properties`), :func:`growth_plan` (stochastic
arrivals attaching to existing nodes) and :func:`random_churn_plan`
(a coherent mixed down/up schedule for conformance sweeps and resilience
curves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.network.graph import Network, Node, canonical_edge
from repro.network.state import NetworkState

__all__ = [
    "NODE_DOWN",
    "EDGE_DOWN",
    "NODE_UP",
    "EDGE_UP",
    "TopologyEvent",
    "ChurnPlan",
    "is_down_event",
    "is_up_event",
    "count_down_events",
    "regional_outage_plan",
    "adversarial_plan",
    "growth_plan",
    "random_churn_plan",
]

NODE_DOWN = "node-down"
EDGE_DOWN = "edge-down"
NODE_UP = "node-up"
EDGE_UP = "edge-up"

_KINDS = (NODE_DOWN, EDGE_DOWN, NODE_UP, EDGE_UP)


def is_down_event(ev) -> bool:
    """True iff the event deletes topology (a classic benign fault)."""
    return ev.kind in (NODE_DOWN, EDGE_DOWN)


def is_up_event(ev) -> bool:
    """True iff the event adds topology (node or edge arrival)."""
    return ev.kind in (NODE_UP, EDGE_UP)


def count_down_events(events) -> int:
    """How many of ``events`` are deletions (feeds the ``fault_events``
    counter, which keeps its historical deletions-only meaning)."""
    return sum(1 for ev in events if is_down_event(ev))


@dataclass(frozen=True)
class TopologyEvent:
    """One typed topology change at synchronous step ``time``.

    ``target`` is the node id for node events and the ``(u, v)`` pair for
    edge events.  ``node-up`` additionally carries the boot ``state`` the
    arriving node starts in (it must belong to the running automaton's
    alphabet for the array engines) and an ``edges`` tuple of partner node
    ids to attach to; partners absent at arrival time are skipped.
    ``kind`` must be one of the four kinds above; the bare ``"node"`` /
    ``"edge"`` raise ``ValueError`` naming their ``-down`` form.
    """

    time: int
    kind: str
    target: object
    state: object = None
    edges: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            down = f"{self.kind}-down"
            use = repr(down) if down in _KINDS else ", ".join(map(repr, _KINDS))
            raise ValueError(
                f"unknown topology-event kind {self.kind!r}; use {use}"
            )
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.kind == NODE_UP and self.state is None:
            raise ValueError(
                f"node-up event for {self.target!r} needs a boot state"
            )

    def applies_to(self, net: Network) -> bool:
        """True iff the event would change ``net`` (down events can be
        preempted by earlier deletions; up events by earlier arrivals)."""
        if self.kind == NODE_DOWN:
            return self.target in net
        if self.kind == EDGE_DOWN:
            u, v = self.target
            return net.has_edge(u, v)
        if self.kind == NODE_UP:
            return self.target not in net
        u, v = self.target
        return u in net and v in net and not net.has_edge(u, v)

    def apply(self, net: Network, state: Optional[NetworkState] = None) -> bool:
        """Apply the change; returns False when preempted (no-op)."""
        if not self.applies_to(net):
            return False
        if self.kind == NODE_DOWN:
            net.remove_node(self.target)
            if state is not None:
                state.drop([self.target])
        elif self.kind == EDGE_DOWN:
            u, v = self.target
            net.remove_edge(u, v)
        elif self.kind == NODE_UP:
            v = self.target
            net.add_node(v)
            for u in self.edges:
                if u in net and u != v:
                    net.add_edge(v, u)
            if state is not None:
                state.set(v, self.state)
        else:  # EDGE_UP
            u, v = self.target
            net.add_edge(u, v)
        return True


class ChurnPlan:
    """A time-ordered schedule of topology events with a stateful cursor.

    The cursor contract, shared by the deletion-only subclass
    :class:`~repro.runtime.faults.FaultPlan`: :meth:`apply_due` advances
    the cursor, engines auto-:meth:`reset` a plan already
    :attr:`consumed` at construction, and same-``time`` events fire in the
    order given (the sort is stable).
    Events themselves are immutable — resetting re-applies the schedule,
    it does not restore topology, so run each execution on a fresh copy of
    the network.
    """

    def __init__(self, events: Optional[list] = None) -> None:
        self._events = sorted(events or [], key=lambda e: e.time)
        self._cursor = 0
        self.applied: list = []
        self.skipped: list = []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def events(self) -> list:
        return list(self._events)

    @property
    def has_additions(self) -> bool:
        """True iff the plan adds any topology (``node-up`` or ``edge-up``)
        — the condition under which the array engines lower the *union*
        topology instead of the live network's snapshot."""
        return any(is_up_event(e) for e in self._events)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._events)

    @property
    def consumed(self) -> bool:
        """True once any event has been cursor-passed (applied or skipped)."""
        return self._cursor > 0

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def apply_due(
        self, net: Network, time: int, state: Optional[NetworkState] = None
    ) -> list:
        """Apply every not-yet-applied event with ``event.time <= time``.

        Returns the events that actually changed topology; preempted
        events are recorded in :attr:`skipped`.
        """
        fired: list = []
        while self._cursor < len(self._events) and self._events[self._cursor].time <= time:
            ev = self._events[self._cursor]
            self._cursor += 1
            if ev.apply(net, state):
                fired.append(ev)
                self.applied.append(ev)
            else:
                self.skipped.append(ev)
        return fired

    def reset(self) -> None:
        """Rewind the plan for a fresh execution."""
        self._cursor = 0
        self.applied = []
        self.skipped = []

    def ensure_fresh(self) -> "ChurnPlan":
        """Uphold the cursor contract at an execution boundary.

        Engines (and :func:`~repro.runtime.telemetry.replay`) call this on
        the plan they are handed: a plan already :attr:`consumed` — e.g.
        reused after a manual :meth:`apply_due` or a previous run — is
        :meth:`reset` so the full schedule re-applies from the top instead
        of silently continuing from the stale cursor position.  Returns
        ``self`` for call-site chaining.
        """
        if self.consumed:
            self.reset()
        return self

    # ------------------------------------------------------------------
    # lowering support
    # ------------------------------------------------------------------
    def union_topology(self, net: Network) -> Network:
        """The union of every topology this schedule can produce on ``net``.

        Initial nodes keep their insertion order; arrival nodes are
        appended in event order — the same order
        :meth:`~repro.network.graph.Network.add_node` would give the live
        network, which is what keeps the array engines' draw order aligned
        with the reference interpreter.  Edges whose partner can never be
        present are left out (they could never materialize at runtime
        either).  The result is a fresh :class:`Network` (no symmetry
        declaration) safe to export as the construction-time CSR.
        """
        # dict-level copy (no per-edge canonicalization): union building
        # sits on the engine construction path, so it must stay O(n + m)
        # dict work, not O(m) sorted() calls
        union = net.copy()
        union._symmetry = None  # the union is a different graph
        for ev in self._events:
            if ev.kind == NODE_UP:
                union.add_node(ev.target)
                union.add_edges(
                    (ev.target, u)
                    for u in ev.edges
                    if u in union and u != ev.target
                )
            elif ev.kind == EDGE_UP:
                u, v = ev.target
                if u in union and v in union:
                    union.add_edge(u, v)
        return union

    def boot_states(self) -> dict:
        """``{node: boot_state}`` over the plan's node-up events (last
        event wins) — what the array engines validate against the
        automaton alphabet at construction time."""
        out: dict = {}
        for ev in self._events:
            if ev.kind == NODE_UP:
                out[ev.target] = ev.state
        return out


# ----------------------------------------------------------------------
# process generators
# ----------------------------------------------------------------------
RngLike = Union[int, np.random.Generator, None]


def _gen(rng: RngLike) -> np.random.Generator:
    """``Generator`` passthrough, or a fresh one seeded by an int/``None``
    — equal seeds give identical plans."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def regional_outage_plan(
    net: Network,
    epicenter: Node,
    radius: int,
    time: int = 0,
    *,
    stagger: int = 0,
    recover_after: Optional[int] = None,
    recover_state: object = None,
) -> ChurnPlan:
    """A correlated regional outage: the BFS ball of ``radius`` hops
    around ``epicenter`` goes down together.

    ``stagger`` spreads the wave outward — a node at hop distance ``d``
    fails at ``time + stagger * d`` (0 = simultaneous).  With
    ``recover_after`` the region comes back: each node returns
    ``recover_after`` steps after it failed, booting in ``recover_state``
    and re-attaching to its original neighbours that are present at
    recovery time (mutually recovering neighbours re-link because each
    lists the other).
    """
    if epicenter not in net:
        raise KeyError(f"epicenter {epicenter!r} not in network")
    if recover_after is not None and recover_state is None:
        raise ValueError("recover_after needs a recover_state to boot into")
    dist = net.bfs_distances([epicenter])
    ball = sorted(
        (v for v, d in dist.items() if d <= radius),
        key=lambda v: (dist[v], repr(v)),
    )
    events: list = []
    for v in ball:
        down_t = time + stagger * dist[v]
        events.append(TopologyEvent(down_t, NODE_DOWN, v))
        if recover_after is not None:
            events.append(
                TopologyEvent(
                    down_t + recover_after,
                    NODE_UP,
                    v,
                    state=recover_state,
                    edges=tuple(sorted(net.neighbors(v), key=repr)),
                )
            )
    return ChurnPlan(events)


def adversarial_plan(
    net: Network,
    num_targets: int,
    *,
    centrality: str = "degree",
    start: int = 0,
    interval: int = 1,
) -> ChurnPlan:
    """An adversarial schedule deleting the highest-centrality nodes first.

    ``centrality`` ranks the targets: ``"degree"`` (hubs first),
    ``"articulation"`` (cut vertices before anything else, then by
    degree), or ``"bridge"`` (endpoints of bridges, ranked by how many
    bridges they carry) — the latter two reuse
    :mod:`repro.network.properties`.  Ties break deterministically by node
    repr.  Target ``i`` goes down at ``start + i * interval``.
    """
    if centrality == "degree":
        score = {v: net.degree(v) for v in net}
    elif centrality == "articulation":
        from repro.network.properties import articulation_points

        cuts = articulation_points(net)
        n = net.num_nodes
        score = {v: net.degree(v) + (n if v in cuts else 0) for v in net}
    elif centrality == "bridge":
        from repro.network.properties import bridges

        incident: dict = {v: 0 for v in net}
        for u, v in bridges(net):
            incident[u] += 1
            incident[v] += 1
        n = net.num_nodes
        score = {v: net.degree(v) + n * incident[v] for v in net}
    else:
        raise ValueError(
            f"unknown centrality {centrality!r}; "
            f"choose from 'degree', 'articulation', 'bridge'"
        )
    ranked = sorted(net.nodes(), key=lambda v: (-score[v], repr(v)))
    return ChurnPlan(
        [
            TopologyEvent(start + i * interval, NODE_DOWN, v)
            for i, v in enumerate(ranked[:num_targets])
        ]
    )


def growth_plan(
    net: Network,
    arrivals: int,
    *,
    attach: int = 2,
    start: int = 1,
    interval: int = 1,
    rng: RngLike = None,
    state: object,
    prefix: str = "new",
) -> ChurnPlan:
    """Stochastic growth: ``arrivals`` fresh nodes join one per
    ``interval`` steps from ``start``, each attaching to ``attach``
    uniformly random members of the network as of its arrival (initial
    nodes plus earlier arrivals).  New ids are ``f"{prefix}{i}"`` (ids
    already taken are skipped past).  Equal seeds give identical plans.
    """
    gen = _gen(rng)
    pool = net.nodes()
    events: list = []
    next_id = 0
    for i in range(arrivals):
        while f"{prefix}{next_id}" in net:
            next_id += 1
        v = f"{prefix}{next_id}"
        next_id += 1
        k = min(attach, len(pool))
        partners = (
            tuple(pool[j] for j in sorted(gen.choice(len(pool), size=k, replace=False)))
            if k
            else ()
        )
        events.append(
            TopologyEvent(start + i * interval, NODE_UP, v, state=state, edges=partners)
        )
        pool.append(v)
    return ChurnPlan(events)


def random_churn_plan(
    net: Network,
    num_events: int,
    max_time: int,
    rng: RngLike = None,
    *,
    p_up: float = 0.3,
    boot_state: object = None,
    protect: tuple = (),
) -> ChurnPlan:
    """A coherent random mixed down/up schedule over ``net``.

    Event times are drawn over ``[0, max_time]`` and sorted; the schedule
    is built against a scratch copy of the topology, so each event is
    feasible when it fires: with probability ``p_up`` (and given something
    to restore) the event resurrects a previously-downed node — booting in
    ``boot_state`` and re-attaching its original edges whose partner
    survives — or restores a previously-downed edge; otherwise it deletes
    a random present node or edge.  ``boot_state`` is required whenever a
    node could come back (``p_up > 0``).  ``protect`` lists nodes never
    deleted.  Accepts a ``Generator`` or an int seed; equal seeds give
    identical plans.
    """
    gen = _gen(rng)
    if p_up > 0 and boot_state is None:
        raise ValueError("p_up > 0 needs a boot_state for resurrected nodes")
    protected = set(protect)
    scratch = net.copy()
    original_nbrs = {v: tuple(sorted(net.neighbors(v), key=repr)) for v in net}
    down_nodes: list = []
    down_edges: list = []
    times = sorted(int(t) for t in gen.integers(0, max_time + 1, size=num_events))
    events: list = []
    for t in times:
        want_up = (down_nodes or down_edges) and gen.random() < p_up
        if want_up:
            # prefer the rarer resurrection when both pools are non-empty
            if down_nodes and (not down_edges or gen.integers(2)):
                v = down_nodes.pop(int(gen.integers(len(down_nodes))))
                ev = TopologyEvent(
                    t, NODE_UP, v, state=boot_state, edges=original_nbrs[v]
                )
            else:
                u, v = down_edges.pop(int(gen.integers(len(down_edges))))
                if not (u in scratch and v in scratch):
                    continue  # an endpoint died meanwhile; drop this slot
                ev = TopologyEvent(t, EDGE_UP, (u, v))
        else:
            node_pool = [v for v in scratch.nodes() if v not in protected]
            edge_pool = [
                e
                for e in scratch.edges()
                if e[0] not in protected and e[1] not in protected
            ]
            if node_pool and (not edge_pool or gen.integers(2)):
                v = node_pool[int(gen.integers(len(node_pool)))]
                down_nodes.append(v)
                # the node's current edges die with it; only explicit
                # edge-downs go to the restorable pool
                ev = TopologyEvent(t, NODE_DOWN, v)
            elif edge_pool:
                e = edge_pool[int(gen.integers(len(edge_pool)))]
                down_edges.append(canonical_edge(*e))
                ev = TopologyEvent(t, EDGE_DOWN, e)
            else:
                continue  # nothing left to delete
        ev.apply(scratch)
        events.append(ev)
    return ChurnPlan(events)
