"""Vectorized synchronous engine over the shared compiler IR.

The hot loop of a synchronous FSSGA step is, for every node, counting the
multiplicity of each state among its neighbours.  By Lemma 3.8 a step only
needs the counts of the ``F`` feature states some atom reads, so with
states encoded as integers ``0..s-1`` the whole count table is a single
CSR × dense product::

    counts = A @ [σ == f]          # (n × F), counts[v, f] = μ_f(Γ(v))

The engine executes a :class:`~repro.core.ir.CompiledAutomaton` — anything
:func:`repro.core.ir.lower` accepts (mod-thresh program mappings, automata
built from programs of any Theorem 3.7 form, rule-based automata declaring
``compile_hints``) runs here.  The counts → atom-table → cascade hot loop
itself lives behind the pluggable
:class:`~repro.runtime.backends.ArrayBackend` seam (``backend="auto"``
selects the numpy/scipy kernel, the bitwise reference); this module keeps
everything around it: CSR construction, state encoding and decoding (one
array pass each), fault masking, live-node slicing and telemetry.  It is
benchmarked against the reference interpreter in
``benchmarks/bench_engines.py`` (experiment E15) and across backends in
``benchmarks/bench_backends.py`` (experiment E21).

Churn plans (and their deletion-only :class:`FaultPlan` subclass) are
lowered rather than interpreted: events fire against the live
:class:`~repro.network.graph.Network` *before* the step whose time has
arrived (the reference contract), and each topology change updates an
incremental :class:`_ChurnMask` over the construction-time CSR — down
events flip alive flags or zero the edge's two stored entries, up events
flip them back — so a topology change costs O(events + nnz) slicing
instead of an O(n + m) Python re-export of the whole adjacency.  Plans
that *add* topology (``node-up`` / ``edge-up``) lower their **union**
topology into the construction-time CSR with not-yet-arrived entries
masked dead, so arrivals also stay on the vector fast path.  Between
event firings the step kernel runs on the live-compacted arrays at full
vector speed; dead nodes are excluded from counts, draws and decoding,
and arrivals are drawn for in reference re-insertion order, so
probabilistic executions stay bitwise-identical to the reference
interpreter, which draws once per live node in insertion order.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy import sparse

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import CompiledAutomaton, lower
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.runtime.backends import (
    DEFAULT_MAX_STEPS,
    ArrayBackend,
    resolve_backend,
)
from repro.runtime.churn import (
    EDGE_DOWN,
    EDGE_UP,
    NODE_DOWN,
    NODE_UP,
    ChurnPlan,
    canonical_kind,
    count_down_events,
)
from repro.runtime.telemetry import MetricsRegistry, coerce_rng

__all__ = ["VectorizedSynchronousEngine"]


# ----------------------------------------------------------------------
# shared machinery (used by both the single-replica and batched engines)
# ----------------------------------------------------------------------
def _encode_states(
    init: Mapping, order: list, code: Mapping, net: Optional[Network] = None
) -> np.ndarray:
    """``init`` as int codes over the CSR ``order``, in one array pass.

    Pass ``net`` when the order spans a plan's union topology: rows whose
    node has not arrived yet hold a placeholder 0 until their ``node-up``
    event scatters the boot state in.
    """
    if net is not None:
        codes = (code[init[v]] if v in net else 0 for v in order)
    elif isinstance(init, NetworkState):
        codes = map(code.__getitem__, init.states_of(order))
    else:
        codes = map(code.__getitem__, map(init.__getitem__, order))
    return np.fromiter(codes, dtype=np.int64, count=len(order))


def _decode_states(
    ir: CompiledAutomaton,
    sigma: np.ndarray,
    order: list,
    net: Network,
    pos0: Optional[Mapping] = None,
) -> NetworkState:
    """Decode one row of codes to a :class:`NetworkState` in one gather.

    Without ``pos0`` every row is a node, in CSR ``order``.  With it (a
    churned run: some rows are dead or not yet arrived) only the nodes
    currently in ``net`` are decoded, in ``net``'s order.
    """
    decode = ir.step_tables.decode
    if pos0 is None:
        return NetworkState(dict(zip(order, decode[sigma].tolist())))
    nodes = net.nodes()
    rows = np.fromiter(
        map(pos0.__getitem__, nodes), dtype=np.int64, count=len(nodes)
    )
    return NetworkState(dict(zip(nodes, decode[sigma[rows]].tolist())))


class _ChurnMask:
    """A churn plan lowered to alive-node / alive-edge masks over the
    construction-time CSR.

    For deletion-only plans this is the historical fault mask: node-down
    flips an alive flag, edge-down zeros the edge's two stored entries
    (the matrix is copy-on-first-data-mutation, so fault-free and
    node-fault-only runs never duplicate the adjacency), and ``live_view``
    slices the masked matrix down to the surviving rows/columns — stored
    zeros contribute nothing to neighbour counts or degree sums, so the
    sliced view is numerically identical to re-exporting the mutated
    network, at O(nnz) array cost instead of an O(n + m) Python rebuild.

    Plans that *add* topology lower through the same representation: the
    engine exports the plan's **union topology** (every node and edge the
    schedule can ever produce) as the construction-time CSR, not-yet-
    arrived rows start with ``initial_alive`` False and their edge entries
    stored as explicit zeros, and up events flip flags/entries back on —
    so arrivals never leave the vector fast path.  Two extra pieces make
    resurrection exact: ``track_edges`` (on whenever the plan has node
    arrivals) makes node-down also zero the node's incident stored
    entries, because a returning node re-attaches only the edges its
    ``node-up`` event lists; and an insertion *stamp* per row reproduces
    the reference network's dict order — initial nodes keep ascending
    construction order, (re)arrivals move to the back in firing order —
    which is exactly the order the reference interpreter draws in, so
    probabilistic churn runs stay bitwise identical.
    """

    __slots__ = (
        "_A", "_alive", "_pos0", "_copied", "_stamp", "_next_stamp",
        "_track_edges",
    )

    def __init__(
        self,
        adjacency: sparse.csr_matrix,
        pos0: Mapping,
        initial_alive: Optional[np.ndarray] = None,
        track_edges: bool = False,
        dead_edges: tuple = (),
    ) -> None:
        n = adjacency.shape[0]
        self._A = adjacency
        self._alive = (
            np.ones(n, dtype=bool)
            if initial_alive is None
            else np.asarray(initial_alive, dtype=bool).copy()
        )
        self._pos0 = pos0
        self._copied = False
        self._stamp = np.arange(n, dtype=np.int64)
        self._next_stamp = n
        self._track_edges = track_edges
        if track_edges:
            # arrivals always mutate stored data, and sharing the union
            # pattern with a cached CSR would leak masked values — copy up
            # front instead of lazily
            self._A = self._A.copy()
            self._copied = True
        for i, j in dead_edges:
            # union-pattern edges not present at t = 0 (a not-yet-arrived
            # endpoint, or a future edge-up) start as explicit zeros
            self._set_pair(i, j, 0)

    def _ensure_copied(self) -> None:
        if not self._copied:
            self._A = self._A.copy()
            self._copied = True

    def _set_pair(self, i: int, j: int, value: int) -> None:
        """Set the stored entries (i, j) and (j, i) to ``value`` (no-op for
        pattern-absent pairs, mirroring a preempted event)."""
        for a, b in ((i, j), (j, i)):
            lo, hi = self._A.indptr[a], self._A.indptr[a + 1]
            hit = np.nonzero(self._A.indices[lo:hi] == b)[0]
            self._A.data[lo + hit] = value

    def _zero_incident(self, i: int) -> None:
        """Zero every stored entry of row ``i`` and its mirrors (a downed
        node's edges die with it; a later ``node-up`` re-attaches only the
        edges it lists)."""
        lo, hi = self._A.indptr[i], self._A.indptr[i + 1]
        for j in self._A.indices[lo:hi]:
            self._set_pair(i, int(j), 0)

    def apply(self, fired: list) -> list:
        """Fold applied topology events into the masks.

        Returns ``(row, boot_state)`` pairs for node arrivals — the engine
        scatters these into its σ array (all replicas, for the batched
        engine) before computing the step the events precede.
        """
        boots: list = []
        for ev in fired:
            kind = canonical_kind(ev.kind)
            if kind == NODE_DOWN:
                i = self._pos0[ev.target]
                self._alive[i] = False
                if self._track_edges:
                    self._zero_incident(i)
            elif kind == EDGE_DOWN:
                self._ensure_copied()
                u, v = ev.target
                self._set_pair(self._pos0[u], self._pos0[v], 0)
            elif kind == NODE_UP:
                i = self._pos0[ev.target]
                self._alive[i] = True
                self._stamp[i] = self._next_stamp  # re-insertion at the back
                self._next_stamp += 1
                for u in ev.edges:
                    j = self._pos0.get(u)
                    if j is not None and self._alive[j] and j != i:
                        self._set_pair(i, j, 1)
                boots.append((i, ev.state))
            else:  # EDGE_UP
                u, v = ev.target
                self._set_pair(self._pos0[u], self._pos0[v], 1)
        return boots

    def live_view(self) -> tuple[np.ndarray, sparse.csr_matrix, np.ndarray]:
        """``(live_positions, live_adjacency, live_degrees)``.

        Live positions follow the insertion stamps (identical to ascending
        original row until the first arrival fires), preserving the
        cross-engine draw-order contract.
        """
        live = np.flatnonzero(self._alive)
        if self._next_stamp != self._stamp.shape[0]:
            live = live[np.argsort(self._stamp[live], kind="stable")]
        sub = self._A[live][:, live]
        deg = np.asarray(sub.sum(axis=1)).ravel()
        return live, sub, deg


def _lowered_topology(net: Network, plan: Optional[ChurnPlan]) -> tuple:
    """The construction-time CSR for a (possibly churned) run.

    Deletion-only (or absent) plans export the live network exactly as
    before; plans that add topology export the plan's **union topology**
    — every node and edge the schedule can ever produce — so arrivals are
    pre-allocated rows/entries that later just flip alive.
    """
    if plan is not None and plan.has_additions:
        return plan.union_topology(net).to_csr()
    return net.to_csr()


def _build_churn_mask(
    net: Network,
    plan: ChurnPlan,
    adjacency: sparse.csr_matrix,
    pos0: Mapping,
    code: Mapping,
) -> _ChurnMask:
    """The eager mask for a plan with arrivals, over the union CSR.

    Rows of nodes absent at t = 0 start dead, as do union-pattern edges
    not present at t = 0 (either a not-yet-arrived endpoint or a future
    ``edge-up``).  Node-up boot states are validated against the
    automaton alphabet here — at construction, not mid-run.
    """
    for v, q in plan.boot_states().items():
        if q not in code:
            raise ValueError(
                f"node-up boot state {q!r} for {v!r} is not in the "
                f"automaton alphabet {sorted(map(repr, code))}"
            )
    alive0 = np.fromiter(
        (v in net for v in pos0), dtype=bool, count=len(pos0)
    )
    # union-pattern entries absent at t = 0 are exactly the pairs the
    # events contribute (union = net ∪ event additions), so collect them
    # from the event list in O(event edges) instead of scanning the nnz
    dead: set = set()
    for ev in plan.events():
        kind = canonical_kind(ev.kind)
        if kind == NODE_UP:
            i = pos0.get(ev.target)
            if i is None:
                continue
            for u in ev.edges:
                j = pos0.get(u)
                if j is not None and j != i and not net.has_edge(ev.target, u):
                    dead.add((i, j))
        elif kind == EDGE_UP:
            u, v = ev.target
            i, j = pos0.get(u), pos0.get(v)
            if i is not None and j is not None and not net.has_edge(u, v):
                dead.add((i, j))
    return _ChurnMask(
        adjacency, pos0,
        initial_alive=alive0, track_edges=True, dead_edges=sorted(dead),
    )


class VectorizedSynchronousEngine:
    """Synchronous FSSGA evolution with numpy/scipy inner loops.

    Parameters
    ----------
    net:
        The network.  With a ``fault_plan`` the engine mutates ``net``
        exactly as the reference simulator does (events fire before the
        step whose time has arrived) and recomputes its live-node arrays
        at each topology change.
    programs:
        Anything :func:`repro.core.ir.lower` accepts: ``{q:
        ModThreshProgram}``, ``{(q, i): ModThreshProgram}`` (then
        ``randomness`` must be given), an :class:`FSSGA` /
        :class:`ProbabilisticFSSGA` built from programs of any Theorem 3.7
        form, a rule-based automaton declaring ``compile_hints``, or a
        pre-lowered :class:`~repro.core.ir.CompiledAutomaton`.
    init:
        Initial :class:`~repro.network.state.NetworkState`.
    randomness:
        ``r`` of Definition 3.11 for probabilistic program mappings.
    rng:
        Seed or Generator for probabilistic draws.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` or
        :class:`~repro.runtime.churn.ChurnPlan` lowered into per-step
        live-node masks.  Plans that add topology (``node-up`` /
        ``edge-up``) lower the plan's *union* topology into the
        construction-time CSR with not-yet-arrived entries masked dead,
        so churn runs keep the vector fast path; every ``node-up`` boot
        state must belong to the automaton alphabet.  A plan whose
        cursor was already consumed by a previous run is auto-reset.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry`
        receiving the engine-agnostic counters (``steps``,
        ``node_updates``, ``rng_draws``, ``fault_events``).  ``None``
        (default) costs one branch per step.  The resolved backend name
        is recorded as the registry's ``backend`` tag.
    backend:
        Which :class:`~repro.runtime.backends.ArrayBackend` executes the
        counts → atoms → cascades hot loop: ``"auto"`` / ``"numpy"`` (the
        bitwise-reference default), ``"array-api"``, ``"numba"`` (raises
        :class:`~repro.core.ir.BackendLoweringError` with blocker
        ``"numba-unavailable"`` when numba is missing), or a live
        :class:`~repro.runtime.backends.ArrayBackend` instance.
    """

    def __init__(
        self,
        net: Network,
        programs: Union[Mapping, FSSGA, ProbabilisticFSSGA, CompiledAutomaton],
        init: NetworkState,
        randomness: Optional[int] = None,
        rng: Union[int, np.random.Generator, None] = None,
        fault_plan: Optional[ChurnPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Union[str, ArrayBackend, None] = "auto",
    ) -> None:
        self._ir = lower(programs, randomness)
        self._probabilistic = self._ir.probabilistic
        self.randomness = self._ir.randomness
        self.alphabet: list = list(self._ir.alphabet)
        self._code = dict(self._ir.code)

        if fault_plan is not None:
            fault_plan.ensure_fresh()  # cursor contract: full schedule re-applies
        self.fault_plan = fault_plan

        self._net = net
        self.adjacency, self._order = _lowered_topology(net, fault_plan)
        self._n = len(self._order)
        self.rng = coerce_rng(rng)
        self.time = 0

        union = fault_plan is not None and fault_plan.has_additions
        self._sigma = _encode_states(
            init, self._order, self._code, net if union else None
        )

        self.backend = resolve_backend(backend)
        self.metrics = metrics
        if metrics is not None:
            metrics.set_tag("backend", self.backend.name)
        self.last_faults: list = []
        self._fault_mask: Optional[_ChurnMask] = None
        self._live_pos: Optional[np.ndarray] = None  # None ⇒ no fault yet
        self._live_adj = self.adjacency
        # degree-0 nodes hold their state; cached with the topology
        self._live = np.asarray(self.adjacency.sum(axis=1)).ravel() > 0
        if union:
            # arrivals need the eager mask: the t = 0 live view must
            # already exclude not-yet-arrived rows and dead edge entries
            self._fault_mask = _build_churn_mask(
                net, fault_plan, self.adjacency, self._pos0, self._code
            )
            self._set_live_view()

    @cached_property
    def _pos0(self) -> dict:
        """Original row of each node, built on first use (a plan firing or
        a live-subset decode)."""
        return {v: i for i, v in enumerate(self._order)}

    def _set_live_view(self) -> None:
        self._live_pos, self._live_adj, deg = self._fault_mask.live_view()
        self._live = deg > 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Row count of the lowered topology: the construction-time node
        count, plus any not-yet-arrived union rows when the plan adds
        topology (dead and unarrived nodes keep their rows)."""
        return self._n

    @property
    def live_count(self) -> int:
        """Nodes currently alive (== rng draws consumed per step)."""
        return self._n if self._live_pos is None else len(self._live_pos)

    def _refresh_topology(self, fired: list) -> None:
        """Fold fired topology events into the incremental live masks."""
        if self._fault_mask is None:
            self._fault_mask = _ChurnMask(self.adjacency, self._pos0)
        boots = self._fault_mask.apply(fired)
        for i, q in boots:
            # an arriving node boots in its event's declared state
            self._sigma[i] = self._code[q]
        self._set_live_view()

    def step(self) -> bool:
        """One synchronous step; returns True iff any live node changed."""
        self.last_faults = []
        if self.fault_plan is not None:
            fired = self.fault_plan.apply_due(self._net, self.time)
            if fired:
                self.last_faults = fired
                self._refresh_topology(fired)

        if self._live_pos is None:
            sig, adj = self._sigma, self.adjacency
        else:
            sig, adj = self._sigma[self._live_pos], self._live_adj
        m = sig.shape[0]
        if self._probabilistic:
            # one draw per live node, matching the reference interpreter's
            # per-node draw order (insertion order == CSR row order)
            draws = self.backend.draw(self.rng, self.randomness, m)
        else:
            draws = None
        new_sig = self.backend.step(adj, sig, self._live, draws, self._ir)
        met = self.metrics
        if met is None:
            changed = self.backend.any_changed(new_sig, sig)
        else:
            updates = self.backend.updates(new_sig, sig)
            changed = updates > 0
            met.inc("steps")
            met.inc("node_updates", updates)
            if self._probabilistic:
                met.inc("rng_draws", m)
            if self.last_faults:
                downs = count_down_events(self.last_faults)
                if downs:
                    met.inc("fault_events", downs)
                met.inc("churn_events", len(self.last_faults))
        if self._live_pos is None:
            self._sigma = new_sig
        else:
            full = self._sigma.copy()
            full[self._live_pos] = new_sig
            self._sigma = full
        self.time += 1
        return changed

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until_stable(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Step to a fixed point; returns steps taken (deterministic only).

        With a fault plan, stability additionally requires the plan to be
        exhausted (a pending fault can destabilise a fixed point)."""
        for steps in range(1, max_steps + 1):
            changed = self.step()
            if not changed and (
                self.fault_plan is None or self.fault_plan.exhausted
            ):
                return steps
        raise RuntimeError(f"no fixed point within {max_steps} steps")

    # ------------------------------------------------------------------
    @property
    def state(self) -> NetworkState:
        """Decode the current σ (live nodes only) to a :class:`NetworkState`."""
        pos0 = None if self._live_pos is None else self._pos0
        return _decode_states(self._ir, self._sigma, self._order, self._net, pos0)

    def state_counts(self) -> dict:
        """Multiplicity of each alphabet state over live nodes (vectorized)."""
        sig = self._sigma if self._live_pos is None else self._sigma[self._live_pos]
        binc = np.bincount(sig, minlength=len(self.alphabet))
        return {q: int(binc[i]) for i, q in enumerate(self.alphabet)}
