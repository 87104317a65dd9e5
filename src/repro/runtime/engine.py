"""The one synchronous array engine: a topology operator times R replicas.

Theorem 3.7 gives one synchronous dynamics (Definition 3.10).  This module
executes it for every array path in the codebase.  By Lemma 3.8 a step
only needs, for every row, the counts of the ``F`` feature states some
atom reads, so with states encoded as integers ``0..s-1`` the whole count
table of all R replicas is one sparse product::

    counts = A @ [σ == f]          # (R × m × F), counts[r, v, f] = μ_f(Γ(v))

The engine has two parameters:

* a **topology operator** (:class:`Topology`): the full CSR of the
  network — for a churn plan that adds topology, the plan's union
  topology with not-yet-arrived entries masked dead — or the quotient CSR
  of :mod:`repro.runtime.quotient`, whose entries are orbit
  multiplicities, together with the lift that decodes rows back to
  nodes.  An unedited cycle or circulant run without a fault plan gets
  :class:`CirculantAdjacency` instead: its product is a sum of rotations
  of the indicator over the residue set S = {±d mod n}, and no CSR is
  built;
* **R ≥ 1 replicas**, each with its own random stream and an active mask.
  Inactive replicas do not evolve and do not draw.

A probabilistic step draws ``integers(r, size=m)`` per active replica
through the backend's ``draw`` hook.  A stream the engine created itself
(from a seed, or spawned for the replicas) is fresh, so for a power-of-two
r ≤ 256 the engine hands the hook a :class:`_RawStream`, which reads the
same values straight from the raw PCG64 bit stream as uint8 and leaves the
stream at the same position.  A caller's Generator, a duck-typed source
and any other bit generator or r are drawn with plain ``integers``.

The step runs on compact arrays: σ is stored in the narrowest signed
integer dtype holding the alphabet, the CSR's entries in the narrowest
dtype holding its largest row sum (the stencil's counts in one holding
the degree), and by Lemma 3.8 the transition is one gather from the IR's
counter table (:attr:`~repro.core.ir.StepTables.counter_table`), or the
``np.select`` cascade when that table is over its cap.

σ stays a code array from the initial state to the result.  An
array-backed initial state over the topology's rows (what
``NetworkState.uniform`` builds on an array-built network, or an earlier
run's result) is encoded by one gather through a table from its codes to
the IR's; any other mapping in one ``np.fromiter`` pass.  The states the
engine hands out — replica and final states, the argument of an ``until``
predicate — wrap a row of σ with the IR's decode table and are never
decoded here.  That is safe because a step replaces σ instead of writing
it, and an arrival boot copies σ before writing the boot state.

The counts → transition kernel itself runs through the hooks of
:class:`~repro.runtime.backends.NumpyBackend`; this module keeps
everything around it: state encoding, the churn mask and
live view, the replica masks, telemetry and the one termination policy
(:func:`drive`), which :func:`repro.run` uses too.
:class:`~repro.runtime.vectorized.VectorizedSynchronousEngine`,
:class:`~repro.runtime.batched.BatchedSynchronousEngine` and
:class:`~repro.runtime.quotient.QuotientSynchronousEngine` are thin
constructors over :class:`SynchronousArrayEngine`.

Churn plans (and their deletion-only :class:`FaultPlan` subclass) are
lowered rather than interpreted: events fire against the live
:class:`~repro.network.graph.Network` *before* the step whose time has
arrived (the reference contract).  The engine builds one
:class:`_ChurnMask` per plan at construction, over its own copy of the
construction-time CSR; each event is a few index writes into it, and a
topology change costs one O(nnz) live-view slice instead of an O(n + m)
Python re-export of the adjacency.  Between firings the kernel runs on
the live-compacted arrays; dead nodes are excluded from counts, draws and
decoding, and arrivals are drawn for in reference re-insertion order, so
probabilistic executions stay bitwise identical to the reference
interpreter, which draws once per live node in insertion order.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import sparse

from repro.core.ir import lower
from repro.network.graph import Network
from repro.network.state import NetworkState, _ArrayState, require_states
from repro.runtime.backends import DEFAULT_MAX_STEPS, resolve_backend
from repro.runtime.backends.kernels import narrow_int
from repro.runtime.churn import (
    EDGE_UP,
    NODE_DOWN,
    NODE_UP,
    ChurnPlan,
    count_down_events,
)

__all__ = [
    "SynchronousArrayEngine", "SingleReplicaEngine", "Topology",
    "CirculantAdjacency", "drive",
]


def _encode_states(
    init: Mapping, order: list, code: Mapping, net: Optional[Network] = None
) -> np.ndarray:
    """``init`` as int codes over the row labels ``order``, in one array pass:
    a gather when ``init`` is an array state over the same rows.

    Pass ``net`` when the order spans a plan's union topology: rows whose
    node has not arrived yet hold a placeholder 0 until their ``node-up``
    event scatters the boot state in.  A node ``init`` leaves out raises
    the reference simulator's :class:`ValueError`.
    """
    if net is None and isinstance(init, _ArrayState) and init._aligned(order):
        # an array state over these rows: one gather through its table
        table = np.array([code.get(q, -1) for q in init._decode.tolist()],
                         dtype=np.int64)
        codes = table[init._codes]
        if table.min(initial=0) < 0 and codes.min(initial=0) < 0:
            bad = init._decode[init._codes[np.argmax(codes < 0)]]
            raise ValueError(f"own state {bad!r} not in Q")
        return codes
    if net is not None:
        codes = (code[init[v]] if v in net else 0 for v in order)
    elif isinstance(init, NetworkState):
        codes = map(code.__getitem__, init.states_of(order))
    else:
        codes = map(code.__getitem__, map(init.__getitem__, order))
    try:
        return np.fromiter(codes, dtype=np.int64, count=len(order))
    except KeyError:
        # a node without a state, or a state outside the alphabet: name it
        # as the reference simulator does
        nodes = order if net is None else [v for v in order if v in net]
        require_states(init, nodes)
        for v in nodes:
            if init[v] not in code:
                raise ValueError(f"own state {init[v]!r} not in Q") from None
        raise


class _RawStream:
    """``integers(r, size=m)`` of a fresh PCG64 Generator, drawn from its
    raw bit stream: the same values at the same stream position.

    For r = 2^k (1 ≤ k ≤ 8) numpy's bounded ``integers`` takes each value
    as the top k bits of one 32-bit half of a raw 64-bit output, low half
    first, and Lemire's rejection never fires because 2^32 mod r = 0.  So
    when no 32-bit half is cached and m is even, ``random_raw(m // 2)``
    viewed as uint32 and shifted right by 32 − k is that vector, and it
    leaves ``has_uint32`` at 0 as ``integers`` does (only the unused
    ``uinteger`` slot goes stale).  The stream keeps the "a half is
    cached" bit itself: it is fresh when wrapped, so no
    ``bit_generator.state`` read is needed.  An odd m on a cached half
    takes that half as one scalar draw, then the raw path; every other
    call goes to ``integers`` and flips the bit when m is odd.  Raw draws
    come as uint8.
    """

    __slots__ = ("gen", "_raw", "_shift", "_cached")

    def __init__(self, gen: np.random.Generator, r: int) -> None:
        self.gen = gen
        self._raw = gen.bit_generator.random_raw
        self._shift = 33 - r.bit_length()  # 32 − k
        self._cached = False

    def integers(self, high: int, size: int) -> np.ndarray:
        """``gen.integers(high, size=size)`` for ``high`` = the wrapped r."""
        odd = size & 1
        if size and odd == self._cached:  # even and none cached, or odd on one
            if not odd:
                return self._bits(size)
            out = np.empty(size, dtype=np.uint8)
            out[0] = self.gen.integers(high)  # takes the cached half
            out[1:] = self._bits(size - 1)
            self._cached = False
            return out
        if odd:
            self._cached = not self._cached
        return self.gen.integers(high, size=size)

    def _bits(self, m: int) -> np.ndarray:
        halves = self._raw(m // 2).view(np.uint32)
        halves >>= self._shift
        return halves.astype(np.uint8)


def _is_seed(rng) -> bool:
    """Whether :func:`~repro.runtime.telemetry.coerce_rng` builds a fresh
    Generator from ``rng`` rather than passing a caller's source through."""
    return rng is None or isinstance(rng, (int, np.integer, np.random.SeedSequence))


def _draw_source(gen, r: int):
    """The draw source for a stream the engine created itself: a
    :class:`_RawStream` when it can serve ``integers(r, size=m)`` from the
    raw bit stream (a PCG64 Generator, r a power of two in [2, 256], a
    little-endian host), else ``gen``."""
    if (2 <= r <= 256 and not r & (r - 1) and sys.byteorder == "little"
            and type(gen.bit_generator) is np.random.PCG64):
        return _RawStream(gen, int(r))
    return gen


class _ChurnMask:
    """A churn plan lowered to an alive flag per row and stored-entry values
    over the engine's own copy of the construction-time CSR.

    The CSR spans every node and edge the plan can produce: the live
    network for a deletion-only plan, the plan's **union topology** when
    it adds topology.  Rows of nodes not yet arrived start dead, and the
    entries absent at t = 0 (a not-yet-arrived endpoint, or a future
    ``edge-up``) start as stored zeros.  Each fired event is then a few
    index writes:

    * ``node-down`` clears the row's flag and zeroes its stored entries
      and their mirrors, since a returning node re-attaches only the edges
      its ``node-up`` lists;
    * ``edge-down`` / ``edge-up`` write the entry pair 0 / 1;
    * ``node-up`` sets the flag, writes 1 to its listed pairs with alive
      partners, and moves the row's insertion *stamp* to the back.

    An event pair absent from the pattern is skipped, as a pre-empted
    event is; a pair's data indices come from one ``searchsorted`` on the
    ascending ``row * n + col`` keys, and each entry's mirror index is
    computed once.  ``live_view`` slices the matrix down to the alive
    rows: stored zeros add nothing to neighbour counts or degrees, so the
    view equals a re-export of the mutated network.  The stamps reproduce
    the reference network's dict order (initial nodes in construction
    order, (re)arrivals at the back in firing order), the order the
    reference interpreter draws in, so probabilistic churn runs stay
    bitwise identical.
    """

    __slots__ = ("_A", "_keys", "_mirror", "_alive", "_pos0", "_stamp", "_next_stamp")

    def __init__(
        self,
        net: Network,
        plan: ChurnPlan,
        adjacency: sparse.csr_matrix,
        pos0: Mapping,
        code: Mapping,
    ) -> None:
        for v, q in plan.boot_states().items():
            if q not in code:
                raise ValueError(
                    f"node-up boot state {q!r} for {v!r} is not in the "
                    f"automaton alphabet {sorted(map(repr, code))}"
                )
        # events write entries, and ``adjacency`` may be the network's
        # cached ``to_csr()``
        self._A = a = adjacency.copy()
        a.sort_indices()
        n = a.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
        cols = a.indices.astype(np.int64)
        # ascending; the trailing n * n matches no pair
        self._keys = np.append(rows * n + cols, n * n)
        self._mirror = np.searchsorted(self._keys, cols * n + rows)
        # the CSR order lists the t = 0 nodes first, arrivals after them
        self._alive = np.arange(n) < len(net)
        self._pos0 = pos0
        self._stamp = np.arange(n, dtype=np.int64)
        self._next_stamp = n
        # the union entries absent at t = 0 are exactly the pairs the up
        # events contribute that ``net`` lacks
        absent = []
        for ev in plan.events():
            if ev.kind == NODE_UP:
                pairs = [(ev.target, u) for u in ev.edges]
            elif ev.kind == EDGE_UP:
                pairs = [ev.target]
            else:
                continue
            absent += [
                (pos0[u], pos0[v]) for u, v in pairs
                if u in pos0 and v in pos0 and not net.has_edge(u, v)
            ]
        self._set_pairs(absent, 0)

    def _set_pairs(self, pairs: list, value: int) -> None:
        """Write ``value`` to the stored entries ``(i, j)`` of ``pairs`` and
        to their mirrors ``(j, i)``; pairs absent from the pattern are
        skipped."""
        if not pairs:
            return
        i, j = np.array(pairs, dtype=np.int64).T
        want = i * self._A.shape[0] + j
        at = np.searchsorted(self._keys, want)
        at = at[self._keys[at] == want]
        self._A.data[at] = value
        self._A.data[self._mirror[at]] = value

    def apply(self, fired: list) -> list:
        """Fold applied topology events into the masks.

        Returns ``(row, boot_state)`` pairs for node arrivals — the engine
        scatters these into every replica's σ before computing the step
        the events precede.
        """
        boots: list = []
        pos0, data = self._pos0, self._A.data
        for ev in fired:
            kind = ev.kind
            if kind == NODE_DOWN:
                i = pos0[ev.target]
                self._alive[i] = False
                lo, hi = self._A.indptr[i], self._A.indptr[i + 1]
                data[lo:hi] = 0
                data[self._mirror[lo:hi]] = 0
            elif kind == NODE_UP:
                i = pos0[ev.target]
                self._alive[i] = True
                self._stamp[i] = self._next_stamp  # re-insertion at the back
                self._next_stamp += 1
                partners = [pos0.get(u) for u in ev.edges]
                self._set_pairs(
                    [(i, j) for j in partners
                     if j is not None and self._alive[j]], 1,
                )
                boots.append((i, ev.state))
            else:  # an edge event
                u, v = ev.target
                self._set_pairs([(pos0[u], pos0[v])], int(kind == EDGE_UP))
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


class CirculantAdjacency:
    """The adjacency of a circulant ``C_n(S)`` as a wrapped stencil.

    A circulant is vertex-transitive: node ``i``'s neighbours are
    ``i + s (mod n)`` for the residues ``s ∈ S = {±d mod n}``, so a
    product with a dense ``(n, k)`` block is a sum of ``|S|`` row
    rotations, with no stored entries::

        (A @ x)[i] = Σ_{s ∈ S} x[(i + s) mod n]

    ``dtype`` is the narrowest signed integer holding the degree ``|S|``:
    a 0/1 indicator cast to it sums exactly, at one byte per count up to
    degree 127, so the rotations run over arrays that fit in cache.  Row
    sums are the degree.
    """

    __slots__ = ("shape", "dtype", "_residues")

    def __init__(self, n: int, residues) -> None:
        self.shape = (n, n)
        self._residues = tuple(residues)
        self.dtype = narrow_int(len(self._residues))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.shape[0]
        out = np.zeros(x.shape, dtype=np.result_type(self.dtype, x.dtype))
        for s in self._residues:
            out[: n - s] += x[s:]
            out[n - s:] += x[:s]
        return out

    def sum(self, axis: int) -> np.ndarray:
        """Row (or, by symmetry, column) sums: the degree everywhere."""
        return np.full(self.shape[0], len(self._residues), dtype=np.int64)


def _narrow_csr(adjacency, degrees: np.ndarray):
    """``adjacency`` with its CSR entries in the narrowest dtype holding
    the largest row sum, so the count product runs on small integers and
    still counts exactly (a stencil already is narrow)."""
    if not sparse.issparse(adjacency):
        return adjacency
    dtype = narrow_int(int(degrees.max(initial=0)))
    if dtype == adjacency.dtype:
        return adjacency
    return sparse.csr_matrix(
        (adjacency.data.astype(dtype), adjacency.indices, adjacency.indptr),
        shape=adjacency.shape,
    )


class Topology(NamedTuple):
    """The operator a step multiplies by, and how its rows map to nodes.

    ``rows[i]`` is the node whose state row ``i`` holds (initial states
    are encoded from these nodes).  Decoding walks ``nodes``: node
    ``nodes[t]`` reads row ``lift[t]``, or row ``t`` when ``lift`` is
    ``None`` (the full graph, where ``nodes`` is ``rows``).  ``sizes``
    weights rows in state counts — orbit sizes on a quotient, ``None``
    (all ones) on the full graph.
    """

    adjacency: sparse.csr_matrix | CirculantAdjacency
    rows: Sequence
    nodes: Sequence
    lift: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None


def full_topology(net: Network, plan: Optional[ChurnPlan]) -> Topology:
    """The construction-time operator for a (possibly churned) run.

    Without a plan, a circulant (or cycle) the generator built and nothing
    has edited gets the :class:`CirculantAdjacency` stencil; anything else
    gets the CSR, which masking needs.  Deletion-only plans export the
    live network; plans that add topology export the plan's **union
    topology** — every node and edge the schedule can ever produce — so
    arrivals are pre-allocated rows/entries that later just flip alive.
    """
    if plan is None and net._circulant is not None:
        order = range(len(net))  # an array-built network's nodes
        return Topology(CirculantAdjacency(len(order), net._circulant), order, order)
    if plan is not None and plan.has_additions:
        adjacency, order = plan.union_topology(net).to_csr()
    else:
        adjacency, order = net.to_csr()
    return Topology(adjacency, order, order)


def drive(
    step_once: Callable,
    until,
    max_steps: int,
    active: np.ndarray,
    fault_plan: Optional[ChurnPlan] = None,
    satisfied: Optional[Callable[[int], bool]] = None,
) -> int:
    """Run ``step_once`` under the one termination policy; returns the
    number of ``step_once`` calls.

    ``step_once`` returns which replicas changed (an ``(R,)`` mask, or a
    bool for one replica); ``active`` is the ``(R,)`` replica mask,
    cleared in place as replicas finish.

    * ``until=k`` (an int): exactly ``k`` steps.
    * ``until="stable"``: a replica finishes after its first no-change
      step, which is executed and counted (a network born stable takes 1
      step).  While ``fault_plan`` has pending events nothing finishes: a
      pending event can destabilise a fixed point.
    * ``until`` callable: ``satisfied(r)`` is checked for every active
      replica *before* each step, so an initially satisfied run takes 0
      steps; satisfied replicas finish.

    Both open-ended modes raise :class:`RuntimeError` at ``max_steps``.
    """
    if isinstance(until, bool):
        raise TypeError("until must be an int, 'stable', or a predicate")
    if isinstance(until, int):
        if until < 0:
            raise ValueError("until must be >= 0")
        for _ in range(until):
            step_once()
        return until
    if until == "stable":
        for steps in range(max_steps):
            if not active.any():
                return steps
            changed = step_once()
            if fault_plan is None or fault_plan.exhausted:
                active &= changed
        if not active.any():
            return max_steps
        what = "no fixed point"
    elif callable(until):
        for steps in range(max_steps + 1):
            for r in np.flatnonzero(active).tolist():
                if satisfied(r):
                    active[r] = False
            if not active.any():
                return steps
            if steps < max_steps:
                step_once()
        what = "predicate not reached"
    else:
        raise TypeError(
            f"until must be an int, 'stable', or a predicate; got {until!r}"
        )
    who = "" if active.size == 1 else f"{int(active.sum())}/{active.size} replicas: "
    raise RuntimeError(f"{who}{what} within {max_steps} steps")


class SynchronousArrayEngine:
    """R replicas of one automaton, stepped in lockstep over one topology.

    Parameters
    ----------
    net:
        The network.  With a ``fault_plan`` the engine mutates ``net``
        exactly as the reference simulator does (events fire before the
        step whose time has arrived); every replica sees the same
        topology trajectory.
    programs:
        Anything :func:`repro.core.ir.lower` accepts.
    inits:
        One initial state per replica.
    randomness:
        ``r`` of Definition 3.11 for probabilistic program mappings.
    rngs:
        One draw source per replica (anything with ``integers``).
    fault_plan:
        Optional :class:`~repro.runtime.churn.ChurnPlan` lowered into
        live-row masks shared by all replicas; a plan whose cursor was
        consumed by an earlier run is reset.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry`
        receiving ``steps``, ``node_updates``, ``rng_draws``,
        ``fault_events`` and ``churn_events``, plus
        ``node_updates_lifted`` on a weighted topology.  The resolved
        backend name is recorded as its ``backend`` tag.
    backend:
        The :class:`~repro.runtime.backends.NumpyBackend` (or its name)
        executing the step kernel.
    topology:
        The operator; ``None`` lowers the full graph of ``net`` (the union
        topology when the plan adds topology).
    """

    #: Record the per-step ``active_fraction`` series (replica-mask density).
    _records_active_fraction = False

    def __init__(
        self,
        net: Network,
        programs,
        inits: list,
        randomness: Optional[int],
        rngs: list,
        fault_plan: Optional[ChurnPlan] = None,
        metrics=None,
        backend="auto",
        topology: Optional[Topology] = None,
    ) -> None:
        self._ir = lower(programs, randomness)
        self._probabilistic = self._ir.probabilistic
        self.randomness = self._ir.randomness
        self.alphabet: list = list(self._ir.alphabet)
        self._code = dict(self._ir.code)

        if fault_plan is not None:
            fault_plan.ensure_fresh()  # cursor contract: full schedule re-applies
        self.fault_plan = fault_plan
        union = fault_plan is not None and fault_plan.has_additions

        self._net = net
        if topology is None:
            topology = full_topology(net, fault_plan)
        degrees = np.asarray(topology.adjacency.sum(axis=1)).ravel()
        self.adjacency = _narrow_csr(topology.adjacency, degrees)
        self._order, self._nodes = topology.rows, topology.nodes
        self._lift, self._sizes = topology.lift, topology.sizes
        self._n = len(self._order)
        self.replicas = len(inits)
        self.rngs = rngs
        self._draw_sources = rngs  # see _own_streams
        self.time = 0

        # the narrowest code dtype: σ, the counts and the table index of a
        # step then stay a few bytes per node
        sigmas = np.empty(
            (self.replicas, self._n), dtype=self._ir.step_tables.lut.dtype
        )
        encoded: dict = {}  # a shared init is encoded once
        for r, state in enumerate(inits):
            row = encoded.get(id(state))
            if row is None:
                row = encoded[id(state)] = _encode_states(
                    state, self._order, self._code, net if union else None
                )
            sigmas[r] = row
        self._sigmas = self._sigmas_before = sigmas
        self._active = np.ones(self.replicas, dtype=bool)
        self._rounds = np.zeros(self.replicas, dtype=np.int64)

        self.backend = resolve_backend(backend)
        self.metrics = metrics
        if metrics is not None:
            metrics.set_tag("backend", self.backend.name)
        self.last_faults: list = []
        self._mask: Optional[_ChurnMask] = None
        self._live_pos: Optional[np.ndarray] = None  # None ⇒ whole σ steps
        self._live_adj = self.adjacency
        self._set_live(degrees)  # cached with the topology
        #: the last step's ``(active, stepped rows)`` change mask
        self._diff: Optional[np.ndarray] = None
        if fault_plan is not None:
            self._mask = _ChurnMask(
                net, fault_plan, self.adjacency, self._pos0, self._code
            )
            if union:
                # the t = 0 view leaves out the rows and entries to come
                self._set_live_view()

    def _own_streams(self) -> None:
        """Draw through :func:`_draw_source`: the constructors call this
        when they created ``rngs`` themselves (from a seed, or spawned), so
        the streams are fresh.  A caller's Generators stay on plain
        ``integers``: the caller may draw from them between steps, and
        :func:`~repro.runtime.telemetry.capture_rng` snapshots their full
        state, ``uinteger`` included."""
        if self._probabilistic:
            self._draw_sources = [
                _draw_source(g, self.randomness) for g in self.rngs
            ]

    @cached_property
    def _pos0(self) -> dict:
        """Original row of each node, built on first use (a plan's mask or
        a live-subset decode)."""
        return {v: i for i, v in enumerate(self._order)}

    def _set_live_view(self) -> None:
        self._live_pos, self._live_adj, deg = self._mask.live_view()
        self._set_live(deg)

    def _set_live(self, degrees: np.ndarray) -> None:
        # degree-0 rows hold their state; None when there are none spares
        # the kernel its hold mask
        live = degrees > 0
        self._live = None if live.all() else live

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Nodes the topology addresses: the full graph's rows (plus any
        not-yet-arrived union rows when the plan adds topology; dead and
        unarrived nodes keep their rows), or the lifted node count of a
        quotient."""
        return len(self._nodes)

    @property
    def live_count(self) -> int:
        """Rows stepped per replica (== rng draws per replica per step)."""
        return self._n if self._live_pos is None else len(self._live_pos)

    @property
    def active(self) -> np.ndarray:
        """Copy of the per-replica liveness mask (False = converged/stopped)."""
        return self._active.copy()

    @property
    def rounds(self) -> np.ndarray:
        """Per-replica count of synchronous steps actually executed."""
        return self._rounds.copy()

    @property
    def _sigma(self) -> np.ndarray:
        return self._sigmas

    def _refresh_topology(self, fired: list) -> None:
        """Fold fired topology events into the live masks."""
        boots = self._mask.apply(fired)
        if boots:
            # an arriving node boots in its event's declared state, in
            # every replica, before the step; σ is copied first, since
            # states handed out earlier may share its rows
            sigmas = self._sigmas.copy()
            for i, q in boots:
                sigmas[:, i] = self._code[q]
            self._sigmas = sigmas
        self._set_live_view()

    def _step(self) -> np.ndarray:
        """One synchronous step for every active replica.

        Returns a boolean ``(R,)`` array: True where that replica changed.
        Inactive replicas do not evolve, do not draw, and report False.
        Due topology events fire (once, shared by all replicas) before
        the update.  σ is replaced, never written in place, so a state
        wrapping a row of it stays valid; ``_sigmas_before`` keeps the σ
        the step read (arrival boots included) for change reports.
        """
        self.last_faults = []
        if self.fault_plan is not None:
            fired = self.fault_plan.apply_due(self._net, self.time)
            if fired:
                self.last_faults = fired
                self._refresh_topology(fired)
        self.time += 1
        act = self._active.nonzero()[0]
        met = self.metrics
        if met is not None:
            met.inc("steps")
            if self._records_active_fraction:
                met.observe("active_fraction", act.size / self.replicas)
            if self.last_faults:
                downs = count_down_events(self.last_faults)
                if downs:
                    met.inc("fault_events", downs)
                met.inc("churn_events", len(self.last_faults))
        if act.size == 0:
            self._diff = None
            return np.zeros(self.replicas, dtype=bool)
        every = act.size == self.replicas
        # every replica active and no fault fired: step σ whole; otherwise
        # gather the active × live block and scatter it into one copy
        whole = every and self._live_pos is None
        if whole:
            sig, adj = self._sigmas, self.adjacency
        else:
            key = act if self._live_pos is None else np.ix_(act, self._live_pos)
            sig, adj = self._sigmas[key], self._live_adj
        m = sig.shape[1]
        one = act.size == 1  # a lone stepping replica goes to the backend flat
        if self._probabilistic:
            # one draw vector per active replica, from its own stream, in
            # replica order — replica r matches a solo run on rngs[r]
            per = [self.backend.draw(self._draw_sources[r], self.randomness, m)
                   for r in act.tolist()]
            draws = per[0] if one else np.concatenate(per).reshape(sig.shape)
        else:
            draws = None
        new_sig = self.backend.step(
            adj, sig[0] if one else sig, self._live, draws, self._ir
        ).reshape(sig.shape)
        self._diff = diff = new_sig != sig
        if every:
            changed = diff.any(axis=1)
        else:  # inactive replicas report False
            changed = np.zeros(self.replicas, dtype=bool)
            changed[act] = diff.any(axis=1)
        if met is not None:
            met.inc("node_updates", int(diff.sum()))
            if self._sizes is not None:
                met.inc("node_updates_lifted", int((diff * self._sizes).sum()))
            if self._probabilistic:
                met.inc("rng_draws", act.size * m)
        self._sigmas_before = self._sigmas
        if whole:
            self._sigmas = new_sig
        else:
            full = self._sigmas.copy()
            full[key] = new_sig
            self._sigmas = full
        self._rounds += self._active
        return changed

    def step(self) -> np.ndarray:
        """One synchronous step; the ``(R,)`` changed mask (see ``_step``)."""
        return self._step()

    def run(self, steps: int) -> None:
        """Run exactly ``steps`` steps (active replicas only)."""
        for _ in range(steps):
            self._step()

    def run_until_stable(self, max_steps: int = DEFAULT_MAX_STEPS) -> np.ndarray:
        """Step each replica to its own fixed point (deterministic automata);
        returns the per-replica rounds.  See :func:`drive`."""
        drive(self._step, "stable", max_steps, self._active, self.fault_plan)
        return self.rounds

    def run_until(
        self, stop: Callable[[dict], bool], max_steps: int = DEFAULT_MAX_STEPS
    ) -> np.ndarray:
        """Step until ``stop(counts)`` holds per replica; returns rounds.

        ``stop`` receives a replica's ``{state: multiplicity}`` dict over
        the live nodes and is checked before each step; replicas whose
        predicate holds are deactivated.  See :func:`drive`.
        """
        drive(
            self._step, stop, max_steps, self._active, self.fault_plan,
            lambda r: stop(self.replica_state_counts(r)),
        )
        return self.rounds

    def _changed_rows(self) -> np.ndarray:
        """Ascending rows the last step changed in the first stepped
        replica (the one replica of a single-replica run)."""
        rows = np.flatnonzero(self._diff[0])
        if self._live_pos is not None:
            rows = np.sort(self._live_pos[rows])
        return rows

    # ------------------------------------------------------------------
    def _decode(self, nodes: Sequence, codes: np.ndarray) -> NetworkState:
        """An array state over ``nodes`` sharing ``codes`` (a row of σ,
        which steps replace rather than write, or a gather of one)."""
        return _ArrayState(nodes, codes, self._ir.step_tables.decode)

    def replica_state(self, r: int) -> NetworkState:
        """Replica ``r``'s state over the nodes currently in the network,
        lifted through the topology's row map, in one gather, and left
        array-backed."""
        sig = self._sigmas[r]
        if self._live_pos is None:
            nodes, rows = self._nodes, self._lift
        else:
            nodes = self._net.nodes()
            rows = np.fromiter(
                map(self._pos0.__getitem__, nodes), dtype=np.int64,
                count=len(nodes),
            )
        return self._decode(nodes, sig if rows is None else sig[rows])

    @property
    def states(self) -> list[NetworkState]:
        """All replicas' states (array-backed, see :meth:`replica_state`)."""
        return [self.replica_state(r) for r in range(self.replicas)]

    def replica_state_counts(self, r: int) -> dict:
        """Multiplicity of each alphabet state over replica ``r``'s live
        nodes (rows weighted by the nodes they stand for)."""
        row = self._sigmas[r]
        if self._live_pos is not None:
            row = row[self._live_pos]
        binc = np.bincount(row, weights=self._sizes, minlength=len(self.alphabet))
        return {q: int(binc[i]) for i, q in enumerate(self.alphabet)}

    def state_counts(self) -> list[dict]:
        """Per-replica state multiplicities."""
        return [self.replica_state_counts(r) for r in range(self.replicas)]

    def _row_members(self) -> list[list]:
        """The nodes each row stands for, in decoding order."""
        if self._lift is None:
            return [[v] for v in self._order]
        members: list[list] = [[] for _ in range(self._n)]
        for v, i in zip(self._nodes, self._lift.tolist()):
            members[i].append(v)
        return members


class SingleReplicaEngine(SynchronousArrayEngine):
    """The R = 1 view: ``step()`` returns a bool, ``state`` is one
    :class:`NetworkState`, and ``rng`` is the one draw source."""

    def step(self) -> bool:
        """One synchronous step; True iff any live node changed."""
        return bool(self._step()[0])

    def run_until_stable(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Step to a fixed point; returns steps taken (deterministic only).
        The engine stays steppable afterwards."""
        return drive(
            self._step, "stable", max_steps, np.ones(1, dtype=bool),
            self.fault_plan,
        )

    @property
    def rng(self):
        return self.rngs[0]

    @property
    def state(self) -> NetworkState:
        """The current state over the live nodes (array-backed)."""
        return self.replica_state(0)

    def state_counts(self) -> dict:
        """Multiplicity of each alphabet state over live nodes."""
        return self.replica_state_counts(0)

    @property
    def _sigma(self) -> np.ndarray:
        return self._sigmas[0]
