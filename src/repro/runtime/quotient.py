"""Symmetry-quotient synchronous engine: one simulated node per orbit.

The paper's symmetry argument (Section 1, applied to the Definition 3.10
synchronous dynamics) is that a symmetric automaton cannot distinguish
automorphic nodes: if π is an automorphism of the network and σ is
orbit-constant, then the successor of σ is orbit-constant too — every node
of an orbit computes the same transition as the orbit's representative.
So a run started in an orbit-constant state never needs more than one
representative per orbit simulated.

The lowering here (:func:`quotient_topology`) folds a declared
:class:`~repro.network.symmetry.AutomorphismGroup` into a **quotient CSR**
``Q`` over the ``k`` orbit representatives: ``Q[i, j]`` is the
multiplicity of orbit ``j`` in representative ``i``'s neighbourhood.
Because every node of orbit ``j`` carries the same state, the
representative's true neighbour-state counts are exactly::

    counts = Q @ [σ_reps == f]          # (k × F), f over the feature states

so :class:`QuotientSynchronousEngine` is the one array engine
(:class:`~repro.runtime.engine.SynchronousArrayEngine`) with ``Q`` as its
topology operator — mod-thresh counting is exact, not approximated, and a
step costs O(k·F + nnz(Q)) instead of O(n·F + m).  Lifted views
(:attr:`~repro.runtime.engine.SingleReplicaEngine.state`, observer change
dicts in :func:`repro.runtime.api.run`) decode the representative vector
back to all ``n`` nodes via the orbit index.

**Probabilistic convention.**  A quotient step draws *one* value per
orbit (``rng.integers(r, size=k)``, orbits in representative order) and
every node of the orbit shares that draw.  This preserves orbit-constancy
— which independent per-node draws would destroy — and is therefore a
*different stochastic process* from the full-graph engines' one-draw-per-
node convention: symmetry can never break, so e.g. the coin election
kernel would deadlock forever on the quotient.  Consequently
``engine="auto"`` only routes **deterministic** automata here;
probabilistic quotient runs are opt-in via ``engine="quotient"``.  For
conformance testing, :class:`OrbitBroadcastRng` makes a full-graph engine
consume the shared per-orbit convention bitwise: it draws the same
``size=k`` vector per step from the base generator and broadcasts it to
nodes through the orbit index.

Preconditions are checked in one place, :func:`quotient_blocker`, which
the constructor calls (and :func:`repro.run` reaches only through the
constructor, so a run verifies the group once).  Violations raise
:class:`~repro.core.ir.QuotientLoweringError` with a machine-readable
``blocker`` tag: the network must declare a group (``"no-group"``) whose
generators still are automorphisms of the *current* topology
(``"stale-group"`` — mutations do not revoke a declaration, so a faulted
or hand-edited network is caught here), the initial state must be
orbit-constant (``"init-not-orbit-constant"``), and fault/churn plans
are rejected outright (``"churn-plan"`` when the plan adds topology,
``"fault-plan"`` for deletion-only schedules): any topology event
distinguishes the affected node's orbit members and breaks the symmetry
the quotient depends on.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional, Union

import numpy as np
from scipy import sparse

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import CompiledAutomaton, QuotientLoweringError
from repro.network.graph import Network
from repro.network.state import NetworkState, _ArrayState, require_states
from repro.network.symmetry import SymmetryError
from repro.runtime.backends import NumpyBackend
from repro.runtime.churn import ChurnPlan
from repro.runtime.engine import SingleReplicaEngine, Topology, _is_seed
from repro.runtime.telemetry import MetricsRegistry, coerce_rng

__all__ = ["QuotientSynchronousEngine", "OrbitBroadcastRng", "quotient_blocker"]


def quotient_blocker(
    net: Network, init, fault_plan: Optional[ChurnPlan] = None
) -> Optional[tuple[str, str]]:
    """Why ``init`` on ``net`` cannot run on the quotient, or ``None``.

    Returns ``(blocker_tag, message)`` naming the first obstruction, in
    order of cost: a non-empty plan, no declared group, a stale group
    (the one :meth:`~repro.network.symmetry.AutomorphismGroup.verify`
    call), an init that is not one state mapping, and an init that is
    not orbit-constant.
    """
    if fault_plan is not None and len(fault_plan) > 0:
        if getattr(fault_plan, "has_additions", False):
            return (
                "churn-plan",
                "churn plans break symmetry: an arrival (node-up / edge-up) "
                "changes the node set or edge set, so no declared "
                "automorphism group can remain valid across the run — use a "
                "full-graph engine",
            )
        return (
            "fault-plan",
            "fault plans break symmetry: a deletion distinguishes the "
            "faulted node's orbit members, so the quotient path cannot run "
            "a faulted schedule — use a full-graph engine",
        )
    if net.symmetry is None:
        return (
            "no-group",
            "network declares no automorphism group; call "
            "net.declare_symmetry(...) to enable the quotient path",
        )
    try:
        # mutations do not revoke a declaration — re-verify here so a
        # stale group is caught at lowering time, not as silent skew
        net.symmetry.verify(net)
    except SymmetryError as exc:
        return (
            "stale-group",
            f"declared automorphism group is stale for the current "
            f"topology: {exc}",
        )
    if not isinstance(init, Mapping):
        return (
            "init-form",
            f"quotient runs need a single NetworkState init, got "
            f"{type(init).__name__}",
        )
    part = net.orbit_partition()
    if isinstance(init, _ArrayState) and init._aligned(nodes := list(part.orbit_of)):
        # one gather: every row's code against its representative's, which
        # is its orbit's first row (orbits are numbered by first row)
        lift = np.fromiter(part.orbit_of.values(), dtype=np.int64, count=len(nodes))
        rep_rows = np.unique(lift, return_index=True)[1][lift]
        codes = init._codes
        bad = np.flatnonzero(codes != codes[rep_rows])
        if bad.size:
            t = int(bad[0])
            decode = init._decode
            return _not_orbit_constant(
                nodes[t], decode[codes[t]], part.reps[lift[t]],
                decode[codes[rep_rows[t]]],
            )
        return None
    try:
        for v, j in part.orbit_of.items():
            rep = part.reps[j]
            if init[v] != init[rep]:
                return _not_orbit_constant(v, init[v], rep, init[rep])
    except KeyError:
        require_states(init, net)
        raise
    return None


def _not_orbit_constant(v, q, rep, q_rep) -> tuple[str, str]:
    return (
        "init-not-orbit-constant",
        f"initial state is not orbit-constant: node {v!r} has state {q!r} "
        f"but its orbit representative {rep!r} has {q_rep!r}",
    )


def quotient_topology(net: Network) -> Topology:
    """The quotient operator of ``net``'s orbit partition.

    ``Q[i, j]`` is the multiplicity of orbit ``j`` among representative
    ``i``'s neighbours; rows are the representatives, and every node
    lifts through its orbit index.
    """
    part = net.orbit_partition()
    k = part.num_orbits
    lift = np.fromiter(part.orbit_of.values(), dtype=np.int64, count=len(part.orbit_of))
    # orbits are numbered by first row, so orbit j's first row is its rep;
    # the reps' CSR rows, columns mapped through lift, summed as COO
    reps = np.unique(lift, return_index=True)[1]
    rep_rows = net.to_csr()[0][reps]
    rows = np.repeat(np.arange(k, dtype=np.int64), np.diff(rep_rows.indptr))
    quotient = sparse.csr_matrix(
        (np.ones(rows.shape[0], dtype=np.int64), (rows, lift[rep_rows.indices])),
        shape=(k, k),
    )
    return Topology(
        quotient, list(part.reps), list(part.orbit_of), lift,
        np.asarray(part.sizes, dtype=np.int64),
    )


class QuotientSynchronousEngine(SingleReplicaEngine):
    """Synchronous FSSGA evolution on orbit representatives.

    Parameters mirror
    :class:`~repro.runtime.vectorized.VectorizedSynchronousEngine` except
    that ``net`` must carry a declared automorphism group
    (:meth:`~repro.network.graph.Network.declare_symmetry`), ``init`` must
    be orbit-constant, and ``fault_plan`` must be empty — violations raise
    :class:`~repro.core.ir.QuotientLoweringError` naming the blocker
    (:func:`quotient_blocker`).

    :attr:`state` and :meth:`state_counts` are the *lifted* full-graph
    views.  Telemetry reflects *quotient-side* work: ``node_updates``
    counts representative updates (the states actually recomputed) and
    ``rng_draws`` counts per-orbit draws, so the counters quantify the
    n/k saving directly; ``node_updates_lifted`` additionally records the
    full-graph-equivalent update count (sum of changed orbits' sizes) for
    cross-engine comparison.
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
        backend: Union[str, NumpyBackend, None] = "auto",
    ) -> None:
        blocked = quotient_blocker(net, init, fault_plan)
        if blocked is not None:
            raise QuotientLoweringError(blocked[1], blocker=blocked[0])
        super().__init__(
            net, programs, [init], randomness, [coerce_rng(rng)], None,
            metrics, backend, quotient_topology(net),
        )
        if _is_seed(rng):
            self._own_streams()
        self.partition = net.orbit_partition()

    @property
    def quotient(self) -> sparse.csr_matrix:
        """The quotient CSR ``Q`` with orbit multiplicities."""
        return self.adjacency

    @property
    def orbit_count(self) -> int:
        """``k``, the number of orbits actually simulated."""
        return self._n

    @property
    def orbit_sizes(self) -> tuple:
        """``|orbit j|`` for each orbit, in representative order."""
        return self.partition.sizes

    @property
    def representative_state(self) -> NetworkState:
        """The quotient-side state: representatives only."""
        return self._decode(self._order, self._sigmas[0])


class OrbitBroadcastRng:
    """Adapter giving a full-graph engine the quotient draw convention.

    Wraps a base generator and serves the quotient engine's shared
    per-orbit draws to engines that ask for per-node draws: each
    synchronous step consumes exactly one ``integers(r, size=k)`` vector
    from the base generator — the same values, in the same base-stream
    positions, as :class:`QuotientSynchronousEngine` draws — and nodes
    receive their orbit's entry.

    Both engine call patterns are supported:

    * the vectorized engine's single ``integers(r, size=n)`` per step maps
      to ``per_orbit[row_orbit]``;
    * the reference interpreter's ``n`` scalar ``integers(r)`` calls per
      step (nodes in insertion order) are served from a buffered per-orbit
      vector that refreshes every ``n`` calls.

    Only for fault-free networks (the node set must stay fixed) and only
    one call pattern at a time — exactly the cross-engine conformance and
    benchmark setting it exists for.
    """

    def __init__(self, net: Network, rng=None) -> None:
        part = net.orbit_partition()
        order = net.nodes()
        self.base = coerce_rng(rng)
        self._row_orbit = np.asarray(
            [part.orbit_of[v] for v in order], dtype=np.int64
        )
        self._n = len(order)
        self._k = part.num_orbits
        self._buf: Optional[np.ndarray] = None
        self._cursor = 0

    def integers(self, high, size=None):
        if size is None:
            # scalar mode: n calls per step, insertion order
            if self._buf is None or self._cursor >= self._n:
                self._buf = self.base.integers(high, size=self._k)
                self._cursor = 0
            val = int(self._buf[self._row_orbit[self._cursor]])
            self._cursor += 1
            return val
        if size != self._n:
            raise ValueError(
                f"OrbitBroadcastRng serves whole-network draws: expected "
                f"size={self._n}, got {size}"
            )
        per_orbit = self.base.integers(high, size=self._k)
        return per_orbit[self._row_orbit]
