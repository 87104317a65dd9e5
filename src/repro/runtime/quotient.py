"""Symmetry-quotient synchronous engine: one simulated node per orbit.

The paper's symmetry argument (Section 1, applied to the Definition 3.10
synchronous dynamics) is that a symmetric automaton cannot distinguish
automorphic nodes: if π is an automorphism of the network and σ is
orbit-constant, then the successor of σ is orbit-constant too — every node
of an orbit computes the same transition as the orbit's representative.
So a run started in an orbit-constant state never needs more than one
representative per orbit simulated.

The lowering here folds a declared
:class:`~repro.network.symmetry.AutomorphismGroup` into a **quotient CSR**
``Q`` over the ``k`` orbit representatives: ``Q[i, j]`` is the
multiplicity of orbit ``j`` in representative ``i``'s neighbourhood.
Because every node of orbit ``j`` carries the same state, the
representative's true neighbour-state counts are exactly::

    counts = Q @ [σ_reps == f]          # (k × F), f over the feature states

so the *same* backend step kernel the full-graph vectorized engine runs
(:class:`~repro.runtime.backends.ArrayBackend` — atom truth table plus
cascade resolution) executes unchanged on the quotient — mod-thresh
counting is exact, not approximated, and a step costs O(k·F + nnz(Q))
instead of O(n·F + m).  Lifted views (:attr:`state`, observer change
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

Preconditions are re-checked at construction and violations raise
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
from repro.core.ir import CompiledAutomaton, QuotientLoweringError, lower
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.network.symmetry import SymmetryError
from repro.runtime.backends import (
    DEFAULT_MAX_STEPS,
    ArrayBackend,
    resolve_backend,
)
from repro.runtime.churn import ChurnPlan
from repro.runtime.telemetry import MetricsRegistry, coerce_rng

__all__ = ["QuotientSynchronousEngine", "OrbitBroadcastRng"]


class QuotientSynchronousEngine:
    """Synchronous FSSGA evolution on orbit representatives.

    Parameters mirror
    :class:`~repro.runtime.vectorized.VectorizedSynchronousEngine` except
    that ``net`` must carry a declared automorphism group
    (:meth:`~repro.network.graph.Network.declare_symmetry`), ``init`` must
    be orbit-constant, and ``fault_plan`` must be empty — violations raise
    :class:`~repro.core.ir.QuotientLoweringError` naming the blocker.

    Telemetry reflects *quotient-side* work: ``node_updates`` counts
    representative updates (the states actually recomputed) and
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
        backend: Union[str, ArrayBackend, None] = "auto",
    ) -> None:
        if fault_plan is not None and len(fault_plan) > 0:
            if getattr(fault_plan, "has_additions", False):
                raise QuotientLoweringError(
                    "churn plans break symmetry: an arrival (node-up / "
                    "edge-up) changes the node set or edge set, so no "
                    "declared automorphism group can remain valid across "
                    "the run — use a full-graph engine",
                    blocker="churn-plan",
                )
            raise QuotientLoweringError(
                "fault plans break symmetry: a deletion distinguishes the "
                "faulted node's orbit members, so the quotient path cannot "
                "run a faulted schedule — use a full-graph engine",
                blocker="fault-plan",
            )
        group = net.symmetry
        if group is None:
            raise QuotientLoweringError(
                "network declares no automorphism group; call "
                "net.declare_symmetry(...) before requesting the quotient "
                "engine",
                blocker="no-group",
            )
        try:
            # mutations do not revoke a declaration — re-verify here so a
            # stale group is caught at lowering time, not as silent skew
            group.verify(net)
        except SymmetryError as exc:
            raise QuotientLoweringError(
                f"declared automorphism group is stale for the current "
                f"topology: {exc}",
                blocker="stale-group",
            ) from exc

        self._ir = lower(programs, randomness)
        self._probabilistic = self._ir.probabilistic
        self.randomness = self._ir.randomness
        self.alphabet: list = list(self._ir.alphabet)
        self._code = dict(self._ir.code)

        self._net = net
        self.partition = net.orbit_partition()
        part = self.partition
        k = part.num_orbits
        self._k = k

        for v in net:
            rep = part.reps[part.orbit_of[v]]
            if init[v] != init[rep]:
                raise QuotientLoweringError(
                    f"initial state is not orbit-constant: node {v!r} has "
                    f"state {init[v]!r} but its orbit representative "
                    f"{rep!r} has {init[rep]!r}",
                    blocker="init-not-orbit-constant",
                )

        # quotient CSR: Q[i, j] = multiplicity of orbit j among rep i's
        # neighbours — the representative's true neighbour counts, grouped
        # by orbit label
        indptr = np.zeros(k + 1, dtype=np.int64)
        cols: list[int] = []
        data: list[int] = []
        degrees = np.zeros(k, dtype=np.int64)
        for i, rep in enumerate(part.reps):
            row: dict[int, int] = {}
            for u in net.neighbors(rep):
                j = part.orbit_of[u]
                row[j] = row.get(j, 0) + 1
            for j in sorted(row):
                cols.append(j)
                data.append(row[j])
            degrees[i] = net.degree(rep)
            indptr[i + 1] = len(cols)
        self.quotient = sparse.csr_matrix(
            (
                np.asarray(data, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
                indptr,
            ),
            shape=(k, k),
        )
        self._live = degrees > 0  # degree-0 representatives hold
        self._sizes = np.asarray(part.sizes, dtype=np.int64)

        sigma = np.empty(k, dtype=np.int64)
        for i, rep in enumerate(part.reps):
            sigma[i] = self._code[init[rep]]
        self._sigma = sigma

        self.rng = coerce_rng(rng)
        self.backend = resolve_backend(backend)
        self.metrics = metrics
        if metrics is not None:
            metrics.set_tag("backend", self.backend.name)
        self.fault_plan = None
        self.last_faults: list = []
        self.time = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Full-graph node count (the lifted view's size)."""
        return self._net.num_nodes

    @property
    def orbit_count(self) -> int:
        """``k``, the number of orbits actually simulated."""
        return self._k

    @property
    def orbit_sizes(self) -> tuple:
        """``|orbit j|`` for each orbit, in representative order."""
        return self.partition.sizes

    @property
    def live_count(self) -> int:
        """Representatives simulated per step (== rng draws per step)."""
        return self._k

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One synchronous quotient step; True iff any orbit changed."""
        sig = self._sigma
        k = self._k
        if self._probabilistic:
            # one shared draw per orbit (see module docstring): the only
            # convention that keeps the trajectory orbit-constant
            draws = self.backend.draw(self.rng, self.randomness, k)
        else:
            draws = None
        new_sig = self.backend.step(self.quotient, sig, self._live, draws,
                                    self._ir)
        met = self.metrics
        if met is None:
            changed = self.backend.any_changed(new_sig, sig)
        else:
            diff = new_sig != sig
            updates = int(diff.sum())
            changed = updates > 0
            met.inc("steps")
            met.inc("node_updates", updates)
            met.inc("node_updates_lifted", int(self._sizes[diff].sum()))
            if self._probabilistic:
                met.inc("rng_draws", k)
        self._sigma = new_sig
        self.time += 1
        return changed

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until_stable(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Step to a fixed point; returns steps taken (deterministic only)."""
        for steps in range(1, max_steps + 1):
            if not self.step():
                return steps
        raise RuntimeError(f"no fixed point within {max_steps} steps")

    # ------------------------------------------------------------------
    @property
    def state(self) -> NetworkState:
        """The **lifted** full-graph state: every node decodes through its
        orbit's representative entry."""
        part = self.partition
        sig = self._sigma
        return NetworkState(
            {v: self.alphabet[sig[part.orbit_of[v]]] for v in self._net}
        )

    @property
    def representative_state(self) -> NetworkState:
        """The quotient-side state: representatives only."""
        return NetworkState(
            {
                rep: self.alphabet[self._sigma[i]]
                for i, rep in enumerate(self.partition.reps)
            }
        )

    def state_counts(self) -> dict:
        """Multiplicity of each alphabet state over the *lifted* view —
        orbit sizes weight the representative states, so this agrees with
        the full-graph engines' counts."""
        out = {}
        binc = np.zeros(len(self.alphabet), dtype=np.int64)
        np.add.at(binc, self._sigma, self._sizes)
        for i, q in enumerate(self.alphabet):
            out[q] = int(binc[i])
        return out


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
