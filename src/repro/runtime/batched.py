"""Batched multi-replica vectorized engine over the shared compiler IR.

The paper's probabilistic results — randomized leader election terminating
in O(n log n) expected rounds (Section 4.7), Flajolet–Martin census
accuracy (Section 1) — are statements about *distributions over runs*, so
EXPERIMENTS-grade statistics need many independent replicas of the same
automaton on the same network.  Simulating them one at a time repays the
per-step Python overhead R times; this engine evolves all R replicas in one
stacked numpy computation per step:

* state is an ``(R, n)`` int array;
* neighbour counts for every replica come from **one** CSR × dense
  product — the per-replica indicators of the IR's ``F`` feature states
  (the states some atom reads, Lemma 3.8) are stacked horizontally into an
  ``(n, R·F)`` matrix ``H`` with ``H[v, r·F + f] = [σ_r(v) = f]``, so
  ``A @ H`` yields all R count tables at once, reshaped to ``(R, n, F)``;
* the automaton executes as a :class:`~repro.core.ir.CompiledAutomaton`
  (anything :func:`repro.core.ir.lower` accepts), its clause cascades
  resolving across all replicas simultaneously through the shared
  :class:`~repro.runtime.backends.ArrayBackend` step kernel (one kernel
  for every engine, so the engines cannot drift);
* each replica draws from its **own** ``np.random.Generator``, spawned
  from the master seed via :meth:`numpy.random.Generator.spawn` — replica
  ``i`` is bitwise identical to a single-replica
  :class:`~repro.runtime.vectorized.VectorizedSynchronousEngine` run seeded
  with the matching spawned child (``np.random.default_rng(seed).spawn(R)[i]``);
* per-replica quiescence/termination masks deactivate converged replicas,
  so finished runs stop paying for steps (and stop consuming randomness);
* an optional :class:`~repro.runtime.churn.ChurnPlan` (or its
  deletion-only :class:`~repro.runtime.faults.FaultPlan` subclass) is
  lowered into live-node masks shared by every replica: one topology
  trajectory, R independent random executions over it — the shape of a
  sensitivity churn sweep.  Plans that add topology lower their union
  topology into the construction-time CSR exactly as the vectorized
  engine does, and arriving nodes boot in their event's declared state
  across all replicas.

The high-level :func:`run_replicas` wraps construction + termination and
returns per-replica final states and round counts.  Cross-engine
equivalence is property-tested in
``tests/runtime/test_engine_conformance.py``; throughput against R
sequential vectorized runs is measured in ``benchmarks/bench_batched.py``
(experiment E17).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import CompiledAutomaton, lower
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.runtime.backends import (
    DEFAULT_MAX_STEPS,
    ArrayBackend,
    resolve_backend,
)
from repro.runtime.churn import ChurnPlan, count_down_events
from repro.runtime.telemetry import MetricsRegistry
from repro.runtime.vectorized import (
    _build_churn_mask,
    _ChurnMask,
    _decode_states,
    _encode_states,
    _lowered_topology,
)

__all__ = ["BatchedSynchronousEngine", "BatchedRunResult", "run_replicas"]

#: Per-replica termination predicate: ``stop(state_counts_dict) -> bool``.
StopPredicate = Callable[[dict], bool]


class BatchedRunResult(NamedTuple):
    """Outcome of :func:`run_replicas`.

    ``rounds[i]`` is the number of synchronous steps replica ``i`` actually
    executed; ``converged[i]`` tells whether it was deactivated by its
    termination condition (fixed point or ``stop``) rather than by the step
    budget.
    """

    final_states: list[NetworkState]
    rounds: np.ndarray
    converged: np.ndarray
    state_counts: list[dict]


class BatchedSynchronousEngine:
    """R independent replicas of one automaton, evolved in lockstep.

    Parameters
    ----------
    net:
        The shared network.  With a ``fault_plan`` it is mutated exactly as
        the reference simulator would mutate it (events fire before the
        step whose time has arrived); every replica sees the same fault
        trajectory.
    programs:
        Anything :func:`repro.core.ir.lower` accepts: ``{q:
        ModThreshProgram}`` / ``{(q, i): ModThreshProgram}`` (then
        ``randomness`` is required), an :class:`FSSGA` /
        :class:`ProbabilisticFSSGA` built from programs of any Theorem 3.7
        form, a rule-based automaton declaring ``compile_hints``, or a
        pre-lowered :class:`~repro.core.ir.CompiledAutomaton`.
    init:
        One :class:`NetworkState` shared by every replica, or a sequence of
        ``replicas`` per-replica initial states.
    replicas:
        R.  May be omitted when ``init`` is a sequence (its length is used).
    randomness:
        ``r`` of Definition 3.11 for probabilistic program dicts.
    rng:
        Master seed or Generator — per-replica streams are spawned from it —
        or an explicit sequence of R Generators (one per replica), used
        verbatim (this is how the conformance tests share a stream with a
        single-replica engine).
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` or
        :class:`~repro.runtime.churn.ChurnPlan` lowered into per-step
        live-node masks shared by all replicas.  Plans that add topology
        (``node-up`` / ``edge-up``) lower the plan's *union* topology
        into the construction-time CSR with not-yet-arrived entries
        masked dead; every ``node-up`` boot state must belong to the
        automaton alphabet.  A plan whose cursor was already consumed by
        a previous run is auto-reset.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry`
        receiving the engine-agnostic counters plus the per-step
        ``active_fraction`` series (quiescence-mask density).  The
        resolved backend name is recorded as the ``backend`` tag.
    backend:
        Which :class:`~repro.runtime.backends.ArrayBackend` executes the
        stacked counts → atoms → cascades hot loop (``"auto"`` = numpy,
        the bitwise reference; see
        :func:`repro.runtime.backends.resolve_backend`).
    """

    def __init__(
        self,
        net: Network,
        programs: Union[Mapping, FSSGA, ProbabilisticFSSGA, CompiledAutomaton],
        init: Union[NetworkState, Sequence[NetworkState]],
        replicas: Optional[int] = None,
        randomness: Optional[int] = None,
        rng: Union[int, np.random.Generator, Sequence[np.random.Generator], None] = None,
        fault_plan: Optional[ChurnPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Union[str, ArrayBackend, None] = "auto",
    ) -> None:
        self._ir = lower(programs, randomness)
        self._probabilistic = self._ir.probabilistic
        self.randomness = self._ir.randomness
        self.alphabet: list = list(self._ir.alphabet)
        self._code = dict(self._ir.code)

        inits = self._normalize_init(init, replicas)
        self.replicas = len(inits)

        if fault_plan is not None:
            fault_plan.ensure_fresh()  # cursor contract: full schedule re-applies
        self.fault_plan = fault_plan

        self._net = net
        self.adjacency, self._order = _lowered_topology(net, fault_plan)
        self._n = len(self._order)
        self.rngs = self._spawn_streams(rng, self.replicas)
        self.time = 0

        union = fault_plan is not None and fault_plan.has_additions
        sigma = np.empty((self.replicas, self._n), dtype=np.int64)
        encoded: dict = {}  # a shared init is encoded once
        for r, state in enumerate(inits):
            row = encoded.get(id(state))
            if row is None:
                row = encoded[id(state)] = _encode_states(
                    state, self._order, self._code, net if union else None
                )
            sigma[r] = row
        self._sigma = sigma

        self._active = np.ones(self.replicas, dtype=bool)
        self._rounds = np.zeros(self.replicas, dtype=np.int64)

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
        """Original column of each node, built on first use (a plan firing
        or a live-subset decode)."""
        return {v: i for i, v in enumerate(self._order)}

    def _set_live_view(self) -> None:
        self._live_pos, self._live_adj, deg = self._fault_mask.live_view()
        self._live = deg > 0

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_init(
        init: Union[NetworkState, Sequence[NetworkState]],
        replicas: Optional[int],
    ) -> list[NetworkState]:
        if isinstance(init, NetworkState):
            if replicas is None or replicas < 1:
                raise ValueError("a shared init needs replicas >= 1")
            return [init] * replicas
        inits = list(init)
        if not inits:
            raise ValueError("need at least one replica")
        if replicas is not None and replicas != len(inits):
            raise ValueError(
                f"replicas={replicas} but {len(inits)} initial states given"
            )
        return inits

    @staticmethod
    def _spawn_streams(rng, replicas: int) -> list[np.random.Generator]:
        if isinstance(rng, (Sequence, list, tuple)) and not isinstance(rng, (str, bytes)):
            streams = list(rng)
            if len(streams) != replicas:
                raise ValueError(
                    f"{len(streams)} generators given for {replicas} replicas"
                )
            if not all(isinstance(g, np.random.Generator) for g in streams):
                raise TypeError("explicit streams must be numpy Generators")
            return streams
        master = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        return master.spawn(replicas)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Column count of the lowered topology: the construction-time
        node count, plus any not-yet-arrived union rows when the plan
        adds topology (dead and unarrived nodes keep their columns)."""
        return self._n

    @property
    def live_count(self) -> int:
        """Nodes currently alive (== rng draws per replica per step)."""
        return self._n if self._live_pos is None else len(self._live_pos)

    @property
    def active(self) -> np.ndarray:
        """Copy of the per-replica liveness mask (False = converged/stopped)."""
        return self._active.copy()

    @property
    def rounds(self) -> np.ndarray:
        """Per-replica count of synchronous steps actually executed."""
        return self._rounds.copy()

    def _refresh_topology(self, fired: list) -> None:
        """Fold fired topology events into the incremental live masks."""
        if self._fault_mask is None:
            self._fault_mask = _ChurnMask(self.adjacency, self._pos0)
        boots = self._fault_mask.apply(fired)
        for i, q in boots:
            # an arriving node boots in its event's declared state, in
            # every replica (the topology trajectory is shared)
            self._sigma[:, i] = self._code[q]
        self._set_live_view()

    def step(self) -> np.ndarray:
        """One synchronous step for every active replica.

        Returns a boolean ``(R,)`` array: True where that replica changed
        state this step.  Inactive replicas do not evolve, do not draw
        randomness, and report False.  Due fault events fire (once, shared
        by all replicas) before the state update, matching the reference
        simulator's application order.
        """
        self.last_faults = []
        if self.fault_plan is not None:
            fired = self.fault_plan.apply_due(self._net, self.time)
            if fired:
                self.last_faults = fired
                self._refresh_topology(fired)
        act = np.flatnonzero(self._active)
        changed = np.zeros(self.replicas, dtype=bool)
        self.time += 1
        met = self.metrics
        if met is not None:
            met.inc("steps")
            # quiescence-mask density: fraction of replicas still evolving
            met.observe("active_fraction", act.size / self.replicas)
            if self.last_faults:
                downs = count_down_events(self.last_faults)
                if downs:
                    met.inc("fault_events", downs)
                met.inc("churn_events", len(self.last_faults))
        if act.size == 0:
            return changed
        if self._live_pos is None:
            sig = self._sigma[act]
        else:
            sig = self._sigma[np.ix_(act, self._live_pos)]
        m = sig.shape[1]
        adj = self.adjacency if self._live_pos is None else self._live_adj
        if self._probabilistic:
            # per-replica streams, each drawn in the vectorized engine's
            # per-node order, so replica i matches a solo run bitwise
            draws = np.empty_like(sig)
            for j, r in enumerate(act):
                draws[j] = self.backend.draw(self.rngs[r], self.randomness, m)
        else:
            draws = None
        new_sig = self.backend.step(adj, sig, self._live, draws, self._ir)
        changed[act] = (new_sig != sig).any(axis=1)
        if met is not None:
            # state-cell changes: at R = 1 this equals the vectorized count
            met.inc("node_updates", self.backend.updates(new_sig, sig))
            if self._probabilistic:
                met.inc("rng_draws", act.size * m)
        if self._live_pos is None:
            self._sigma[act] = new_sig
        else:
            self._sigma[np.ix_(act, self._live_pos)] = new_sig
        self._rounds[act] += 1
        return changed

    def run(self, steps: int) -> None:
        """Run exactly ``steps`` steps (active replicas only)."""
        for _ in range(steps):
            self.step()

    def run_until_stable(self, max_steps: int = DEFAULT_MAX_STEPS) -> np.ndarray:
        """Step each replica to its own fixed point (deterministic automata).

        A replica is deactivated after its first no-change step, so
        converged replicas stop paying for later steps.  With a fault plan,
        no replica is deactivated while events are still pending (a future
        fault can destabilise a fixed point).  Returns the per-replica step
        counts (the no-change step included, matching
        :meth:`VectorizedSynchronousEngine.run_until_stable`).  Raises if
        any replica fails to converge within ``max_steps``.
        """
        for _ in range(max_steps):
            if not self._active.any():
                return self.rounds
            changed = self.step()
            if self.fault_plan is None or self.fault_plan.exhausted:
                self._active &= changed
        if self._active.any():
            raise RuntimeError(
                f"{int(self._active.sum())}/{self.replicas} replicas reached "
                f"no fixed point within {max_steps} steps"
            )
        return self.rounds

    def run_until(
        self, stop: StopPredicate, max_steps: int = DEFAULT_MAX_STEPS
    ) -> np.ndarray:
        """Step until ``stop(counts)`` holds per replica; returns rounds.

        ``stop`` receives a replica's ``{state: multiplicity}`` dict over
        the *live* nodes (the cheap observable — computing it is one
        bincount over the batch) and is checked *before* each step, so an
        initially satisfied replica executes zero steps.  Replicas whose
        predicate holds are deactivated; the remaining ones keep evolving.
        Raises if any replica is still unsatisfied after ``max_steps``.
        """
        for remaining in range(max_steps, -1, -1):
            for r in np.flatnonzero(self._active):
                if stop(self.replica_state_counts(int(r))):
                    self._active[r] = False
            if not self._active.any():
                return self.rounds
            if remaining:
                self.step()
        raise RuntimeError(
            f"{int(self._active.sum())}/{self.replicas} replicas did not "
            f"satisfy stop within {max_steps} steps"
        )

    # ------------------------------------------------------------------
    def replica_state(self, r: int) -> NetworkState:
        """Decode replica ``r``'s σ (live nodes only) to a :class:`NetworkState`."""
        pos0 = None if self._live_pos is None else self._pos0
        return _decode_states(
            self._ir, self._sigma[r], self._order, self._net, pos0
        )

    @property
    def states(self) -> list[NetworkState]:
        """All replicas' decoded states."""
        return [self.replica_state(r) for r in range(self.replicas)]

    def replica_state_counts(self, r: int) -> dict:
        """Multiplicity of each alphabet state over replica ``r``'s live nodes."""
        row = self._sigma[r]
        if self._live_pos is not None:
            row = row[self._live_pos]
        binc = np.bincount(row, minlength=len(self.alphabet))
        return {q: int(binc[i]) for i, q in enumerate(self.alphabet)}

    def state_counts(self) -> list[dict]:
        """Per-replica state multiplicities, via one batched bincount."""
        s = len(self.alphabet)
        sig = self._sigma
        if self._live_pos is not None:
            sig = sig[:, self._live_pos]
        flat = (sig + (np.arange(self.replicas) * s)[:, None]).ravel()
        binc = np.bincount(flat, minlength=self.replicas * s).reshape(
            self.replicas, s
        )
        return [
            {q: int(binc[r, i]) for i, q in enumerate(self.alphabet)}
            for r in range(self.replicas)
        ]


def run_replicas(
    net: Network,
    programs: Union[Mapping, FSSGA, ProbabilisticFSSGA, CompiledAutomaton],
    init: Union[NetworkState, Sequence[NetworkState]],
    replicas: Optional[int] = None,
    *,
    steps: Optional[int] = None,
    stop: Optional[StopPredicate] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    randomness: Optional[int] = None,
    rng: Union[int, np.random.Generator, Sequence[np.random.Generator], None] = None,
    fault_plan: Optional[ChurnPlan] = None,
    backend: Union[str, ArrayBackend, None] = "auto",
) -> BatchedRunResult:
    """Evolve R replicas to termination and collect per-replica results.

    Exactly one termination mode applies: ``steps`` runs a fixed horizon;
    ``stop`` runs each replica until its state-count predicate holds;
    neither runs each replica to a fixed point (deterministic automata
    only).  A ``fault_plan`` mutates ``net`` (pass a copy to keep the
    original).  Returns final states, per-replica executed rounds, a
    converged mask, and final state counts.
    """
    engine = BatchedSynchronousEngine(
        net, programs, init, replicas,
        randomness=randomness, rng=rng, fault_plan=fault_plan,
        backend=backend,
    )
    if steps is not None and stop is not None:
        raise ValueError("give either steps or stop, not both")
    if steps is not None:
        engine.run(steps)
        converged = np.ones(engine.replicas, dtype=bool)
    elif stop is not None:
        engine.run_until(stop, max_steps=max_steps)
        converged = ~engine.active
    else:
        engine.run_until_stable(max_steps=max_steps)
        converged = ~engine.active
    return BatchedRunResult(
        final_states=engine.states,
        rounds=engine.rounds,
        converged=converged,
        state_counts=engine.state_counts(),
    )
