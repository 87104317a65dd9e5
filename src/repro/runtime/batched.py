"""R replicas of one automaton on one network, stepped in lockstep.

The paper's probabilistic results — randomized leader election terminating
in O(n log n) expected rounds (Section 4.7), Flajolet–Martin census
accuracy (Section 1) — are statements about *distributions over runs*, so
EXPERIMENTS-grade statistics need many independent replicas of the same
automaton on the same network.  Simulating them one at a time repays the
per-step Python overhead R times; :class:`BatchedSynchronousEngine` is the
R-replica constructor over
:class:`~repro.runtime.engine.SynchronousArrayEngine`, which evolves all
replicas in one stacked computation per step:

* state is an ``(R, n)`` int array, and one CSR × dense product over the
  stacked feature-state indicators yields all R count tables;
* each replica draws from its **own** ``np.random.Generator``, spawned
  from the master seed via :meth:`numpy.random.Generator.spawn` — replica
  ``i`` is bitwise identical to a single-replica
  :class:`~repro.runtime.vectorized.VectorizedSynchronousEngine` run seeded
  with the matching spawned child (``np.random.default_rng(seed).spawn(R)[i]``);
* per-replica active masks deactivate converged replicas, so finished
  runs stop paying for steps (and stop consuming randomness);
* an optional :class:`~repro.runtime.churn.ChurnPlan` is lowered into
  live-node masks shared by every replica: one topology trajectory, R
  independent random executions over it — the shape of a sensitivity
  churn sweep.

Batched runs go through :func:`~repro.runtime.api.run` with
``replicas=R``, or construct the engine and call its ``run_until`` /
``run_until_stable``.  Cross-engine
equivalence is property-tested in
``tests/runtime/test_engine_conformance.py``; throughput against R
sequential vectorized runs is measured in ``benchmarks/bench_batched.py``
(experiment E17).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Optional, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import CompiledAutomaton
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.runtime.backends import NumpyBackend
from repro.runtime.churn import ChurnPlan
from repro.runtime.engine import SynchronousArrayEngine
from repro.runtime.telemetry import MetricsRegistry

__all__ = ["BatchedSynchronousEngine"]


def _normalize_init(
    init: Union[NetworkState, Sequence[NetworkState]], replicas: Optional[int]
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


def _explicit_streams(rng) -> bool:
    return isinstance(rng, Sequence) and not isinstance(rng, (str, bytes))


def _spawn_streams(rng, replicas: int) -> list[np.random.Generator]:
    if _explicit_streams(rng):
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


class BatchedSynchronousEngine(SynchronousArrayEngine):
    """R independent replicas of one automaton, evolved in lockstep.

    ``step()`` returns a boolean ``(R,)`` array (True where that replica
    changed); ``run_until_stable`` / ``run_until`` return per-replica
    rounds.

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
        Optional :class:`~repro.runtime.churn.ChurnPlan` (a
        :class:`~repro.runtime.faults.FaultPlan` included) lowered into per-step
        live-node masks shared by all replicas.  Plans that add topology
        (``node-up`` / ``edge-up``) lower the plan's *union* topology
        into the construction-time CSR with not-yet-arrived entries
        masked dead; every ``node-up`` boot state must belong to the
        automaton alphabet.  A plan whose cursor was already consumed by
        a previous run is auto-reset.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry`
        receiving the engine-agnostic counters plus the per-step
        ``active_fraction`` series (active-mask density).  The resolved
        backend name is recorded as the ``backend`` tag.
    backend:
        The :class:`~repro.runtime.backends.NumpyBackend` (or its name,
        ``"auto"``/``"numpy"``) executing the stacked counts → atoms →
        cascades hot loop; see
        :func:`repro.runtime.backends.resolve_backend`.
    """

    _records_active_fraction = True

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
        backend: Union[str, NumpyBackend, None] = "auto",
    ) -> None:
        inits = _normalize_init(init, replicas)
        super().__init__(
            net, programs, inits, randomness, _spawn_streams(rng, len(inits)),
            fault_plan, metrics, backend,
        )
        if not _explicit_streams(rng):
            self._own_streams()  # spawned here, so fresh
