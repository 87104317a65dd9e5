"""Execution engines for FSSGA systems.

* :mod:`repro.runtime.simulator` — reference synchronous and asynchronous
  interpreters (Section 3.4 evolution rules).
* :mod:`repro.runtime.scheduler` — activation orders for the asynchronous
  model (random, round-robin, scripted/adversarial).
* :mod:`repro.runtime.churn` — the topology-dynamics layer: typed
  down/up events, :class:`~repro.runtime.churn.ChurnPlan` schedules, and
  process generators (regional outages, adversarial targeting, growth).
* :mod:`repro.runtime.faults` — decreasing benign fault plans
  (``node-down``/``edge-down`` events at scheduled times), the
  deletion-only subclass of the churn layer.
* :mod:`repro.runtime.engine` — the one numpy/scipy synchronous array
  engine for mod-thresh automata (one sparse mat-mat product per step): a
  topology operator (full or quotient CSR) times R replicas, plus the
  termination policy shared with :func:`run`.
* :mod:`repro.runtime.vectorized` — the array engine on the full graph
  with one replica.
* :mod:`repro.runtime.backends` — the counts → atoms → cascades step
  kernel under the engines and :class:`NumpyBackend`, its one executor,
  whose hooks a subclass may wrap.
* :mod:`repro.runtime.batched` — the array engine with R independent
  replicas of one automaton, spawned per-replica RNG streams and
  per-replica active masks.
* :mod:`repro.runtime.quotient` — the array engine on the symmetry
  quotient: one simulated representative per automorphism orbit, lifted
  back to full states, at n/k cost on networks with a declared group.
* :mod:`repro.runtime.trace` — execution traces for replay and assertions.
* :mod:`repro.runtime.telemetry` — metrics registry, the typed event
  stream every trace/observer is a view over, and run manifests with
  bitwise deterministic :func:`~repro.runtime.telemetry.replay`.
* :mod:`repro.runtime.message_passing` — the Section 3 remark made
  concrete: local-broadcast message passing simulated with outbox buffers.
* :mod:`repro.runtime.api` — the single front door :func:`run`: engine
  auto-selection, one termination policy, pluggable step observers.
"""

from repro.runtime.api import (
    MetricsObserver,
    RunResult,
    StepObserver,
    TraceObserver,
    run,
    supports_vectorized,
)
from repro.runtime.backends import (
    DEFAULT_MAX_STEPS,
    NumpyBackend,
    resolve_backend,
)
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.churn import (
    ChurnPlan,
    TopologyEvent,
    adversarial_plan,
    growth_plan,
    random_churn_plan,
    regional_outage_plan,
)
from repro.runtime.faults import FaultPlan, random_fault_plan
from repro.runtime.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    random_fair_rounds,
)
from repro.runtime.simulator import (
    AsynchronousSimulator,
    SynchronousSimulator,
)
from repro.runtime.message_passing import MessagePassingAlgorithm
from repro.runtime.telemetry import (
    EventStream,
    MetricsRegistry,
    ReplayMismatchError,
    RunManifest,
    StepEvent,
    replay,
)
from repro.runtime.quotient import OrbitBroadcastRng, QuotientSynchronousEngine
from repro.runtime.trace import Trace
from repro.runtime.vectorized import VectorizedSynchronousEngine

__all__ = [
    "run",
    "RunResult",
    "StepObserver",
    "TraceObserver",
    "MetricsObserver",
    "supports_vectorized",
    "BatchedSynchronousEngine",
    "FaultPlan",
    "random_fault_plan",
    "TopologyEvent",
    "ChurnPlan",
    "regional_outage_plan",
    "adversarial_plan",
    "growth_plan",
    "random_churn_plan",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ScriptedScheduler",
    "random_fair_rounds",
    "AsynchronousSimulator",
    "SynchronousSimulator",
    "MessagePassingAlgorithm",
    "Trace",
    "VectorizedSynchronousEngine",
    "QuotientSynchronousEngine",
    "OrbitBroadcastRng",
    "EventStream",
    "MetricsRegistry",
    "StepEvent",
    "RunManifest",
    "ReplayMismatchError",
    "replay",
    "NumpyBackend",
    "DEFAULT_MAX_STEPS",
    "resolve_backend",
]
