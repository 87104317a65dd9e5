"""One front door for every execution engine.

Theorem 3.7 makes the synchronous engines interchangeable on mod-thresh
automata; this module is where the codebase exploits it.  :func:`run`
accepts any automaton, picks the fastest engine that can execute it
(``engine="auto"``), applies one termination policy
(:func:`repro.runtime.engine.drive`), streams per-step events to
pluggable :class:`StepObserver` instances, and returns a structured
:class:`RunResult`.  Every array engine is one
:class:`~repro.runtime.engine.SynchronousArrayEngine` (a topology
operator times R replicas), so one driver runs all three array labels.

Engine selection under ``engine="auto"`` is capability negotiation over
the shared compiler IR (:mod:`repro.core.ir`), not isinstance checks:

* any automaton :func:`repro.core.ir.lower` accepts — mod-thresh program
  mappings, automata built from programs of any Theorem 3.7 form,
  rule-based automata declaring ``compile_hints`` — goes to the
  :class:`~repro.runtime.vectorized.VectorizedSynchronousEngine`, or the
  :class:`~repro.runtime.batched.BatchedSynchronousEngine` when
  ``replicas=R`` is passed.  A ``fault_plan`` — including a general
  :class:`~repro.runtime.churn.ChurnPlan` with ``node-up``/``edge-up``
  arrivals — does not force a fallback: the plan is lowered into
  per-step live-node masks (arrivals via the plan's union topology) and
  the churned run stays vectorized;
* automata the compiler rejects (no ``compile_hints``, untraced
  neighbourhood queries, non-enumerable alphabets — see
  ``docs/model.md`` for the genuine-fallback list) run on the reference
  :class:`~repro.runtime.simulator.SynchronousSimulator`;
* a **deterministic** lowerable automaton on a network with a declared
  automorphism group (:meth:`~repro.network.graph.Network.declare_symmetry`)
  is tried on the
  :class:`~repro.runtime.quotient.QuotientSynchronousEngine`, which
  simulates one representative per orbit and lifts the trajectory back to
  full-state views — bitwise identical results at n/k cost.  Its
  constructor checks the remaining preconditions once
  (:func:`~repro.runtime.quotient.quotient_blocker`: no fault plan, a
  group that still verifies, an orbit-constant init); a broken one sends
  ``auto`` to the full-graph path, and ``engine="quotient"`` surfaces it
  as a structured :class:`~repro.core.ir.QuotientLoweringError`.
  Probabilistic automata are *never* auto-quotiented (the shared
  per-orbit draw convention is a different stochastic process — symmetry
  can never break); request ``engine="quotient"`` to opt in;
* ``engine="reference"`` forces the reference interpreter everywhere (the
  conformance escape hatch): for a shared seed the reference and
  vectorized paths produce bitwise-identical trajectories, probabilistic
  draws included — with or without faults.

Orthogonal to engine selection, ``backend=`` names the executor of the
array engines' step kernel: ``"auto"``/``"numpy"`` or a
:class:`~repro.runtime.backends.NumpyBackend` instance (a subclass may
wrap its hooks).  A pinned backend that cannot take effect raises
:class:`~repro.core.ir.BackendLoweringError` naming the blocker.

Termination policy (one convention for every engine — ``RunResult.steps``
always counts ``step()`` calls actually executed, the longest-running
replica's for batched runs):

* ``until=k`` (an int): exactly ``k`` synchronous steps; ``steps == k``.
* ``until="stable"``: run to a fixed point.  The final no-change step *is*
  executed and counted (so a network that is born stable reports
  ``steps == 1``), matching the engines' ``run_until_stable``.  With a
  ``fault_plan``, stability additionally requires the plan exhausted.
  With ``replicas=R`` each replica stops after its own no-change step.
* ``until=predicate`` (a callable ``NetworkState -> bool``): the predicate
  is checked *before* each step, so an initially satisfied predicate
  reports ``steps == 0``.  With ``replicas=R`` the predicate is evaluated
  per replica and satisfied replicas are deactivated (they stop evolving
  and stop consuming randomness).

Both open-ended modes raise :class:`RuntimeError` at ``max_steps``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import (
    BackendLoweringError,
    LoweringError,
    QuotientLoweringError,
    lower,
    lowering_cache_info,
)
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.runtime.backends import (
    DEFAULT_MAX_STEPS,
    NumpyBackend,
    resolve_backend,
)
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.churn import ChurnPlan
from repro.runtime.engine import SynchronousArrayEngine, drive
from repro.runtime.quotient import QuotientSynchronousEngine
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.telemetry import (
    EventStream,
    MetricsRegistry,
    RunEndedEvent,
    RunManifest,
    RunStartedEvent,
    StepEvent,
    capture_manifest,
)
from repro.runtime.trace import Trace
from repro.runtime.vectorized import VectorizedSynchronousEngine

__all__ = [
    "RunResult",
    "StepObserver",
    "TraceObserver",
    "MetricsObserver",
    "run",
    "supports_vectorized",
    "ENGINES",
]

Automaton = Union[FSSGA, ProbabilisticFSSGA, Mapping]
Until = Union[int, str, Callable[[NetworkState], bool]]

ENGINES = ("auto", "reference", "vectorized", "batched", "quotient")


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
class StepObserver:
    """Pluggable per-step hook.  Subclass and override what you need.

    ``on_step(time, changes, faults)`` fires after every executed step:
    ``time`` is the 0-based index of the completed step, ``changes`` maps
    changed nodes to ``(old, new)`` pairs (for batched runs: changed
    *replica indices* to ``True``), ``faults`` lists the fault events
    applied immediately before the step — on every engine.
    """

    def on_run_start(self, net: Network, state: NetworkState) -> None:
        pass

    def on_step(self, time: int, changes: dict, faults: list) -> None:
        pass

    def on_run_end(self, result: "RunResult") -> None:
        pass


class TraceObserver(StepObserver):
    """Adapts a :class:`~repro.runtime.trace.Trace` to the observer
    interface, so existing trace-based assertions work unchanged through
    :func:`run` on any engine."""

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def on_step(self, time: int, changes: dict, faults: list) -> None:
        self.trace.record(time, changes, faults)


class MetricsObserver(StepObserver):
    """Lightweight per-run metrics: wall time per step and the convergence
    curve (changed-node count per step), cheap enough for benchmarks.

    Since the telemetry unification this is a view over a
    :class:`~repro.runtime.telemetry.EventStream`: every step becomes a
    timed :class:`~repro.runtime.telemetry.StepEvent` (``change_count``
    only, no per-node dict) and the run boundaries become
    ``RunStartedEvent``/``RunEndedEvent``, so ``observer.stream`` can be
    persisted with ``stream.to_jsonl(path)`` or shared with other
    producers.  The historical accessors (``step_times``,
    ``change_counts``, ``total_time``, ``convergence_curve``) are derived
    from the stream and unchanged for callers.
    """

    def __init__(self, stream: Optional[EventStream] = None) -> None:
        self.stream = stream if stream is not None else EventStream()
        self._last: Optional[float] = None

    def on_run_start(self, net: Network, state: NetworkState) -> None:
        self.stream.emit(RunStartedEvent(n_nodes=len(net)))
        self._last = perf_counter()

    def on_step(self, time: int, changes: dict, faults: list) -> None:
        now = perf_counter()
        duration = now - self._last if self._last is not None else None
        self._last = now
        self.stream.emit(
            StepEvent(
                time,
                faults=list(faults),
                change_count=len(changes),
                duration=duration,
            )
        )

    def on_run_end(self, result: "RunResult") -> None:
        self.stream.emit(
            RunEndedEvent(
                steps=result.steps,
                engine=result.engine,
                converged=result.converged,
                wall_time=result.wall_time,
                rng_draws=result.rng_draws,
            )
        )

    @property
    def step_times(self) -> list[float]:
        return [
            e.duration
            for e in self.stream.step_events()
            if e.duration is not None
        ]

    @property
    def change_counts(self) -> list[int]:
        return [e.change_count for e in self.stream.step_events()]

    @property
    def total_time(self) -> float:
        return sum(self.step_times)

    def convergence_curve(self) -> list[int]:
        """Changed-node count per step — flat at 0 once converged."""
        return list(self.change_counts)


class _FaultCapture:
    """Minimal trace stand-in harvesting the faults of the latest step
    (``SynchronousSimulator.step`` returns changes but not faults)."""

    def __init__(self) -> None:
        self.last_faults: list = []

    def record(self, time, changes, faults=None, state=None) -> None:
        self.last_faults = list(faults or [])


# ----------------------------------------------------------------------
# results and engine selection
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Structured outcome of a :func:`run`.

    ``steps`` counts executed ``step()`` calls under the module's unified
    convention; ``change_counts[t]`` is the number of nodes that changed in
    step ``t`` (for batched runs: the number of *replicas* that changed).
    ``rng_draws`` counts the random draws consumed (0 for deterministic
    automata).  Batched runs also populate ``replica_states`` /
    ``replica_rounds`` and report ``final_state = replica_states[0]``,
    ``steps = max(replica_rounds)``.  ``manifest`` is the
    :class:`~repro.runtime.telemetry.RunManifest` captured for this call —
    pass it to :func:`repro.runtime.telemetry.replay` to re-execute the
    run and assert a bitwise-identical outcome.
    """

    final_state: NetworkState
    steps: int
    engine: str
    converged: bool
    wall_time: float
    rng_draws: int
    change_counts: list[int]
    replica_states: Optional[list[NetworkState]] = None
    replica_rounds: Optional[np.ndarray] = None
    manifest: Optional[RunManifest] = None
    #: Resolved array-backend name for the array engines (``"numpy"``);
    #: ``None`` for the reference interpreter, which executes no array
    #: kernel.
    backend: Optional[str] = None


def _negotiate(
    automaton: Automaton, randomness: Optional[int]
) -> tuple[bool, str]:
    """Can the IR execute this automaton?  Returns ``(lowerable, reason)``.

    ``reason`` is the compiler's own explanation of the blocking capability
    when lowering fails (empty when it succeeds).  Lowering is cached, so
    negotiation costs one dict lookup after the first call.
    """
    try:
        lower(automaton, randomness)
        return True, ""
    except LoweringError as exc:
        return False, str(exc)


def supports_vectorized(
    automaton: Automaton, randomness: Optional[int] = None
) -> bool:
    """True iff ``automaton`` lowers to the shared engine IR — i.e. the
    vectorized/batched engines can execute it: a program mapping or a
    program-built :class:`FSSGA`/:class:`ProbabilisticFSSGA` (programs of
    any Theorem 3.7 form), or a rule-based automaton declaring
    ``compile_hints``."""
    return _negotiate(automaton, randomness)[0]


def _select_engine(
    engine: str,
    automaton: Automaton,
    replicas: Optional[int],
    randomness: Optional[int] = None,
    net: Optional[Network] = None,
) -> str:
    """The engine label for this call.

    ``"quotient"`` is only a candidate here: the quotient engine's
    constructor checks the network, the init and the plan, and
    :func:`run` falls back (or, when pinned, raises) on its blocker.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    lowerable, reason = _negotiate(automaton, randomness)
    if engine == "quotient":
        if not lowerable:
            blocked = ("not-lowerable",
                       f"the automaton does not lower to the engine IR: {reason}")
        elif replicas is not None:
            blocked = ("replicas",
                       f"replicas={replicas} needs the batched engine; the "
                       f"quotient path is single-replica")
        else:
            return "quotient"
        raise QuotientLoweringError(
            f"engine 'quotient' cannot execute this run: {blocked[1]}",
            blocker=blocked[0],
        )
    if engine == "auto":
        if not lowerable:
            chosen = "reference"
        elif replicas is not None:
            chosen = "batched"
        elif (
            net is not None
            and net.symmetry is not None
            # shared per-orbit draws change the stochastic process, so auto
            # never switches a probabilistic run's semantics silently
            and not lower(automaton, randomness).probabilistic
        ):
            chosen = "quotient"
        else:
            chosen = "vectorized"
    else:
        chosen = engine
    if chosen in ("vectorized", "batched") and not lowerable:
        raise LoweringError(
            f"engine {chosen!r} cannot execute this automaton: {reason}"
        )
    if chosen == "batched" and replicas is None:
        raise ValueError("engine='batched' needs replicas=R")
    if chosen != "batched" and replicas is not None:
        # name the *actual* blocking capability: either the caller pinned a
        # non-batched engine, or the automaton does not lower (the compiler
        # says why) — never a guess based on unrelated arguments.
        blocker = (
            f"engine={chosen!r} was requested"
            if engine != "auto"
            else f"the automaton does not lower to the engine IR "
            f"(rule-based fallback: {reason})"
        )
        raise ValueError(
            f"replicas={replicas} needs the batched engine, but {blocker}"
        )
    return chosen


def _select_backend(
    backend: Union[str, NumpyBackend, None],
    chosen_engine: str,
    requested_engine: str,
) -> Optional[NumpyBackend]:
    """Resolve the ``backend=`` axis against the negotiated engine.

    The name resolves first, on every engine path, through
    :func:`repro.runtime.backends.resolve_backend`: an unknown name
    raises its ``ValueError`` and a retired one its ``"backend-retired"``
    blocker.  The reference interpreter executes no array kernel, so a
    *pinned* backend (anything but ``"auto"``/``None``) on the reference
    path is an unsatisfiable request — a structured
    :class:`~repro.core.ir.BackendLoweringError` with blocker
    ``"reference-engine"`` names it, whether the caller pinned
    ``engine="reference"`` or ``engine="auto"`` fell back because the
    automaton does not lower.  Returns the live backend, or ``None`` on
    the reference path.
    """
    resolved = resolve_backend(backend)
    if chosen_engine == "reference":
        if backend is not None and backend != "auto":
            how = (
                "engine='reference' was requested"
                if requested_engine == "reference"
                else "engine='auto' fell back to the reference interpreter "
                "(the automaton does not lower to the engine IR)"
            )
            raise BackendLoweringError(
                f"backend {resolved.name!r} was pinned but {how}; the "
                f"reference interpreter executes no array kernel, so the "
                f"pinned backend cannot take effect",
                blocker="reference-engine",
            )
        return None
    return resolved


def _as_reference_automaton(
    automaton: Automaton, randomness: Optional[int]
) -> Union[FSSGA, ProbabilisticFSSGA]:
    """The reference simulator needs an automaton object.

    Anything that lowers executes its compiled form
    (:meth:`~repro.core.ir.CompiledAutomaton.as_automaton`, result-only
    states padded with hold programs), so every engine runs the very
    same IR-derived programs; only automata the compiler rejects run their
    raw Python rule."""
    try:
        return lower(automaton, randomness).as_automaton()
    except LoweringError:
        if isinstance(automaton, (FSSGA, ProbabilisticFSSGA)):
            return automaton
        raise


# ----------------------------------------------------------------------
# the step drivers
# ----------------------------------------------------------------------
def _run_reference(
    automaton, net, init, until, max_steps, randomness, rng, fault_plan,
    observers, metrics,
):
    automaton = _as_reference_automaton(automaton, randomness)
    capture = _FaultCapture()
    sim = SynchronousSimulator(
        net, automaton, init, rng=rng, fault_plan=fault_plan, trace=capture,
        metrics=metrics,
    )
    probabilistic = isinstance(automaton, ProbabilisticFSSGA)
    draws = 0
    change_counts: list[int] = []

    def step_once() -> bool:
        nonlocal draws
        changes = sim.step()
        if probabilistic:
            draws += len(sim.net)
        change_counts.append(len(changes))
        for ob in observers:
            ob.on_step(sim.time - 1, changes, capture.last_faults)
        return bool(changes)

    steps = drive(
        step_once, until, max_steps, np.ones(1, dtype=bool), fault_plan,
        lambda r: until(sim.state),
    )
    return sim.state, steps, draws, change_counts, None, None


def _run_array(eng: SynchronousArrayEngine, batched: bool, until, max_steps,
               observers):
    """Drive any array engine.  A batched run reports per-replica changes
    (``{replica: True}``, counted in replicas); a single-replica run
    reports node changes lifted through the topology's row map."""
    members = eng._row_members() if observers and not batched else None
    draws = 0
    change_counts: list[int] = []

    def step_once() -> np.ndarray:
        nonlocal draws
        active = int(np.count_nonzero(eng._active))
        changed = eng._step()
        if eng._probabilistic:
            # one draw per live row per active replica; live_count reflects
            # topology events fired at the top of this step
            draws += active * eng.live_count
        if batched:
            rows = np.flatnonzero(changed)
            change_counts.append(len(rows))
            changes = dict.fromkeys(rows.tolist(), True)
        else:
            # the step's own change mask; the replica stepped unless
            # it had already finished
            diff = eng._diff
            if diff is None:
                change_counts.append(0)
            elif eng._sizes is None:
                change_counts.append(int(np.count_nonzero(diff)))
            else:  # lifted: every node a changed row stands for changed
                change_counts.append(int(eng._sizes[diff[0]].sum()))
            changes = None
            if observers:
                # σ as the step read it (arrival boots included) and after
                old, new = eng._sigmas_before[0], eng._sigmas[0]
                changes = {} if diff is None else {
                    v: (eng.alphabet[old[i]], eng.alphabet[new[i]])
                    for i in eng._changed_rows().tolist() for v in members[i]
                }
        for ob in observers:
            ob.on_step(eng.time - 1, changes, eng.last_faults)
        return changed

    steps = drive(
        step_once, until, max_steps, eng._active, eng.fault_plan,
        lambda r: until(eng.replica_state(r)),
    )
    if batched:
        states = eng.states
        return states[0], steps, draws, change_counts, states, eng.rounds
    return eng.replica_state(0), steps, draws, change_counts, None, None


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def run(
    automaton: Automaton,
    net: Network,
    init: Union[NetworkState, list],
    *,
    engine: str = "auto",
    until: Until = "stable",
    max_steps: int = DEFAULT_MAX_STEPS,
    replicas: Optional[int] = None,
    randomness: Optional[int] = None,
    rng: Union[int, np.random.Generator, None] = None,
    fault_plan: Optional[ChurnPlan] = None,
    observers: tuple = (),
    metrics: Optional[MetricsRegistry] = None,
    backend: Union[str, NumpyBackend, None] = "auto",
) -> RunResult:
    """Execute ``automaton`` on ``net`` from ``init`` on the best engine.

    Parameters
    ----------
    automaton:
        :class:`FSSGA` / :class:`ProbabilisticFSSGA` (rule- or
        program-based), or a raw ``{q: ModThreshProgram}`` /
        ``{(q, i): ModThreshProgram}`` mapping (the latter with
        ``randomness``).
    engine:
        ``"auto"`` (default — fastest applicable), ``"reference"``,
        ``"vectorized"``, ``"batched"`` (requires ``replicas``), or
        ``"quotient"`` (requires a declared automorphism group and an
        orbit-constant init; raises
        :class:`~repro.core.ir.QuotientLoweringError` naming the blocker
        otherwise).
    until:
        Termination: an int (fixed steps), ``"stable"`` (fixed point), or
        a ``NetworkState -> bool`` predicate.  See the module docstring for
        the step-count convention.
    replicas:
        R independent replicas via the batched engine.  ``init`` may then
        be one shared state or a list of R states.
    fault_plan:
        Mid-run topology dynamics: a deletion-only
        :class:`~repro.runtime.faults.FaultPlan` or a general
        :class:`~repro.runtime.churn.ChurnPlan` mixing ``node-down`` /
        ``edge-down`` / ``node-up`` / ``edge-up`` events.  Lowered into
        per-step live-node masks on the vectorized/batched engines
        (plans that add topology lower their *union* topology into the
        construction-time CSR, so churn stays on the vector fast path),
        interpreted directly on the reference engine — all with
        identical semantics (``net`` is mutated as events fire, exactly
        as the reference simulator does).  The quotient engine rejects
        any non-empty plan with a structured blocker (``"churn-plan"``
        when the plan adds topology, ``"fault-plan"`` otherwise).
    observers:
        :class:`StepObserver` instances notified per executed step.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry` wired
        into the chosen engine's hot loop (``steps``, ``node_updates``,
        ``rng_draws``, ``fault_events``, and for batched runs the
        ``active_fraction`` series) plus per-run cache counters
        (``lowering_cache_hits``/``misses``, ``csr_rebuilds``).  ``None``
        (default) keeps the hot loops branch-only.
    backend:
        The executor of the array engines' step kernel: ``"auto"`` or
        ``"numpy"`` (both the numpy kernel), or a live
        :class:`~repro.runtime.backends.NumpyBackend` instance, whose
        hooks a subclass may wrap.  An unknown name raises
        ``ValueError``.  A backend that cannot take effect raises
        :class:`~repro.core.ir.BackendLoweringError` with a
        machine-readable ``blocker``: ``"backend-retired"`` for the
        retired ``"numba"``/``"array-api"`` names, and
        ``"reference-engine"`` when a pinned backend lands on the
        reference interpreter, which executes no array kernel.  The
        resolved name is recorded on the result and its manifest, so
        :func:`~repro.runtime.telemetry.replay` re-pins it.
    """
    observers = tuple(observers)
    cache_before = lowering_cache_info() if metrics is not None else None
    csr_before = net.csr_rebuilds if metrics is not None else 0
    chosen = _select_engine(engine, automaton, replicas, randomness, net)
    backend_obj = _select_backend(backend, chosen, engine)
    backend_name = backend_obj.name if backend_obj is not None else None
    start = perf_counter()
    eng = None
    if chosen == "quotient":
        # built before the manifest: it neither draws nor spawns, and its
        # constructor is where the quotient preconditions are checked
        try:
            eng = QuotientSynchronousEngine(
                net, automaton, init, randomness=randomness, rng=rng,
                fault_plan=fault_plan, metrics=metrics, backend=backend_obj,
            )
        except QuotientLoweringError as exc:
            if engine == "quotient":
                raise QuotientLoweringError(
                    f"engine 'quotient' cannot execute this run: {exc}",
                    blocker=exc.blocker,
                ) from exc
            chosen = "vectorized"
    # captured before the engine consumes rng or faults mutate net — both
    # are snapshotted by value inside the manifest
    manifest = capture_manifest(
        automaton=automaton, net=net, init=init, engine=chosen, until=until,
        max_steps=max_steps, replicas=replicas, randomness=randomness,
        rng=rng, fault_plan=fault_plan, backend=backend_name,
    )
    if fault_plan is not None:
        fault_plan.ensure_fresh()  # cursor contract: full schedule re-applies
    for ob in observers:
        ob.on_run_start(net, init if isinstance(init, NetworkState) else init[0])
    if chosen == "reference":
        out = _run_reference(
            automaton, net, init, until, max_steps, randomness, rng, fault_plan,
            observers, metrics,
        )
    else:
        if chosen == "batched":
            eng = BatchedSynchronousEngine(
                net, automaton, init, replicas, randomness=randomness, rng=rng,
                fault_plan=fault_plan, metrics=metrics, backend=backend_obj,
            )
        elif chosen == "vectorized":
            eng = VectorizedSynchronousEngine(
                net, automaton, init, randomness=randomness, rng=rng,
                fault_plan=fault_plan, metrics=metrics, backend=backend_obj,
            )
        out = _run_array(eng, chosen == "batched", until, max_steps, observers)
    final_state, steps, draws, change_counts, states, rounds = out
    wall_time = perf_counter() - start
    if metrics is not None:
        cache_after = lowering_cache_info()
        metrics.inc(
            "lowering_cache_hits", cache_after["hits"] - cache_before["hits"]
        )
        metrics.inc(
            "lowering_cache_misses",
            cache_after["misses"] - cache_before["misses"],
        )
        metrics.inc("csr_rebuilds", net.csr_rebuilds - csr_before)
        metrics.observe("run_wall_time", wall_time)
    result = RunResult(
        final_state=final_state,
        steps=steps,
        engine=chosen,
        converged=True,  # an open-ended run that does not converge raises
        wall_time=wall_time,
        rng_draws=draws,
        change_counts=change_counts,
        replica_states=states,
        replica_rounds=rounds,
        manifest=manifest,
        backend=backend_name,
    )
    manifest.finalize(result)
    for ob in observers:
        ob.on_run_end(result)
    return result
