"""Unified observability: metrics, structured events, deterministic replay.

Three layers, all zero-dependency:

* :class:`MetricsRegistry` — counters, value series and wall-clock timers.
  Engines accept ``metrics=``; passing ``None`` (the default) keeps the hot
  loops untouched except for one ``is not None`` check per step, so the
  disabled overhead is unmeasurable.  Counter names are engine-agnostic
  (``steps``, ``node_updates``, ``rng_draws``, ``fault_events``,
  ``churn_events``) so the
  Theorem 3.7 interchangeability claim extends to the instrumentation: the
  conformance suite asserts the counters agree exactly across the
  reference, vectorized and batched engines.

* :class:`EventStream` — an append-only log of typed records
  (:class:`RunStartedEvent`, :class:`StepEvent`, :class:`RunEndedEvent`)
  with a JSONL sink.  :class:`~repro.runtime.trace.Trace`,
  :class:`~repro.runtime.api.TraceObserver` and
  :class:`~repro.runtime.api.MetricsObserver` are thin views over this one
  schema — ``trace.StepRecord`` *is* :class:`StepEvent` — ending the
  historical two-schema split between ``runtime/trace.py`` and
  ``runtime/api.py``.

* :class:`RunManifest` / :func:`replay` — every
  :func:`repro.runtime.api.run` call captures what it would take to
  re-execute it bit-for-bit (IR content hash, seeds or full RNG state,
  engine, termination policy, fault schedule, the pre-fault topology,
  library versions) plus a fingerprint of the final state.
  ``replay(result.manifest)`` re-runs and raises
  :class:`ReplayMismatchError` unless the reproduction is bitwise
  identical — the paper's engine-interchangeability methodology applied to
  experiment reproducibility itself.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import platform
import re
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

import numpy as np

__all__ = [
    "MetricsRegistry",
    "coerce_rng",
    "RunStartedEvent",
    "StepEvent",
    "RunEndedEvent",
    "JobEvent",
    "StepProgressEvent",
    "EventStream",
    "RunManifest",
    "manifest_content_hash",
    "ReplayMismatchError",
    "replay",
    "capture_manifest",
    "state_fingerprint",
    "network_fingerprint",
    "library_versions",
]


# ----------------------------------------------------------------------
# RNG coercion
# ----------------------------------------------------------------------
def coerce_rng(rng) -> Any:
    """Coerce an engine's ``rng`` argument to something with ``integers``.

    Seeds (ints, ``None``, ``SeedSequence``…) become a fresh
    ``np.random.Generator``; real Generators pass through; so does any
    duck-typed draw source exposing ``integers`` — e.g.
    :class:`~repro.runtime.quotient.OrbitBroadcastRng`, which lets the
    full-graph engines consume the quotient engine's shared per-orbit draw
    convention for bitwise cross-engine conformance.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    if hasattr(rng, "integers"):
        return rng
    return np.random.default_rng(rng)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Named counters, value series and timers for one or more runs.

    ``inc`` and ``observe`` are plain dict operations; the registry is
    cheap enough to sit inside engine step loops.  Disabling metrics means
    *not passing a registry* — engines guard every emission with a single
    ``metrics is not None`` check, so the disabled cost is one branch per
    step.

    Counter names emitted by the engines:

    ``steps``
        ``step()`` calls executed.
    ``node_updates``
        node-state changes applied (batched: state-cell changes, which at
        R = 1 equals the vectorized count).
    ``rng_draws``
        random draws consumed (0 for deterministic automata).
    ``fault_events``
        down events (deletions) that actually fired — the historical
        decreasing-faults meaning.
    ``churn_events``
        all applied topology events, up events included; equals
        ``fault_events`` for deletion-only plans.
    ``lowering_cache_hits`` / ``lowering_cache_misses`` / ``csr_rebuilds``
        compiler/export cache activity, recorded per :func:`run` call.

    The batched engine additionally records the series
    ``active_fraction`` — the fraction of replicas still active at each
    step (the quiescence-mask density).

    Besides counters and series, a registry carries string ``tags`` —
    run-level labels rather than accumulating measurements.  Engines set
    the ``backend`` tag to the resolved
    :class:`~repro.runtime.backends.NumpyBackend` name, so stored
    snapshots say which executor produced the counters.
    """

    __slots__ = ("counters", "series", "tags")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.series: dict[str, list] = {}
        self.tags: dict[str, str] = {}

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set_tag(self, name: str, value: str) -> None:
        """Attach a run-level label (last writer wins)."""
        self.tags[name] = value

    def observe(self, name: str, value) -> None:
        """Append ``value`` to the series ``name``."""
        self.series.setdefault(name, []).append(value)

    def get(self, name: str, default: int = 0) -> int:
        """Current value of counter ``name``."""
        return self.counters.get(name, default)

    @contextmanager
    def timer(self, name: str):
        """Context manager appending the elapsed seconds to series ``name``."""
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.observe(name, perf_counter() - t0)

    def snapshot(self) -> dict:
        """A deep-enough copy of everything, safe to stash and diff."""
        return {
            "counters": dict(self.counters),
            "series": {k: list(v) for k, v in self.series.items()},
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.series)} series)"
        )


# ----------------------------------------------------------------------
# typed run events — the one schema every observer/trace is a view over
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunStartedEvent:
    """Emitted once when a run begins."""

    n_nodes: Optional[int] = None
    engine: Optional[str] = None


@dataclass(frozen=True)
class StepEvent:
    """One executed synchronous step.

    ``changes`` maps changed nodes to ``(old, new)`` pairs; producers that
    only track counts (e.g. :class:`~repro.runtime.api.MetricsObserver`)
    leave it ``None`` and fill ``change_count`` directly — it is derived
    from ``changes`` otherwise.  ``faults`` lists the fault events applied
    immediately before the step.  The field order ``(time, changes,
    faults)`` is the legacy ``trace.StepRecord`` constructor signature,
    which this class replaces (``StepRecord`` is an alias).
    """

    time: int
    changes: Optional[dict] = None
    faults: list = field(default_factory=list)
    change_count: Optional[int] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.change_count is None and self.changes is not None:
            object.__setattr__(self, "change_count", len(self.changes))

    @property
    def quiescent(self) -> bool:
        """True iff nothing changed in this step."""
        return not self.change_count and not self.faults


@dataclass(frozen=True)
class RunEndedEvent:
    """Emitted once when a run completes."""

    steps: int
    engine: Optional[str] = None
    converged: Optional[bool] = None
    wall_time: Optional[float] = None
    rng_draws: Optional[int] = None


@dataclass(frozen=True)
class JobEvent:
    """One lifecycle transition of a service-submitted job.

    Emitted by :class:`repro.service.jobs.JobManager` into the per-job
    :class:`EventStream` that backs the SSE feed: ``status`` walks
    ``queued → started → (retry…) → done | failed``, with ``cached`` for
    submissions answered straight from the artifact store.  ``detail``
    carries status-specific context (attempt number, error text, the
    sealed record's ``content_hash``).
    """

    job_hash: str
    status: str
    detail: Optional[dict] = None

    @property
    def terminal(self) -> bool:
        """True iff no further events can follow for this job."""
        return self.status in ("done", "failed", "cached")


@dataclass(frozen=True)
class StepProgressEvent:
    """Progress from *inside* a running service job, at a stride.

    Emitted by worker processes through the cluster event spool (see
    ``repro.cluster.spool``): every ``stride`` synchronous steps the job
    reports its step index, the fraction of state still in motion and a
    small counter delta, so SSE subscribers — on any replica, not just
    the executing one — see progress at step granularity instead of
    job-lifecycle granularity only.  Never terminal.
    """

    job_hash: str
    step: int
    active_fraction: Optional[float] = None
    counters: Optional[dict] = None
    replica: Optional[str] = None


_EVENT_TAGS = {
    "RunStartedEvent": "run_started",
    "StepEvent": "step",
    "RunEndedEvent": "run_ended",
    "JobEvent": "job",
    "StepProgressEvent": "step_progress",
}
_TAG_CLASSES = {
    "run_started": RunStartedEvent,
    "step": StepEvent,
    "run_ended": RunEndedEvent,
    "job": JobEvent,
    "step_progress": StepProgressEvent,
}


def _jsonable(x):
    """Best-effort JSON projection: dataclasses/mappings/sequences recurse,
    numpy scalars unbox, everything else falls back to ``repr``."""
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {
            f.name: _jsonable(getattr(x, f.name))
            for f in dataclasses.fields(x)
        }
    if isinstance(x, Mapping):
        return {
            k if isinstance(k, str) else repr(k): _jsonable(v)
            for k, v in x.items()
        }
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in x]
    return repr(x)


class EventStream:
    """An append-only log of typed run events.

    This is the single source of truth the trace/observer classes expose
    different views of: :class:`~repro.runtime.trace.Trace` shows the
    :class:`StepEvent` sequence with full change dicts, while
    :class:`~repro.runtime.api.MetricsObserver` derives timing and the
    convergence curve from the same records.  ``to_jsonl`` persists the
    stream as one JSON object per line for offline analysis.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, event) -> None:
        self.events.append(event)

    def step_events(self) -> list[StepEvent]:
        """The :class:`StepEvent` records, in emission order."""
        return [e for e in self.events if isinstance(e, StepEvent)]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def dumps(self) -> str:
        """The whole stream as JSONL (one tagged object per line)."""
        lines = []
        for ev in self.events:
            obj = {"type": _EVENT_TAGS.get(type(ev).__name__, type(ev).__name__)}
            obj.update(_jsonable(ev))
            lines.append(json.dumps(obj, default=repr))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonl(self, path) -> None:
        """Write the stream to ``path`` as JSON Lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "EventStream":
        """Parse a :meth:`dumps` JSONL string back into typed events.

        The inverse of :meth:`dumps` *at the JSONL level*: states and node
        ids were projected to JSON when dumped (tuples became lists,
        non-string dict keys became their ``repr``), so loaded events hold
        that projection — but ``stream.loads(s).dumps() == s`` for any
        dumped ``s``, which is what offline round-tripping needs.  Unknown
        event tags raise ``ValueError`` (a stream is a typed log, not a
        grab bag); unknown *fields* on known tags are dropped, so newer
        streams load on older readers.
        """
        stream = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno} is not JSON: {exc}") from exc
            tag = obj.pop("type", None)
            event_cls = _TAG_CLASSES.get(tag)
            if event_cls is None:
                raise ValueError(f"line {lineno}: unknown event type {tag!r}")
            names = {f.name for f in dataclasses.fields(event_cls)}
            stream.emit(event_cls(**{k: v for k, v in obj.items() if k in names}))
        return stream

    @classmethod
    def from_jsonl(cls, path) -> "EventStream":
        """Load a stream previously written with :meth:`to_jsonl`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def state_fingerprint(state: Mapping) -> str:
    """Order-independent content hash of a node → state assignment."""
    h = hashlib.sha256()
    for line in sorted(f"{v!r}\x1f{q!r}" for v, q in state.items()):
        h.update(line.encode())
        h.update(b"\x1e")
    return h.hexdigest()


def network_fingerprint(net) -> str:
    """Content hash of a network's node set and (canonical) edge set."""
    return _topology_fingerprint(net.nodes(), net.edges())


def _topology_fingerprint(nodes, edges) -> str:
    h = hashlib.sha256()
    for part in sorted(repr(v) for v in nodes):
        h.update(part.encode())
        h.update(b"\x1e")
    h.update(b"\x1d")
    for part in sorted(repr(e) for e in edges):
        h.update(part.encode())
        h.update(b"\x1e")
    return h.hexdigest()


def library_versions() -> dict:
    """Versions of the libraries a run's bitwise behaviour depends on."""
    out = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        import scipy

        out["scipy"] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        pass
    try:
        from repro import __version__

        out["repro"] = __version__
    except ImportError:  # pragma: no cover - defensive
        pass
    return out


# ----------------------------------------------------------------------
# RNG capture/restore
# ----------------------------------------------------------------------
def capture_rng(rng) -> tuple:
    """Snapshot an ``rng`` argument before a run consumes it.

    Seeds (ints or ``None``) are recorded verbatim; live Generators have
    their full bit-generator state captured so replay restores the exact
    stream position; a sequence of Generators (the batched engine's
    explicit-streams form) captures each.
    """
    if isinstance(rng, np.random.Generator):
        return ("state", _generator_snapshot(rng))
    if isinstance(rng, (Sequence, list, tuple)) and not isinstance(rng, (str, bytes)):
        return ("states", [_generator_snapshot(g) for g in rng])
    return ("seed", rng)


def _generator_snapshot(gen: np.random.Generator) -> dict:
    """Full restorable snapshot of a Generator.

    ``bit_generator.state`` pins the stream position but *not* the seed
    sequence, and ``Generator.spawn`` (how the batched engine derives its
    per-replica streams) draws children from the seed sequence — so the
    sequence's entropy/spawn bookkeeping must be captured too or replay of
    a spawning run diverges.
    """
    snap = {"state": copy.deepcopy(gen.bit_generator.state)}
    seed_seq = getattr(gen.bit_generator, "seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        snap["seed_seq"] = {
            "entropy": seed_seq.entropy,
            "spawn_key": tuple(seed_seq.spawn_key),
            "pool_size": seed_seq.pool_size,
            "n_children_spawned": seed_seq.n_children_spawned,
        }
    return snap


def _generator_from_state(snap: dict) -> np.random.Generator:
    state = snap["state"]
    seed_seq = snap.get("seed_seq")
    if seed_seq is not None:
        bitgen = getattr(np.random, state["bit_generator"])(
            np.random.SeedSequence(
                entropy=seed_seq["entropy"],
                spawn_key=tuple(seed_seq["spawn_key"]),
                pool_size=seed_seq["pool_size"],
                n_children_spawned=seed_seq["n_children_spawned"],
            )
        )
    else:
        bitgen = getattr(np.random, state["bit_generator"])()
    gen = np.random.Generator(bitgen)
    gen.bit_generator.state = copy.deepcopy(state)
    return gen


def restore_rng(captured: tuple):
    """Rebuild the ``rng`` argument recorded by :func:`capture_rng`."""
    kind, payload = captured
    if kind == "seed":
        return payload
    if kind == "state":
        return _generator_from_state(payload)
    return [_generator_from_state(s) for s in payload]


# ----------------------------------------------------------------------
# run manifests and deterministic replay
# ----------------------------------------------------------------------
class ReplayMismatchError(AssertionError):
    """A replayed run diverged from its manifest's recorded outcome."""


def _callable_name(fn) -> str:
    """A process-independent name for a callable: ``module.qualname`` for
    plain functions, a repr with any ``0x…`` address stripped otherwise
    (lambdas and closures have no stable identity — their *qualname* is
    still stable, their address is not)."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module and qualname:
        return f"{module}.{qualname}"
    return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(fn))


def manifest_content_hash(manifest: "RunManifest") -> str:
    """sha256 content hash of a manifest's serializable summary.

    Deterministic across processes for spec-seeded runs: the JSON names
    callables stably, RNG identity is entropy/spawn-key bookkeeping, and
    topology/state enter as content fingerprints.  This is the hash the
    campaign artifact store records next to each job, letting a finished
    campaign cite — and :func:`replay`-verify — exactly which runs
    produced its statistics.
    """
    return hashlib.sha256(manifest.to_json().encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Everything :func:`replay` needs to re-execute a :func:`run` call.

    The serializable identity fields (``ir_hash``, ``network``, ``rng``,
    ``engine``, ``versions``, the outcome fingerprints) go to JSON via
    :meth:`to_json`; the live objects (``automaton``, ``net``, ``init``,
    a callable ``until``) are held by reference so replay works within the
    capturing process.  ``network_nodes``/``network_edges`` snapshot the
    pre-run topology only when a fault plan is present — faulted runs
    mutate ``net``, so replay must rebuild it; fault-free runs re-use the
    network object directly.
    """

    engine: str
    until: Any
    max_steps: int
    replicas: Optional[int]
    randomness: Optional[int]
    ir_hash: Optional[str]
    rng: tuple
    fault_events: tuple
    backend: Optional[str] = None
    versions: dict = field(default_factory=library_versions)
    automaton: Any = field(default=None, repr=False)
    net: Any = field(default=None, repr=False)
    init: Any = field(default=None, repr=False)
    network_nodes: Optional[list] = field(default=None, repr=False)
    network_edges: Optional[list] = field(default=None, repr=False)
    # outcome, filled by finalize() when the run completes; the two
    # fingerprints are the properties of the same name
    steps: Optional[int] = None
    rng_draws: Optional[int] = None
    _final_fingerprint: Optional[str] = field(default=None, repr=False)
    _replica_fingerprints: Optional[list] = field(default=None, repr=False)
    _network: Optional[str] = field(default=None, repr=False)
    _final_state: Optional[Mapping] = field(default=None, repr=False)
    _replica_states: Optional[list] = field(default=None, repr=False)

    @property
    def network(self) -> Optional[str]:
        """Content hash of the pre-run topology, computed on first access.

        Hashing a large network costs real time (it sorts every edge repr),
        so :func:`capture_manifest` defers it off the run's hot path.
        Faulted runs hash the pre-fault snapshot; fault-free runs hash the
        live network, so access the fingerprint before mutating it.
        """
        if self._network is None:
            if self.network_nodes is not None:
                self._network = _topology_fingerprint(
                    self.network_nodes, self.network_edges
                )
            elif self.net is not None:
                self._network = network_fingerprint(self.net)
        return self._network

    @property
    def final_fingerprint(self) -> Optional[str]:
        """:func:`state_fingerprint` of the final state, computed on first
        read from the snapshot :meth:`finalize` took (hashing every node's
        repr is a real cost at scale, so runs that never read it skip it).
        Assignment overrides it."""
        if self._final_state is not None:
            self._final_fingerprint = state_fingerprint(self._final_state)
            self._final_state = None
        return self._final_fingerprint

    @final_fingerprint.setter
    def final_fingerprint(self, value: Optional[str]) -> None:
        self._final_fingerprint = value
        self._final_state = None

    @property
    def replica_fingerprints(self) -> Optional[list]:
        """Per-replica fingerprints of a batched run, computed like
        :attr:`final_fingerprint`; ``None`` for single-replica runs."""
        if self._replica_states is not None:
            self._replica_fingerprints = [
                state_fingerprint(s) for s in self._replica_states
            ]
            self._replica_states = None
        return self._replica_fingerprints

    @replica_fingerprints.setter
    def replica_fingerprints(self, value: Optional[list]) -> None:
        self._replica_fingerprints = value
        self._replica_states = None

    def finalize(self, result) -> None:
        """Record the completed run's outcome: steps, draws and a snapshot
        of the final state(s), so a caller mutating ``result.final_state``
        later cannot change the fingerprints."""
        self.steps = result.steps
        self.rng_draws = result.rng_draws
        self._final_fingerprint = self._replica_fingerprints = None
        self._final_state = _snapshot(result.final_state)
        if result.replica_states is not None:
            self._replica_states = [_snapshot(s) for s in result.replica_states]

    def to_json(self) -> str:
        """The serializable summary (live object references omitted).

        Callables are named by module-qualified path rather than ``repr``
        (which embeds a memory address), so the JSON — and therefore
        :func:`manifest_content_hash` — is stable across processes.
        """
        obj = {
            name: _jsonable(getattr(self, name))
            for name in _JSON_FIELDS
        }
        obj["network"] = self.network
        if callable(self.until):
            obj["until"] = _callable_name(self.until)
        return json.dumps(obj, default=repr)


#: The keys of :meth:`RunManifest.to_json`, in field order (``network``
#: goes last): the live references and snapshots stay out, and the
#: private fingerprint fields serialize under their property names.
_JSON_FIELDS = tuple(
    f.name.lstrip("_")
    for f in dataclasses.fields(RunManifest)
    if f.name not in ("automaton", "net", "init", "_network", "_final_state",
                      "_replica_states")
)


def _snapshot(state: Mapping) -> Mapping:
    """A private copy of a node → state assignment.  An array-backed
    state's copy shares its read-only arrays, so this costs O(1) for the
    array engines' results; mutating the original cannot reach it."""
    return state.copy() if hasattr(state, "copy") else dict(state)


def capture_manifest(
    *,
    automaton,
    net,
    init,
    engine: str,
    until,
    max_steps: int,
    replicas: Optional[int],
    randomness: Optional[int],
    rng,
    fault_plan,
    backend: Optional[str] = None,
) -> RunManifest:
    """Snapshot a :func:`run` call's inputs (called before any step runs).

    Must run before the engine consumes ``rng`` or the fault plan mutates
    ``net`` — both are captured by value here.  The IR hash is a cache hit
    for anything already negotiated; automata that do not lower record
    ``ir_hash=None`` (their identity is carried by the live reference).
    """
    from repro.core.ir import lower

    try:
        ir_hash = lower(automaton, randomness).content_hash()
    except TypeError:  # LoweringError — reference-only automaton
        ir_hash = None
    events = tuple(fault_plan.events()) if fault_plan is not None else ()
    nodes = edges = None
    if events:
        nodes = net.nodes()
        edges = net.edges()
    return RunManifest(
        engine=engine,
        until=until,
        max_steps=max_steps,
        replicas=replicas,
        randomness=randomness,
        ir_hash=ir_hash,
        rng=capture_rng(rng),
        fault_events=events,
        backend=backend,
        automaton=automaton,
        net=net,
        init=init,
        network_nodes=nodes,
        network_edges=edges,
    )


def replay(manifest: RunManifest, *, check: bool = True):
    """Re-execute a manifested run; assert the outcome is bitwise identical.

    Rebuilds the pre-churn network when the original run had topology
    events (and a fresh :class:`~repro.runtime.churn.ChurnPlan` from the
    recorded events — up events included, so churned runs replay
    exactly), restores the RNG to its captured position, pins the engine
    *and array backend* the original run selected, and re-runs.  With ``check=True`` (default)
    the final-state fingerprint(s), executed steps and consumed draws must
    all match the manifest or :class:`ReplayMismatchError` is raised.
    Returns the fresh :class:`~repro.runtime.api.RunResult`.
    """
    from repro.network.graph import Network
    from repro.runtime.api import run
    from repro.runtime.churn import ChurnPlan

    if manifest.final_fingerprint is None:
        raise ValueError(
            "manifest records no outcome: the original run did not complete"
        )
    if manifest.automaton is None or manifest.init is None:
        raise ValueError(
            "manifest holds no live automaton/init references; replay only "
            "works in the process that captured the manifest"
        )
    if manifest.network_nodes is not None:
        net = Network(manifest.network_nodes, manifest.network_edges)
    elif manifest.net is not None:
        net = manifest.net
    else:
        raise ValueError("manifest holds neither a network nor its snapshot")
    # a fresh plan is rebuilt from the recorded events and passed through
    # ensure_fresh(), so replay always re-applies the schedule from the
    # top — never from a stale cursor position, even if a caller-held plan
    # object was partially consumed by a manual apply_due in the meantime
    # (the churn.py cursor contract, same as engine construction)
    plan = (
        ChurnPlan(list(manifest.fault_events)).ensure_fresh()
        if manifest.fault_events
        else None
    )
    result = run(
        manifest.automaton,
        net,
        manifest.init,
        engine=manifest.engine,
        until=manifest.until,
        max_steps=manifest.max_steps,
        replicas=manifest.replicas,
        randomness=manifest.randomness,
        rng=restore_rng(manifest.rng),
        fault_plan=plan,
        backend=manifest.backend or "auto",
    )
    if check:
        problems = []
        got = state_fingerprint(result.final_state)
        if got != manifest.final_fingerprint:
            problems.append(
                f"final state fingerprint {got[:12]}… != recorded "
                f"{manifest.final_fingerprint[:12]}…"
            )
        if manifest.replica_fingerprints is not None:
            got_reps = [state_fingerprint(s) for s in result.replica_states or []]
            if got_reps != manifest.replica_fingerprints:
                problems.append("per-replica state fingerprints differ")
        if manifest.steps is not None and result.steps != manifest.steps:
            problems.append(
                f"steps {result.steps} != recorded {manifest.steps}"
            )
        if manifest.rng_draws is not None and result.rng_draws != manifest.rng_draws:
            problems.append(
                f"rng draws {result.rng_draws} != recorded {manifest.rng_draws}"
            )
        if problems:
            raise ReplayMismatchError(
                "replay diverged from the manifest: " + "; ".join(problems)
            )
    return result
