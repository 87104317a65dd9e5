"""Fault-tolerant parallel campaign execution.

:func:`run_campaign` shards a :class:`~repro.campaigns.spec.CampaignSpec`
over a :class:`JobPool`, the one job executor this package and the
service (:mod:`repro.service.jobs`) share: at most ``workers`` jobs in
flight, per-job timeouts that kill a hung worker, bounded retries with
``asyncio.sleep`` backoff, and crash isolation by rebuilding a broken
pool (the rule is spelled out on :class:`JobPool`).  ``workers > 0`` runs
every pending job as an asyncio task on the pool and appends each record
to the store as it finishes; ``workers=0`` runs them sequentially
in-process, the reference the pooled path is byte-compared against.  On
either path, jobs whose hash already has a completed artifact in the
store are skipped before anything runs (**resume**).

Determinism: a job's RNG derives from its spec
(:meth:`~repro.campaigns.spec.JobSpec.seed_sequence`), never from
execution, so results are bitwise-identical at any worker count,
scheduling order or retry history — which is what makes kill-and-resume
aggregates byte-identical (see ``repro.campaigns.aggregate``).
"""

from __future__ import annotations

import asyncio
import inspect
import os
import time
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.campaigns.spec import CampaignSpec, JobSpec
from repro.campaigns.store import ArtifactStore
from repro.runtime.telemetry import MetricsRegistry, _jsonable

__all__ = [
    "execute_job",
    "JobPool",
    "run_campaign",
    "CampaignRunResult",
]


def _accepts_progress(fn) -> bool:
    """True iff ``fn`` takes a ``progress`` keyword (explicit or **kwargs
    is *not* enough — silently swallowing the callback would hide a wiring
    mistake)."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return False
    param = params.get("progress")
    return param is not None and param.kind in (
        inspect.Parameter.KEYWORD_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )


def _progress_callback(payload: dict, context: dict):
    """Build the per-step progress callback a cluster context asks for.

    ``context`` carries ``store_root`` (+ optional ``stride``/``replica``)
    and turns into a :class:`~repro.cluster.spool.SpoolProgress` that
    appends :class:`~repro.runtime.telemetry.StepProgressEvent` frames to
    the job's event spool.  Imported lazily — batch campaigns (context
    ``None``) never touch the cluster package.
    """
    from repro.cluster.spool import SpoolProgress

    return SpoolProgress(
        context["store_root"],
        payload["job_hash"],
        stride=int(context.get("stride", 1)),
        replica=context.get("replica"),
    )


def execute_job(payload: dict, context: Optional[dict] = None) -> dict:
    """Run one job inside a worker process; always returns a record.

    The job function is resolved from its dotted name, handed a freshly
    derived RNG and a private :class:`MetricsRegistry`, and its JSON-able
    result is wrapped into an artifact record.  Ordinary exceptions are
    caught and reported as ``status="error"`` records — they cost the job
    an attempt but never poison the pool.  (Hard crashes and hangs are
    the coordinator's problem, by design.)

    ``context`` (cluster mode only) requests per-step progress streaming:
    jobs whose function accepts a ``progress`` keyword get a spool-backed
    callback; jobs that don't are run exactly as before — progress is an
    observability channel, never part of the job's identity or result.
    """
    job = JobSpec.from_payload(payload)
    t0 = perf_counter()
    try:
        fn = job.resolve()
        metrics = MetricsRegistry()
        kwargs = dict(job.params)
        if context is not None and _accepts_progress(fn):
            kwargs["progress"] = _progress_callback(payload, context)
        result = fn(rng=job.make_rng(), metrics=metrics, **kwargs)
        record = {
            "job_hash": payload["job_hash"],
            "status": "ok",
            "job": job.job,
            "params": job.params,
            "seed_index": job.seed_index,
            "index": job.index,
            "result": _jsonable(result),
            "metrics": _jsonable(metrics.snapshot()),
            "wall_time": perf_counter() - t0,
            "worker": os.getpid(),
        }
        if isinstance(result, dict) and "manifest_hash" in result:
            record["manifest_hash"] = result["manifest_hash"]
        return record
    except Exception as exc:
        return {
            "job_hash": payload["job_hash"],
            "status": "error",
            "job": job.job,
            "params": job.params,
            "seed_index": job.seed_index,
            "index": job.index,
            "error": "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
            "wall_time": perf_counter() - t0,
            "worker": os.getpid(),
        }


@dataclass
class CampaignRunResult:
    """What one :func:`run_campaign` invocation did."""

    spec_hash: str
    total: int
    executed: int
    skipped: int
    failed: list = field(default_factory=list)
    wall_time: float = 0.0
    store: Optional[ArtifactStore] = None

    @property
    def ok(self) -> bool:
        return not self.failed


def _kill_executor(executor: Executor) -> None:
    """Hard-stop a pool whose worker may be hung.

    ``shutdown`` cannot interrupt a *running* call, so the worker
    processes are killed first; every call still on the pool then fails
    with ``BrokenProcessPool``.  Queued calls are not cancelled: a
    cancelled call would reach its awaiting task as a ``CancelledError``,
    indistinguishable from cancelling the task itself.  (``_processes`` is
    a CPython implementation detail, but it is the only per-process handle
    the executor exposes and has been stable across every supported
    version; a thread pool has none and is only shut down.)
    """
    for proc in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already-dead race
            pass
    executor.shutdown(wait=False)


def _failure_record(payload: dict, attempts: int, error: str) -> dict:
    return {
        "job_hash": payload["job_hash"],
        "status": "failed",
        "job": payload["job"],
        "params": payload["params"],
        "seed_index": payload["seed_index"],
        "index": payload["index"],
        "attempts": attempts,
        "error": error,
    }


class JobPool:
    """One executor and the rule for one job's attempts on it.

    :func:`run_campaign` (``workers > 0``) and the service's
    :class:`~repro.service.jobs.JobManager` both run jobs through
    :meth:`run`, on their own event loop:

    * each attempt is one ``run_in_executor`` call of :func:`execute_job`,
      with at most ``workers`` in flight, so a job's ``timeout`` clock
      starts when a worker is free and measures its execution;
    * an error, a crash and a timeout each cost one of ``retries + 1``
      attempts, and the wait before attempt k + 1 is
      ``backoff * 2**(k-1)`` seconds of ``asyncio.sleep``;
    * a worker dying mid-job breaks the whole executor, so every job in
      flight on it sees ``BrokenProcessPool`` and is charged (the culprit
      cannot be told from its siblings).  A hung worker can only be
      stopped by killing the executor, which breaks it too.  Either way
      the executor is rebuilt once per break, by the first job to see it;
    * the siblings of a timed-out job were healthy: they are resubmitted
      with fresh timers and no attempt charged, and so is a job whose
      submit raised ``BrokenProcessPool`` (it never ran).

    ``executor_factory(workers)`` builds each executor.  The batch runner
    uses :class:`ProcessPoolExecutor`; the service needs a spawn-context
    pool (a forked worker would hold accepted client sockets open), and
    tests substitute a :class:`~concurrent.futures.ThreadPoolExecutor`.
    ``state`` is ``"ok"``, ``"rebuilding"`` or ``"down"``; each rebuild
    counts ``pool_rebuilds`` in ``metrics`` when one is given.
    """

    def __init__(
        self,
        workers: int,
        executor_factory: Callable[[int], Executor] = ProcessPoolExecutor,
        *,
        retries: int = 0,
        backoff: float = 0.0,
        timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.metrics = metrics
        self._factory = executor_factory
        self._executor = executor_factory(workers)
        self._slots = asyncio.Semaphore(workers)
        self._generation = 0  # bumped by each rebuild
        self._timed_out: set[int] = set()  # generations killed on a timeout
        self.state = "ok"

    async def run(
        self,
        payload: dict,
        *,
        context: Optional[dict] = None,
        on_retry: Optional[Callable] = None,
    ) -> dict:
        """Run one job until it succeeds or its attempts are spent.

        Returns the ``"ok"`` record from :func:`execute_job`, or a
        ``"failed"`` record carrying the last error; either carries
        ``attempts``.  ``on_retry(attempt, error)`` is called after each
        failed attempt that leaves budget for another.
        """
        attempt = 0
        while True:
            attempt += 1
            async with self._slots:
                record = await self._attempt(payload, context)
            if record["status"] == "ok":
                record["attempts"] = attempt
                return record
            error = record.get("error", "?")
            if attempt > self.retries:
                return _failure_record(payload, attempt, error)
            if on_retry is not None:
                on_retry(attempt, error)
            if self.backoff:
                await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))

    async def _attempt(self, payload: dict, context: Optional[dict]) -> dict:
        """One charged attempt, holding a slot: the worker's record, or
        an ``"error"`` record for a crash, a timeout or an executor
        failure."""
        loop = asyncio.get_running_loop()
        while True:
            generation = self._generation
            started = time.monotonic()
            try:
                future = loop.run_in_executor(
                    self._executor, execute_job, payload, context
                )
            except BrokenProcessPool:
                # broken by a crash no job has reported yet; this one
                # never ran
                self._rebuild(generation)
                continue
            try:
                return await asyncio.wait_for(future, self.timeout)
            except asyncio.TimeoutError:
                if generation == self._generation:
                    self._timed_out.add(generation)
                self._rebuild(generation)
                return {
                    "status": "error",
                    "error": f"timeout after {time.monotonic() - started:.2f}s "
                    f"(budget {self.timeout}s)",
                }
            except BrokenProcessPool:
                if generation in self._timed_out:
                    continue  # killed to stop a sibling's hang
                self._rebuild(generation)
                return {
                    "status": "error",
                    "error": "worker process died (pool broken)",
                }
            except Exception as exc:  # raised outside execute_job's guard
                return {"status": "error", "error": f"executor failure: {exc!r}"}

    def _rebuild(self, generation: int) -> None:
        """Replace the executor that broke at ``generation``, unless a job
        that saw the same break already did."""
        if generation != self._generation:
            return
        self.state = "rebuilding"
        _kill_executor(self._executor)
        self._executor = self._factory(self.workers)
        self._generation += 1
        if self.metrics is not None:
            self.metrics.inc("pool_rebuilds")
        self.state = "ok"

    def close(self, *, wait: bool = True) -> None:
        """Shut the executor down; ``wait=False`` returns at once and
        drops calls that have not started."""
        self._executor.shutdown(wait=wait, cancel_futures=True)
        self.state = "down"

    def kill(self) -> None:
        """Stop the executor now, running calls included."""
        _kill_executor(self._executor)
        self.state = "down"


def _notify(progress: Optional[Callable], event: str, **info) -> None:
    if progress is not None:
        progress(event, info)


def _run_inline(
    pending: list[dict],
    spec: CampaignSpec,
    store: ArtifactStore,
    progress: Optional[Callable],
) -> list[str]:
    """workers=0: execute sequentially in-process (the baseline path —
    same artifacts, no pool)."""
    failed = []
    for payload in pending:
        record = None
        for attempt in range(1, spec.retries + 2):
            record = execute_job(payload)
            record["attempts"] = attempt
            if record["status"] == "ok" or attempt > spec.retries:
                break
            _notify(
                progress, "job_retry", job_hash=payload["job_hash"],
                attempt=attempt, error=record.get("error"),
            )
            if spec.backoff:
                time.sleep(spec.backoff * (2 ** (attempt - 1)))
        if record["status"] == "ok":
            store.append(record)
            _notify(progress, "job_done", job_hash=payload["job_hash"])
        else:
            store.append(
                _failure_record(
                    payload, record["attempts"], record.get("error", "?")
                )
            )
            failed.append(payload["job_hash"])
            _notify(progress, "job_failed", job_hash=payload["job_hash"])
    return failed


async def _run_concurrently(
    pending: list[dict],
    spec: CampaignSpec,
    store: ArtifactStore,
    workers: int,
    progress: Optional[Callable],
) -> list[str]:
    """workers > 0: every pending job as one task on a :class:`JobPool`,
    its record appended to the store as it finishes."""
    pool = JobPool(
        workers, retries=spec.retries, backoff=spec.backoff,
        timeout=spec.timeout,
    )
    failed: list[str] = []

    async def one(payload: dict) -> None:
        key = payload["job_hash"]
        record = await pool.run(
            payload,
            on_retry=lambda attempt, error: _notify(
                progress, "job_retry", job_hash=key, attempt=attempt,
                error=error,
            ),
        )
        store.append(record)
        if record["status"] == "ok":
            _notify(progress, "job_done", job_hash=key)
        else:
            failed.append(key)
            _notify(progress, "job_failed", job_hash=key)

    try:
        await asyncio.gather(*(one(payload) for payload in pending))
    except BaseException:
        pool.kill()
        raise
    pool.close()
    return failed


def run_campaign(
    spec: CampaignSpec,
    store_dir,
    *,
    workers: Optional[int] = None,
    resume: bool = True,
    progress: Optional[Callable] = None,
) -> CampaignRunResult:
    """Execute every job of ``spec`` into the store at ``store_dir``.

    Parameters
    ----------
    workers:
        Process count.  ``None`` uses the scheduler-visible CPU count;
        ``0`` runs the jobs sequentially in-process (no pool — the
        deterministic baseline the parallel path is conformance-tested
        against).
    resume:
        Skip jobs that already have a completed artifact (default).
        ``resume=False`` re-executes everything; completed artifacts are
        still never displaced (append-only store, ok-wins merge).
    progress:
        Optional ``callback(event, info)`` for ``job_done`` /
        ``job_retry`` / ``job_failed`` notifications.

    Returns a :class:`CampaignRunResult`; inspect ``failed`` (or
    ``result.ok``) for jobs that exhausted their retry budget.  Completed
    work is in the store regardless — a failed campaign is resumable.
    """
    t0 = perf_counter()
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            workers = os.cpu_count() or 1
    store = ArtifactStore(store_dir)
    store.write_spec(spec)
    jobs = spec.expand()
    done = store.completed_hashes() if resume else set()
    pending = [j.payload() for j in jobs if j.job_hash not in done]
    skipped = len(jobs) - len(pending)
    _notify(
        progress, "campaign_start", total=len(jobs), pending=len(pending),
        skipped=skipped, workers=workers,
    )
    if not pending:
        failed = []
    elif workers == 0:
        failed = _run_inline(pending, spec, store, progress)
    else:
        failed = asyncio.run(
            _run_concurrently(pending, spec, store, workers, progress)
        )
    result = CampaignRunResult(
        spec_hash=spec.spec_hash,
        total=len(jobs),
        executed=len(pending) - len(failed),
        skipped=skipped,
        failed=failed,
        wall_time=perf_counter() - t0,
        store=store,
    )
    _notify(
        progress, "campaign_end", executed=result.executed,
        failed=len(failed), wall_time=result.wall_time,
    )
    return result
