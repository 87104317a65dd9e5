"""Job admission, dedupe, quotas and the async bridge to the worker pool.

:class:`JobManager` is the service's brain; the HTTP layer is a thin
codec over it.  One submission flows through four gates, in order:

1. **store dedupe** — the job's content hash already has a completed
   artifact: answer it from the store (``cache_hits``).  No quota is
   charged; cached reads are free by design, so replaying a finished
   campaign against the service costs zero executions.
2. **in-flight dedupe** — an identical job is executing right now: the
   submission shares that execution's future (``inflight_dedups``).
   N concurrent identical submissions perform exactly one execution.
3. **per-tenant quota** — a token-bucket (burst ``quota_burst``, refill
   ``quota_rate``/s) per ``X-Tenant`` value (``quota_rejections``).
4. **backpressure** — at most ``queue_limit`` jobs admitted-but-
   unfinished; beyond that, submissions are rejected immediately
   (``backpressure_rejections``) rather than queued without bound.

Admitted jobs run on a :class:`~repro.campaigns.runner.JobPool`, the
job executor :func:`~repro.campaigns.runner.run_campaign` uses too, so a
job's retries, backoff (``asyncio.sleep``, never blocking the event
loop), timeout and pool rebuilds follow one rule in both.  The service's
pool is spawn-context: pool workers start lazily, while client
connections are accepted, and a forked worker would inherit every open
socket and keep clients from ever seeing EOF.  Completed records are
sealed into the same :class:`~repro.campaigns.store.ArtifactStore` the
batch runner uses (whose append is concurrent-writer safe), so service
and batch executions of one spec are interchangeable and byte-identical.

A single replica dedupes in-flight jobs in memory (``_inflight``), not
through the cluster's claim ledger.  Running every manager as a cluster
of one (replica id ``"solo"``: each submit takes the ledger's flock and
spools its events) was measured on serve-mixed at seed 2006, 4
alternating pairs of 12 s on a 2-CPU host: ``ops_per_s`` fell from
210–271 to 160–200 and ``latency_ms_p50`` rose from 5.8–7.2 to
8.3–9.3 ms; with worker progress spooling also off it still read about
177 against 241 ops/s.  So the in-memory shortcut stays for one replica.

Progress is observable per job: every lifecycle transition is a typed
:class:`~repro.runtime.telemetry.JobEvent` emitted into a per-job
:class:`~repro.runtime.telemetry.EventStream` and fanned out to any
number of SSE subscriber queues.

**Cluster mode** (``replica_id`` set) adds two gates and swaps the event
fan-out substrate, making the shared store directory the coordination
point between N replicas (see ``repro.cluster``):

* after the in-flight check, a live *lease* held by another replica on
  the job's hash (``claims.jsonl``) short-circuits admission into a
  ``lease_wait``: the submission gets a future resolved by a poller that
  tails the shared store for the remote replica's sealed record — and,
  if the lease goes stale (the executor was SIGKILLed), takes the lease
  over and executes the job here (``lease_takeovers``).  Executing
  replicas renew their leases on a heartbeat task at ``ttl/3``.
* lifecycle events of leased jobs are mirrored into a per-job *event
  spool* (``spool/<hash>.jsonl``) that worker processes also append
  :class:`~repro.runtime.telemetry.StepProgressEvent` frames to; SSE
  subscribers on **any** replica tail the spool
  (:meth:`JobManager.subscribe_any`), so progress of a job is visible
  from replicas that are not executing it.

Tenant quotas in cluster mode come from a shared
:class:`~repro.cluster.config.TenantQuotaConfig` file (mtime-reloaded)
instead of constructor arguments, so one edit retunes every replica.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from repro.campaigns.runner import JobPool
from repro.campaigns.spec import JobSpec
from repro.campaigns.store import ArtifactStore
from repro.runtime.telemetry import EventStream, JobEvent, MetricsRegistry

__all__ = ["TokenBucket", "Submission", "JobManager"]

#: Submission outcomes (``Submission.outcome`` / ``X-Repro-Outcome``).
OUTCOMES = (
    "cached",
    "deduplicated",
    "accepted",
    "lease_wait",
    "quota_rejected",
    "backpressure_rejected",
)


class TokenBucket:
    """A per-tenant request budget: ``burst`` tokens, ``rate``/s refill.

    Lazy refill on a monotonic clock — no timers, no background task.
    ``rate=0`` means a fixed budget of ``burst`` requests; a ``None``
    bucket (see :class:`JobManager`) means no quota at all.
    """

    __slots__ = ("burst", "rate", "tokens", "stamp", "clock")

    def __init__(self, burst: float, rate: float, clock=time.monotonic) -> None:
        if burst <= 0:
            raise ValueError("burst must be > 0")
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.burst = float(burst)
        self.rate = float(rate)
        self.tokens = float(burst)
        self.clock = clock
        self.stamp = clock()

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; never blocks."""
        now = self.clock()
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def refund(self, cost: float = 1.0) -> None:
        """Return tokens taken by an admission that didn't execute (a
        cluster claim lost to another replica must not charge the
        tenant)."""
        self.tokens = min(self.burst, self.tokens + cost)


@dataclass
class Submission:
    """What :meth:`JobManager.submit` decided about one request.

    ``record`` is the sealed artifact for ``cached`` outcomes;
    ``future`` resolves to the sealed (or failure) record for
    ``accepted``/``deduplicated`` ones.  Rejections carry neither.
    """

    job_hash: str
    outcome: str
    record: Optional[dict] = None
    future: Optional[asyncio.Future] = None

    @property
    def rejected(self) -> bool:
        return self.outcome.endswith("_rejected")

    async def result(self) -> Optional[dict]:
        """The sealed record, waiting for execution if necessary."""
        if self.record is not None:
            return self.record
        if self.future is not None:
            # shield: the future may be shared by deduplicated
            # submissions, and a task cancelled mid-await (an HTTP
            # client disconnecting) would otherwise cancel the shared
            # future out from under every other waiter
            return await asyncio.shield(self.future)
        return None


def _spawn_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )


class JobManager:
    """Admission control + execution for service-submitted jobs.

    Single-threaded by construction: every method runs on the event
    loop, so the gate checks in :meth:`submit` are atomic without locks.
    The only concurrency is the worker pool, reached exclusively through
    :meth:`JobPool.run <repro.campaigns.runner.JobPool.run>`.
    ``executor_factory`` builds the pool's executors (a spawn-context
    process pool); tests pass a thread pool.
    """

    def __init__(
        self,
        store_dir,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        quota_burst: Optional[float] = None,
        quota_rate: float = 0.0,
        retries: int = 0,
        backoff: float = 0.05,
        timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        replica_id: Optional[str] = None,
        lease_ttl: float = 10.0,
        progress_stride: int = 1,
        tenant_config=None,
        sse_keepalive: float = 15.0,
        poll_interval: float = 0.05,
        executor_factory=_spawn_pool,
    ) -> None:
        self.store = ArtifactStore(store_dir)
        self.workers = max(1, int(workers))
        self.queue_limit = int(queue_limit)
        self.quota_burst = quota_burst
        self.quota_rate = quota_rate
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.timeout = timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.replica_id = replica_id
        self.lease_ttl = float(lease_ttl)
        self.progress_stride = max(1, int(progress_stride))
        self.tenant_config = tenant_config
        self.sse_keepalive = float(sse_keepalive)
        self.poll_interval = float(poll_interval)
        self._executor_factory = executor_factory
        self._completed: dict[str, dict] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self._streams: dict[str, EventStream] = {}
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._bucket_generation = 0
        self._pool: Optional[JobPool] = None
        # cluster-mode state (all None/empty when replica_id is unset)
        self.claims = None
        self.spool = None
        self._leases: dict = {}
        self._store_offset = 0
        self._latest: dict[str, dict] = {}
        if replica_id is not None:
            from repro.cluster.claims import ClaimLedger
            from repro.cluster.spool import EventSpool

            self.claims = ClaimLedger(
                self.store.root, replica_id, ttl=self.lease_ttl
            )
            self.spool = EventSpool(self.store.root)

    @property
    def cluster(self) -> bool:
        """True iff this manager coordinates through a shared store."""
        return self.claims is not None

    @property
    def pool_state(self) -> str:
        """``"ok"``, ``"rebuilding"`` or ``"down"`` (for ``/healthz``)."""
        return self._pool.state if self._pool is not None else "down"

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Warm the completed-job cache from the store, start the pool."""
        self._refresh_store()
        self._pool = JobPool(
            self.workers, self._executor_factory, retries=self.retries,
            backoff=self.backoff, timeout=self.timeout, metrics=self.metrics,
        )
        self.metrics.set_tag("service", "jobs")
        if self.replica_id is not None:
            self.metrics.set_tag("replica", self.replica_id)

    async def close(self) -> None:
        """Cancel in-flight work and shut the pool down."""
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.close(wait=False)
            self._pool = None

    # -- shared-store view ---------------------------------------------
    def _refresh_store(self) -> None:
        """Fold records other writers appended into the local caches.

        Incremental (byte-offset cursor, complete lines only) so calling
        it on the admission path in cluster mode costs ``O(new records)``.
        The merge keeps the store's ok-wins rule: a completed artifact is
        never displaced by a later failure record.
        """
        records, self._store_offset = self.store.tail_records(
            self._store_offset
        )
        for rec in records:
            job_hash = rec.get("job_hash")
            if job_hash is None:
                continue
            if (
                self._latest.get(job_hash, {}).get("status") == "ok"
                and rec.get("status") != "ok"
            ):
                continue
            self._latest[job_hash] = rec
            if rec.get("status") == "ok":
                self._completed[job_hash] = rec

    # -- events --------------------------------------------------------
    def _emit(self, job_hash: str, status: str, detail: Optional[dict] = None):
        event = JobEvent(job_hash=job_hash, status=status, detail=detail)
        stream = self._streams.setdefault(job_hash, EventStream())
        stream.emit(event)
        for queue in self._subscribers.get(job_hash, ()):
            queue.put_nowait(event)
        if event.terminal:
            for queue in self._subscribers.get(job_hash, ()):
                queue.put_nowait(None)  # end-of-stream sentinel
        if self.spool is not None and job_hash in self._leases:
            # mirror the lifecycle of jobs *we* execute into the spool so
            # other replicas' SSE subscribers see it; spool loss is an
            # observability gap, never a correctness problem
            try:
                self.spool.append(job_hash, event)
            except OSError:  # pragma: no cover - disk trouble
                pass
        return event

    def subscribe(self, job_hash: str) -> asyncio.Queue:
        """An event queue for one job, pre-loaded with its history.

        Yields :class:`~repro.runtime.telemetry.JobEvent` items followed
        by a ``None`` sentinel once the job reaches a terminal status.
        Pair with :meth:`unsubscribe` (a disconnected SSE client must
        not leak its queue).
        """
        queue: asyncio.Queue = asyncio.Queue()
        history = self._streams.get(job_hash)
        terminal = False
        if history is not None:
            for event in history:
                queue.put_nowait(event)
                terminal = terminal or event.terminal
        elif job_hash in self._completed:
            # completed before this process started — synthesize the
            # cached terminal event so late subscribers still terminate
            record = self._completed[job_hash]
            queue.put_nowait(
                JobEvent(
                    job_hash=job_hash,
                    status="cached",
                    detail={"content_hash": record.get("content_hash")},
                )
            )
            terminal = True
        if terminal:
            queue.put_nowait(None)
        else:
            self._subscribers.setdefault(job_hash, set()).add(queue)
        return queue

    def unsubscribe(self, job_hash: str, queue: asyncio.Queue) -> None:
        subs = self._subscribers.get(job_hash)
        if subs is not None:
            subs.discard(queue)
            if not subs:
                del self._subscribers[job_hash]

    def stream(self, job_hash: str) -> Optional[EventStream]:
        """The full typed event history of one job, if any."""
        return self._streams.get(job_hash)

    def subscribe_any(self, job_hash: str):
        """An event queue for one job plus its cleanup callable.

        Single-process mode delegates to :meth:`subscribe`.  Cluster mode
        instead tails the job's shared event spool, which carries the
        executing replica's lifecycle events *and* the worker processes'
        :class:`~repro.runtime.telemetry.StepProgressEvent` frames — so
        the same SSE contract is served whether or not this replica is
        the executor, at step granularity.  The returned queue yields
        typed events then a ``None`` sentinel; ``cleanup()`` must be
        called when the consumer goes away.
        """
        if not self.cluster:
            queue = self.subscribe(job_hash)
            return queue, lambda: self.unsubscribe(job_hash, queue)
        queue: asyncio.Queue = asyncio.Queue()
        task = asyncio.get_running_loop().create_task(
            self._pump_spool(job_hash, queue)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return queue, task.cancel

    async def _pump_spool(self, job_hash: str, queue: asyncio.Queue) -> None:
        """Tail one job's spool into ``queue`` until a terminal event.

        A job that finished without ever spooling (completed before this
        cluster existed, or cached) gets a synthesized terminal event
        from the store record, so subscribers always terminate.
        """
        offset = 0
        while True:
            events, offset = self.spool.read(job_hash, offset)
            for event in events:
                queue.put_nowait(event)
                if isinstance(event, JobEvent) and event.terminal:
                    queue.put_nowait(None)
                    return
            if not events:
                record = self._completed.get(job_hash)
                if record is None:
                    self._refresh_store()
                    record = self._completed.get(job_hash)
                if record is not None:
                    # the executor seals the store record *before* spooling
                    # its terminal event, so the record can become visible
                    # a beat ahead of the "done"/"failed" frame.  If a
                    # spool exists the executor was streaming: give its
                    # terminal append a bounded grace so subscribers see
                    # the real frame; synthesize only if it never lands
                    # (executor died between the two appends) or the job
                    # never spooled at all (cached / pre-cluster record).
                    grace = 10 if self.spool.path(job_hash).exists() else 1
                    for _ in range(grace):
                        events, offset = self.spool.read(job_hash, offset)
                        for event in events:
                            queue.put_nowait(event)
                            if isinstance(event, JobEvent) and event.terminal:
                                queue.put_nowait(None)
                                return
                        if grace > 1:
                            await asyncio.sleep(self.poll_interval)
                    queue.put_nowait(
                        JobEvent(
                            job_hash=job_hash,
                            status="cached",
                            detail={
                                "content_hash": record.get("content_hash")
                            },
                        )
                    )
                    queue.put_nowait(None)
                    return
            await asyncio.sleep(self.poll_interval)

    def knows_job(self, job_hash: str) -> bool:
        """True iff this replica can say anything about ``job_hash`` —
        local record/stream, a shared-store record, a spool, or a live
        lease somewhere in the cluster."""
        if (
            job_hash in self._completed
            or job_hash in self._streams
            or job_hash in self._inflight
        ):
            return True
        if not self.cluster:
            return False
        self._refresh_store()
        if job_hash in self._latest:
            return True
        if self.spool.path(job_hash).exists():
            return True
        return self.claims.peek(job_hash) is not None

    # -- admission -----------------------------------------------------
    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.tenant_config is not None:
            quota = self.tenant_config.lookup(tenant)  # mtime-checked
            if self.tenant_config.generation != self._bucket_generation:
                # new config: drop every cached bucket so fresh budgets
                # apply now, not when old buckets happen to drain
                self._buckets.clear()
                self._bucket_generation = self.tenant_config.generation
            if quota is None:
                return None
            burst, rate = quota
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(burst, rate, self.clock)
                self._buckets[tenant] = bucket
            return bucket
        if self.quota_burst is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.quota_burst, self.quota_rate, self.clock)
            self._buckets[tenant] = bucket
        return bucket

    def _lease_wait(self, payload: dict) -> Submission:
        """Admit a job another replica is executing: free (no quota — the
        executor's tenant paid), resolved by a poller that tails the
        shared store and takes the lease over if it goes stale."""
        job_hash = payload["job_hash"]
        future = asyncio.get_running_loop().create_future()
        self._inflight[job_hash] = future
        self.metrics.inc("lease_waits")
        task = asyncio.get_running_loop().create_task(
            self._remote_poll(payload, future)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return Submission(job_hash, "lease_wait", future=future)

    def submit(self, payload: dict, tenant: str = "anonymous") -> Submission:
        """Admit one job payload; never blocks, never raises for policy.

        ``payload`` is a :meth:`~repro.campaigns.spec.JobSpec.payload`
        dict (its ``job_hash`` is recomputed here — the store key is
        what the server derives, not what the client claims).
        """
        if self._pool is None:
            raise RuntimeError("JobManager.start() was not called")
        spec = JobSpec.from_payload(payload)
        job_hash = spec.job_hash
        self.metrics.inc("jobs_submitted")
        self.metrics.observe("queue_depth", len(self._inflight))
        if self.cluster:
            # fold other replicas' completions in first, so their work
            # is answered as cache hits, not re-admitted
            self._refresh_store()

        record = self._completed.get(job_hash)
        if record is not None:
            self.metrics.inc("cache_hits")
            return Submission(job_hash, "cached", record=record)

        future = self._inflight.get(job_hash)
        if future is not None:
            self.metrics.inc("inflight_dedups")
            return Submission(job_hash, "deduplicated", future=future)

        if self.cluster:
            holder = self.claims.peek(job_hash)
            if holder is not None and holder["replica"] != self.replica_id:
                return self._lease_wait(spec.payload())

        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_acquire():
            self.metrics.inc("quota_rejections")
            return Submission(job_hash, "quota_rejected")

        if len(self._inflight) >= self.queue_limit:
            self.metrics.inc("backpressure_rejections")
            return Submission(job_hash, "backpressure_rejected")

        if self.cluster:
            lease = self.claims.acquire(job_hash)
            if lease is None:
                # lost the peek→acquire race to another replica; the
                # tenant shouldn't pay for work that runs elsewhere
                if bucket is not None:
                    bucket.refund()
                return self._lease_wait(spec.payload())
            self._leases[job_hash] = lease

        future = asyncio.get_running_loop().create_future()
        self._inflight[job_hash] = future
        self.metrics.inc("jobs_admitted")
        self._emit(job_hash, "queued", {"tenant": tenant})
        task = asyncio.get_running_loop().create_task(
            self._run_job(spec.payload(), future)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return Submission(job_hash, "accepted", future=future)

    # -- execution -----------------------------------------------------
    async def _heartbeat_loop(self, lease) -> None:
        """Renew one lease at ``ttl/3`` until cancelled or lost.

        Losing a lease (a peer judged us dead and took over) does *not*
        abort our execution — a duplicated deterministic job appends a
        byte-identical record and ok-wins merging keeps one artifact —
        but it is counted (``lease_lost``) and the renewals stop.
        """
        interval = max(self.lease_ttl / 3.0, 0.01)
        while True:
            await asyncio.sleep(interval)
            alive = await asyncio.get_running_loop().run_in_executor(
                None, self.claims.heartbeat, lease
            )
            if not alive:
                self.metrics.inc("lease_lost")
                return

    async def _run_job(self, payload: dict, future: asyncio.Future) -> None:
        job_hash = payload["job_hash"]
        lease = self._leases.get(job_hash)
        heartbeat: Optional[asyncio.Task] = None
        context = None
        if lease is not None:
            heartbeat = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(lease)
            )
            # workers stream step progress into the job's spool
            context = {
                "store_root": str(self.store.root),
                "stride": self.progress_stride,
                "replica": self.replica_id,
            }
        outcome = "failed"
        try:
            self._emit(job_hash, "started", {"attempt": 1})
            record = await self._pool.run(
                payload,
                context=context,
                on_retry=lambda attempt, error: self._emit(
                    job_hash, "retry", {"attempt": attempt, "error": error}
                ),
            )
            sealed = await asyncio.get_running_loop().run_in_executor(
                None, self.store.append, record
            )
            if sealed["status"] == "ok":
                self._completed[job_hash] = sealed
                self.metrics.inc("jobs_executed")
                outcome = "done"
                self._emit(
                    job_hash, "done",
                    {"content_hash": sealed.get("content_hash")},
                )
            else:
                self.metrics.inc("jobs_failed")
                self._emit(job_hash, "failed", {"error": sealed.get("error")})
            if not future.done():
                future.set_result(sealed)
        except asyncio.CancelledError:
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:  # pragma: no cover - defensive
            self.metrics.inc("jobs_failed")
            self._emit(job_hash, "failed", {"error": repr(exc)})
            if not future.done():
                future.set_exception(exc)
        finally:
            self._inflight.pop(job_hash, None)
            if heartbeat is not None:
                heartbeat.cancel()
            if lease is not None and self._leases.pop(job_hash, None):
                # release *after* the store append above: a peer that
                # sees no live lease will find the record when it
                # re-reads the store before attempting takeover
                try:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.claims.release, lease, outcome
                    )
                except OSError:  # pragma: no cover - disk trouble
                    pass

    async def _remote_poll(self, payload: dict, future: asyncio.Future) -> None:
        """Resolve a ``lease_wait`` submission from the shared store.

        Polls the store tail for the remote executor's sealed record;
        when the lease disappears *without* a record the executor died —
        re-read the store once more (release follows append, so a clean
        finish can't be mistaken for a death) and then race the other
        replicas to take the lease over and execute here.
        """
        job_hash = payload["job_hash"]
        loop = asyncio.get_running_loop()
        try:
            while True:
                await asyncio.sleep(self.poll_interval)
                if future.done():
                    return
                self._refresh_store()
                sealed = self._latest.get(job_hash)
                if sealed is not None and sealed.get("status") in (
                    "ok", "failed",
                ):
                    self._inflight.pop(job_hash, None)
                    if not future.done():
                        future.set_result(sealed)
                    return
                holder = await loop.run_in_executor(
                    None, self.claims.peek, job_hash
                )
                if holder is not None:
                    continue  # still executing (or a peer took over)
                self._refresh_store()
                if job_hash in self._latest:
                    continue  # record landed between peek and refresh
                lease = await loop.run_in_executor(
                    None, self.claims.acquire, job_hash
                )
                if lease is None:
                    continue  # another waiter won the takeover race
                self.metrics.inc("lease_takeovers")
                self._leases[job_hash] = lease
                self._emit(
                    job_hash, "queued",
                    {"takeover": True, "replica": self.replica_id},
                )
                await self._run_job(payload, future)
                return
        except asyncio.CancelledError:
            self._inflight.pop(job_hash, None)
            if not future.done():
                future.cancel()
            raise

    # -- introspection -------------------------------------------------
    def record(self, job_hash: str) -> Optional[dict]:
        """The completed artifact for ``job_hash``, if any (in cluster
        mode, including records other replicas appended)."""
        rec = self._completed.get(job_hash)
        if rec is None and self.cluster:
            self._refresh_store()
            rec = self._completed.get(job_hash)
        return rec

    def inflight(self) -> int:
        return len(self._inflight)

    def snapshot(self) -> dict:
        """Service counters/series plus live gauges, for ``/metrics``."""
        snap = self.metrics.snapshot()
        snap["gauges"] = {
            "inflight": len(self._inflight),
            "completed": len(self._completed),
            "subscribers": sum(len(s) for s in self._subscribers.values()),
            "tenants": len(self._buckets),
            "workers": self.workers,
            "queue_limit": self.queue_limit,
        }
        if self.cluster:
            snap["gauges"]["leases_held"] = len(self._leases)
            snap["replica"] = self.replica_id
            if self.tenant_config is not None:
                snap["tenant_config"] = self.tenant_config.snapshot()
        return snap
