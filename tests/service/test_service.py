"""Service-level determinism, dedupe, quota and SSE-cancellation tests.

The heavy lifting happens on a thread-backed executor (the manager's
``executor_factory`` in place of the spawn pool) so the
admission/dedupe/streaming logic is exercised at full speed.  The pool's
failure paths (a timeout kill beside a healthy sibling, a crashing
worker) need real processes and run on the spawn pool; so do one opt-in
slow test and the CI smoke script (``python -m repro.service.smoke``).
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaigns.runner import JobPool, run_campaign
from repro.campaigns.spec import CampaignSpec, JobSpec, canonical_json
from repro.campaigns.store import ArtifactStore, deterministic_view
from repro.runtime.telemetry import EventStream, JobEvent, MetricsRegistry
from repro.service.http import serve
from repro.service.jobs import JobManager, TokenBucket
from repro.service.loadgen import http_request
from repro.service.workload import gossip_campaign_spec, gossip_sum_job


def _threaded_manager(store_dir, **kwargs) -> JobManager:
    """A JobManager whose pool runs on threads: same executor protocol,
    no process startup cost — the admission logic cannot tell."""
    return JobManager(store_dir, executor_factory=ThreadPoolExecutor, **kwargs)


def _payload(**overrides) -> dict:
    base = {
        "campaign": "svc-test",
        "job": "repro.campaigns.testing.ok_job",
        "params": {"value": 1, "draws": 4},
        "seed_index": 0,
        "index": 0,
        "entropy": 11,
        "job_hash": "",
    }
    base.update(overrides)
    return base


def _gossip_payload(**params) -> dict:
    merged = {"n": 12, "k": 4}
    merged.update(params)
    return _payload(
        job="repro.service.workload.gossip_sum_job", params=merged
    )


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(2, 1.0, clock=lambda: now[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()  # burst exhausted
        now[0] = 1.5
        assert bucket.try_acquire()  # 1.5 tokens refilled
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(3, 10.0, clock=lambda: now[0])
        now[0] = 100.0
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_zero_rate_is_a_fixed_budget(self):
        now = [0.0]
        bucket = TokenBucket(1, 0.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        now[0] = 1e9
        assert not bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1, -1.0)


# ----------------------------------------------------------------------
# gossip workload
# ----------------------------------------------------------------------
class TestGossipWorkload:
    def test_deterministic_under_equal_seed(self):
        import numpy as np

        a = gossip_sum_job(rng=np.random.default_rng(7), n=20, k=8)
        b = gossip_sum_job(rng=np.random.default_rng(7), n=20, k=8)
        assert a == b

    def test_estimates_the_sum(self):
        import numpy as np

        out = gossip_sum_job(rng=np.random.default_rng(1), n=24, k=256)
        assert out["converged"]
        # k=256 draws: relative error concentrates near 1/sqrt(k) ~ 6%
        assert out["rel_error"] < 0.4
        assert out["rounds"] >= 1

    def test_validation(self):
        import numpy as np

        with pytest.raises(ValueError):
            gossip_sum_job(rng=np.random.default_rng(0), n=1)
        with pytest.raises(ValueError):
            gossip_sum_job(rng=np.random.default_rng(0), k=0)

    def test_campaign_spec_expands_to_seeded_replicates(self):
        spec = gossip_campaign_spec(jobs=5, n=16, k=4)
        jobs = spec.expand()
        assert len(jobs) == 5
        assert len({j.job_hash for j in jobs}) == 5
        assert all(j.params == {"n": 16, "k": 4} for j in jobs)


# ----------------------------------------------------------------------
# typed job events
# ----------------------------------------------------------------------
class TestJobEvents:
    def test_round_trips_through_the_event_stream(self):
        stream = EventStream()
        stream.emit(JobEvent(job_hash="abc", status="queued"))
        stream.emit(
            JobEvent(job_hash="abc", status="done", detail={"content_hash": "x"})
        )
        text = stream.dumps()
        loaded = EventStream.loads(text)
        assert loaded.dumps() == text
        assert [e.status for e in loaded] == ["queued", "done"]
        assert isinstance(loaded.events[0], JobEvent)

    def test_terminal_statuses(self):
        assert JobEvent("h", "done").terminal
        assert JobEvent("h", "cached").terminal
        assert JobEvent("h", "failed").terminal
        assert not JobEvent("h", "queued").terminal
        assert not JobEvent("h", "retry").terminal


# ----------------------------------------------------------------------
# the job pool
# ----------------------------------------------------------------------
def _run_on_pool(pool: JobPool, payload: dict, **kwargs) -> dict:
    async def go():
        try:
            return await pool.run(payload, **kwargs)
        finally:
            pool.close()

    return asyncio.run(go())


class TestJobPool:
    def test_ok_path(self):
        record = _run_on_pool(JobPool(2, ThreadPoolExecutor), _payload_with_hash())
        assert record["status"] == "ok"
        assert record["attempts"] == 1

    def test_retries_with_async_backoff(self, tmp_path):
        payload = _payload_with_hash(
            job="repro.campaigns.testing.flaky_job",
            params={"value": 3, "fail_first": 2, "scratch_dir": str(tmp_path)},
        )
        retried = []
        record = _run_on_pool(
            JobPool(2, ThreadPoolExecutor, retries=3, backoff=0.001),
            payload,
            on_retry=lambda attempt, error: retried.append(attempt),
        )
        assert record["status"] == "ok"
        assert record["attempts"] == 3  # two injected flakes + success
        assert retried == [1, 2]
        assert (tmp_path / "attempts-3").read_text() == "3"

    def test_exhausted_budget_reports_error(self):
        payload = _payload_with_hash(
            job="repro.campaigns.testing.erroring_job",
            params={"value": 9, "fail_values": [9]},
        )
        record = _run_on_pool(
            JobPool(2, ThreadPoolExecutor, retries=1, backoff=0.0), payload
        )
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert "injected failure" in record["error"]

    def test_broken_pool_on_submit_costs_no_attempt(self):
        """A submit that finds the pool already broken never ran the job:
        the pool is rebuilt and the attempt is not charged."""

        class BrokenExecutor(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("broken by an unreported crash")

        factories = iter([BrokenExecutor, ThreadPoolExecutor])
        metrics = MetricsRegistry()
        pool = JobPool(
            1, lambda workers: next(factories)(workers), metrics=metrics
        )
        record = _run_on_pool(pool, _payload_with_hash())
        assert record["status"] == "ok"
        assert record["attempts"] == 1
        assert metrics.counters["pool_rebuilds"] == 1


def _payload_with_hash(**overrides) -> dict:
    payload = _payload(**overrides)
    payload["job_hash"] = JobSpec.from_payload(payload).job_hash
    return payload


# ----------------------------------------------------------------------
# job manager: dedupe, determinism, quotas, backpressure
# ----------------------------------------------------------------------
class TestJobManager:
    def test_sequential_resubmission_is_a_cache_hit(self, tmp_path):
        async def go():
            manager = _threaded_manager(tmp_path / "store")
            manager.start()
            first = manager.submit(_gossip_payload())
            record1 = await first.result()
            second = manager.submit(_gossip_payload())
            record2 = await second.result()
            await manager.close()
            return first, record1, second, record2

        first, record1, second, record2 = asyncio.run(go())
        assert first.outcome == "accepted"
        assert second.outcome == "cached"
        # bitwise-identical responses: same canonical JSON, same hash
        assert canonical_json(record1) == canonical_json(record2)
        store = ArtifactStore(tmp_path / "store")
        lines = [
            ln for ln in
            store.artifacts_path.read_text().splitlines() if ln.strip()
        ]
        assert len(lines) == 1  # exactly one execution reached the store

    def test_concurrent_identical_submissions_share_one_execution(self, tmp_path):
        N = 6

        async def go():
            manager = _threaded_manager(tmp_path / "store")
            manager.start()
            subs = [manager.submit(_gossip_payload()) for _ in range(N)]
            records = await asyncio.gather(*(s.result() for s in subs))
            counters = dict(manager.metrics.counters)
            await manager.close()
            return subs, records, counters

        subs, records, counters = asyncio.run(go())
        assert counters["jobs_submitted"] == N
        assert counters.get("jobs_admitted", 0) == 1
        # the acceptance identity: everything after the first submission
        # was answered without executing
        assert (
            counters.get("cache_hits", 0) + counters.get("inflight_dedups", 0)
            == N - 1
        )
        bodies = {canonical_json(r) for r in records}
        assert len(bodies) == 1  # bitwise-identical responses
        store = ArtifactStore(tmp_path / "store")
        assert len(store.completed_hashes()) == 1
        assert store.verify() == []

    def test_artifact_is_byte_identical_to_run_campaign(self, tmp_path):
        """Service execution and batch execution of one spec produce the
        same content-addressed artifact."""
        spec = CampaignSpec(
            name="svc-vs-batch",
            job="repro.service.workload.gossip_sum_job",
            fixed={"n": 14, "k": 4},
            seeds=1,
            entropy=99,
        )
        result = run_campaign(spec, tmp_path / "batch", workers=0)
        assert result.ok
        batch_record = next(
            iter(ArtifactStore(tmp_path / "batch").records().values())
        )

        async def go():
            manager = _threaded_manager(tmp_path / "serve")
            manager.start()
            sub = manager.submit(spec.expand()[0].payload())
            record = await sub.result()
            await manager.close()
            return record

        service_record = asyncio.run(go())
        assert service_record["job_hash"] == batch_record["job_hash"]
        assert service_record["content_hash"] == batch_record["content_hash"]
        assert canonical_json(
            deterministic_view(service_record)
        ) == canonical_json(deterministic_view(batch_record))

    def test_per_tenant_quota(self, tmp_path):
        async def go():
            manager = _threaded_manager(
                tmp_path / "store", quota_burst=2, quota_rate=0.0
            )
            manager.start()
            outcomes_a = [
                manager.submit(_payload(index=i), tenant="a").outcome
                for i in range(4)
            ]
            outcome_b = manager.submit(_payload(index=50), tenant="b").outcome
            counters = dict(manager.metrics.counters)
            await manager.close()
            return outcomes_a, outcome_b, counters

        outcomes_a, outcome_b, counters = asyncio.run(go())
        assert outcomes_a == [
            "accepted", "accepted", "quota_rejected", "quota_rejected"
        ]
        assert outcome_b == "accepted"  # buckets are per tenant
        assert counters["quota_rejections"] == 2

    def test_cached_hits_are_not_charged_to_the_quota(self, tmp_path):
        async def go():
            manager = _threaded_manager(
                tmp_path / "store", quota_burst=1, quota_rate=0.0
            )
            manager.start()
            first = manager.submit(_gossip_payload(), tenant="t")
            await first.result()
            # budget is exhausted, but replays of completed work are free
            outcomes = [
                manager.submit(_gossip_payload(), tenant="t").outcome
                for _ in range(3)
            ]
            await manager.close()
            return first.outcome, outcomes

        first_outcome, outcomes = asyncio.run(go())
        assert first_outcome == "accepted"
        assert outcomes == ["cached"] * 3

    def test_backpressure_bounds_admissions(self, tmp_path):
        async def go():
            manager = _threaded_manager(tmp_path / "store", queue_limit=2)
            manager.start()
            outcomes = [
                manager.submit(
                    _payload(
                        job="repro.campaigns.testing.hanging_job",
                        params={"value": i, "hang_values": [i], "sleep": 0.3},
                        index=i,
                    )
                ).outcome
                for i in range(4)
            ]
            counters = dict(manager.metrics.counters)
            # drain so close() has nothing to cancel mid-write
            await asyncio.gather(
                *(f for f in manager._inflight.values()),
                return_exceptions=True,
            )
            await manager.close()
            return outcomes, counters

        outcomes, counters = asyncio.run(go())
        assert outcomes[:2] == ["accepted", "accepted"]
        assert outcomes[2:] == [
            "backpressure_rejected", "backpressure_rejected"
        ]
        assert counters["backpressure_rejections"] == 2
        assert counters["jobs_admitted"] == 2

    def test_failed_job_records_and_events(self, tmp_path):
        payload = _payload(
            job="repro.campaigns.testing.erroring_job",
            params={"value": 5, "fail_values": [5]},
        )

        async def go():
            manager = _threaded_manager(tmp_path / "store", retries=1, backoff=0.0)
            manager.start()
            sub = manager.submit(payload)
            record = await sub.result()
            statuses = [e.status for e in manager.stream(sub.job_hash)]
            counters = dict(manager.metrics.counters)
            await manager.close()
            return record, statuses, counters

        record, statuses, counters = asyncio.run(go())
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert statuses[0] == "queued" and statuses[-1] == "failed"
        assert "retry" in statuses
        assert counters["jobs_failed"] == 1
        # the failure is in the store, and does not count as completed
        store = ArtifactStore(tmp_path / "store")
        assert store.completed_hashes() == set()
        assert len(store.records()) == 1

    def test_completed_jobs_survive_a_restart(self, tmp_path):
        async def run_one():
            manager = _threaded_manager(tmp_path / "store")
            manager.start()
            sub = manager.submit(_gossip_payload())
            record = await sub.result()
            await manager.close()
            return sub.outcome, record

        first_outcome, record1 = asyncio.run(run_one())
        second_outcome, record2 = asyncio.run(run_one())
        assert (first_outcome, second_outcome) == ("accepted", "cached")
        assert canonical_json(record1) == canonical_json(record2)

    def test_late_subscriber_to_a_completed_job_terminates(self, tmp_path):
        async def go():
            manager = _threaded_manager(tmp_path / "store")
            manager.start()
            sub = manager.submit(_gossip_payload())
            await sub.result()
            queue = manager.subscribe(sub.job_hash)
            events = []
            while True:
                event = await asyncio.wait_for(queue.get(), 5)
                if event is None:
                    break
                events.append(event)
            await manager.close()
            return events

        events = asyncio.run(go())
        assert events[-1].status == "done"


# ----------------------------------------------------------------------
# HTTP layer over real sockets
# ----------------------------------------------------------------------
async def _with_server(manager, fn):
    manager.start()
    server = await serve(manager, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await fn(port)
    finally:
        server.close()
        await server.wait_closed()
        await manager.close()


class TestHTTP:
    def test_submit_wait_then_cached_is_byte_identical(self, tmp_path):
        body = canonical_json(
            {
                "campaign": "http-test",
                "job": "repro.service.workload.gossip_sum_job",
                "params": {"n": 12, "k": 4},
                "entropy": 3,
            }
        ).encode()

        async def scenario(port):
            first = await http_request(
                "127.0.0.1", port, "POST", "/jobs?wait=1", body
            )
            second = await http_request(
                "127.0.0.1", port, "POST", "/jobs?wait=1", body
            )
            return first, second

        (s1, h1, b1), (s2, h2, b2) = asyncio.run(
            _with_server(_threaded_manager(tmp_path / "store"), scenario)
        )
        assert (s1, s2) == (200, 200)
        assert h1["x-repro-outcome"] == "accepted"
        assert h2["x-repro-outcome"] == "cached"
        assert b1 == b2  # byte-identical across executed/cached
        record = json.loads(b1)
        assert record["status"] == "ok"

    def test_concurrent_http_submissions_share_one_execution(self, tmp_path):
        N = 5
        body = canonical_json(
            {
                "campaign": "http-test",
                "job": "repro.service.workload.gossip_sum_job",
                "params": {"n": 12, "k": 4},
                "entropy": 4,
            }
        ).encode()
        manager = _threaded_manager(tmp_path / "store")

        async def scenario(port):
            return await asyncio.gather(
                *(
                    http_request(
                        "127.0.0.1", port, "POST", "/jobs?wait=1", body
                    )
                    for _ in range(N)
                )
            )

        responses = asyncio.run(_with_server(manager, scenario))
        assert all(status == 200 for status, _, _ in responses)
        assert len({resp_body for _, _, resp_body in responses}) == 1
        counters = manager.metrics.counters
        assert (
            counters.get("cache_hits", 0) + counters.get("inflight_dedups", 0)
            == N - 1
        )
        assert len(ArtifactStore(tmp_path / "store").completed_hashes()) == 1

    def test_sse_disconnect_mid_stream_does_not_poison_the_pool(self, tmp_path):
        """A client that vanishes mid-SSE must neither cancel the job it
        was watching nor break later submissions."""
        manager = _threaded_manager(tmp_path / "store")
        slow = _payload(
            job="repro.campaigns.testing.hanging_job",
            params={"value": 1, "hang_values": [1], "sleep": 0.4},
        )

        async def scenario(port):
            submission = manager.submit(slow)
            job_hash = submission.job_hash
            # open the SSE stream, read one frame, vanish without closing
            # the HTTP exchange properly
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"GET /jobs/{job_hash}/events HTTP/1.1\r\nHost: x\r\n\r\n"
                .encode()
            )
            await writer.drain()
            await reader.readline()  # status line arrives => stream is live
            writer.transport.abort()  # hard disconnect, no goodbye
            # the watched job still completes
            record = await asyncio.wait_for(submission.result(), 10)
            assert record["status"] == "ok"
            # the pool still takes new work
            follow_up = manager.submit(_gossip_payload())
            follow_record = await asyncio.wait_for(follow_up.result(), 10)
            assert follow_record["status"] == "ok"
            # and the dead client's subscription was reaped
            for _ in range(50):
                if not manager._subscribers:
                    break
                await asyncio.sleep(0.05)
            assert not manager._subscribers
            return True

        assert asyncio.run(_with_server(manager, scenario))

    def test_campaign_submission_expands_server_side(self, tmp_path):
        spec = gossip_campaign_spec(jobs=3, n=12, k=4, entropy=17)
        body = json.dumps(spec.to_dict()).encode()

        async def scenario(port):
            return await http_request(
                "127.0.0.1", port, "POST", "/campaigns?wait=1", body
            )

        status, _, resp = asyncio.run(
            _with_server(_threaded_manager(tmp_path / "store"), scenario)
        )
        assert status == 200
        summary = json.loads(resp)
        assert summary["total"] == 3
        assert summary["ok"] == 3
        assert summary["outcomes"] == {"accepted": 3}
        assert len(ArtifactStore(tmp_path / "store").completed_hashes()) == 3

    def test_error_codes(self, tmp_path):
        async def scenario(port):
            results = {}
            results["bad_json"] = await http_request(
                "127.0.0.1", port, "POST", "/jobs", b"{nope"
            )
            results["bad_field"] = await http_request(
                "127.0.0.1", port, "POST", "/jobs",
                json.dumps({"job": "x.y", "bogus": 1}).encode(),
            )
            results["unknown_job"] = await http_request(
                "127.0.0.1", port, "GET", "/jobs/" + "0" * 64
            )
            results["unknown_route"] = await http_request(
                "127.0.0.1", port, "GET", "/frobnicate"
            )
            results["wrong_method"] = await http_request(
                "127.0.0.1", port, "GET", "/jobs"
            )
            return results

        results = asyncio.run(
            _with_server(_threaded_manager(tmp_path / "store"), scenario)
        )
        assert results["bad_json"][0] == 400
        assert results["bad_field"][0] == 400
        assert results["unknown_job"][0] == 404
        assert results["unknown_route"][0] == 404
        assert results["wrong_method"][0] == 405

    def test_quota_rejection_surfaces_as_429(self, tmp_path):
        manager = _threaded_manager(
            tmp_path / "store", quota_burst=1, quota_rate=0.0
        )

        async def scenario(port):
            out = []
            for i in range(2):
                body = canonical_json(_payload(index=i)).encode()
                out.append(
                    await http_request(
                        "127.0.0.1", port, "POST", "/jobs?wait=1", body,
                        headers={"X-Tenant": "t"},
                    )
                )
            return out

        (s1, _, _), (s2, h2, _) = asyncio.run(_with_server(manager, scenario))
        assert s1 == 200
        assert s2 == 429
        assert h2["x-repro-outcome"] == "quota_rejected"

    def test_healthz_and_metrics(self, tmp_path):
        async def scenario(port):
            health = await http_request("127.0.0.1", port, "GET", "/healthz")
            metrics = await http_request("127.0.0.1", port, "GET", "/metrics")
            return health, metrics

        (hs, _, hb), (ms, _, mb) = asyncio.run(
            _with_server(_threaded_manager(tmp_path / "store"), scenario)
        )
        assert hs == 200 and json.loads(hb)["ok"] is True
        assert ms == 200
        snap = json.loads(mb)
        assert "counters" in snap and "gauges" in snap


# ----------------------------------------------------------------------
# the real spawn pool (opt-in: slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_spawn_pool_end_to_end(tmp_path):
    """One submission through the real process pool — no monkeypatching."""

    async def go():
        manager = JobManager(tmp_path / "store", workers=1)
        manager.start()
        sub = manager.submit(_gossip_payload())
        record = await asyncio.wait_for(sub.result(), 120)
        await manager.close()
        return record

    record = asyncio.run(go())
    assert record["status"] == "ok"
    assert ArtifactStore(tmp_path / "store").verify() == []


# ----------------------------------------------------------------------
# the pool's failure paths through JobManager, on the real spawn pool
# ----------------------------------------------------------------------
class TestSpawnPoolFailurePaths:
    def test_timeout_spares_the_sibling_still_in_budget(self, tmp_path):
        """A hung job's timeout kills the pool under a healthy sibling.
        The sibling is resubmitted with a fresh timer and no attempt
        charged, so it is sealed ok even with retries=0, and the one
        break costs one rebuild."""
        hung = _payload(
            job="repro.campaigns.testing.hanging_job",
            params={"value": 1, "hang_values": [1]},
            index=1,
        )
        sibling = _payload(
            job="repro.campaigns.testing.hanging_job",
            params={"value": 2, "hang_values": [2], "sleep": 2.0},
            index=2,
        )

        async def go():
            manager = JobManager(
                tmp_path / "store", workers=2, retries=0, timeout=4.0
            )
            manager.start()
            try:
                first = manager.submit(hung)
                # the sibling starts 2.5 s in and sleeps 2 s, so it is
                # still running when the hung job's 4 s budget runs out
                await asyncio.sleep(2.5)
                second = manager.submit(sibling)
                records = await asyncio.wait_for(
                    asyncio.gather(first.result(), second.result()), 60
                )
                return records, dict(manager.metrics.counters)
            finally:
                await manager.close()

        (hung_record, sibling_record), counters = asyncio.run(go())
        assert sibling_record["status"] == "ok"
        assert sibling_record["attempts"] == 1
        assert hung_record["status"] == "failed"
        assert "timeout" in hung_record["error"]
        assert counters["pool_rebuilds"] == 1
        statuses = {
            r["params"]["value"]: r["status"]
            for r in ArtifactStore(tmp_path / "store").records().values()
        }
        assert statuses == {1: "failed", 2: "ok"}

    def test_crash_costs_attempts_and_one_rebuild_per_break(self, tmp_path):
        payload = _payload(
            job="repro.campaigns.testing.crashing_job",
            params={"value": 3, "crash_values": [3]},
            index=3,
        )

        async def go():
            manager = JobManager(tmp_path / "store", retries=1, backoff=0.0)
            manager.start()
            try:
                sub = manager.submit(payload)
                record = await asyncio.wait_for(sub.result(), 60)
                statuses = [e.status for e in manager.stream(sub.job_hash)]
                return record, statuses, dict(manager.metrics.counters)
            finally:
                await manager.close()

        record, statuses, counters = asyncio.run(go())
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert "died" in record["error"] or "broken" in record["error"]
        # the worker died on both attempts: two breaks, two rebuilds
        assert counters["pool_rebuilds"] == 2
        assert statuses == ["queued", "started", "retry", "failed"]
