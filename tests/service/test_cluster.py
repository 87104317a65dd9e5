"""Cluster-layer tests: claim leases, event spools, tenant config reload,
and multi-replica coordination over one shared store.

Like the service tests, the replicas here are thread-backed JobManagers
living in one process — the coordination substrate (claims.jsonl, the
event spool, the artifact store) is all on-disk and replica-agnostic, so
the logic cannot tell.  One opt-in slow test and the CI cluster smoke
(``python -m repro.cluster.smoke``) cover real ``repro serve``
subprocesses and a real SIGKILL.
"""

import asyncio
import json
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaigns.spec import JobSpec, canonical_json
from repro.campaigns.store import ArtifactStore
from repro.cluster.claims import ClaimLedger, append_jsonl_line
from repro.cluster.config import TenantQuotaConfig
from repro.cluster.spool import EventSpool, SpoolProgress
from repro.runtime.telemetry import JobEvent, StepProgressEvent
from repro.service.http import serve
from repro.service.jobs import JobManager
from repro.service.loadgen import _parse_target, http_request


def _threaded_manager(store_dir, **kwargs) -> JobManager:
    """A JobManager whose pool runs on threads — admission logic can't
    tell."""
    return JobManager(store_dir, executor_factory=ThreadPoolExecutor, **kwargs)


def _payload(**overrides) -> dict:
    base = {
        "campaign": "cluster-test",
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


def _hash_of(payload: dict) -> str:
    return JobSpec.from_payload(payload).job_hash


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


# ----------------------------------------------------------------------
# claim ledger: the lease state machine
# ----------------------------------------------------------------------
class TestClaimLedger:
    def _pair(self, root, now, ttl=10.0):
        clock = lambda: now[0]
        return (
            ClaimLedger(root, "a", ttl=ttl, clock=clock),
            ClaimLedger(root, "b", ttl=ttl, clock=clock),
        )

    def test_live_lease_blocks_other_replicas(self, tmp_path):
        now = [0.0]
        a, b = self._pair(tmp_path, now)
        lease = a.acquire("h")
        assert lease is not None and lease.replica == "a"
        assert b.acquire("h") is None
        holder = b.peek("h")
        assert holder["replica"] == "a" and not holder["released"]

    def test_holder_may_reacquire_its_own_hash(self, tmp_path):
        now = [0.0]
        a, _ = self._pair(tmp_path, now)
        assert a.acquire("h") is not None
        assert a.acquire("h") is not None  # same replica, not a conflict

    def test_heartbeat_extends_the_deadline(self, tmp_path):
        now = [0.0]
        a, b = self._pair(tmp_path, now, ttl=10.0)
        lease = a.acquire("h")
        now[0] = 8.0
        assert a.heartbeat(lease)  # deadline is now 18.0
        now[0] = 15.0
        assert b.acquire("h") is None  # would be stale without the renewal
        now[0] = 18.0
        assert b.acquire("h") is not None  # renewed deadline passed

    def test_stale_lease_takeover_and_lost_heartbeat(self, tmp_path):
        now = [0.0]
        a, b = self._pair(tmp_path, now, ttl=5.0)
        dead = a.acquire("h")
        now[0] = 6.0  # a's deadline (5.0) has passed
        won = b.acquire("h")
        assert won is not None and won.replica == "b"
        # the superseded holder learns it on the next renewal...
        assert not a.heartbeat(dead)
        # ...and its late release must not unseat the new holder
        a.release(dead)
        assert b.heartbeat(won)

    def test_release_makes_the_hash_reclaimable(self, tmp_path):
        now = [0.0]
        a, b = self._pair(tmp_path, now)
        lease = a.acquire("h")
        a.release(lease, outcome="done")
        assert b.peek("h") is None
        assert b.acquire("h") is not None

    def test_fresh_ledger_replays_the_file(self, tmp_path):
        now = [0.0]
        a, _ = self._pair(tmp_path, now)
        a.acquire("h")
        late = ClaimLedger(tmp_path, "late", ttl=10.0, clock=lambda: now[0])
        assert late.acquire("h") is None
        assert late.peek("h")["replica"] == "a"

    def test_torn_tail_is_repaired_and_skipped(self, tmp_path):
        now = [0.0]
        path = tmp_path / "claims.jsonl"
        # a writer killed mid-append: final line has no newline and no
        # closing brace — it must neither block nor corrupt the ledger
        path.write_bytes(b'{"kind":"claim","job_hash":"h","lease":"torn"')
        a, b = self._pair(tmp_path, now)
        assert a.acquire("h") is not None
        assert path.read_bytes().endswith(b"\n")
        assert b.peek("h")["replica"] == "a"

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ClaimLedger(tmp_path, "a", ttl=0.0)

    def test_append_jsonl_line_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "x.jsonl"
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, b'{"torn": tr')  # no trailing newline
            append_jsonl_line(fd, b'{"ok": 1}')
        finally:
            os.close(fd)
        assert path.read_bytes() == b'{"torn": tr\n{"ok": 1}\n'


def _race_acquire(root, index, barrier, queue):
    ledger = ClaimLedger(root, f"proc{index}", ttl=60.0)
    barrier.wait()
    lease = ledger.acquire("contended")
    queue.put(lease is not None)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_concurrent_claims_have_exactly_one_winner(tmp_path):
    """Eight processes race one flock'd acquire: exactly one may win."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(8)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_race_acquire, args=(tmp_path, i, barrier, queue))
        for i in range(8)
    ]
    for proc in procs:
        proc.start()
    wins = [queue.get(timeout=30) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
    assert sum(wins) == 1


# ----------------------------------------------------------------------
# event spool
# ----------------------------------------------------------------------
class TestEventSpool:
    def test_roundtrip_and_incremental_cursor(self, tmp_path):
        spool = EventSpool(tmp_path)
        spool.append("h", JobEvent(job_hash="h", status="queued"))
        spool.append(
            "h",
            StepProgressEvent(
                job_hash="h", step=3, active_fraction=0.5,
                counters={"rounds": 3}, replica="r0",
            ),
        )
        events, offset = spool.read("h")
        assert [type(e).__name__ for e in events] == [
            "JobEvent", "StepProgressEvent",
        ]
        assert events[1].step == 3 and events[1].counters == {"rounds": 3}
        again, offset2 = spool.read("h", offset)
        assert again == [] and offset2 == offset
        spool.append("h", JobEvent(job_hash="h", status="done"))
        more, _ = spool.read("h", offset)
        assert len(more) == 1 and more[0].terminal

    def test_missing_spool_reads_empty(self, tmp_path):
        assert EventSpool(tmp_path).read("nothing") == ([], 0)

    def test_unknown_tags_and_garbage_are_skipped(self, tmp_path):
        spool = EventSpool(tmp_path)
        spool.path("x").write_bytes(
            b'{"type": "mystery", "job_hash": "x"}\n'
            b"not json at all\n"
            b'{"type": "job", "job_hash": "x", "status": "queued"}\n'
        )
        events, _ = spool.read("x")
        assert len(events) == 1
        assert isinstance(events[0], JobEvent) and events[0].status == "queued"

    def test_spool_progress_stride_and_pickling(self, tmp_path):
        progress = SpoolProgress(tmp_path, "job", stride=3, replica="r1")
        # it must cross the worker pickle boundary with its state intact
        progress = pickle.loads(pickle.dumps(progress))
        for step in range(7):
            progress(step, active_fraction=step / 10.0, counters={"s": step})
        events, _ = EventSpool(tmp_path).read("job")
        assert [e.step for e in events] == [0, 3, 6]
        assert all(e.replica == "r1" and e.job_hash == "job" for e in events)

    def test_spool_progress_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SpoolProgress(tmp_path, "job", stride=0)


# ----------------------------------------------------------------------
# tenant quota config
# ----------------------------------------------------------------------
class TestTenantQuotaConfig:
    def test_lookup_override_then_default(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({
            "default": {"burst": 2, "rate": 1.0},
            "tenants": {"alice": {"burst": 9}},
        }))
        config = TenantQuotaConfig(path)
        assert config.lookup("alice") == (9.0, 0.0)
        assert config.lookup("bob") == (2.0, 1.0)
        assert config.generation == 1 and config.last_error is None

    def test_mtime_edit_reloads_and_bumps_generation(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({"default": {"burst": 1}}))
        config = TenantQuotaConfig(path)
        assert config.lookup("t") == (1.0, 0.0)
        path.write_text(json.dumps({"default": {"burst": 7, "rate": 2.0}}))
        stamp = time.time() + 10
        os.utime(path, (stamp, stamp))
        assert config.lookup("t") == (7.0, 2.0)
        assert config.generation == 2

    def test_malformed_edit_keeps_previous_config(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({"default": {"burst": 3}}))
        config = TenantQuotaConfig(path)
        path.write_text('{"default": {"burst": -1}}')
        stamp = time.time() + 10
        os.utime(path, (stamp, stamp))
        assert config.lookup("t") == (3.0, 0.0)  # bad edit did not land
        assert config.last_error is not None
        assert config.generation == 1

    def test_missing_file_means_unmetered(self, tmp_path):
        config = TenantQuotaConfig(tmp_path / "absent.json")
        assert config.lookup("anyone") is None
        assert config.last_error is not None

    def test_toml_spelling(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "quotas.toml"
        path.write_text(
            "[default]\nburst = 4\nrate = 0.5\n"
            "[tenants.batch]\nburst = 1\n"
        )
        config = TenantQuotaConfig(path)
        assert config.lookup("batch") == (1.0, 0.0)
        assert config.lookup("other") == (4.0, 0.5)


# ----------------------------------------------------------------------
# loadgen target parsing (round-robin plumbing)
# ----------------------------------------------------------------------
class TestLoadgenTargets:
    def test_parse_target_forms(self):
        assert _parse_target("9000") == ("127.0.0.1", 9000)
        assert _parse_target("10.0.0.7:9000") == ("10.0.0.7", 9000)
        assert _parse_target("9000", "myhost") == ("myhost", 9000)


# ----------------------------------------------------------------------
# two replicas over one store (thread-backed)
# ----------------------------------------------------------------------
def _cluster_pair(store_root, **kwargs):
    a = _threaded_manager(store_root, replica_id="rA", poll_interval=0.01, **kwargs)
    b = _threaded_manager(store_root, replica_id="rB", poll_interval=0.01, **kwargs)
    a.start()
    b.start()
    return a, b


class TestClusterManagers:
    def test_duplicates_across_replicas_execute_once(self, tmp_path):
        async def go():
            a, b = _cluster_pair(tmp_path / "store")
            try:
                first = a.submit(_gossip_payload())
                second = b.submit(_gossip_payload())  # lease held by rA
                third = b.submit(_gossip_payload())  # dedupes onto rB's wait
                assert first.outcome == "accepted"
                assert second.outcome == "lease_wait"
                assert third.outcome == "deduplicated"
                records = list(await asyncio.gather(
                    asyncio.wait_for(first.result(), 15),
                    asyncio.wait_for(second.result(), 15),
                    asyncio.wait_for(third.result(), 15),
                ))
                fourth = a.submit(_gossip_payload())
                assert fourth.outcome == "cached"
                records.append(await fourth.result())
                # every answer is the same canonical record, byte for byte
                assert len({canonical_json(r) for r in records}) == 1

                combined: dict = {}
                for manager in (a, b):
                    for name, value in manager.snapshot()["counters"].items():
                        combined[name] = combined.get(name, 0) + value
                # 4 submissions, 1 execution: the cluster-wide invariant
                assert combined["jobs_executed"] == 1
                assert (
                    combined.get("cache_hits", 0)
                    + combined.get("inflight_dedups", 0)
                    + combined.get("lease_waits", 0)
                ) == 3
                assert ArtifactStore(tmp_path / "store").verify() == []
            finally:
                await a.close()
                await b.close()

        asyncio.run(go())

    def test_stale_lease_takeover_executes_locally(self, tmp_path):
        async def go():
            store_root = tmp_path / "store"
            store_root.mkdir()
            # a "replica" that claimed the job and then died silently
            ghost = ClaimLedger(store_root, "ghost", ttl=0.2)
            payload = _gossip_payload()
            assert ghost.acquire(_hash_of(payload)) is not None

            b = _threaded_manager(store_root, replica_id="rB", poll_interval=0.01)
            b.start()
            try:
                submission = b.submit(_gossip_payload())
                assert submission.outcome == "lease_wait"
                record = await asyncio.wait_for(submission.result(), 15)
                assert record["status"] == "ok"
                counters = b.snapshot()["counters"]
                assert counters.get("lease_takeovers") == 1
                assert counters.get("jobs_executed") == 1
                assert ArtifactStore(store_root).verify() == []
            finally:
                await b.close()

        asyncio.run(go())

    def test_step_progress_visible_from_non_executor(self, tmp_path):
        async def go():
            a, b = _cluster_pair(tmp_path / "store")
            try:
                payload = _gossip_payload(extra_rounds=3)
                job_hash = _hash_of(payload)
                queue, cleanup = b.subscribe_any(job_hash)
                submission = a.submit(payload)
                assert submission.outcome == "accepted"
                events = []
                try:
                    while True:
                        event = await asyncio.wait_for(queue.get(), 15)
                        if event is None:
                            break
                        events.append(event)
                finally:
                    cleanup()
                steps = [
                    e for e in events if isinstance(e, StepProgressEvent)
                ]
                assert steps, "no per-step progress reached the peer replica"
                assert all(e.job_hash == job_hash for e in steps)
                assert all(e.replica == "rA" for e in steps)
                terminals = [
                    e for e in events
                    if isinstance(e, JobEvent) and e.terminal
                ]
                assert terminals and terminals[-1].status == "done"
                record = await asyncio.wait_for(submission.result(), 15)
                assert record["status"] == "ok"
            finally:
                await a.close()
                await b.close()

        asyncio.run(go())

    def test_paced_job_result_is_pace_invariant(self, tmp_path, monkeypatch):
        """pace/progress are observability knobs — same estimate out."""
        import numpy as np

        from repro.service.workload import gossip_sum_job

        plain = gossip_sum_job(rng=np.random.default_rng(5), n=12, k=4)
        paced = gossip_sum_job(
            rng=np.random.default_rng(5), n=12, k=4,
            pace=0.001, extra_rounds=2,
            progress=SpoolProgress(tmp_path, "h"),
        )
        assert paced == plain

    def test_tenant_config_hot_reload_drops_buckets(self, tmp_path):
        quota_path = tmp_path / "quotas.json"
        quota_path.write_text(json.dumps({"default": {"burst": 1}}))

        async def go():
            manager = _threaded_manager(
                tmp_path / "store", replica_id="rQ", poll_interval=0.01,
                tenant_config=TenantQuotaConfig(quota_path),
            )
            manager.start()
            try:
                first = manager.submit(_gossip_payload(), tenant="t")
                assert first.outcome == "accepted"
                second = manager.submit(_gossip_payload(n=14), tenant="t")
                assert second.outcome == "quota_rejected"
                # one file edit retunes the live replica: cached buckets
                # are dropped when the generation moves
                quota_path.write_text(json.dumps({"default": {"burst": 5}}))
                stamp = time.time() + 10
                os.utime(quota_path, (stamp, stamp))
                third = manager.submit(_gossip_payload(n=14), tenant="t")
                assert third.outcome == "accepted"
                await asyncio.wait_for(first.result(), 15)
                await asyncio.wait_for(third.result(), 15)
            finally:
                await manager.close()

        asyncio.run(go())


# ----------------------------------------------------------------------
# HTTP surfaces of cluster mode
# ----------------------------------------------------------------------
class TestClusterHTTP:
    def test_healthz_reports_pool_identity_and_replica(self, tmp_path):
        manager = _threaded_manager(tmp_path / "store", replica_id="r7")

        async def scenario(port):
            status, _, body = await http_request(
                "127.0.0.1", port, "GET", "/healthz"
            )
            assert status == 200
            health = json.loads(body)
            assert health["ok"] is True
            assert health["pool"] == "ok"
            assert health["replica"] == "r7"
            assert health["store_identity"] == manager.store.identity()
            assert health["workers"] == manager.workers
            assert health["inflight"] == 0
            return True

        assert asyncio.run(_with_server(manager, scenario))

    def test_lease_wait_maps_to_202_and_waits_byte_identically(self, tmp_path):
        async def go():
            store_root = tmp_path / "store"
            a = _threaded_manager(store_root, replica_id="rA", poll_interval=0.01)
            b = _threaded_manager(store_root, replica_id="rB", poll_interval=0.01)
            a.start()
            b.start()
            server = await serve(b, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                payload = _gossip_payload(pace=0.02, extra_rounds=25)
                held = a.submit(payload)
                assert held.outcome == "accepted"
                body = canonical_json({
                    k: v for k, v in payload.items() if k != "job_hash"
                }).encode()
                status, headers, _ = await http_request(
                    "127.0.0.1", port, "POST", "/jobs", body,
                    headers={"Content-Type": "application/json"},
                )
                assert status == 202
                assert headers["x-repro-outcome"] == "lease_wait"
                status2, headers2, resp2 = await http_request(
                    "127.0.0.1", port, "POST", "/jobs?wait=1", body
                )
                assert status2 == 200
                assert headers2["x-repro-outcome"] in (
                    "lease_wait", "deduplicated", "cached"
                )
                record = await asyncio.wait_for(held.result(), 15)
                # rB answered from the shared store with the exact bytes
                # rA's executor sealed
                assert resp2 == (canonical_json(record) + "\n").encode()
            finally:
                server.close()
                await server.wait_closed()
                await a.close()
                await b.close()

        asyncio.run(go())

    def test_sse_from_non_executor_carries_step_progress(self, tmp_path):
        async def go():
            store_root = tmp_path / "store"
            a = _threaded_manager(store_root, replica_id="rA", poll_interval=0.01)
            b = _threaded_manager(store_root, replica_id="rB", poll_interval=0.01)
            a.start()
            b.start()
            server = await serve(b, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                payload = _gossip_payload(pace=0.01, extra_rounds=10)
                job_hash = _hash_of(payload)
                submission = a.submit(payload)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET /jobs/{job_hash}/events HTTP/1.1\r\n"
                    "Host: x\r\n\r\n".encode()
                )
                await writer.drain()
                buf = b""
                while b"event: end" not in buf:
                    chunk = await asyncio.wait_for(reader.read(4096), 15)
                    if not chunk:
                        break
                    buf += chunk
                writer.close()
                assert b'"type": "step_progress"' in buf
                assert b'"status": "done"' in buf
                record = await asyncio.wait_for(submission.result(), 15)
                assert record["status"] == "ok"
            finally:
                server.close()
                await server.wait_closed()
                await a.close()
                await b.close()

        asyncio.run(go())

    def test_sse_keepalive_comment_frames_on_idle_stream(self, tmp_path):
        manager = _threaded_manager(tmp_path / "store", sse_keepalive=0.05)
        slow = _payload(
            job="repro.campaigns.testing.hanging_job",
            params={"value": 1, "hang_values": [1], "sleep": 0.4},
        )
        slow["job_hash"] = _hash_of(slow)

        async def scenario(port):
            submission = manager.submit(slow)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"GET /jobs/{slow['job_hash']}/events HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode()
            )
            await writer.drain()
            buf = b""
            while b"event: end" not in buf:
                chunk = await asyncio.wait_for(reader.read(1024), 15)
                if not chunk:
                    break
                buf += chunk
            writer.close()
            # the 0.4 s hang spans several 0.05 s idle windows
            assert b": keep-alive\n\n" in buf
            assert b'"status": "done"' in buf
            record = await asyncio.wait_for(submission.result(), 15)
            assert record["status"] == "ok"
            return True

        assert asyncio.run(_with_server(manager, scenario))


# ----------------------------------------------------------------------
# real processes, real SIGKILL (opt-in)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestClusterTorture:
    def test_sigkill_mid_job_triggers_takeover(self, tmp_path):
        from repro.campaigns.runner import execute_job
        from repro.cluster.supervisor import ClusterSupervisor

        payload = _gossip_payload(pace=0.03, extra_rounds=60)
        body = canonical_json({
            k: v for k, v in payload.items() if k != "job_hash"
        }).encode()

        async def go():
            supervisor = ClusterSupervisor(
                str(tmp_path / "store"), replicas=2,
                port=19000 + os.getpid() % 500,
                workers=1, lease_ttl=1.0,
            )
            supervisor.start()
            try:
                assert await supervisor.wait_healthy(60)
                ports = [supervisor.replica_port(0), supervisor.replica_port(1)]

                async def submit(port):
                    try:
                        return await http_request(
                            "127.0.0.1", port, "POST", "/jobs?wait=1",
                            body, timeout=120,
                        )
                    except (
                        OSError,
                        asyncio.IncompleteReadError,
                        IndexError,  # EOF before a status line
                        ValueError,
                    ):
                        return None  # the killed replica's socket died

                task_a = asyncio.ensure_future(submit(ports[0]))
                await asyncio.sleep(0.5)
                task_b = asyncio.ensure_future(submit(ports[1]))
                await asyncio.sleep(1.0)
                supervisor.kill_replica(0)  # machine death mid-execution
                answer = await asyncio.wait_for(task_b, 120)
                await task_a
                assert answer is not None
                status, _, resp = answer
                assert status == 200
                record = json.loads(resp)
                assert record["status"] == "ok"
                metrics = await supervisor.cluster_metrics()
                assert metrics["alive"] == 1
                assert metrics["counters"].get("lease_takeovers", 0) >= 1
                assert ArtifactStore(tmp_path / "store").verify() == []
                return record

            finally:
                supervisor.stop()

        record = asyncio.run(go())
        # the survivor's re-execution matches a clean single-process run
        local = execute_job(JobSpec.from_payload(payload).payload())
        assert local["status"] == "ok"
        assert local["result"] == record["result"]
