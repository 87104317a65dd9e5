"""The HTTP workloads: ``serve-mixed`` and ``serve-cluster``.

One trial launches fresh server harness processes (``harness.py``) over a
fresh store, warms every pool worker, then drives two phases from this
one process, with no threads and never more than :data:`MAX_INFLIGHT`
requests outstanding:

* **fixed rate** — an open loop at :data:`RATE` requests per second.
  Each request is timed from the instant it was due, so a stall that
  holds up later requests shows in their latency too; how late the
  generator itself sent is reported as lag;
* **capacity** — two closed-loop clients, each sending its next request
  as soon as the previous answer arrives; 200-OK answers per second is
  the throughput.

The job mix is 75% ``gossip_sum_job`` and 25% ``phase_statistics_job``,
and 15% of requests re-send a body first sent at least
:data:`REPEAT_GAP` requests earlier, which the store must answer as
``cached``.  In ``serve-cluster`` two replicas share one store, and a
job can go out as a pair, one copy to each replica (a quarter of the jobs
in the fixed-rate phase, every job in the capacity phase): one replica
claims and executes it, the other reads the sealed record from the shared
store or, if it arrives while the job still runs, waits on the lease.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import count, tee
from typing import Optional

import numpy as np

from measure import HERE, SLO_MS, Tracer, percentile
from repro.campaigns.spec import JobSpec, canonical_json
from repro.campaigns.store import ArtifactStore
from repro.cluster.claims import CLAIMS_FILE
from repro.cluster.spool import SPOOL_DIR
from repro.service.loadgen import http_request

CAMPAIGN = "e2e-bench"
GOSSIP = ("repro.service.workload.gossip_sum_job", {"n": 64, "k": 8})
PHASE = ("repro.algorithms.election.phase_statistics_job",
         {"n": 64, "replicas": 16})
#: Share of phase-statistics jobs among first sends.  The fixed-rate
#: latencies have up to three modes: cached answers (about 2 ms), gossip
#: jobs (about 7 ms) and phase jobs (about 25 ms).  A percentile that falls
#: on the edge between two modes jumps from seed to seed, so the shares put
#: the median in the middle of the gossip mode and the 90th percentile in
#: the middle of the phase mode, on both serve workloads.
PHASE_SHARE = 0.25
REPEAT_SHARE = 0.15
#: A repeat re-sends a body first sent at least this many requests
#: earlier, so its first answer is sealed before the repeat arrives.
REPEAT_GAP = 200
#: Requests per second in the fixed-rate phase, second copies of
#: serve-cluster pairs included: a fifth to a third of what the two
#: closed-loop clients get through on a 2-CPU host.  At 200/s a host
#: running 1.7x slower than usual saturated and the backlog grew for the
#: whole phase; at 100/s contention episodes of a few seconds still queued
#: requests into half-second tails.
RATE = 50.0
#: The second copy of a serve-cluster pair is due this long after the
#: first.  Sent together, a copy that must wait on the other replica's
#: lease holds one of the two connections for a 50 ms poll, the open loop
#: backs up, and the share of such waits swings between 8% and 17% with
#: host speed: right where it decides the 90th percentile.
PAIR_GAP_S = 0.05
#: Share of serve-cluster jobs the fixed-rate phase sends as a pair.  A
#: second copy is a cached read: with every job paired, exactly half the
#: requests are cached and the median lies on the edge between the cached
#: and the gossip mode, where it swings between 4 and 9 ms from seed to
#: seed.  The capacity phase pairs every job.
PAIR_SHARE = 0.25
#: The host has 2 CPUs: never more requests in flight than that.
MAX_INFLIGHT = 2
#: Share of a trial's measuring time spent in the fixed-rate phase.
FIXED_SHARE = 0.6
REQUEST_TIMEOUT_S = 10.0
#: One warm-up round per job kind, one job per pool worker: a paced
#: gossip job lasts long enough that every idle worker takes one, and a
#: phase-statistics job imports and lowers the election kernel.
WARMUP = (
    ("repro.service.workload.gossip_sum_job",
     {"n": 64, "k": 8, "pace": 0.05, "extra_rounds": 2}),
    ("repro.algorithms.election.phase_statistics_job",
     {"n": 64, "replicas": 128}),
)
HOST = "127.0.0.1"
WORK = HERE / ".work"


@dataclass(frozen=True)
class Op:
    """One request body.  ``source`` is the position of the op whose body
    a repeat re-sends (None for a first send)."""

    pos: int
    job_hash: str
    body: bytes
    source: Optional[int] = None


def _job(job: str, params: dict, index: int, entropy: int, campaign=CAMPAIGN):
    payload = {
        "campaign": campaign, "job": job, "params": params,
        "seed_index": 0, "index": index, "entropy": entropy,
    }
    return JobSpec(**payload).job_hash, canonical_json(payload).encode("utf-8")


def serve_ops(seed: int):
    """The endless op stream of ``seed``: the same seed gives the same ops."""
    rng = np.random.default_rng([seed, 3])
    entropy = int(rng.integers(2**31))
    firsts: list[Op] = []
    first_pos: list[int] = []
    for pos in count():
        if pos >= REPEAT_GAP and rng.random() < REPEAT_SHARE:
            limit = bisect.bisect_right(first_pos, pos - REPEAT_GAP)
            src = firsts[int(rng.integers(limit))]
            yield Op(pos, src.job_hash, src.body, src.pos)
            continue
        job, params = PHASE if rng.random() < PHASE_SHARE else GOSSIP
        op = Op(pos, *_job(job, params, pos, entropy))
        firsts.append(op)
        first_pos.append(pos)
        yield op


# ----------------------------------------------------------------------
# one request, the two load shapes
# ----------------------------------------------------------------------
async def send(port: int, op: Op, timeout: float = REQUEST_TIMEOUT_S) -> dict:
    """POST one job with ``wait=1``; never raises for a failed request."""
    res = {"pos": op.pos, "port": port, "job_hash": op.job_hash,
           "repeat_of": op.source, "status": None, "outcome": None,
           "error": None}
    try:
        status, headers, body = await http_request(
            HOST, port, "POST", "/jobs?wait=1", op.body,
            headers={"X-Tenant": "bench", "Content-Type": "application/json"},
            timeout=timeout,
        )
    except asyncio.TimeoutError:
        res["error"] = "timeout"
    except OSError as exc:
        res["error"] = f"refused: {exc}"
    else:
        res["status"] = status
        res["outcome"] = headers.get("x-repro-outcome")
        if status == 200:
            record = json.loads(body)
            res["record_status"] = record.get("status")
            res["content_hash"] = record.get("content_hash")
            res["wall_time"] = record.get("wall_time")
    res["done"] = time.monotonic()
    return res


async def open_loop(schedule, sender=send, max_inflight=MAX_INFLIGHT) -> list:
    """Send each ``(due_offset_s, port, op)`` at its due time, with at most
    ``max_inflight`` outstanding; a request waiting for a free slot is
    still timed from its due time."""
    slots = asyncio.Semaphore(max_inflight)

    async def one(due, port, op):
        sent = time.monotonic()
        try:
            res = await sender(port, op)
        finally:
            slots.release()
        res.update(due=due, sent=sent)
        return res

    start = time.monotonic()
    tasks = []
    for offset, port, op in schedule:
        delay = start + offset - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.create_task(one(start + offset, port, op)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(clients, seconds: float, sender=send):
    """Each ``(port, op_iterator)`` client sends its next op as soon as
    the previous answer arrives, until ``seconds`` have passed.  Returns
    ``(results, wall_s)``."""
    start = time.monotonic()
    end = start + seconds

    async def client(port, ops):
        out = []
        while time.monotonic() < end:
            sent = time.monotonic()
            res = await sender(port, next(ops))
            res.update(due=sent, sent=sent)
            out.append(res)
        return out

    per_client = await asyncio.gather(*(client(p, it) for p, it in clients))
    wall = time.monotonic() - start
    return [r for rs in per_client for r in rs], wall


def failure(res: dict) -> Optional[str]:
    """Why a request failed (error, non-200 or a failed record), or None."""
    if res["error"] is not None:
        return res["error"]
    if res["status"] != 200:
        return f"HTTP {res['status']}"
    if res.get("record_status") != "ok":
        return f"record status {res.get('record_status')!r}"
    return None


def slo_hits(results) -> int:
    """Requests answered 200-OK within :data:`SLO_MS` of their due time;
    every failure is a miss."""
    return sum(
        1 for r in results
        if failure(r) is None and (r["done"] - r["due"]) * 1e3 <= SLO_MS
    )


def answer_violations(results) -> list:
    """Correctness of the answers: every request succeeded, every repeat
    was answered ``cached`` with its first answer's content hash, and the
    copies of one job agree."""
    bad = []
    first: dict = {}
    for r in sorted(results, key=lambda r: r["done"]):
        why = failure(r)
        if why is not None:
            bad.append(f"op {r['pos']}: {why}")
            continue
        key = r["pos"] if r["repeat_of"] is None else r["repeat_of"]
        known = first.setdefault(key, r["content_hash"])
        if known != r["content_hash"]:
            bad.append(f"op {r['pos']}: content hash differs from op {key}")
        if r["repeat_of"] is not None and r["outcome"] != "cached":
            bad.append(f"op {r['pos']}: repeat answered {r['outcome']!r}")
    return bad


# ----------------------------------------------------------------------
# harness processes
# ----------------------------------------------------------------------
class Harness:
    """One ``harness.py`` server process."""

    def __init__(self, workdir, store, name, workers, replica_id, trace,
                 workload, trial):
        self.report_path = workdir / f"harness-{name}.json"
        cmd = [
            sys.executable, str(HERE / "harness.py"),
            "--store", str(store), "--report", str(self.report_path),
            "--workers", str(workers), "--workload", workload,
            "--trial", str(trial),
        ]
        if replica_id is not None:
            cmd += ["--replica-id", replica_id]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.port = None

    def wait_port(self) -> int:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server harness exited before listening")
        self.port = json.loads(line)["port"]
        return self.port

    def stop(self) -> dict:
        """SIGTERM, wait, and return the harness report (``{}`` if none)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        try:
            return json.loads(self.report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}


async def _get_json(port: int, path: str):
    status, _, body = await http_request(HOST, port, "GET", path, timeout=10.0)
    return status, (json.loads(body) if status == 200 else None)


async def _wait_healthy(ports, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    for port in ports:
        while True:
            try:
                status, health = await _get_json(port, "/healthz")
                if status == 200 and health.get("pool") == "ok":
                    break
            except (OSError, asyncio.TimeoutError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"harness on port {port} never got healthy")
            await asyncio.sleep(0.02)


async def _warm_up(ports, workers: int, entropy: int) -> list:
    """One round per job kind, one job for each pool worker."""
    hashes = []
    for kind, (job, params) in enumerate(WARMUP):
        ops = []
        for slot in range(workers):
            job_hash, body = _job(job, params, kind * workers + slot, entropy,
                                  campaign="e2e-warmup")
            ops.append((ports[slot % len(ports)], Op(-1, job_hash, body)))
            hashes.append(job_hash)
        answers = await asyncio.gather(*(send(p, op) for p, op in ops))
        bad = [failure(a) for a in answers if failure(a) is not None]
        if bad:
            raise RuntimeError(f"warm-up job failed: {bad[0]}")
    return hashes


# ----------------------------------------------------------------------
# one trial
# ----------------------------------------------------------------------
def run_trial(workload: str, seed: int, trial: int, seconds: float,
              traced: bool) -> dict:
    """One fresh-server trial of a serve workload; returns its record."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{os.getpid()}-{workload}-{trial}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return asyncio.run(
            _trial(workload, seed, trial, seconds, traced, workdir)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


async def _trial(workload, seed, trial, seconds, traced, workdir) -> dict:
    cluster = workload == "serve-cluster"
    store = workdir / "store"
    launch = time.monotonic()
    if cluster:
        harnesses = [
            Harness(workdir, store, rid, 1, rid, traced, workload, trial)
            for rid in ("rA", "rB")
        ]
    else:
        harnesses = [Harness(workdir, store, "r0", 2, None, traced, workload,
                             trial)]
    reports = []
    try:
        ports = [h.wait_port() for h in harnesses]
        await _wait_healthy(ports)
        warm = await _warm_up(ports, 2, seed)
        setup_s = time.monotonic() - launch

        ops = serve_ops(seed)
        fixed_s = seconds * FIXED_SHARE
        if cluster:  # replicas take turns to get a job's first copy
            pairs = np.random.default_rng([seed, 4])
            spacing = (1 + PAIR_SHARE) / RATE
            schedule = []
            for j in range(int(fixed_s / spacing)):
                op, due = next(ops), j * spacing
                schedule.append((due, ports[j % 2], op))
                if pairs.random() < PAIR_SHARE:
                    schedule.append((due + PAIR_GAP_S, ports[1 - j % 2], op))
            schedule.sort(key=lambda item: item[0])
        else:
            schedule = [(i / RATE, ports[0], next(ops))
                        for i in range(int(fixed_s * RATE))]
        fixed = await open_loop(schedule)

        if cluster:  # both clients walk the same pairs, one copy each
            clients = list(zip(ports, tee(ops, len(ports))))
        else:
            clients = [(ports[0], ops)] * MAX_INFLIGHT
        capacity, cap_wall = await closed_loop(clients, seconds - fixed_s)

        snapshots = [(await _get_json(p, "/metrics"))[1] for p in ports]
    finally:
        for h in harnesses:
            reports.append(h.stop())

    results = fixed + capacity
    violations = answer_violations(results)
    violations += _store_violations(store, results, warm, snapshots)
    out = {
        "setup_s": setup_s,
        "latencies_ms": [
            (r["done"] - r["due"]) * 1e3 for r in fixed if failure(r) is None
        ],
        "slo_hits": slo_hits(fixed),
        "slo_total": len(fixed),
        "ops_per_s": sum(1 for r in capacity if failure(r) is None) / cap_wall,
        "attempted": len(results),
        "failed": sum(1 for r in results if failure(r) is not None)
        + len(violations),
        "violations": violations[:20],
        "peak_rss_mb": sum(
            rep.get("self_rss_mb", 0.0) + rep.get("child_rss_mb", 0.0)
            for rep in reports
        ),
    }
    if traced:
        spans = [s for rep in reports for s in rep.get("spans", ())]
        out["layers"] = serve_layers(
            fixed, capacity, spans, _summed_counters(snapshots), store)
        out["spans"] = spans + _client_spans(results, workload, trial)
    return out


def _summed_counters(snapshots) -> dict:
    total: dict = {}
    for snap in snapshots:
        for name, value in (snap or {}).get("counters", {}).items():
            total[name] = total.get(name, 0) + value
    return total


def _store_violations(store, results, warm, snapshots) -> list:
    """After the trial: every sealed record verifies, exactly the unique
    jobs sent are complete, each ran once, and no lease was taken over."""
    bad = []
    st = ArtifactStore(store)
    corrupt = st.verify()
    if corrupt:
        bad.append(f"store.verify() found {len(corrupt)} corrupt records")
    unique = {r["job_hash"] for r in results} | set(warm)
    done = st.completed_hashes()
    if done != unique:
        bad.append(
            f"store holds {len(done)} completed jobs, {len(unique)} were sent"
        )
    counters = _summed_counters(snapshots)
    if counters.get("jobs_executed", 0) != len(unique):
        bad.append(
            f"{counters.get('jobs_executed', 0)} executions for "
            f"{len(unique)} unique jobs"
        )
    if counters.get("lease_takeovers", 0):
        bad.append(f"{counters['lease_takeovers']} lease takeovers")
    return bad


# ----------------------------------------------------------------------
# per-layer metrics of a traced trial
# ----------------------------------------------------------------------
def _client_spans(results, workload, trial) -> list:
    tracer = Tracer(workload, trial)
    for r in results:
        tracer.op_id = r["pos"]
        tracer.record(
            "loadgen.request", int(r["sent"] * 1e9), int(r["done"] * 1e9),
            job_hash=r["job_hash"], port=r["port"], outcome=r["outcome"],
        )
    return tracer.spans


def _ms(spans, name) -> list:
    return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
            if s["name"] == name]


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


def serve_layers(fixed, capacity, spans, counters, store) -> dict:
    """Per-layer metrics of one traced serve trial.

    Server spans are joined to the request that caused them by replica
    port and job hash: the k-th admission of a hash on a replica belongs
    to the k-th request for that hash sent to that replica.
    """
    results = fixed + capacity
    ok = [r for r in results if failure(r) is None]
    n_ops = max(1, len(results))
    appends = {
        s["job_hash"]: s for s in spans if s["name"] == "campaigns.store_append"
    }
    admits: dict = {}
    for s in sorted(spans, key=lambda s: s["start_ns"]):
        if s["name"] == "service.admit":
            admits.setdefault((s["port"], s["job_hash"]), []).append(s)
    requests: dict = {}
    for r in sorted(results, key=lambda r: r["sent"]):
        requests.setdefault((r["port"], r["job_hash"]), []).append(r)

    execute, dispatch, http_ms = [], [], []
    for key, reqs in requests.items():
        for r, adm in zip(reqs, admits.get(key, ())):
            if failure(r) is not None:
                continue
            if adm["outcome"] == "accepted" and r["job_hash"] in appends:
                app = appends[r["job_hash"]]
                wall_ms = r["wall_time"] * 1e3
                execute.append(wall_ms)
                dispatch.append((app["start_ns"] - adm["end_ns"]) / 1e6 - wall_ms)
                ready_ns = app["end_ns"]
            elif adm["outcome"] == "cached":
                ready_ns = adm["end_ns"]
            else:
                continue
            server_ms = (ready_ns - adm["start_ns"]) / 1e6
            http_ms.append((r["done"] - r["sent"]) * 1e3 - server_ms)

    def client_ms(outcome):
        return [(r["done"] - r["sent"]) * 1e3 for r in ok
                if r["outcome"] == outcome]

    def p50(name):
        return percentile(_ms(spans, name), 0.5)

    appended = _ms(spans, "campaigns.store_append")
    spool = store / SPOOL_DIR
    return {
        "campaigns.execute_ms_p50": percentile(execute, 0.5),
        "campaigns.dispatch_ms_p50": percentile(dispatch, 0.5),
        "campaigns.dispatch_ms_p90": percentile(dispatch, 0.9),
        "campaigns.store_append_ms_p50": percentile(appended, 0.5),
        "campaigns.store_append_ms_p90": percentile(appended, 0.9),
        "campaigns.store_bytes_per_op": _file_bytes(
            [store / ArtifactStore.ARTIFACTS_FILE]) / n_ops,
        "service.admit_ms_p50": p50("service.admit"),
        "service.http_ms_p50": percentile(http_ms, 0.5),
        "service.cache_hit_frac": len(client_ms("cached")) / n_ops,
        "service.outcome_ms_p50.accepted": percentile(client_ms("accepted"), 0.5),
        "service.outcome_ms_p50.cached": percentile(client_ms("cached"), 0.5),
        "service.outcome_ms_p50.lease_wait": percentile(
            client_ms("lease_wait"), 0.5),
        "cluster.claim_acquire_ms_p50": p50("cluster.claim_acquire"),
        "cluster.claim_peek_ms_p50": p50("cluster.claim_peek"),
        "cluster.claim_release_ms_p50": p50("cluster.claim_release"),
        "cluster.store_tail_ms_p50": p50("cluster.store_tail"),
        "cluster.store_tail_calls_per_op": len(
            _ms(spans, "cluster.store_tail")) / n_ops,
        "cluster.lease_wait_frac": len(client_ms("lease_wait")) / n_ops,
        "cluster.lease_wait_ms_p50": percentile(client_ms("lease_wait"), 0.5),
        "cluster.claims_bytes_per_op": _file_bytes(
            [store / CLAIMS_FILE]) / n_ops,
        "cluster.spool_bytes_per_op": _file_bytes(
            spool.glob("*.jsonl") if spool.is_dir() else ()) / n_ops,
        "cluster.lease_takeovers": counters.get("lease_takeovers", 0),
        "loadgen.lag_ms_p99": percentile(
            [(r["sent"] - r["due"]) * 1e3 for r in fixed], 0.99),
        "loadgen.latency_ms_p99": percentile(
            [(r["done"] - r["due"]) * 1e3 for r in fixed
             if failure(r) is None], 0.99),
    }
