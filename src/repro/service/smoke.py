"""End-to-end service smoke check (the CI gate).

Boots a real ``python -m repro serve`` subprocess on a free port with a
temporary store, then asserts the full serving loop:

1. ``POST /jobs?wait=1`` of a small gossip job answers ``200`` with a
   sealed ``status="ok"`` record (outcome ``accepted``).
2. ``GET /jobs/<hash>/events`` streams typed SSE frames ending in a
   terminal ``done``/``cached`` event.
3. Re-submitting the identical spec answers ``200`` with outcome
   ``cached`` and a byte-identical body — the store dedupe path.
4. ``GET /metrics`` shows ``cache_hits >= 1`` and zero store
   corruption (``verify()`` finds nothing).
5. After ``SIGTERM`` the server's child processes (the pool's workers
   and the multiprocessing resource tracker) exit with it.

Run it locally with ``python -m repro.service.smoke``; exit code 0 means
the service serves.
"""

from __future__ import annotations

import asyncio
import json
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.campaigns.spec import canonical_json
from repro.campaigns.store import ArtifactStore
from repro.service.loadgen import http_request

__all__ = ["run_smoke", "main"]


def _child_pids(pid: int) -> list[int]:
    """The direct children of ``pid``: ``/proc/<pid>/task/*/children``, or
    on kernels built without that file, every process whose PPid is
    ``pid``."""
    files = list(Path(f"/proc/{pid}/task").glob("*/children"))
    if files:
        return sorted({int(c) for f in files for c in f.read_text().split()})
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if ppid == pid:
            kids.append(int(stat.parent.name))
    return sorted(kids)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie waiting for its reaper is gone."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _sse_frames(host, port, path, *, timeout=60.0) -> list[dict]:
    """Collect every ``data:`` frame of one SSE response until close."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close"
            "\r\n\r\n".encode("latin-1")
        )
        await writer.drain()

        async def read_frames():
            status_line = await reader.readline()
            assert b"200" in status_line, status_line
            frames = []
            while True:
                line = await reader.readline()
                if not line or line.startswith(b"event: end"):
                    return frames
                if line.startswith(b"data: "):
                    frames.append(json.loads(line[len(b"data: "):]))

        return await asyncio.wait_for(read_frames(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _wait_healthy(host, port, *, budget=30.0) -> None:
    deadline = time.monotonic() + budget
    while True:
        try:
            status, _, _ = await http_request(host, port, "GET", "/healthz")
            if status == 200:
                return
        except (ConnectionError, OSError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"server on {host}:{port} never became healthy")
        await asyncio.sleep(0.2)


async def run_smoke(store_dir: str) -> dict:
    """The checks; returns a small report dict, raises on any failure."""
    host, port = "127.0.0.1", _free_port()
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", host, "--port", str(port),
            "--store", store_dir, "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        await _wait_healthy(host, port)
        payload = {
            "campaign": "service-smoke",
            "job": "repro.service.workload.gossip_sum_job",
            "params": {"n": 16, "k": 4},
            "entropy": 2006,
        }
        body = canonical_json(payload).encode("utf-8")

        status, headers, first = await http_request(
            host, port, "POST", "/jobs?wait=1", body,
            headers={"X-Tenant": "smoke"},
        )
        assert status == 200, (status, first)
        assert headers.get("x-repro-outcome") == "accepted", headers
        record = json.loads(first)
        assert record["status"] == "ok", record
        job_hash = record["job_hash"]

        frames = await _sse_frames(host, port, f"/jobs/{job_hash}/events")
        assert frames, "no SSE frames streamed"
        assert all(f.get("type") == "job" for f in frames), frames
        assert frames[-1]["status"] in ("done", "cached"), frames

        status, headers, second = await http_request(
            host, port, "POST", "/jobs?wait=1", body,
            headers={"X-Tenant": "smoke"},
        )
        assert status == 200, (status, second)
        assert headers.get("x-repro-outcome") == "cached", headers
        assert second == first, "cached response is not byte-identical"

        status, _, metrics_body = await http_request(
            host, port, "GET", "/metrics"
        )
        assert status == 200
        counters = json.loads(metrics_body)["counters"]
        assert counters.get("cache_hits", 0) >= 1, counters

        bad = ArtifactStore(store_dir).verify()
        assert bad == [], f"corrupted artifacts: {bad}"
        return {
            "job_hash": job_hash,
            "sse_frames": len(frames),
            "counters": counters,
        }
    finally:
        children = _child_pids(server.pid)
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung server
            server.kill()
            server.wait()
        # the resource tracker exits once the last holder of its pipe has
        # gone, a moment after the server itself
        deadline = time.monotonic() + 10.0
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.1)
        orphans = [pid for pid in children if _alive(pid)]
        assert not orphans, f"server children outlived SIGTERM: {orphans}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        report = asyncio.run(run_smoke(str(Path(tmp) / "store")))
    print("service smoke OK:", json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
