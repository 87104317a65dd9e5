"""Server harness for the serve workloads: one ``repro serve`` process.

Builds :class:`repro.service.jobs.JobManager` and
:func:`repro.service.http.serve` the way ``python -m repro serve`` does,
binds an ephemeral port, prints ``{"port": N}`` on stdout and serves until
SIGTERM.  It then shuts the pool down, waits for every pool worker to end
and writes a JSON report to ``--report``: its own peak RSS, the peak RSS of
its largest pool worker and, with ``--trace``, the server-side spans.

With ``--trace`` the harness wraps, on the live manager object, the calls
the per-layer metrics time: ``submit`` (admission), ``store.append`` and
``store.tail_records`` (the artifact store), and ``claims.acquire`` /
``peek`` / ``release`` (the cluster claim ledger).  Without it nothing is
wrapped.

Run by ``serve.py``; standalone::

    PYTHONPATH=src python benchmarks/e2e/harness.py --store DIR --report R.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import resource
import signal
import sys
import time
from time import monotonic_ns

from measure import Tracer


def _wrap(tracer: Tracer, name: str, fn, key=None):
    """``fn`` recording one span per call, tagged with ``key(args)``."""

    def timed(*args, **kwargs):
        start = monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tags = key(args) if key is not None else {}
            tracer.record(name, start, monotonic_ns(), **tags)

    return timed


def install_tracing(manager, tracer: Tracer) -> None:
    """Wrap the manager's layer entry points so each call leaves a span."""
    submit = manager.submit

    def traced_submit(payload, tenant="anonymous"):
        start = monotonic_ns()
        sub = submit(payload, tenant=tenant)
        tracer.record(
            "service.admit", start, monotonic_ns(),
            job_hash=sub.job_hash, outcome=sub.outcome,
        )
        return sub

    manager.submit = traced_submit
    store = manager.store
    store.append = _wrap(
        tracer, "campaigns.store_append", store.append,
        lambda a: {"job_hash": a[0].get("job_hash")},
    )
    store.tail_records = _wrap(tracer, "cluster.store_tail", store.tail_records)
    if manager.claims is not None:
        claims = manager.claims
        claims.acquire = _wrap(
            tracer, "cluster.claim_acquire", claims.acquire,
            lambda a: {"job_hash": a[0]},
        )
        claims.peek = _wrap(
            tracer, "cluster.claim_peek", claims.peek,
            lambda a: {"job_hash": a[0]},
        )
        claims.release = _wrap(
            tracer, "cluster.claim_release", claims.release,
            lambda a: {"job_hash": a[0].job_hash},
        )


def _wait_for_children(timeout: float) -> None:
    """Reap every pool worker, so RUSAGE_CHILDREN covers them all."""
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)


async def _serve(args) -> dict:
    from repro.service.http import serve
    from repro.service.jobs import JobManager

    manager = JobManager(
        args.store, workers=args.workers, replica_id=args.replica_id
    )
    tracer = Tracer(workload=args.workload, trial=args.trial)
    if args.trace:
        install_tracing(manager, tracer)
    manager.start()
    server = await serve(manager, "127.0.0.1", 0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await manager.close()
    for span in tracer.spans:  # which replica: requests are joined by port
        span["port"] = port
    return {"spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--replica-id", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", default="")
    parser.add_argument("--trial", type=int, default=0)
    args = parser.parse_args(argv)

    report = asyncio.run(_serve(args))
    _wait_for_children(30.0)
    report["self_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["child_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
