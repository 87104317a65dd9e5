"""Command-line runner: ``python -m repro <demo|campaign> [args]``.

A minimal text UI over the example scenarios — the role the paper's Java
applet played — plus the campaign orchestrator front end.

Demos (append ``--seed S`` to re-seed the randomized ones):

* ``two-coloring [n]``     — 2-colour a cycle of n nodes (default 8)
* ``census [n]``           — Flajolet–Martin estimate on G(n, p)
* ``walk [moves]``         — emergent random walk on the Petersen graph
* ``traversal [n]``        — Milgram traversal of a random graph
* ``election [n]``         — local-rule leader election
* ``firing-squad [n]``     — space-time diagram of the path firing squad
* ``equivalence``          — a Theorem 3.7 conversion round trip

Campaigns (sharded parallel experiment sweeps, ``repro.campaigns``):

* ``campaign run    (--spec FILE | --preset NAME) --store DIR [--jobs N]
  [--no-resume]`` — execute a campaign into an artifact store
* ``campaign resume --store DIR [--jobs N]`` — continue an interrupted
  campaign from its own stored spec
* ``campaign status --store DIR`` — completion census of a store
* ``campaign presets`` — list the built-in campaign presets

``--jobs N`` sets the worker-process count (``0`` = in-process
sequential; default = the scheduler-visible CPU count).

Serving (asyncio HTTP/SSE front door, ``repro.service``):

* ``serve --store DIR [--host H] [--port P] [--workers N]
  [--queue-limit N] [--quota-burst B --quota-rate R]`` — accept
  JobSpec/CampaignSpec submissions over HTTP, dedupe them against the
  artifact store, and stream job progress as Server-Sent Events.
  Cluster flags (``--replica-id R``) add store-level claim leases,
  per-step event spooling (``--progress-stride``), a shared tenant
  quota file (``--tenants``) and SO_REUSEPORT binding (``--reuse-port``)

Cluster (multi-replica serving over one store, ``repro.cluster``):

* ``cluster --store DIR --replicas N [--port P] [--lease-ttl S]
  [--tenants FILE] [--reuse-port]`` — spawn N ``serve`` replicas over
  one shared store (supervisor on P, replicas on P+1…), aggregate
  their metrics at ``/cluster/metrics``, and tear them down on Ctrl-C

Exit codes:

* ``0`` — success (campaign: every job completed)
* ``1`` — usage error: unknown demo/subcommand, bad flags, unknown
  preset, unreadable spec file
* ``2`` — campaign failure: the store directory is missing, belongs to a
  different campaign (identity mismatch), or holds a corrupt/tampered
  spec — always a one-line message, never a traceback — or the campaign
  finished but some jobs exhausted their retry budget (completed work is
  in the store; rerun to retry the rest)
"""

from __future__ import annotations

import sys
from typing import Optional


def _two_coloring(n: int = 8, seed: Optional[int] = None) -> None:
    from repro.algorithms import two_coloring
    from repro.network import generators

    net = generators.cycle_graph(n)
    res = two_coloring.run_two_coloring(net, origin=0)
    verdict = (
        "FAILED (odd cycle)" if two_coloring.failed(res.final_state) else "2-coloured"
    )
    print(f"C{n}: {verdict} in {res.steps} rounds ({res.engine} engine)")
    print({v: res.final_state[v] for v in net})


def _census(n: int = 64, seed: Optional[int] = None) -> None:
    from repro.algorithms import census
    from repro.network import generators

    seed = 1 if seed is None else seed
    net = generators.connected_gnp_graph(n, min(0.9, 4.0 / n + 0.05), seed)
    res = census.run_census(net, rng=seed)
    print(f"n = {n}; estimate = {census.estimate(res.final_state[0]):.1f} "
          f"(diffused in {res.steps} rounds, {res.engine} engine)")


def _walk(moves: int = 25, seed: Optional[int] = None) -> None:
    from repro.algorithms.random_walk import run_walk
    from repro.network import generators

    net = generators.petersen_graph()
    obs = run_walk(net, 0, moves=moves, rng=0 if seed is None else seed)
    print(" -> ".join(map(str, obs.positions)))
    print(f"mean rounds/move: {sum(obs.steps_per_move) / len(obs.steps_per_move):.1f}")


def _traversal(n: int = 12, seed: Optional[int] = None) -> None:
    from repro.algorithms.traversal import run_traversal
    from repro.network import generators

    seed = 2 if seed is None else seed
    net = generators.connected_gnp_graph(n, min(0.9, 4.0 / n + 0.1), seed)
    run = run_traversal(net, 0, rng=seed)
    print(f"hand moves: {run.hand_moves} (2n-2 = {2 * n - 2}); steps: {run.steps}")
    print(" -> ".join(map(str, run.hand_positions)))


def _election(n: int = 8, seed: Optional[int] = None) -> None:
    from repro.algorithms.election import run_until_elected
    from repro.network import generators

    seed = 3 if seed is None else seed
    net = generators.connected_gnp_graph(n, min(0.9, 5.0 / n), seed)
    res = run_until_elected(net, rng=seed)
    print(f"leader: node {res.leader} after {res.steps} synchronous steps")


def _firing_squad(n: int = 12, seed: Optional[int] = None) -> None:
    from repro.algorithms.firing_squad import space_time_diagram

    for t, frame in enumerate(space_time_diagram(n)):
        print(f"t={t:3d}  {frame}")


def _equivalence(seed: Optional[int] = None) -> None:
    from repro.core.convert import (
        modthresh_to_parallel,
        sequential_to_modthresh,
    )
    from repro.core.multiset import iter_multisets
    from repro.core.sequential import SequentialProgram

    sp = SequentialProgram(
        frozenset(range(3)), 0, lambda w, q: min(w + (q == "x"), 2),
        lambda w: w >= 2, name="two-or-more-x",
    )
    mt = sequential_to_modthresh(sp, ["x", "y"])
    pp = modthresh_to_parallel(mt, ["x", "y"])
    print(f"sequential '{sp.name}' -> {len(mt.clauses)}+1 mod-thresh clauses "
          f"-> parallel with |W| = {len(pp.working_states)}")
    agree = all(
        sp.evaluate(ms) == mt.evaluate(ms) == pp.evaluate(ms)
        for ms in iter_multisets(["x", "y"], 5)
    )
    print(f"all three agree on every multiset up to size 5: {agree}")


_DEMOS = {
    "two-coloring": _two_coloring,
    "census": _census,
    "walk": _walk,
    "traversal": _traversal,
    "election": _election,
    "firing-squad": _firing_squad,
    "equivalence": _equivalence,
}


# ----------------------------------------------------------------------
# campaign subcommand
# ----------------------------------------------------------------------
def _campaign_presets() -> dict:
    from repro.campaigns import CampaignSpec

    return {
        # tiny grid for CI smoke runs: ~8 jobs, seconds of work
        "smoke": CampaignSpec(
            name="smoke",
            job="repro.algorithms.election.phase_statistics_job",
            grid={"n": [8, 16]},
            fixed={"replicas": 8, "max_steps": 2_000},
            seeds=2,
            entropy=2006,
            timeout=300.0,
            retries=2,
        ),
        # the Claim 4.1 ~log2(n) phase sweep (E19's workload)
        "election-phases": CampaignSpec(
            name="election-phases",
            job="repro.algorithms.election.phase_statistics_job",
            grid={"n": [32, 64, 128, 256]},
            fixed={"replicas": 64, "max_steps": 10_000},
            seeds=4,
            entropy=2006,
            timeout=600.0,
            retries=2,
        ),
        # k-sensitivity kernel sweep under random decreasing faults (E14)
        "fault-sweep": CampaignSpec(
            name="fault-sweep",
            job="repro.sensitivity.harness.fault_sweep_job",
            grid={"n": [16, 24, 32], "num_faults": [2, 4, 8]},
            fixed={"replicas": 8, "fault_window": 6},
            seeds=4,
            entropy=14,
            timeout=600.0,
            retries=2,
        ),
        # accuracy-vs-churn-rate resilience curve for the election kernel
        # (E22): one grid column per curve point, aggregated by rate
        "churn-resilience": CampaignSpec(
            name="churn-resilience",
            job="repro.sensitivity.harness.churn_resilience_job",
            grid={"n": [16, 24, 32], "num_events": [0, 2, 4, 8]},
            fixed={"replicas": 8, "churn_window": 8, "p_up": 0.4},
            seeds=4,
            entropy=22,
            timeout=600.0,
            retries=2,
        ),
        # tiny churn grid for the CI smoke-campaign step: ~6 jobs
        "churn-smoke": CampaignSpec(
            name="churn-smoke",
            job="repro.sensitivity.harness.churn_resilience_job",
            grid={"num_events": [0, 3, 6]},
            fixed={
                "n": 16, "replicas": 4, "churn_window": 6, "p_up": 0.4,
                "max_steps": 2_000,
            },
            seeds=2,
            entropy=22,
            timeout=300.0,
            retries=2,
        ),
    }


def _print_progress(event: str, info: dict) -> None:
    if event == "campaign_start":
        print(
            f"campaign: {info['total']} jobs "
            f"({info['skipped']} already done, {info['pending']} to run, "
            f"{info['workers']} workers)"
        )
    elif event == "job_done":
        print(f"  done   {info['job_hash'][:12]}")
    elif event == "job_retry":
        print(
            f"  retry  {info['job_hash'][:12]} "
            f"(attempt {info['attempt']}: {info.get('error')})"
        )
    elif event == "job_failed":
        print(f"  FAILED {info['job_hash'][:12]}")
    elif event == "campaign_end":
        print(
            f"campaign: {info['executed']} executed, {info['failed']} failed "
            f"in {info['wall_time']:.2f}s"
        )


def _campaign_main(argv: list[str]) -> int:
    import argparse
    import json

    from repro.campaigns import (
        ArtifactStore,
        CampaignSpec,
        StoreMismatchError,
        run_campaign,
        write_summary,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Sharded parallel experiment sweeps (repro.campaigns).",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p_run = sub.add_parser("run", help="execute a campaign into a store")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="path to a CampaignSpec JSON file")
    src.add_argument("--preset", help="built-in campaign name (see presets)")
    p_run.add_argument("--store", required=True, help="artifact directory")
    p_run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (0 = in-process sequential; default: CPUs)",
    )
    p_run.add_argument(
        "--no-resume", action="store_true",
        help="re-execute jobs even if a completed artifact exists",
    )
    p_run.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )

    p_resume = sub.add_parser(
        "resume", help="continue an interrupted campaign from its stored spec"
    )
    p_resume.add_argument("--store", required=True)
    p_resume.add_argument("--jobs", type=int, default=None)
    p_resume.add_argument("--quiet", action="store_true")

    p_status = sub.add_parser("status", help="completion census of a store")
    p_status.add_argument("--store", required=True)

    sub.add_parser("presets", help="list built-in campaigns")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    if args.action == "presets":
        for name, spec in _campaign_presets().items():
            print(
                f"{name}: {spec.job} — {len(spec)} jobs "
                f"(grid {spec.grid}, seeds={spec.seeds})"
            )
        return 0

    def open_store(path):
        """An existing store and its bound spec, or (None, None) after a
        one-line stderr message — store problems are exit code 2, and they
        must never escape as tracebacks."""
        import os

        if not os.path.isdir(path):
            print(f"no campaign at {path} (no such store directory)",
                  file=sys.stderr)
            return None, None
        store = ArtifactStore(path)
        try:
            spec = store.load_spec()
        except (ValueError, OSError) as exc:
            # tampered/corrupt campaign.json (e.g. spec_hash mismatch)
            print(f"unusable campaign.json at {path}: {exc}", file=sys.stderr)
            return None, None
        if spec is None:
            print(f"no campaign at {path} (missing campaign.json)",
                  file=sys.stderr)
            return None, None
        return store, spec

    if args.action == "status":
        store, _ = open_store(args.store)
        if store is None:
            return 2
        print(json.dumps(store.status(), indent=2, sort_keys=True))
        return 0

    if args.action == "resume":
        store, spec = open_store(args.store)
        if store is None:
            return 2
    else:  # run
        if args.preset is not None:
            presets = _campaign_presets()
            if args.preset not in presets:
                print(
                    f"unknown preset {args.preset!r}; "
                    f"available: {', '.join(presets)}",
                    file=sys.stderr,
                )
                return 1
            spec = presets[args.preset]
        else:
            try:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    spec = CampaignSpec.from_json(fh.read())
            except (OSError, ValueError, TypeError, KeyError) as exc:
                print(f"cannot load spec {args.spec}: {exc}", file=sys.stderr)
                return 1

    progress = None if getattr(args, "quiet", False) else _print_progress
    try:
        result = run_campaign(
            spec,
            args.store,
            workers=args.jobs,
            resume=not getattr(args, "no_resume", False),
            progress=progress,
        )
    except StoreMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        # the target store holds a corrupt/tampered campaign.json
        print(f"unusable store at {args.store}: {exc}", file=sys.stderr)
        return 2
    summary_path = write_summary(result.store, spec)
    print(f"summary: {summary_path}")
    if result.failed:
        print(
            f"{len(result.failed)} job(s) failed after retries; "
            f"completed artifacts are kept — rerun to retry",
            file=sys.stderr,
        )
        return 2
    return 0


# ----------------------------------------------------------------------
# serve subcommand
# ----------------------------------------------------------------------
def _serve_main(argv: list[str]) -> int:
    import argparse
    import asyncio
    import signal

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="asyncio HTTP/SSE front door for the campaign layer "
                    "(repro.service)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument(
        "--store", required=True,
        help="artifact store directory (created if missing; completed "
             "artifacts in it are served as cache hits)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="max admitted-but-unfinished jobs before 503 backpressure",
    )
    parser.add_argument(
        "--quota-burst", type=float, default=None,
        help="per-tenant token-bucket burst (default: no quotas)",
    )
    parser.add_argument(
        "--quota-rate", type=float, default=0.0,
        help="per-tenant token refill per second",
    )
    parser.add_argument("--retries", type=int, default=0)
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-job wait budget (s)"
    )
    parser.add_argument(
        "--replica-id", default=None,
        help="cluster mode: this replica's name; enables store-level "
             "claim leases and event spooling",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=10.0,
        help="cluster mode: lease seconds before a silent replica's "
             "in-flight jobs become claimable by survivors",
    )
    parser.add_argument(
        "--progress-stride", type=int, default=1,
        help="cluster mode: spool a StepProgressEvent every N job steps",
    )
    parser.add_argument(
        "--tenants", default=None,
        help="path to a JSON/TOML tenant quota file (mtime-reloaded; "
             "overrides --quota-burst/--quota-rate)",
    )
    parser.add_argument(
        "--sse-keepalive", type=float, default=15.0,
        help="idle seconds between ': keep-alive' SSE comment frames",
    )
    parser.add_argument(
        "--reuse-port", action="store_true",
        help="bind with SO_REUSEPORT so replicas can share one port",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    from repro.service.http import serve
    from repro.service.jobs import JobManager

    tenant_config = None
    if args.tenants is not None:
        from repro.cluster.config import TenantQuotaConfig

        tenant_config = TenantQuotaConfig(args.tenants)

    async def _serve_forever() -> None:
        manager = JobManager(
            args.store,
            workers=args.workers,
            queue_limit=args.queue_limit,
            quota_burst=args.quota_burst,
            quota_rate=args.quota_rate,
            retries=args.retries,
            timeout=args.timeout,
            replica_id=args.replica_id,
            lease_ttl=args.lease_ttl,
            progress_stride=args.progress_stride,
            tenant_config=tenant_config,
            sse_keepalive=args.sse_keepalive,
        )
        manager.start()
        server = await serve(
            manager, args.host, args.port, reuse_port=args.reuse_port
        )
        addr = server.sockets[0].getsockname()
        replica = f", replica {args.replica_id}" if args.replica_id else ""
        print(
            f"repro.service on http://{addr[0]}:{addr[1]} "
            f"(store {args.store}, {manager.workers} workers{replica})",
            flush=True,
        )
        # SIGTERM (and SIGINT) end the wait instead of the process, so the
        # pool's workers and its resource tracker are shut down, not orphaned
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await manager.close()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# cluster subcommand
# ----------------------------------------------------------------------
def _cluster_main(argv: list[str]) -> int:
    import argparse
    import asyncio

    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="run N repro.service replicas over one shared store "
                    "(repro.cluster)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8870,
        help="supervisor port; replicas take port+1.. (or share port+1 "
             "with --reuse-port)",
    )
    parser.add_argument("--store", required=True, help="shared store dir")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes per replica"
    )
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--lease-ttl", type=float, default=10.0)
    parser.add_argument("--progress-stride", type=int, default=1)
    parser.add_argument(
        "--tenants", default=None, help="shared tenant quota file (JSON/TOML)"
    )
    parser.add_argument("--sse-keepalive", type=float, default=15.0)
    parser.add_argument("--reuse-port", action="store_true")
    parser.add_argument("--retries", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    from repro.cluster.supervisor import ClusterSupervisor

    supervisor = ClusterSupervisor(
        args.store,
        replicas=args.replicas,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        lease_ttl=args.lease_ttl,
        progress_stride=args.progress_stride,
        tenants=args.tenants,
        sse_keepalive=args.sse_keepalive,
        reuse_port=args.reuse_port,
        retries=args.retries,
        timeout=args.timeout,
    )
    try:
        asyncio.run(supervisor.run_forever())
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
    return 0


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 1
    if argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv[0] == "cluster":
        return _cluster_main(argv[1:])
    if argv[0] not in _DEMOS:
        print(__doc__)
        return 1
    demo = _DEMOS[argv[0]]
    seed: Optional[int] = None
    positional: list[int] = []
    rest = argv[1:]
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--seed":
            if i + 1 >= len(rest):
                print("--seed needs an integer argument", file=sys.stderr)
                return 1
            seed, i = int(rest[i + 1]), i + 2
        elif arg.startswith("--seed="):
            seed, i = int(arg.split("=", 1)[1]), i + 1
        else:
            positional.append(int(arg))
            i += 1
    demo(*positional, seed=seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
