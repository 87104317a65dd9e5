"""End-to-end benchmark of ``run()`` and HTTP serving, over four workloads.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--out DIR]

Each workload runs three trials, each in a fresh process, and each trial
measures for a third of ``--seconds``.  Per-trial metrics (``setup_s``,
``ops_per_s``, ``node_steps_per_s``, ``peak_rss_mb``) report the median
over trials; latency percentiles pool every op of every trial.  With
``--trace`` one untraced and one traced trial run instead, and the
per-layer metrics come from the traced one.

Every metric is printed by name with its unit and sample count.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the metrics ``BENCHMARK.json`` declares: end-to-end
ones untraced, per-layer ones traced.  With ``--out DIR`` the full result
goes to ``DIR/<workload>.json`` (and spans to ``DIR/spans-<workload>.jsonl``
when traced).  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

from measure import (
    END_TO_END, HERE, REPO, SERVE, SIM, SRC, WORKLOADS, beyond,
    host_fingerprint, load_benchmark_spec, median, percentile, supported,
)

TRIALS = 3
TRIAL_TIMEOUT_S = 50


def _run_trial(workload, seed, trial, seconds, traced, spans_path) -> dict:
    """Start one trial process; its record, or ``{"error": ...}``."""
    cmd = [
        sys.executable, str(HERE / "trial.py"), "--workload", workload,
        "--seed", str(seed), "--trial", str(trial), "--seconds", str(seconds),
    ]
    if traced:
        cmd.append("--trace")
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(REPO / "benchmarks")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawn_ns = monotonic_ns()
    # its own process group: whatever the trial starts (server harnesses,
    # their pool workers) goes down with it
    proc = subprocess.Popen(cmd, cwd=REPO, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        return {"error": f"trial {trial} timed out after {TRIAL_TIMEOUT_S}s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"trial {trial} exited {proc.returncode}"}
    record = json.loads(lines[-1])
    if "ready_ns" in record:  # sim: process start to the first timed op
        record["setup_s"] = (record.pop("ready_ns") - spawn_ns) / 1e9
    return record


def end_to_end(workload, trials, failed, attempted) -> dict:
    """Every end-to-end metric of one workload: ``{name: (value, n)}``."""
    ok = [t for t in trials if "error" not in t]
    lat = [x for t in ok for x in t["latencies_ms"]]

    def per_trial(key):
        return median([t[key] for t in ok]), len(ok)

    out = {
        "setup_s": per_trial("setup_s"),
        "ops_per_s": per_trial("ops_per_s"),
        "latency_ms_p50": (percentile(lat, 0.5), len(lat)),
        "latency_ms_p90": (percentile(lat, 0.9), len(lat)),
        "failed_frac": (failed / max(1, attempted), attempted),
        "peak_rss_mb": per_trial("peak_rss_mb"),
    }
    if workload in SIM:
        out["node_steps_per_s"] = per_trial("node_steps_per_s")
    if workload in SERVE:
        total = sum(t["slo_total"] for t in ok)
        out["slo_frac"] = (sum(t["slo_hits"] for t in ok) / max(1, total),
                           total)
    return out


def _digest_violations(trials) -> list:
    """Ops of one seed end in one final state in every trial process."""
    first: dict = {}
    return [
        f"trial {i}, seed {seed}: final state differs from an earlier trial"
        for i, t in enumerate(trials)
        for seed, digest in t.get("digests", {}).items()
        if first.setdefault(seed, digest) != digest
    ]


def _print_table(workload, metrics, per_layer, spec_units) -> None:
    print(f"\n== {workload} ==")
    for name, (unit, _, applies) in END_TO_END.items():
        if workload not in applies:
            print(f"  {name:34s} {'n/a':>14s}")
            continue
        value, n = metrics[name]
        note = ""
        if name == "latency_ms_p90":
            note = f"  ({beyond(n, 0.9)} beyond"
            note += ")" if supported(n, 0.9) else ", fewer than 10)"
        print(f"  {name:34s} {value:14.4f} {unit:6s} n={n}{note}")
    for name, value in (per_layer or {}).items():
        print(f"  {name:34s} {value:14.4f} {spec_units.get(name, '')}")


def bench_workload(workload, seed, seconds, traced, out_dir, spec) -> dict:
    spans_path = None
    if traced and out_dir is not None:
        spans_path = out_dir / f"spans-{workload}.jsonl"
        spans_path.unlink(missing_ok=True)
    budget = seconds / TRIALS
    plan = [False, True] if traced else [False] * TRIALS
    trials = [
        _run_trial(workload, seed, i, budget, t, spans_path)
        for i, t in enumerate(plan)
    ]
    violations = [t["error"] for t in trials if "error" in t]
    violations += [v for t in trials for v in t.get("violations", ())]
    across = _digest_violations(trials)
    violations += across
    attempted = sum(t.get("attempted", 1) for t in trials)
    failed = sum(t.get("failed", 1) for t in trials) + len(across)
    untraced = [t for t, tr in zip(trials, plan) if not tr]
    metrics = end_to_end(workload, untraced, failed, attempted)

    per_layer = None
    if traced:
        layers = trials[1].get("layers", {})
        per_layer = {m["name"]: float(layers.get(m["name"], 0.0))
                     for m in spec["per_layer"]}
        base = untraced[0].get("ops_per_s")
        if base and "ops_per_s" in trials[1]:
            per_layer["trace.overhead_frac"] = 1.0 - trials[1]["ops_per_s"] / base
        if "trace.accounted_frac" in layers:  # diagnostic, not declared
            per_layer["trace.accounted_frac"] = layers["trace.accounted_frac"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    _print_table(workload, metrics, per_layer, units)
    for v in violations:
        print(f"  FAILED: {v}")

    correct = failed == 0
    gated = spec["per_layer"] if traced else spec["end_to_end"]
    source = per_layer if traced else {k: v for k, (v, _) in metrics.items()}
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
            for m in gated
        },
    }
    if out_dir is not None:
        full = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "trials": trials, "host": host_fingerprint(),
            "metrics": {k: {"value": v, "unit": END_TO_END[k][0], "n": n}
                        for k, (v, n) in metrics.items()},
            "per_layer": per_layer, "correct": correct,
            "attempted": attempted, "failed": failed,
            "violations": violations,
        }
        for t in full["trials"]:
            t.pop("latencies_ms", None)
        name = f"{workload}.trace.json" if traced else f"{workload}.json"
        (out_dir / name).write_text(json.dumps(full, indent=1) + "\n")
    return line


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload, over all trials")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result files")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the package under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "host.json").write_text(
            json.dumps(host_fingerprint(), indent=1) + "\n")

    all_correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        line = bench_workload(workload, args.seed, args.seconds,
                              bool(args.trace), args.out, spec)
        all_correct &= line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
