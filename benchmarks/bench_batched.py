"""E17 — batched replica engine vs R sequential vectorized runs.

The DESIGN choice under test: replica statistics for probabilistic claims
(election phases, census accuracy) should come from one stacked
computation over an (R, n) state array — one sparse product over the
horizontally-stacked feature-state indicator per step — rather than R
sequential single-replica engine runs that each repay the per-step Python
overhead.  Target (ISSUE 1 acceptance): >= 5x at R = 64 on the
leader-election workload.  Equivalence (replica i bitwise equal to the
spawned single-replica run) is covered in tests/runtime/test_batched.py
and the conformance suite.
"""

import time

import numpy as np

from repro.algorithms import election
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.telemetry import MetricsRegistry
from repro.runtime.vectorized import VectorizedSynchronousEngine
from repro.network import generators

from _benchlib import print_table

STEPS = 30


def _workload(n):
    net = generators.complete_graph(n)
    return net, election.coin_kernel_programs(), election.coin_kernel_init(net)


def _time_sequential(net, programs, init, replicas, seed):
    children = np.random.default_rng(seed).spawn(replicas)
    t0 = time.perf_counter()
    for child in children:
        eng = VectorizedSynchronousEngine(
            net, programs, init, randomness=2, rng=child
        )
        eng.run(STEPS)
    return time.perf_counter() - t0


def _time_batched(net, programs, init, replicas, seed):
    t0 = time.perf_counter()
    eng = BatchedSynchronousEngine(
        net, programs, init, replicas=replicas, randomness=2, rng=seed
    )
    eng.run(STEPS)
    return time.perf_counter() - t0


def test_replica_speedup_series(benchmark):
    def compute():
        rows = []
        speedups = {}
        for n, replicas in ((64, 8), (64, 64), (256, 64)):
            net, programs, init = _workload(n)
            t_seq = _time_sequential(net, programs, init, replicas, seed=0)
            t_bat = _time_batched(net, programs, init, replicas, seed=0)
            speedups[(n, replicas)] = t_seq / t_bat
            rows.append(
                (
                    n,
                    replicas,
                    f"{t_seq * 1e3:.1f}",
                    f"{t_bat * 1e3:.1f}",
                    f"{t_seq / t_bat:.1f}x",
                )
            )
        return rows, speedups

    rows, speedups = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        f"E17: {STEPS} steps of the election coin kernel, "
        "R sequential vectorized runs vs one batched engine (ms)",
        ["n", "R", "sequential ms", "batched ms", "speedup"],
        rows,
    )
    # counter-level telemetry for BENCH_*.json — one metered rerun of the
    # largest cell, outside the timed region
    net, programs, init = _workload(256)
    met = MetricsRegistry()
    eng = BatchedSynchronousEngine(
        net, programs, init, replicas=64, randomness=2, rng=0, metrics=met
    )
    eng.run(STEPS)
    dens = met.series["active_fraction"]
    benchmark.extra_info.update(
        n=256,
        engine="batched",
        backend="numpy",
        speedup=round(speedups[(256, 64)], 1),
        steps=met.get("steps"),
        node_updates=met.get("node_updates"),
        rng_draws=met.get("rng_draws"),
        final_active_fraction=round(dens[-1], 4),
    )
    # the ISSUE 1 acceptance bar: >= 5x at R = 64 on the election workload
    assert speedups[(64, 64)] >= 5.0


def test_batched_smoke(benchmark):
    """Timed smoke: one batched kernel run to a unique survivor at R=64."""
    net = generators.complete_graph(64)

    def run():
        stats = election.kernel_phase_statistics(net, replicas=64, rng=7)
        assert stats.survivor_counts == [1] * 64
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(n=64, engine="batched", backend="numpy")
    print(
        f"\nR=64 kernel runs on K64: mean {stats.mean_rounds:.1f} phases "
        f"(min {int(stats.rounds.min())}, max {int(stats.rounds.max())})"
    )
