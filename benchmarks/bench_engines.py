"""E15 — ablation: vectorized mod-thresh engine vs reference interpreter.

The DESIGN.md engineering choice under test: encoding states as integers
and counting neighbour states with one sparse mat-mat product per step
should beat the per-node Counter interpreter by a widening margin as n
grows, while remaining step-for-step equivalent (equivalence is covered in
tests/runtime/test_vectorized.py).
"""

import time

import numpy as np

from repro import MetricsRegistry, run
from repro.algorithms import election
from repro.algorithms import two_coloring as tc
from repro.core.automaton import FSSGA
from repro.network import NetworkState, generators
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.vectorized import VectorizedSynchronousEngine

from _benchlib import print_table


def _setup(n):
    net = generators.grid_graph(n, n)
    progs = tc.sticky_programs()
    init = NetworkState.from_function(net, lambda v: tc.RED if v == 0 else tc.BLANK)
    return net, progs, init


def test_speedup_series(benchmark):
    def compute():
        rows = []
        for side in (10, 20, 40):
            net, progs, init = _setup(side)
            steps = 10

            t0 = time.perf_counter()
            ref = SynchronousSimulator(net.copy(), FSSGA.from_programs(progs), init.copy())
            ref.run(steps)
            t_ref = time.perf_counter() - t0

            t0 = time.perf_counter()
            vec = VectorizedSynchronousEngine(net, progs, init)
            vec.run(steps)
            t_vec = time.perf_counter() - t0

            rows.append(
                (
                    side * side,
                    f"{t_ref * 1e3:.1f}",
                    f"{t_vec * 1e3:.1f}",
                    f"{t_ref / t_vec:.1f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E15: 10 synchronous steps, reference vs vectorized (ms)",
        ["n", "reference ms", "vectorized ms", "speedup"],
        rows,
    )
    benchmark.extra_info.update(
        n=rows[-1][0], engine="vectorized", backend="numpy",
        speedup=float(rows[-1][3].rstrip("x")),
    )
    # the vectorized engine must win at the largest size
    assert float(rows[-1][3].rstrip("x")) > 1.0


def test_three_engine_comparison(benchmark):
    """Reference vs vectorized vs batched on one deterministic workload.

    The batched engine is built for R > 1, but even at R = 1 its per-step
    cost should stay within a small constant of the vectorized engine —
    this guards against the stacked indicator layout regressing the
    single-replica path.  The R = 16 column shows the amortized per-replica
    cost the replica-statistics helpers actually pay (see also
    bench_batched.py / E17 for the probabilistic workload).
    """

    def compute():
        rows = []
        for side in (10, 20):
            net, progs, init = _setup(side)
            steps = 10

            t0 = time.perf_counter()
            ref = SynchronousSimulator(net.copy(), FSSGA.from_programs(progs), init.copy())
            ref.run(steps)
            t_ref = time.perf_counter() - t0

            t0 = time.perf_counter()
            vec = VectorizedSynchronousEngine(net, progs, init)
            vec.run(steps)
            t_vec = time.perf_counter() - t0

            t0 = time.perf_counter()
            bat = BatchedSynchronousEngine(net, progs, init, replicas=16)
            bat.run(steps)
            t_bat = time.perf_counter() - t0

            rows.append(
                (
                    side * side,
                    f"{t_ref * 1e3:.1f}",
                    f"{t_vec * 1e3:.1f}",
                    f"{t_bat * 1e3:.1f}",
                    f"{t_bat / 16 * 1e3:.2f}",
                )
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E15b: 10 steps — reference / vectorized / batched R=16 (ms)",
        ["n", "reference ms", "vectorized ms", "batched ms", "batched ms per replica"],
        rows,
    )
    benchmark.extra_info.update(n=rows[-1][0], engine="batched", backend="numpy")
    # amortized per-replica batched cost must beat one vectorized run
    assert all(float(r[4]) < float(r[2]) for r in rows)


def test_reference_step_benchmark(benchmark):
    net, progs, init = _setup(25)
    aut = FSSGA.from_programs(progs)

    def step5():
        sim = SynchronousSimulator(net, aut, init.copy())
        sim.run(5)

    benchmark(step5)
    benchmark.extra_info.update(n=625, engine="reference", backend=None)


def test_vectorized_step_benchmark(benchmark):
    net, progs, init = _setup(25)

    def step5():
        vec = VectorizedSynchronousEngine(net, progs, init)
        vec.run(5)

    benchmark(step5)
    benchmark.extra_info.update(n=625, engine="vectorized", backend="numpy")


def test_front_door_election_kernel(benchmark):
    """E15c — the run() front door on the Claim 4.1 coin kernel, n = 512.

    Acceptance gate for the engine-interchangeability story: under a
    shared seed the auto-selected vectorized engine must return the
    bitwise-identical final state at >= 5x the reference's speed.
    """
    net = generators.complete_graph(512)
    programs = election.coin_kernel_programs()
    init = election.coin_kernel_init(net)
    steps, seed = 15, 512

    def compute():
        t0 = time.perf_counter()
        ref = run(
            programs, net, init, engine="reference", randomness=2,
            rng=np.random.default_rng(seed), until=steps,
        )
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        vec = run(
            programs, net, init, engine="auto", randomness=2,
            rng=np.random.default_rng(seed), until=steps,
        )
        t_vec = time.perf_counter() - t0
        return ref, vec, t_ref, t_vec

    ref, vec, t_ref, t_vec = benchmark.pedantic(compute, rounds=1, iterations=1)
    speedup = t_ref / t_vec
    print_table(
        "E15c: run() front door, coin kernel on K_512, 15 steps",
        ["engine", "ms", "speedup"],
        [
            ("reference", f"{t_ref * 1e3:.1f}", ""),
            (vec.engine, f"{t_vec * 1e3:.1f}", f"{speedup:.1f}x"),
        ],
    )
    # counter-level telemetry for the stored BENCH_*.json — metered rerun
    # outside the timed region, checked bitwise-identical to the timed one
    met = MetricsRegistry()
    metered = run(
        programs, net, init, engine="auto", randomness=2,
        rng=np.random.default_rng(seed), until=steps, metrics=met,
    )
    assert metered.final_state == vec.final_state
    benchmark.extra_info.update(
        n=512,
        engine=vec.engine,
        backend=vec.backend,
        speedup=round(speedup, 1),
        steps=met.get("steps"),
        node_updates=met.get("node_updates"),
        rng_draws=met.get("rng_draws"),
        lowering_cache_hits=met.get("lowering_cache_hits"),
        lowering_cache_misses=met.get("lowering_cache_misses"),
        updates_per_sec=round(met.get("node_updates") / t_vec),
    )
    assert vec.engine == "vectorized"  # auto-selection on a mod-thresh kernel
    assert vec.final_state == ref.final_state  # bitwise under the shared seed
    assert speedup >= 5.0
