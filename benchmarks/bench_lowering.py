"""E18 — the shared lowering pipeline: compile-once cache and faulted fast path.

Two claims from the compiler-IR design (docs/model.md, "Compilation
pipeline"): (1) lowering is paid once per automaton — the Lemma 3.9
enumeration for a rule-based automaton takes ~10^5x longer than the cache
hit that every later engine construction gets; (2) fault plans lower to
live-node masks instead of forcing the reference interpreter, so a faulted
run of the n = 512 election kernel keeps the vectorized engine's advantage
(>= 3x) while remaining bitwise-identical to the reference under a shared
seed.
"""

import time

import numpy as np

from repro import run
from repro.algorithms import election
from repro.algorithms import random_walk as rw
from repro.core.automaton import ProbabilisticFSSGA
from repro.core.ir import clear_lowering_cache, lower, lowering_cache_info
from repro.network import generators
from repro.runtime.churn import NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan

from _benchlib import print_table


def test_compile_cache_amortization(benchmark):
    """First lowering vs cache hits for the random-walk rule (the most
    expensive rule-based compile in the repo: 8 states x 2 draws with
    inferred bounds)."""

    def compute():
        clear_lowering_cache()
        aut = ProbabilisticFSSGA(
            rw.ALPHABET, 2, rw.rule, name="random-walk",
            compile_hints=True,
        )
        t0 = time.perf_counter()
        lower(aut)
        t_compile = time.perf_counter() - t0

        hits = 200
        t0 = time.perf_counter()
        for _ in range(hits):
            lower(aut)
        t_hit = (time.perf_counter() - t0) / hits
        return t_compile, t_hit, lowering_cache_info()

    t_compile, t_hit, info = benchmark.pedantic(compute, rounds=1, iterations=1)
    amortization = t_compile / t_hit
    print_table(
        "E18: lowering cache, random-walk rule (8 states, r=2)",
        ["event", "time", "ratio"],
        [
            ("first compile", f"{t_compile * 1e3:.1f} ms", ""),
            ("cache hit", f"{t_hit * 1e6:.1f} us", f"{amortization:.0f}x"),
        ],
    )
    benchmark.extra_info.update(
        engine="compiler", compile_ms=round(t_compile * 1e3, 1),
        hit_us=round(t_hit * 1e6, 1), amortization=round(amortization),
    )
    assert info["hits"] == 200 and info["misses"] == 1
    assert amortization > 100  # a hit must be orders of magnitude cheaper


def test_faulted_run_speedup(benchmark):
    """Faulted coin kernel on K_512: vectorized (fault plan lowered to
    masks) vs reference, identical final states, >= 3x faster."""
    n, steps, seed = 512, 15, 1812
    net = generators.complete_graph(n)
    programs = election.coin_kernel_programs()
    init = election.coin_kernel_init(net)

    frng = np.random.default_rng(7)
    victims = frng.choice(n, size=20, replace=False)
    events = [
        TopologyEvent(int(frng.integers(1, 10)), NODE_DOWN, int(v)) for v in victims
    ]

    def compute():
        t0 = time.perf_counter()
        ref = run(
            programs, net.copy(), init, engine="reference", randomness=2,
            rng=np.random.default_rng(seed), fault_plan=FaultPlan(events),
            until=steps,
        )
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        vec = run(
            programs, net.copy(), init, engine="auto", randomness=2,
            rng=np.random.default_rng(seed), fault_plan=FaultPlan(events),
            until=steps,
        )
        t_vec = time.perf_counter() - t0
        return ref, vec, t_ref, t_vec

    ref, vec, t_ref, t_vec = benchmark.pedantic(compute, rounds=1, iterations=1)
    speedup = t_ref / t_vec
    print_table(
        "E18b: faulted coin kernel on K_512 (20 node faults), 15 steps",
        ["engine", "ms", "speedup"],
        [
            ("reference", f"{t_ref * 1e3:.1f}", ""),
            (vec.engine, f"{t_vec * 1e3:.1f}", f"{speedup:.1f}x"),
        ],
    )
    benchmark.extra_info.update(
        n=n, engine=vec.engine, faults=len(events),
        speedup=round(speedup, 1),
    )
    assert vec.engine == "vectorized"  # faults no longer force a fallback
    assert vec.final_state == ref.final_state
    assert speedup >= 3.0
