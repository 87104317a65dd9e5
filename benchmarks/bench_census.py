"""E1 — Flajolet–Martin census accuracy and fault tolerance (Section 1).

Paper claims: (i) fault-free, each node's estimate is within a factor of 2
of n whp; (ii) the estimate survives any non-disconnecting faults; (iii)
after disconnection, a component G' estimates within
[½·|V(G')|, 2·|V(G)|] whp.
"""

import numpy as np

from repro.algorithms import census
from repro.network import generators
from repro.runtime.churn import EDGE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import SynchronousSimulator

from _benchlib import print_table


def _run_census(n, seed, k=14):
    net = generators.connected_gnp_graph(n, min(0.9, 4.0 / n + 0.05), seed)
    aut, init = census.build(net, k=k, rng=seed)
    sim = SynchronousSimulator(net, aut, init, rng=seed)
    sim.run_until_stable()
    return census.estimate(sim.state[next(iter(net))])


def test_census_accuracy_series(benchmark):
    def compute():
        rows = []
        for n in (16, 32, 64, 128, 256):
            ests = [_run_census(n, seed) for seed in range(30)]
            med = float(np.median(ests))
            within2 = np.mean([n / 2 <= e <= 2 * n for e in ests])
            rows.append((n, round(med, 1), f"{med / n:.2f}", f"{within2:.0%}"))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E1: census estimates vs true n (median of 30 seeds)",
        ["n", "median est", "ratio", "within 2x"],
        rows,
    )
    for n, med, ratio, _ in rows:
        assert 0.4 <= float(ratio) <= 2.5


def test_census_component_bounds_after_disconnect(benchmark):
    def compute():
        rows = []
        for seed in range(10):
            net = generators.barbell_graph(20, 1)
            from repro.network.properties import bridges

            bridge = next(iter(bridges(net)))
            aut, init = census.build(net, k=14, rng=seed)
            plan = FaultPlan([TopologyEvent(1, EDGE_DOWN, bridge)])
            sim = SynchronousSimulator(net, aut, init, rng=seed, fault_plan=plan)
            sim.run(60)
            total_n = 41
            for comp in net.connected_components():
                est = census.estimate(sim.state[next(iter(comp))])
                rows.append(
                    (
                        seed,
                        len(comp),
                        round(est, 1),
                        est >= len(comp) / 4,
                        est <= 4 * total_n,
                    )
                )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E1b: component estimates after disconnection (first 12 rows)",
        ["seed", "|V(G')|", "estimate", ">=|G'|/4", "<=4|G|"],
        rows[:12],
    )
    assert all(r[3] and r[4] for r in rows)


def test_census_averaging_ablation(benchmark):
    """Ablation: accuracy vs sketch copies (stochastic averaging, the
    FM-paper fix for the single-sketch noise)."""

    def compute():
        n = 64
        rows = []
        for copies in (1, 2, 4, 8, 16):
            errs = []
            within = 0
            trials = 25
            for seed in range(trials):
                net = generators.cycle_graph(n)
                aut, init = census.build_averaged(net, copies, k=12, rng=seed)
                sim = SynchronousSimulator(net, aut, init, rng=seed)
                sim.run_until_stable()
                est = census.estimate_averaged(sim.state[0])
                errs.append(abs(np.log2(est / n)))
                if n / 2 <= est <= 2 * n:
                    within += 1
            rows.append(
                (copies, f"{np.mean(errs):.3f}", f"{within / trials:.0%}")
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E1c: ablation — sketch copies vs accuracy (n=64, 25 seeds)",
        ["copies", "mean |log2 err|", "within 2x"],
        rows,
    )
    errs = [float(r[1]) for r in rows]
    assert errs[-1] < errs[0]  # averaging strictly helps


def test_census_step_benchmark(benchmark):
    net = generators.connected_gnp_graph(200, 0.03, 1)
    aut, init = census.build(net, k=12, rng=1)

    def run():
        sim = SynchronousSimulator(net, aut, init.copy(), rng=1)
        sim.run(5)

    benchmark(run)
