"""E3 — decentralized shortest paths (Section 2.2).

Paper claims: a node at distance d stabilizes at d within d rounds; the
algorithm is 0-sensitive (labels re-balance after any non-critical
faults); min-label routing sends every packet along a shortest path.
"""

from repro.algorithms import shortest_paths as sp
from repro.network import generators
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import SynchronousSimulator

from _benchlib import print_table


def test_convergence_rounds_equal_eccentricity(benchmark):
    def compute():
        rows = []
        for name, net_fn, targets in [
            ("path(32)", lambda: generators.path_graph(32), [0]),
            ("grid(8x8)", lambda: generators.grid_graph(8, 8), [0]),
            ("cycle(40)", lambda: generators.cycle_graph(40), [0]),
            ("star(30)", lambda: generators.star_graph(30), [0]),
        ]:
            net = net_fn()
            aut, init = sp.build(net, targets)
            sim = SynchronousSimulator(net, aut, init)
            steps = sim.run_until_stable(max_steps=500)
            ecc = max(net.bfs_distances(targets).values())
            rows.append((name, ecc, steps, steps <= ecc + 2))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E3: rounds to stabilize vs max distance d",
        ["graph", "max dist", "rounds", "<= d+2"],
        rows,
    )
    assert all(r[3] for r in rows)


def test_fault_reconvergence(benchmark):
    def compute():
        rows = []
        for seed in range(8):
            net = generators.grid_graph(6, 6)
            plan = FaultPlan(
                [TopologyEvent(4, EDGE_DOWN, (7, 8)), TopologyEvent(9, NODE_DOWN, 14)]
            )
            aut, init = sp.build(net, [0])
            sim = SynchronousSimulator(net, aut, init, rng=seed, fault_plan=plan)
            sim.run_until_stable(max_steps=300)
            ok = sp.stabilized(net, sim.state, [0], net.num_nodes)
            rows.append((seed, len(plan.applied), ok))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E3b: 0-sensitivity — labels equal survivor-graph distances",
        ["seed", "faults applied", "reconverged"],
        rows,
    )
    assert all(r[2] for r in rows)


def test_routing_optimality(benchmark):
    def compute():
        net = generators.connected_gnp_graph(60, 0.08, 5)
        sinks = [0, 1]
        aut, init = sp.build(net, sinks)
        sim = SynchronousSimulator(net, aut, init)
        sim.run_until_stable(max_steps=300)
        dist = net.bfs_distances(sinks)
        rows = []
        for start in list(net.nodes())[2:12]:
            path = sp.route_packet(net, sim.state, start, rng=1)
            rows.append((start, dist[start], len(path) - 1))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E3c: packet routing path length vs true distance",
        ["start", "true dist", "route hops"],
        rows,
    )
    assert all(r[1] == r[2] for r in rows)


def test_relaxation_step_benchmark(benchmark):
    net = generators.grid_graph(20, 20)
    aut, init = sp.build(net, [0])

    def run():
        sim = SynchronousSimulator(net, aut, init.copy())
        sim.run(10)

    benchmark(run)
    benchmark.extra_info.update(n=400, engine="reference")
