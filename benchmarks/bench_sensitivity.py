"""E14 — the sensitivity ladder (Section 2).

Paper: decentralized algorithms have sensitivity 0, agent algorithms 1,
tree-based algorithms Θ(n).  We inject the same fault schedules into the
Flajolet–Martin census / shortest paths (0-sensitive), the bridge-finding
agent (1-sensitive), and the β synchronizer (Θ(n)-sensitive), and record
who survives.
"""

from repro.algorithms.beta_synchronizer import BetaSynchronizer
from repro.network import generators
from repro.runtime.churn import EDGE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan, random_fault_plan
from repro.sensitivity import (
    census_under_faults,
    shortest_paths_under_faults,
    synchronizer_fault_comparison,
)

from _benchlib import print_table


def test_survival_ladder(benchmark):
    def compute():
        rows = []
        for seed in range(8):
            net = generators.grid_graph(4, 4)
            # one random edge fault at t=5, not incident to node 0
            plan = random_fault_plan(
                net.copy(), 1, max_time=5, rng=seed, kinds=(EDGE_DOWN,), protect=(0,)
            )
            events = plan.events()

            c = census_under_faults(net.copy(), FaultPlan(list(events)), k=10, rng=seed)
            s = shortest_paths_under_faults(
                net.copy(), [0], FaultPlan(list(events)), rng=seed
            )
            net_b = net.copy()
            sync = BetaSynchronizer(net_b, root=0)
            comparison = synchronizer_fault_comparison(
                net.copy(), FaultPlan(list(events)), rounds=20, rng=seed
            )
            hit_tree = any(
                e.kind == EDGE_DOWN
                and tuple(sorted(e.target, key=repr)) in sync._tree_edges
                for e in events
            )
            rows.append(
                (
                    seed,
                    c.reasonably_correct,
                    s.reasonably_correct,
                    comparison["alpha_min_clock"] >= 18,
                    not comparison["beta_broken"],
                    hit_tree,
                )
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E14: survival under one random edge fault",
        ["seed", "census ok", "sp ok", "alpha ok", "beta ok", "fault hit tree"],
        rows,
    )
    # 0-sensitive algorithms always survive
    assert all(r[1] and r[2] and r[3] for r in rows)
    # beta survives exactly when the fault missed its tree
    for r in rows:
        assert r[4] == (not r[5])


def test_beta_breaks_with_targeted_fault(benchmark):
    def compute():
        net = generators.grid_graph(4, 4)
        sync = BetaSynchronizer(net.copy(), root=0)
        tree_edge = next(iter(sync._tree_edges))
        plan = FaultPlan([TopologyEvent(5, EDGE_DOWN, tree_edge)])
        return synchronizer_fault_comparison(net, plan, rounds=25, rng=0)

    res = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E14b: α vs β under a targeted tree-edge fault",
        ["beta rounds", "beta broken", "alpha min clock", "rounds attempted"],
        [
            (
                res["beta_rounds_completed"],
                res["beta_broken"],
                res["alpha_min_clock"],
                res["alpha_rounds_attempted"],
            )
        ],
    )
    assert res["beta_broken"]
    assert res["alpha_min_clock"] >= 20


def test_criticality_growth(benchmark):
    """|χ| as a function of n: the Θ(n) tree baseline vs constants."""

    def compute():
        rows = []
        for n in (8, 16, 32, 64):
            net = generators.path_graph(n)
            sync = BetaSynchronizer(net, root=0)
            rows.append((n, 0, 1, len(sync.critical_nodes())))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_table(
        "E14c: critical-node counts by paradigm",
        ["n", "decentralized |χ|", "agent |χ|", "tree |χ|"],
        rows,
    )
    for n, dec, agent, tree in rows:
        assert dec == 0 and agent == 1 and tree >= n // 2
