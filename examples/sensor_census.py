#!/usr/bin/env python3
"""The paper's sensor-network motivation, end to end.

A field of sensors of unknown size: (1) estimate the population with the
Flajolet–Martin census; (2) build distance labels to the data sinks and
route packets along shortest paths; (3) kill edges and nodes mid-run and
watch both 0-sensitive algorithms re-balance — the 'balancing algorithm'
behaviour of Section 1 (P1-P3).

Run:  python examples/sensor_census.py
"""

import numpy as np

from repro.algorithms import census, shortest_paths
from repro.network import generators
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan


def main() -> None:
    rng = np.random.default_rng(7)
    net = generators.connected_gnp_graph(80, 0.06, rng)
    print(f"sensor field: n={net.num_nodes}, m={net.num_edges}")

    # --- 1. census ------------------------------------------------------
    # rule-based (semi-lattice OR), so run() falls back to the reference
    # interpreter.
    res = census.run_census(net, rng=rng)
    est = census.estimate(res.final_state[0])
    print(
        f"census: diffused in {res.steps} rounds ({res.engine} engine); "
        f"estimate ≈ {est:.0f} (true 80)"
    )

    # --- 2. routing to sinks ---------------------------------------------
    # program-based, so run() auto-selects the vectorized engine.
    sinks = [0, 40]
    res = shortest_paths.run_labels(net, sinks)
    print(f"labels: converged in {res.steps} rounds ({res.engine} engine)")
    for source in (11, 33, 77):
        path = shortest_paths.route_packet(net, res.final_state, source, rng=rng)
        print(f"routing: packet {source} -> sink {path[-1]} in {len(path) - 1} hops")

    # --- 3. faults strike -------------------------------------------------
    # a fault plan forces the reference engine (the only one supporting
    # mid-run topology changes) — run() handles the fallback.
    victims = [e for e in net.edges() if 0 not in e and 40 not in e][:6]
    plan = FaultPlan(
        [TopologyEvent(2 + i, EDGE_DOWN, e) for i, e in enumerate(victims[:4])]
        + [TopologyEvent(8, NODE_DOWN, 55)]
    )
    res = shortest_paths.run_labels(net, sinks, fault_plan=plan, max_steps=500)
    ok = shortest_paths.stabilized(net, res.final_state, sinks, net.num_nodes)
    print(
        f"faults: applied {len(plan.applied)} deletions ({res.engine} engine); "
        f"labels re-balanced to survivor distances = {ok}"
    )
    path = shortest_paths.route_packet(net, res.final_state, 77, rng=rng)
    print(f"routing after faults: packet 77 -> sink {path[-1]} in {len(path) - 1} hops")


if __name__ == "__main__":
    main()
