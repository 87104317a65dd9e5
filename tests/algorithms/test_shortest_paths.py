"""Tests for decentralized shortest paths (Section 2.2, experiment E3)."""

import pytest

from repro.algorithms import shortest_paths as sp
from repro.network import generators
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import AsynchronousSimulator, SynchronousSimulator


class TestConvergence:
    @pytest.mark.parametrize(
        "net_fn,targets",
        [
            (lambda: generators.path_graph(8), [0]),
            (lambda: generators.grid_graph(4, 5), [0, 19]),
            (lambda: generators.cycle_graph(9), [3]),
            (lambda: generators.petersen_graph(), [0]),
        ],
    )
    def test_labels_equal_distance(self, net_fn, targets):
        net = net_fn()
        aut, init = sp.build(net, targets)
        sim = SynchronousSimulator(net, aut, init)
        sim.run_until_stable()
        assert sp.stabilized(net, sim.state, targets, net.num_nodes)

    def test_convergence_within_d_rounds(self):
        """Paper: a node at distance d stabilizes within d rounds."""
        net = generators.path_graph(10)
        aut, init = sp.build(net, [0])
        sim = SynchronousSimulator(net, aut, init)
        dist = net.bfs_distances([0])
        for t in range(1, 10):
            sim.step()
            for v in net:
                if dist[v] <= t:
                    assert sp.labels(sim.state)[v] == dist[v]

    def test_cap_applies_without_targets_in_component(self):
        from repro.network.graph import Network

        net = Network(edges=[(0, 1), (2, 3)])
        aut, init = sp.build(net, [0], cap=4)
        sim = SynchronousSimulator(net, aut, init)
        sim.run_until_stable()
        labels = sp.labels(sim.state)
        assert labels[2] == 4 and labels[3] == 4  # capped, no target nearby

    def test_asynchronous_convergence(self):
        net = generators.grid_graph(3, 4)
        aut, init = sp.build(net, [0])
        sim = AsynchronousSimulator(net, aut, init, rng=2)
        sim.run_fair_rounds(20)
        assert sp.stabilized(net, sim.state, [0], net.num_nodes)

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            sp.build(generators.path_graph(3), [42])


class TestFaultRecovery:
    def test_zero_sensitivity_reconvergence(self):
        """After a fault, labels re-balance to the surviving graph's
        distances (the 0-sensitive 'balancing' behaviour)."""
        net = generators.grid_graph(4, 4)
        aut, init = sp.build(net, [0])
        plan = FaultPlan([TopologyEvent(6, EDGE_DOWN, (0, 1)), TopologyEvent(8, NODE_DOWN, 5)])
        sim = SynchronousSimulator(net, aut, init, fault_plan=plan)
        sim.run_until_stable(max_steps=200)
        assert sp.stabilized(net, sim.state, [0], net.num_nodes)

    def test_labels_can_increase_after_fault(self):
        """Deleting a shortcut must raise labels (not just lower them)."""
        net = generators.cycle_graph(8)
        aut, init = sp.build(net, [0])
        sim = SynchronousSimulator(net, aut, init)
        sim.run_until_stable()
        assert sp.labels(sim.state)[7] == 1
        net.remove_edge(7, 0)
        sim2 = SynchronousSimulator(net, aut, sim.state)
        sim2.run_until_stable(max_steps=100)
        assert sp.labels(sim2.state)[7] == 7


class TestSelfStabilization:
    """The min+1 relaxation is a *balancing* rule (P1-P3): it converges
    from arbitrary label states, not just the fresh initialization —
    self-stabilization in the Section 5.2 sense, for this algorithm."""

    def test_converges_from_garbage_labels(self):
        import numpy as np

        rng = np.random.default_rng(3)
        net = generators.grid_graph(4, 4)
        cap = net.num_nodes
        aut, _init = sp.build(net, [0], cap=cap)
        from repro.network import NetworkState

        garbage = NetworkState.from_function(
            net,
            lambda v: (v == 0, int(rng.integers(0, cap + 1)) if v != 0 else 0),
        )
        sim = SynchronousSimulator(net, aut, garbage)
        sim.run_until_stable(max_steps=200)
        assert sp.stabilized(net, sim.state, [0], cap)

    def test_converges_from_all_zero_labels(self):
        """Even the adversarial all-zeros state (every node claims to be a
        target-distance 0) self-corrects."""
        net = generators.path_graph(8)
        cap = net.num_nodes
        aut, _init = sp.build(net, [0], cap=cap)
        from repro.network import NetworkState

        allzero = NetworkState.from_function(net, lambda v: (v == 0, 0))
        sim = SynchronousSimulator(net, aut, allzero)
        sim.run_until_stable(max_steps=200)
        assert sp.stabilized(net, sim.state, [0], cap)


class TestRouting:
    def test_route_follows_shortest_path(self):
        net = generators.grid_graph(5, 5)
        aut, init = sp.build(net, [0])
        sim = SynchronousSimulator(net, aut, init)
        sim.run_until_stable()
        path = sp.route_packet(net, sim.state, 24, rng=0)
        assert path[0] == 24 and path[-1] == 0
        assert len(path) - 1 == net.bfs_distances([0])[24]
        for a, b in zip(path, path[1:]):
            assert net.has_edge(a, b)

    def test_route_to_nearest_of_multiple_sinks(self):
        net = generators.path_graph(10)
        aut, init = sp.build(net, [0, 9])
        sim = SynchronousSimulator(net, aut, init)
        sim.run_until_stable()
        path = sp.route_packet(net, sim.state, 7, rng=0)
        assert path[-1] == 9  # nearer sink

    def test_route_fails_on_unstabilized_labels(self):
        net = generators.path_graph(6)
        aut, init = sp.build(net, [0])
        with pytest.raises(RuntimeError):
            sp.route_packet(net, init, 5, rng=0)
