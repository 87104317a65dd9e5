"""Tests for the Flajolet–Martin census (paper Section 1, experiment E1)."""

import numpy as np
import pytest

from repro.algorithms import census
from repro.network import generators
from repro.runtime.churn import EDGE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import SynchronousSimulator


class TestSketchSampling:
    def test_at_most_one_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = census.sample_sketch(8, rng)
            assert sum(s) <= 1

    def test_bit_probabilities(self):
        rng = np.random.default_rng(1)
        n = 20000
        hits = np.zeros(4)
        none = 0
        for _ in range(n):
            s = census.sample_sketch(4, rng)
            if sum(s) == 0:
                none += 1
            else:
                hits[s.index(1)] += 1
        assert abs(hits[0] / n - 0.5) < 0.02
        assert abs(hits[1] / n - 0.25) < 0.02
        assert abs(none / n - 2 ** -4) < 0.02


class TestDiffusion:
    def test_stabilizes_to_component_or(self):
        net = generators.connected_gnp_graph(40, 0.12, 7)
        aut, init = census.build(net, k=10, rng=7)
        expected = [0] * 10
        for v in net:
            for j, b in enumerate(init[v]):
                expected[j] |= b
        sim = SynchronousSimulator(net, aut, init, rng=7)
        steps = sim.run_until_stable()
        assert all(sim.state[v] == tuple(expected) for v in net)
        # OR floods at BFS speed: stabilization within diameter+1 steps
        assert steps <= net.diameter() + 2

    def test_or_rule_is_monotone(self):
        """Semi-lattice property: a node's sketch never loses bits."""
        net = generators.cycle_graph(8)
        aut, init = census.build(net, k=6, rng=3)
        sim = SynchronousSimulator(net, aut, init, rng=3)
        prev = {v: sim.state[v] for v in net}
        for _ in range(10):
            sim.step()
            for v in net:
                assert all(
                    old_b <= new_b for old_b, new_b in zip(prev[v], sim.state[v])
                )
            prev = {v: sim.state[v] for v in net}


class TestEstimates:
    def test_first_zero_index(self):
        assert census.first_zero_index((1, 1, 0, 1)) == 3
        assert census.first_zero_index((0, 0)) == 1
        assert census.first_zero_index((1, 1)) == 3

    def test_paper_formula_matches_calibration(self):
        s = (1, 1, 0, 0)
        assert census.estimate_paper(s) == pytest.approx(
            census.estimate(s), rel=0.02
        )

    def test_median_estimate_within_factor_two(self):
        """Paper: whp the estimate is within a factor of 2.  A single
        sketch is noisy, so we check the median over seeds."""
        n = 64
        estimates = []
        for seed in range(40):
            net = generators.cycle_graph(n)
            aut, init = census.build(net, k=12, rng=seed)
            sim = SynchronousSimulator(net, aut, init, rng=seed)
            sim.run_until_stable()
            estimates.append(census.estimate(sim.state[0]))
        med = float(np.median(estimates))
        assert n / 2 <= med <= 2 * n, med


class TestStochasticAveraging:
    """The build_averaged extension: c independent sketches per node."""

    def test_averaged_diffusion_stabilizes(self):
        net = generators.grid_graph(4, 4)
        aut, init = census.build_averaged(net, copies=3, k=8, rng=2)
        sim = SynchronousSimulator(net, aut, init, rng=2)
        steps = sim.run_until_stable()
        assert steps <= net.diameter() + 2
        # all nodes agree on all copies
        reference = sim.state[0]
        assert all(sim.state[v] == reference for v in net)

    def test_each_copy_is_component_or(self):
        net = generators.cycle_graph(10)
        aut, init = census.build_averaged(net, copies=2, k=6, rng=4)
        expected = [[0] * 6 for _ in range(2)]
        for v in net:
            for c, sketch in enumerate(init[v]):
                for j, b in enumerate(sketch):
                    expected[c][j] |= b
        sim = SynchronousSimulator(net, aut, init, rng=4)
        sim.run_until_stable()
        assert sim.state[0] == tuple(tuple(s) for s in expected)

    def test_averaging_tightens_accuracy(self):
        """More copies -> smaller log-error (the FM-paper fix)."""
        import numpy as np

        n = 64
        mean_err = {}
        for copies in (1, 8):
            errs = []
            for seed in range(20):
                net = generators.cycle_graph(n)
                aut, init = census.build_averaged(net, copies, k=12, rng=seed)
                sim = SynchronousSimulator(net, aut, init, rng=seed)
                sim.run_until_stable()
                est = census.estimate_averaged(sim.state[0])
                errs.append(abs(np.log2(est / n)))
            mean_err[copies] = float(np.mean(errs))
        assert mean_err[8] < mean_err[1]

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            census.build_averaged(generators.path_graph(2), copies=0)


class TestFaultTolerance:
    def test_non_disconnecting_faults_harmless(self):
        """0-sensitivity: edge faults that keep the network connected do
        not change the answer."""
        net = generators.theta_graph(3, 3, 4)
        aut, init = census.build(net, k=8, rng=5)
        expected = [0] * 8
        for v in net:
            for j, b in enumerate(init[v]):
                expected[j] |= b
        plan = FaultPlan([TopologyEvent(2, EDGE_DOWN, net.edges()[0])])
        sim = SynchronousSimulator(net, aut, init, rng=5, fault_plan=plan)
        sim.run(30)
        assert net.is_connected()
        assert all(sim.state[v] == tuple(expected) for v in net)

    def test_disconnection_gives_component_bounds(self):
        """Paper: a disconnected component's estimate is between the OR of
        its own sketches and the OR of the original network's."""
        net = generators.barbell_graph(8, 1)
        bridge_edge = None
        from repro.network.properties import bridges

        bridge_edge = next(iter(bridges(net)))
        aut, init = census.build(net, k=10, rng=11)
        plan = FaultPlan([TopologyEvent(1, EDGE_DOWN, bridge_edge)])
        sim = SynchronousSimulator(net, aut, init, rng=11, fault_plan=plan)
        sim.run(40)
        comps = net.connected_components()
        assert len(comps) == 2
        for comp in comps:
            # final sketch of the component >= OR of its own initial
            # sketches and <= OR of everyone's
            own = [0] * 10
            total = [0] * 10
            for v in comp:
                for j, b in enumerate(init[v]):
                    own[j] |= b
            for v in init:
                for j, b in enumerate(init[v]):
                    total[j] |= b
            final = sim.state[next(iter(comp))]
            assert all(o <= f <= t for o, f, t in zip(own, final, total))
