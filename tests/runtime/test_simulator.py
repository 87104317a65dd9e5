"""Unit tests for the reference simulators (Section 3.4 semantics)."""

import pytest

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.network import NetworkState, generators
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.scheduler import RoundRobinScheduler, ScriptedScheduler
from repro.runtime.simulator import AsynchronousSimulator, SynchronousSimulator
from repro.runtime.trace import Trace


def epidemic():
    return FSSGA({0, 1}, lambda own, view: 1 if own == 1 or view.at_least(1, 1) else 0)


def flipper():
    """Every node copies the majority-less rule: becomes 1 iff any
    neighbour is 1, else 0 — oscillates on some inits."""
    return FSSGA({0, 1}, lambda own, view: 1 if view.at_least(1, 1) else 0)


class TestSynchronous:
    def test_epidemic_spreads_one_layer_per_step(self):
        net = generators.path_graph(6)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        sim = SynchronousSimulator(net, epidemic(), init)
        for t in range(1, 6):
            sim.step()
            infected = {v for v in net if sim.state[v] == 1}
            assert infected == set(range(t + 1))

    def test_run_until_stable_counts_steps(self):
        net = generators.path_graph(6)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        sim = SynchronousSimulator(net, epidemic(), init)
        steps = sim.run_until_stable()
        assert steps == 6  # 5 spreading steps + 1 quiescent confirmation

    def test_lockstep_simultaneity(self):
        """σ' must be computed from σ, not from partially-updated state."""
        net = generators.path_graph(3)
        # swap rule: node takes the XOR of neighbour states — on [1,0,0]
        # a sequential in-place update would differ from lockstep.
        aut = FSSGA({0, 1}, lambda own, view: view.count_mod(1, 2))
        init = NetworkState({0: 1, 1: 0, 2: 0})
        sim = SynchronousSimulator(net, aut, init)
        sim.step()
        assert dict(sim.state.items()) == {0: 0, 1: 1, 2: 0}

    def test_missing_initial_state_rejected(self):
        net = generators.path_graph(3)
        with pytest.raises(ValueError):
            SynchronousSimulator(net, epidemic(), NetworkState({0: 0}))

    def test_oscillation_hits_step_budget(self):
        net = generators.path_graph(2)
        init = NetworkState({0: 1, 1: 0})
        sim = SynchronousSimulator(net, flipper(), init)
        with pytest.raises(RuntimeError):
            sim.run_until_stable(max_steps=50)

    def test_run_until_predicate(self):
        net = generators.path_graph(5)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        sim = SynchronousSimulator(net, epidemic(), init)
        steps = sim.run_until(lambda st: st[3] == 1)
        assert steps == 3

    def test_trace_records_changes(self):
        net = generators.path_graph(4)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        trace = Trace()
        sim = SynchronousSimulator(net, epidemic(), init, trace=trace)
        sim.run_until_stable()
        assert trace.changed_nodes() == {1, 2, 3}
        assert trace.history_of(2) == [(1, 0, 1)]

    def test_faults_applied_before_step(self):
        net = generators.path_graph(4)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        plan = FaultPlan([TopologyEvent(1, EDGE_DOWN, (1, 2))])
        sim = SynchronousSimulator(net, epidemic(), init, fault_plan=plan)
        sim.run(10)
        assert sim.state[1] == 1
        assert sim.state[2] == 0  # cut off before infection crossed

    def test_node_fault_removes_state(self):
        net = generators.path_graph(4)
        init = NetworkState.uniform(net, 0)
        plan = FaultPlan([TopologyEvent(2, NODE_DOWN, 3)])
        sim = SynchronousSimulator(net, epidemic(), init, fault_plan=plan)
        sim.run(5)
        assert 3 not in sim.state
        assert sim.net.num_nodes == 3


class TestAsynchronous:
    def test_scripted_schedule(self):
        net = generators.path_graph(3)
        init = NetworkState({0: 1, 1: 0, 2: 0})
        sched = ScriptedScheduler([2, 1, 2])
        sim = AsynchronousSimulator(net, epidemic(), init, scheduler=sched)
        sim.step()  # node 2: neighbour 1 is 0 -> stays 0
        assert sim.state[2] == 0
        sim.step()  # node 1: neighbour 0 is 1 -> becomes 1
        assert sim.state[1] == 1
        sim.step()  # node 2: now spreads
        assert sim.state[2] == 1

    def test_round_robin_covers_all(self):
        net = generators.path_graph(5)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        sim = AsynchronousSimulator(
            net, epidemic(), init, scheduler=RoundRobinScheduler()
        )
        sim.run(2 * 5)
        assert all(sim.state[v] == 1 for v in net)

    def test_fair_rounds_spread_bound(self):
        net = generators.path_graph(8)
        init = NetworkState.uniform(net, 0)
        init[0] = 1
        sim = AsynchronousSimulator(net, epidemic(), init, rng=1)
        sim.run_fair_rounds(8)
        # each fair round advances the frontier at least one hop
        assert all(sim.state[v] == 1 for v in net)

    def test_random_scheduler_deterministic_with_seed(self):
        net = generators.cycle_graph(6)
        init = NetworkState.uniform(net, 0)
        init[0] = 1

        def run(seed):
            sim = AsynchronousSimulator(net.copy(), epidemic(), init.copy(), rng=seed)
            sim.run(30)
            return dict(sim.state.items())

        assert run(5) == run(5)


class TestProbabilistic:
    def test_synchronous_draws_per_node(self):
        # rule: become the draw — states must mix 0/1 across nodes
        aut = ProbabilisticFSSGA({0, 1}, 2, lambda own, view, i: i)
        net = generators.complete_graph(8)
        init = NetworkState.uniform(net, 0)
        sim = SynchronousSimulator(net, aut, init, rng=7)
        sim.step()
        values = set(sim.state.values())
        assert values == {0, 1}

    def test_seeded_reproducibility(self):
        aut = ProbabilisticFSSGA({0, 1}, 2, lambda own, view, i: i)
        net = generators.complete_graph(6)
        init = NetworkState.uniform(net, 0)

        def run(seed):
            sim = SynchronousSimulator(net.copy(), aut, init.copy(), rng=seed)
            sim.run(5)
            return dict(sim.state.items())

        assert run(3) == run(3)
        assert run(3) != run(4) or True  # different seeds may rarely agree
