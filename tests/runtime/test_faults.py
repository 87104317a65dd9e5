"""Unit tests for repro.runtime.faults."""

import pytest

from repro.core.automaton import FSSGA
from repro.core.modthresh import ModThreshProgram, at_least
from repro.network import NetworkState, generators
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan, random_fault_plan
from repro.runtime.simulator import AsynchronousSimulator, SynchronousSimulator


def epidemic_automaton() -> FSSGA:
    spread = ModThreshProgram(clauses=((at_least("i", 1), "i"),), default="s")
    stay = ModThreshProgram(clauses=(), default="i")
    return FSSGA.from_programs({"s": spread, "i": stay})


class TestDeletionEvent:
    def test_node_fault(self):
        net = generators.path_graph(3)
        st = NetworkState.uniform(net, 0)
        ev = TopologyEvent(0, NODE_DOWN, 1)
        assert ev.applies_to(net)
        assert ev.apply(net, st)
        assert 1 not in net and 1 not in st

    def test_edge_fault(self):
        net = generators.path_graph(3)
        ev = TopologyEvent(0, EDGE_DOWN, (0, 1))
        assert ev.apply(net)
        assert not net.has_edge(0, 1)

    def test_preempted_fault(self):
        net = generators.path_graph(3)
        TopologyEvent(0, NODE_DOWN, 1).apply(net)
        ev = TopologyEvent(1, EDGE_DOWN, (0, 1))
        assert not ev.applies_to(net)
        assert not ev.apply(net)


class TestFaultPlan:
    def test_apply_due_order(self):
        net = generators.path_graph(5)
        plan = FaultPlan(
            [TopologyEvent(3, EDGE_DOWN, (2, 3)), TopologyEvent(1, EDGE_DOWN, (0, 1))]
        )
        assert plan.apply_due(net, 0) == []
        fired = plan.apply_due(net, 1)
        assert len(fired) == 1 and fired[0].target == (0, 1)
        plan.apply_due(net, 10)
        assert not net.has_edge(2, 3)
        assert plan.exhausted

    def test_skipped_recorded(self):
        net = generators.path_graph(3)
        plan = FaultPlan(
            [TopologyEvent(0, NODE_DOWN, 1), TopologyEvent(1, EDGE_DOWN, (1, 2))]
        )
        plan.apply_due(net, 5)
        assert len(plan.applied) == 1
        assert len(plan.skipped) == 1

    def test_reset(self):
        net = generators.path_graph(3)
        plan = FaultPlan([TopologyEvent(0, EDGE_DOWN, (0, 1))])
        plan.apply_due(net, 0)
        plan.reset()
        assert not plan.exhausted
        assert plan.applied == []

    def test_convenience_constructors(self):
        plan = FaultPlan.node_faults({2: "a", 5: "b"})
        assert len(plan) == 2
        plan = FaultPlan.edge_faults({1: (0, 1)})
        assert plan.events()[0].kind == EDGE_DOWN

    def test_list_of_pairs_allows_same_step_faults(self):
        """The dict form cannot express two faults at one step (keys are
        unique); the list form can, and keeps the given order (the plan's
        time sort is stable)."""
        plan = FaultPlan.node_faults([(2, "a"), (2, "b"), (1, "c")])
        assert [(e.time, e.target) for e in plan.events()] == [
            (1, "c"), (2, "a"), (2, "b")
        ]
        net = generators.complete_graph(3)
        plan2 = FaultPlan.edge_faults([(0, (0, 1)), (0, (1, 2))])
        fired = plan2.apply_due(net, 0)
        assert len(fired) == 2
        assert not net.has_edge(0, 1) and not net.has_edge(1, 2)

    def test_dict_and_pair_list_forms_agree(self):
        by_dict = FaultPlan.node_faults({1: "x", 3: "y"})
        by_list = FaultPlan.node_faults([(1, "x"), (3, "y")])
        assert [(e.time, e.kind, e.target) for e in by_dict.events()] == [
            (e.time, e.kind, e.target) for e in by_list.events()
        ]


class TestFaultTimingEdgeCases:
    """Faults striking on the final step and faults that isolate a node."""

    def test_fault_on_the_would_be_final_step(self):
        """A fault due exactly at the step where stability would otherwise
        be declared must be applied before that step, and run_until_stable
        must not return while the plan still has due events."""
        net = generators.path_graph(5)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        # fault-free: infection completes after step at time 3; stability
        # is detected by the no-change step at time 4.
        plan = FaultPlan.node_faults({4: 2})
        sim = SynchronousSimulator(
            net, epidemic_automaton(), init, fault_plan=plan
        )
        steps = sim.run_until_stable()
        assert steps == 5
        assert plan.exhausted and len(plan.applied) == 1
        assert 2 not in sim.net and 2 not in sim.state
        assert all(sim.state[v] == "i" for v in sim.net)

    def test_fault_due_after_stability_still_fires(self):
        """run_until_stable must keep stepping through an already-stable
        network until pending fault events have fired."""
        net = generators.path_graph(3)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        plan = FaultPlan.node_faults({10: 1})
        sim = SynchronousSimulator(
            net, epidemic_automaton(), init, fault_plan=plan
        )
        steps = sim.run_until_stable()
        assert steps == 11  # stable at 3, but the plan drains at time 10
        assert plan.exhausted and 1 not in sim.net

    def test_fault_applied_before_the_step_it_is_due(self):
        """An edge fault at time t must shape the step computed at time t."""
        net = generators.path_graph(3)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        plan = FaultPlan.edge_faults({1: (1, 2)})
        sim = SynchronousSimulator(
            net, epidemic_automaton(), init, fault_plan=plan
        )
        sim.step()  # time 0: node 1 infected
        sim.step()  # time 1: edge (1,2) dies first, node 2 must stay 's'
        assert sim.state[1] == "i" and sim.state[2] == "s"
        sim.run(3)
        assert sim.state[2] == "s"  # permanently cut off

    def test_node_fault_deletes_last_neighbour_mid_run(self):
        """Killing a hub isolates every leaf; isolated nodes must freeze
        (an SM function has no value on the empty neighbourhood)."""
        net = generators.star_graph(4)  # hub 0, leaves 1..4
        init = NetworkState.uniform(net, "s")
        init[1] = "i"
        plan = FaultPlan.node_faults({1: 0})
        sim = SynchronousSimulator(
            net, epidemic_automaton(), init, fault_plan=plan
        )
        steps = sim.run_until_stable()
        assert steps >= 2
        assert 0 not in sim.net and 0 not in sim.state
        # leaf 1 keeps its infection; the others were never reached and
        # stay 's' forever even as the run continues
        assert sim.state[1] == "i"
        assert all(sim.state[v] == "s" for v in (2, 3, 4))
        assert all(sim.net.degree(v) == 0 for v in (1, 2, 3, 4))

    def test_edge_faults_isolate_node_mid_run(self):
        """Deleting the last incident edge of a node mid-run freezes it."""
        net = generators.path_graph(3)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        plan = FaultPlan.edge_faults({0: (0, 1), 1: (1, 2)})
        sim = SynchronousSimulator(
            net, epidemic_automaton(), init, fault_plan=plan
        )
        steps = sim.run_until_stable()
        assert steps == 2
        assert sim.state == {0: "i", 1: "s", 2: "s"}

    def test_async_fault_deletes_scheduled_node(self):
        """The asynchronous fair-rounds loop must skip a node deleted by a
        fault earlier in the same round."""
        net = generators.path_graph(4)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        plan = FaultPlan.node_faults({0: 3})
        sim = AsynchronousSimulator(
            net, epidemic_automaton(), init, rng=1, fault_plan=plan
        )
        sim.run_fair_rounds(4)
        assert 3 not in sim.net and 3 not in sim.state
        assert plan.exhausted


class TestRandomFaultPlan:
    def test_respects_protection(self):
        net = generators.complete_graph(6)
        plan = random_fault_plan(net, 10, max_time=5, rng=1, protect=(0,))
        for ev in plan.events():
            if ev.kind == NODE_DOWN:
                assert ev.target != 0
            else:
                assert 0 not in ev.target

    def test_deterministic_with_seed(self):
        net = generators.complete_graph(6)
        a = random_fault_plan(net, 5, 10, rng=42)
        b = random_fault_plan(net, 5, 10, rng=42)
        assert [e.target for e in a.events()] == [e.target for e in b.events()]

    def test_generator_and_int_seed_agree(self):
        """``rng`` accepts a Generator or an int seed; a fresh Generator
        seeded with the same int yields the identical plan, so a sweep can
        reproduce its schedules from recorded seeds alone."""
        import numpy as np

        net = generators.complete_graph(6)
        a = random_fault_plan(net, 5, 10, rng=42)
        b = random_fault_plan(net, 5, 10, rng=np.random.default_rng(42))
        assert [(e.time, e.kind, e.target) for e in a.events()] == [
            (e.time, e.kind, e.target) for e in b.events()
        ]

    def test_seeded_plan_is_pinned(self):
        """The draw sequence is part of every seeded sweep's record: a
        seed keeps its times, kinds and targets."""
        net = generators.complete_graph(6)
        plan = random_fault_plan(net, 6, 10, rng=3, protect=(0,))
        assert [(e.time, e.kind, e.target) for e in plan.events()] == [
            (0, EDGE_DOWN, (1, 3)),
            (1, NODE_DOWN, 5),
            (3, NODE_DOWN, 2),
            (5, EDGE_DOWN, (2, 3)),
            (6, EDGE_DOWN, (1, 2)),
            (7, NODE_DOWN, 4),
        ]

    def test_legacy_kinds_rejected(self):
        net = generators.complete_graph(4)
        with pytest.raises(ValueError, match="'node-down'"):
            random_fault_plan(net, 2, 3, kinds=("node",))
        with pytest.raises(ValueError, match="'edge-down'"):
            random_fault_plan(net, 2, 3, kinds=("edge",))

    def test_no_duplicate_targets(self):
        net = generators.complete_graph(5)
        plan = random_fault_plan(net, 8, 10, rng=0)
        targets = [e.target for e in plan.events()]
        assert len(targets) == len(set(targets))
