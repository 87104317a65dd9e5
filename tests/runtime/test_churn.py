"""Unit tests for repro.runtime.churn: events, plans, and generators."""

import numpy as np
import pytest

from repro.network import NetworkState, generators
from repro.runtime.churn import (
    EDGE_DOWN,
    EDGE_UP,
    NODE_DOWN,
    NODE_UP,
    ChurnPlan,
    TopologyEvent,
    adversarial_plan,
    count_down_events,
    growth_plan,
    is_down_event,
    is_up_event,
    random_churn_plan,
    regional_outage_plan,
)
from repro.runtime.faults import FaultPlan


class TestEventAlgebra:
    def test_event_canonicalizes_at_construction(self):
        ev = TopologyEvent(0, NODE_DOWN, 3)
        assert ev.kind == NODE_DOWN
        assert is_down_event(ev) and not is_up_event(ev)
        assert is_down_event(TopologyEvent(0, EDGE_DOWN, (0, 1)))
        assert is_up_event(TopologyEvent(0, EDGE_UP, (0, 1)))

    @pytest.mark.parametrize(
        "kind, target, replacement",
        [("node", 1, NODE_DOWN), ("edge", (0, 1), EDGE_DOWN)],
    )
    def test_legacy_kind_names_its_replacement(self, kind, target, replacement):
        with pytest.raises(ValueError, match=f"use '{replacement}'"):
            TopologyEvent(0, kind, target)

    def test_unknown_kind_lists_the_four_kinds(self):
        with pytest.raises(ValueError, match="unknown topology-event kind") as err:
            TopologyEvent(0, "node-sideways", 1)
        assert all(k in str(err.value) for k in (NODE_DOWN, EDGE_DOWN, NODE_UP, EDGE_UP))

    def test_node_up_requires_boot_state(self):
        with pytest.raises(ValueError, match="needs a boot state"):
            TopologyEvent(0, NODE_UP, "v")
        ev = TopologyEvent(0, NODE_UP, "v", state="q", edges=[1, 2])
        assert ev.edges == (1, 2)  # coerced to a tuple (hashable, frozen)

    def test_count_down_events_ignores_arrivals(self):
        events = [
            TopologyEvent(0, NODE_DOWN, 0),
            TopologyEvent(1, NODE_UP, 0, state="q"),
            TopologyEvent(2, EDGE_DOWN, (1, 2)),
            TopologyEvent(3, EDGE_UP, (1, 2)),
        ]
        assert count_down_events(events) == 2


class TestTopologyEventApply:
    def test_node_up_attaches_to_present_partners_only(self):
        net = generators.path_graph(3)  # 0-1-2
        st = NetworkState.uniform(net, "s")
        ev = TopologyEvent(0, NODE_UP, 9, state="i", edges=(0, 2, 77))
        assert ev.applies_to(net)
        assert ev.apply(net, st)
        assert 9 in net and st[9] == "i"
        assert net.has_edge(9, 0) and net.has_edge(9, 2)
        assert 77 not in net  # absent partner silently skipped

    def test_node_up_preempted_by_presence(self):
        net = generators.path_graph(3)
        ev = TopologyEvent(0, NODE_UP, 1, state="q")
        assert not ev.applies_to(net)
        assert not ev.apply(net)

    def test_edge_up_needs_both_endpoints(self):
        net = generators.path_graph(3)
        net.remove_edge(0, 1)
        assert TopologyEvent(0, EDGE_UP, (0, 1)).apply(net)
        assert net.has_edge(0, 1)
        # endpoint missing → preempted
        net.remove_node(2)
        assert not TopologyEvent(1, EDGE_UP, (1, 2)).apply(net)
        # edge already present → preempted
        assert not TopologyEvent(2, EDGE_UP, (0, 1)).apply(net)

    def test_resurrection_round_trip(self):
        """down then up: the node returns with exactly the listed edges."""
        net = generators.complete_graph(4)
        st = NetworkState.uniform(net, "s")
        TopologyEvent(0, NODE_DOWN, 0).apply(net, st)
        assert 0 not in net and 0 not in st
        TopologyEvent(1, NODE_UP, 0, state="r", edges=(1,)).apply(net, st)
        assert st[0] == "r"
        assert net.has_edge(0, 1)
        assert not net.has_edge(0, 2) and not net.has_edge(0, 3)


class TestChurnPlan:
    def _mixed(self):
        return [
            TopologyEvent(1, NODE_DOWN, 0),
            TopologyEvent(2, NODE_UP, 0, state="r", edges=(1, 2)),
            TopologyEvent(3, EDGE_DOWN, (1, 2)),
            TopologyEvent(4, EDGE_UP, (1, 2)),
        ]

    def test_addition_flags(self):
        assert not ChurnPlan([TopologyEvent(0, NODE_DOWN, 0)]).has_additions
        edge_up = ChurnPlan([TopologyEvent(0, EDGE_UP, (0, 1))])
        assert edge_up.has_additions and not edge_up.has_arrivals
        node_up = ChurnPlan([TopologyEvent(0, NODE_UP, "v", state="q")])
        assert node_up.has_additions and node_up.has_arrivals

    def test_apply_due_full_cycle(self):
        net = generators.complete_graph(4)
        st = NetworkState.uniform(net, "s")
        plan = ChurnPlan(self._mixed())
        assert plan.apply_due(net, 0, st) == []
        assert not plan.consumed
        plan.apply_due(net, 1, st)
        assert 0 not in net and plan.consumed
        plan.apply_due(net, 2, st)
        assert 0 in net and st[0] == "r"
        assert set(net.neighbors(0)) == {1, 2}
        plan.apply_due(net, 10, st)
        assert plan.exhausted
        assert net.has_edge(1, 2)  # downed at 3, restored at 4
        assert len(plan.applied) == 4 and plan.skipped == []

    def test_union_topology_covers_every_reachable_shape(self):
        net = generators.path_graph(3)  # 0-1-2
        net.declare_symmetry(None)
        plan = ChurnPlan(
            [
                TopologyEvent(1, NODE_DOWN, 0),
                TopologyEvent(2, NODE_UP, "a", state="q", edges=(2, "ghost")),
                TopologyEvent(3, EDGE_UP, ("a", 1)),
                TopologyEvent(4, EDGE_UP, (0, "never")),  # partner never exists
            ]
        )
        union = plan.union_topology(net)
        # arrival appended after the initial nodes, insertion order kept
        assert union.nodes() == [0, 1, 2, "a"]
        assert union.has_edge("a", 2) and union.has_edge("a", 1)
        assert not union.has_edge(0, "never") and "ghost" not in union
        # the source network is untouched and the union carries no group
        assert net.nodes() == [0, 1, 2] and "a" not in net
        assert union._symmetry is None

    def test_union_topology_drops_declared_symmetry(self):
        from repro.network import symmetry as sym

        net = generators.cycle_graph(6)
        net.declare_symmetry(sym.cyclic_rotation(6))
        plan = ChurnPlan([TopologyEvent(1, NODE_UP, "x", state="q", edges=(0,))])
        assert plan.union_topology(net)._symmetry is None
        assert net._symmetry is not None

    def test_boot_states_last_event_wins(self):
        plan = ChurnPlan(
            [
                TopologyEvent(1, NODE_UP, "v", state="a"),
                TopologyEvent(5, NODE_UP, "v", state="b"),
                TopologyEvent(3, NODE_UP, "w", state="c"),
            ]
        )
        assert plan.boot_states() == {"v": "b", "w": "c"}

    def test_faultplan_is_deletion_only_churnplan(self):
        plan = FaultPlan([TopologyEvent(0, NODE_DOWN, 1)])
        assert isinstance(plan, ChurnPlan)
        assert not plan.has_additions


class TestRegionalOutagePlan:
    def test_ball_and_stagger(self):
        net = generators.path_graph(7)  # 0-1-...-6
        plan = regional_outage_plan(net, 3, radius=2, time=5, stagger=2)
        downs = {e.target: e.time for e in plan.events()}
        assert set(downs) == {1, 2, 3, 4, 5}
        assert downs[3] == 5                      # distance 0
        assert downs[2] == downs[4] == 7          # distance 1
        assert downs[1] == downs[5] == 9          # distance 2
        assert not plan.has_additions

    def test_recovery_restores_original_neighbourhood(self):
        net = generators.cycle_graph(6)
        plan = regional_outage_plan(
            net, 0, radius=1, time=1, recover_after=3, recover_state="r"
        )
        ups = {e.target: e for e in plan.events() if e.kind == NODE_UP}
        assert set(ups) == {0, 1, 5}
        assert ups[0].time == 4 and ups[0].state == "r"
        assert set(ups[0].edges) == set(net.neighbors(0))
        # mutually recovering neighbours re-link: run it end to end
        scratch = net.copy()
        st = NetworkState.uniform(scratch, "s")
        ChurnPlan(plan.events()).apply_due(scratch, 99, st)
        assert scratch.num_nodes == 6
        assert scratch.has_edge(0, 1) and scratch.has_edge(0, 5)

    def test_errors(self):
        net = generators.path_graph(3)
        with pytest.raises(KeyError):
            regional_outage_plan(net, 99, radius=1)
        with pytest.raises(ValueError, match="recover_state"):
            regional_outage_plan(net, 0, radius=1, recover_after=2)


class TestAdversarialPlan:
    def test_degree_targets_hub_first(self):
        net = generators.star_graph(5)  # hub 0, leaves 1..5
        plan = adversarial_plan(net, 2, start=3, interval=2)
        evs = plan.events()
        assert evs[0].target == 0 and evs[0].time == 3
        assert evs[1].time == 5
        assert all(e.kind == NODE_DOWN for e in evs)

    def test_articulation_outranks_degree(self):
        # barbell: 0-1-2 path joining two triangles; 1 is the cut vertex
        net = generators.path_graph(3)
        net.add_edges([(0, "a"), (0, "b"), ("a", "b"),
                       (2, "c"), (2, "d"), ("c", "d")])
        plan = adversarial_plan(net, 1, centrality="articulation")
        assert plan.events()[0].target in (0, 1, 2)  # a cut vertex

    def test_bridge_centrality_smoke(self):
        net = generators.path_graph(5)  # every edge is a bridge
        plan = adversarial_plan(net, 1, centrality="bridge")
        # interior nodes carry two bridges each; 2 wins the repr tiebreak
        assert plan.events()[0].target in (1, 2, 3)

    def test_unknown_centrality(self):
        with pytest.raises(ValueError, match="unknown centrality"):
            adversarial_plan(generators.path_graph(3), 1, centrality="pagerank")


class TestGrowthPlan:
    def test_schedule_shape_and_determinism(self):
        net = generators.complete_graph(5)
        a = growth_plan(net, 3, attach=2, start=4, interval=3, rng=7, state="q")
        b = growth_plan(net, 3, attach=2, start=4, interval=3, rng=7, state="q")
        assert [e.target for e in a.events()] == ["new0", "new1", "new2"]
        assert [e.time for e in a.events()] == [4, 7, 10]
        assert [e.edges for e in a.events()] == [e.edges for e in b.events()]
        assert a.has_arrivals
        for ev in a.events():
            assert ev.state == "q" and len(ev.edges) == 2

    def test_later_arrivals_may_attach_to_earlier_ones(self):
        net = generators.path_graph(2)
        plan = growth_plan(net, 8, attach=2, rng=0, state="q")
        pool = {0, 1} | {f"new{i}" for i in range(8)}
        assert any(
            any(isinstance(u, str) for u in ev.edges) for ev in plan.events()
        )
        for ev in plan.events():
            assert set(ev.edges) <= pool - {ev.target}

    def test_taken_ids_are_skipped(self):
        net = generators.path_graph(2)
        net.add_node("new0")
        plan = growth_plan(net, 2, rng=0, state="q")
        assert [e.target for e in plan.events()] == ["new1", "new2"]


class TestCursorContract:
    def test_ensure_fresh_resets_a_consumed_plan(self):
        net = generators.cycle_graph(6)
        st = NetworkState.uniform(net, "s")
        plan = ChurnPlan(
            [TopologyEvent(0, NODE_DOWN, 1), TopologyEvent(5, NODE_DOWN, 2)]
        )
        plan.apply_due(net, 0, st)
        assert plan.consumed and len(plan.applied) == 1
        assert plan.ensure_fresh() is plan  # chainable
        assert not plan.consumed
        assert plan.applied == [] and plan.skipped == []

    def test_ensure_fresh_is_a_noop_on_a_fresh_plan(self):
        plan = ChurnPlan([TopologyEvent(0, NODE_DOWN, 1)])
        applied = plan.applied
        plan.ensure_fresh()
        assert plan.applied is applied  # untouched, not rebuilt

    def test_engine_construction_resets_via_ensure_fresh(self):
        from repro.runtime.simulator import SynchronousSimulator
        from repro.algorithms import two_coloring as tc

        net = generators.cycle_graph(6)
        automaton, init = tc.build(net, 0)
        plan = ChurnPlan([TopologyEvent(1, NODE_DOWN, 3)])
        plan.apply_due(net.copy(), 99)
        assert plan.consumed
        SynchronousSimulator(net, automaton, init, fault_plan=plan)
        assert not plan.consumed


class TestRandomChurnPlan:
    def test_deterministic_and_feasible(self):
        net = generators.complete_graph(8)
        a = random_churn_plan(net, 12, max_time=10, rng=3, p_up=0.5, boot_state="q")
        b = random_churn_plan(net, 12, max_time=10, rng=3, p_up=0.5, boot_state="q")
        assert [(e.time, e.kind, e.target) for e in a.events()] == [
            (e.time, e.kind, e.target) for e in b.events()
        ]
        # feasibility: replaying the schedule on a fresh copy, every event
        # applies (the generator built it against a scratch topology)
        scratch = net.copy()
        plan = ChurnPlan(a.events())
        plan.apply_due(scratch, 999, NetworkState.uniform(scratch, "s"))
        assert plan.skipped == []

    def test_generator_and_int_seed_agree(self):
        net = generators.complete_graph(6)
        a = random_churn_plan(net, 6, 8, rng=11, p_up=0.4, boot_state="q")
        b = random_churn_plan(
            net, 6, 8, rng=np.random.default_rng(11), p_up=0.4, boot_state="q"
        )
        assert [(e.time, e.kind, e.target) for e in a.events()] == [
            (e.time, e.kind, e.target) for e in b.events()
        ]

    def test_boot_state_required_for_resurrection(self):
        net = generators.complete_graph(4)
        with pytest.raises(ValueError, match="boot_state"):
            random_churn_plan(net, 4, 5, rng=0, p_up=0.5)
        # deletion-only schedules need none
        plan = random_churn_plan(net, 4, 5, rng=0, p_up=0.0)
        assert all(is_down_event(e) for e in plan.events())

    def test_protect(self):
        net = generators.complete_graph(6)
        plan = random_churn_plan(
            net, 10, 8, rng=5, p_up=0.3, boot_state="q", protect=(0,)
        )
        for ev in plan.events():
            if ev.kind in (NODE_DOWN, NODE_UP):
                assert ev.target != 0
            elif ev.kind in (EDGE_DOWN, EDGE_UP):
                assert 0 not in ev.target


class TestGraphBatchMutation:
    """add_nodes / add_edges: one cache invalidation per batch."""

    def test_add_nodes_counts_new_only(self):
        net = generators.path_graph(3)
        assert net.add_nodes([1, 5, 6, 5]) == 2
        assert net.nodes() == [0, 1, 2, 5, 6]

    def test_add_edges_counts_and_creates_endpoints(self):
        net = generators.path_graph(2)
        # (0,1) already present; (1,2) and (2,3) each add one endpoint
        # plus one edge — fresh endpoints dirty the caches, so they count
        assert net.add_edges([(0, 1), (1, 2), (2, 3)]) == 4
        assert 3 in net and net.num_edges == 3
        with pytest.raises(ValueError, match="self-loop"):
            net.add_edges([(4, 4)])

    def test_batch_add_invalidates_csr_cache(self):
        net = generators.path_graph(3)
        _, before_order = net.to_csr()
        net.add_edges([(2, 3)])
        _, after_order = net.to_csr()
        assert len(before_order) == 3 and len(after_order) == 4


class TestEngineBootValidation:
    def test_array_engine_rejects_unknown_boot_state(self):
        from repro.core.modthresh import ModThreshProgram, at_least
        from repro.runtime.vectorized import VectorizedSynchronousEngine

        programs = {
            "s": ModThreshProgram(clauses=((at_least("i", 1), "i"),), default="s"),
            "i": ModThreshProgram(clauses=(), default="i"),
        }
        net = generators.path_graph(4)
        init = NetworkState.uniform(net, "s")
        plan = ChurnPlan(
            [TopologyEvent(1, NODE_UP, "v", state="not-a-state", edges=(0,))]
        )
        with pytest.raises(ValueError, match="not-a-state"):
            VectorizedSynchronousEngine(net, programs, init, fault_plan=plan)


class TestStatesAcrossArrivals:
    """States handed out by the array engine share σ's rows; an arrival
    boot must not write into them, and change reports must stay relative
    to the boot state, as on the reference engine."""

    @staticmethod
    def _programs():
        from repro.core.modthresh import ModThreshProgram, at_least

        # a booting node leaves "b" at once; its neighbours notice it
        return {
            "s": ModThreshProgram(clauses=((at_least("b", 1), "i"),), default="s"),
            "b": ModThreshProgram(clauses=(), default="x"),
            "i": ModThreshProgram(clauses=(), default="i"),
            "x": ModThreshProgram(clauses=(), default="x"),
        }

    @staticmethod
    def _plan():
        return ChurnPlan([
            TopologyEvent(1, NODE_DOWN, 2),
            TopologyEvent(2, NODE_UP, "v", state="b", edges=(0, 5)),
            TopologyEvent(3, NODE_UP, 2, state="b", edges=(1, 3)),
        ])

    def test_predicate_state_survives_the_boot_step(self):
        from repro import run

        net = generators.cycle_graph(6)
        seen = []

        def until(state):
            seen.append((state, list(state.items())))
            return len(seen) > 5

        run(self._programs(), net, NetworkState.uniform(net, "s"),
            engine="vectorized", until=until, fault_plan=self._plan())
        assert len(seen) == 6
        for state, items in seen:  # the boot steps are 2 and 3
            assert list(state.items()) == items

    def test_trace_observer_changes_match_the_reference(self):
        from repro import TraceObserver, run

        traces = {}
        for engine in ("reference", "vectorized"):
            net = generators.cycle_graph(6)
            ob = TraceObserver()
            run(self._programs(), net, NetworkState.uniform(net, "s"),
                engine=engine, until=5, fault_plan=self._plan(), observers=(ob,))
            traces[engine] = [(e.time, e.changes) for e in ob.trace.steps]
        assert traces["vectorized"] == traces["reference"]
        # the arrivals report their change out of the boot state
        assert traces["reference"][2][1]["v"] == ("b", "x")
        assert traces["reference"][3][1][2] == ("b", "x")
