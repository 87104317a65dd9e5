"""Tests for the k-sensitivity framework (Section 2, experiment E14)."""

from repro.algorithms.beta_synchronizer import BetaSynchronizer
from repro.network import NetworkState, generators
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan, random_fault_plan
from repro.sensitivity import (
    bridges_under_faults,
    census_under_faults,
    chi_agent,
    chi_arm,
    chi_beta_synchronizer,
    chi_decentralized,
    max_criticality,
    shortest_paths_under_faults,
    synchronizer_fault_comparison,
)


class TestChiMaps:
    def test_decentralized_chi_empty(self):
        net = generators.grid_graph(3, 3)
        assert chi_decentralized(net) == set()

    def test_agent_chi_single(self):
        assert chi_agent(5) == {5}
        assert chi_agent(None) == set()

    def test_arm_chi_from_traversal_state(self):
        st = NetworkState(
            {
                0: (True, "arm", "idle"),
                1: (False, "hand", "flip"),
                2: (False, "blank", "idle"),
            }
        )
        net = generators.path_graph(3)
        assert chi_arm(net, st) == {0, 1}

    def test_beta_chi_matches_internal_nodes(self):
        net = generators.path_graph(6)
        sync = BetaSynchronizer(net, root=0)
        assert chi_beta_synchronizer(sync) == sync.critical_nodes()

    def test_max_criticality(self):
        assert max_criticality([{1}, {1, 2}, set()]) == 2
        assert max_criticality([]) == 0


class TestSensitivityLadder:
    """The paper's ranking: decentralized 0 < agent 1 < arm/tree Θ(n)."""

    def test_ladder_on_path(self):
        n = 12
        net = generators.path_graph(n)
        sync = BetaSynchronizer(net, root=0)
        decentralized = 0
        agent = 1
        tree = len(chi_beta_synchronizer(sync))
        assert decentralized < agent < tree
        assert tree >= n // 2


class TestCensusUnderFaults:
    def test_edge_faults_keep_reasonable_correctness(self):
        net = generators.theta_graph(3, 3, 4)
        plan = FaultPlan([TopologyEvent(2, EDGE_DOWN, net.edges()[0])])
        res = census_under_faults(net, plan, k=8, rng=1)
        assert res.reasonably_correct
        assert res.faults_applied == 1

    def test_random_fault_storm(self):
        net = generators.connected_gnp_graph(25, 0.25, 4)
        plan = random_fault_plan(net, 5, max_time=6, rng=4, kinds=(EDGE_DOWN,))
        res = census_under_faults(net, plan, k=10, rng=4)
        assert res.reasonably_correct


class TestShortestPathsUnderFaults:
    def test_reconverges_to_survivor_distances(self):
        net = generators.grid_graph(4, 4)
        plan = FaultPlan(
            [TopologyEvent(4, EDGE_DOWN, (1, 2)), TopologyEvent(7, NODE_DOWN, 10)]
        )
        res = shortest_paths_under_faults(net, [0], plan, rng=2)
        assert res.reasonably_correct

    def test_zero_sensitivity_over_many_seeds(self):
        for seed in range(5):
            net = generators.connected_gnp_graph(16, 0.25, seed)
            plan = random_fault_plan(net, 3, max_time=8, rng=seed, kinds=(EDGE_DOWN,), protect=(0,))
            res = shortest_paths_under_faults(net, [0], plan, rng=seed)
            assert res.reasonably_correct


class TestBridgesUnderFaults:
    def test_agent_survives_protected_plan(self):
        net = generators.theta_graph(3, 3, 3)
        # faults only on edges away from node 0 where the agent starts —
        # the agent may wander, so protect a neighbourhood by using few
        # faults late
        plan = FaultPlan([TopologyEvent(400, EDGE_DOWN, (1, 0))])
        res = bridges_under_faults(net, 0, plan, walk_steps=300, rng=3)
        assert res.reasonably_correct  # agent alive: no critical failure

    def test_agent_death_flagged(self):
        net = generators.cycle_graph(5)
        plan = FaultPlan([TopologyEvent(0, NODE_DOWN, 0)])
        res = bridges_under_faults(net, 0, plan, walk_steps=100, rng=1)
        assert not res.reasonably_correct
        assert res.detail["agent_lost"]


class TestSynchronizerComparison:
    def test_beta_breaks_alpha_survives(self):
        """The headline E14 contrast."""
        net = generators.grid_graph(3, 3)
        sync = BetaSynchronizer(net.copy(), root=0)
        tree_edge = next(iter(sync._tree_edges))
        plan = FaultPlan([TopologyEvent(5, EDGE_DOWN, tree_edge)])
        res = synchronizer_fault_comparison(net, plan, rounds=20, rng=0)
        assert res["beta_broken"]
        assert res["beta_rounds_completed"] <= 5
        assert res["alpha_min_clock"] >= 18  # keeps ticking through the fault

    def test_both_fine_without_faults(self):
        net = generators.cycle_graph(6)
        res = synchronizer_fault_comparison(net, FaultPlan([]), rounds=15, rng=1)
        assert not res["beta_broken"]
        assert res["beta_rounds_completed"] == 15
        assert res["alpha_min_clock"] == 15


class TestFaultSweepJob:
    """Campaign-job form of the kernel fault sweep (E14 sharding)."""

    def test_deterministic_in_rng(self):
        from repro.sensitivity import fault_sweep_job

        a = fault_sweep_job(rng=11, n=10, replicas=3, num_faults=2)
        b = fault_sweep_job(rng=11, n=10, replicas=3, num_faults=2)
        assert a == b
        c = fault_sweep_job(rng=12, n=10, replicas=3, num_faults=2)
        assert c != a  # the fault plan is drawn from the job's own RNG

    def test_result_shape(self):
        import json

        from repro.sensitivity import fault_sweep_job

        out = fault_sweep_job(rng=5, n=10, replicas=3, num_faults=2)
        json.dumps(out)
        assert out["reasonably_correct"] is True
        assert out["faults_applied"] <= 2
        assert len(out["rounds"]) == 3
        assert out["live_nodes"] <= 10

    def test_is_picklable(self):
        import pickle

        from repro.sensitivity import fault_sweep_job
        from repro.sensitivity.harness import _kernel_sweep_done

        assert pickle.loads(pickle.dumps(fault_sweep_job)) is fault_sweep_job
        assert (
            pickle.loads(pickle.dumps(_kernel_sweep_done)) is _kernel_sweep_done
        )


class TestKernelChurnSweep:
    """Election under general churn (E22): revivals and growth mid-run."""

    def test_growth_arrivals_reopen_and_still_converge(self):
        from repro.algorithms import election
        from repro.runtime.churn import growth_plan
        from repro.sensitivity import kernel_churn_sweep

        net = generators.complete_graph(12)
        # attach to every node present, so the network stays complete and
        # the kernel can always whittle the re-opened contest back down
        plan = growth_plan(
            net, 3, attach=net.num_nodes + 3, start=2, rng=1,
            state=election.K_REMAIN0,
        )
        res = kernel_churn_sweep(net.copy(), plan, replicas=4, rng=7)
        assert res.reasonably_correct
        assert res.faults_applied == 3  # every arrival fired
        assert res.detail["up_events"] == 3
        assert res.detail["live_nodes"] == 15
        assert all(r <= 1 for r in res.detail["remaining"])

    def test_not_converged_while_plan_pending(self):
        """A plan whose last arrival lies beyond max_steps keeps every
        replica unconverged: a pending arrival can re-add contenders."""
        from repro.algorithms import election
        from repro.runtime.churn import ChurnPlan
        from repro.sensitivity import kernel_churn_sweep

        net = generators.complete_graph(8)
        plan = ChurnPlan(
            [TopologyEvent(10_000, "node-up", "late",
                           state=election.K_REMAIN0, edges=(0, 1))]
        )
        res = kernel_churn_sweep(net.copy(), plan, replicas=3, rng=3,
                                 max_steps=40)
        assert not res.reasonably_correct
        assert res.detail["converged"] == [False, False, False]

    def test_mixed_churn_metrics(self):
        from repro.algorithms import election
        from repro.runtime.churn import random_churn_plan
        from repro.runtime.telemetry import MetricsRegistry
        from repro.sensitivity import kernel_churn_sweep

        net = generators.complete_graph(16)
        plan = random_churn_plan(
            net, 6, max_time=6, rng=2, p_up=0.5,
            boot_state=election.K_REMAIN0,
        )
        met = MetricsRegistry()
        res = kernel_churn_sweep(
            net.copy(), plan, replicas=4, rng=9, metrics=met
        )
        assert met.get("churn_events") == res.faults_applied
        assert met.get("fault_events") == (
            res.faults_applied - res.detail["up_events"]
        )


class TestChurnResilience:
    """The accuracy-vs-churn-rate curve and its campaign-job form (E22)."""

    def test_job_deterministic_and_json_safe(self):
        import json

        from repro.sensitivity import churn_resilience_job

        a = churn_resilience_job(rng=21, n=12, replicas=3, num_events=3)
        b = churn_resilience_job(rng=21, n=12, replicas=3, num_events=3)
        assert a == b
        json.dumps(a)
        assert a["churn_rate"] == 3 / 8
        assert 0.0 <= a["converged_fraction"] <= 1.0
        assert a["events_applied"] <= 3

    def test_zero_events_is_the_fault_free_baseline(self):
        from repro.sensitivity import churn_resilience_job

        out = churn_resilience_job(rng=4, n=12, replicas=3, num_events=0)
        assert out["churn_rate"] == 0.0
        assert out["events_applied"] == 0
        assert out["reasonably_correct"] is True
        assert out["converged_fraction"] == 1.0

    def test_curve_shape(self):
        from repro.sensitivity import resilience_curve

        curve = resilience_curve(
            (0, 4), n=10, replicas=2, seeds=2, rng=13, max_steps=2_000
        )
        assert [pt["num_events"] for pt in curve] == [0, 4]
        assert curve[0]["churn_rate"] == 0.0 and curve[0]["accuracy"] == 1.0
        for pt in curve:
            assert 0.0 <= pt["accuracy"] <= 1.0
            assert pt["mean_rounds"] > 0
            assert pt["seeds"] == 2 and pt["replicas"] == 2

    def test_job_is_picklable(self):
        import pickle

        from repro.sensitivity import churn_resilience_job

        assert (
            pickle.loads(pickle.dumps(churn_resilience_job))
            is churn_resilience_job
        )
