"""Telemetry layer: metrics registry, unified event stream, manifests/replay,
and the stateful run-reuse bugfixes (fault-plan cursors, trace snapshots,
CSR cache × fault masks across runs sharing a Network)."""

import json

import numpy as np
import pytest

from repro import (
    MetricsObserver,
    MetricsRegistry,
    ReplayMismatchError,
    replay,
    run,
)
from repro.algorithms import election
from repro.algorithms import shortest_paths as sp
from repro.algorithms import two_coloring as tc
from repro.network import NetworkState, generators
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.churn import (
    EDGE_DOWN, NODE_DOWN, NODE_UP, ChurnPlan, TopologyEvent,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.telemetry import (
    EventStream,
    RunEndedEvent,
    RunStartedEvent,
    StepEvent,
    capture_rng,
    network_fingerprint,
    restore_rng,
    state_fingerprint,
)
from repro.runtime.trace import StepRecord, Trace
from repro.runtime.vectorized import VectorizedSynchronousEngine
from repro.sensitivity.harness import bridges_under_faults, kernel_fault_sweep


def _coloring_workload(n=8):
    net = generators.cycle_graph(n)
    automaton, init = tc.build(net, origin=0)
    return net, automaton, init


def _distance_workload(n=12):
    net = generators.path_graph(n)
    automaton, init = sp.build(net, [0], cap=n)
    return net, automaton, init


def _kernel_workload(n=16):
    net = generators.complete_graph(n)
    return net, election.coin_kernel_programs(), election.coin_kernel_init(net)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_series(self):
        met = MetricsRegistry()
        met.inc("steps")
        met.inc("steps", 4)
        met.observe("density", 0.5)
        met.observe("density", 0.25)
        assert met.get("steps") == 5
        assert met.get("missing") == 0
        assert met.series["density"] == [0.5, 0.25]

    def test_timer(self):
        met = MetricsRegistry()
        with met.timer("block"):
            pass
        assert len(met.series["block"]) == 1
        assert met.series["block"][0] >= 0.0

    def test_snapshot_is_detached(self):
        met = MetricsRegistry()
        met.inc("a")
        met.observe("s", 1)
        snap = met.snapshot()
        met.inc("a")
        met.observe("s", 2)
        assert snap == {"counters": {"a": 1}, "series": {"s": [1]}, "tags": {}}

    def test_run_wires_engine_and_cache_counters(self):
        net, automaton, init = _distance_workload()
        met = MetricsRegistry()
        res = run(automaton, net, init, metrics=met)
        assert met.get("steps") == res.steps
        assert met.get("node_updates") == sum(res.change_counts)
        assert met.get("rng_draws") == res.rng_draws == 0
        assert "lowering_cache_hits" in met.counters
        assert "lowering_cache_misses" in met.counters
        assert met.get("csr_rebuilds") <= 1
        assert len(met.series["run_wall_time"]) == 1

    def test_run_counts_draws_and_faults(self):
        net, programs, init = _kernel_workload(8)
        plan = FaultPlan.node_faults({2: 7})
        met = MetricsRegistry()
        res = run(
            programs, net, init, randomness=2, rng=3, fault_plan=plan,
            until=6, metrics=met,
        )
        assert met.get("steps") == 6
        assert met.get("rng_draws") == res.rng_draws > 0
        assert met.get("fault_events") == 1

    def test_batched_quiescence_density_series(self):
        net, automaton, init = _coloring_workload()
        met = MetricsRegistry()
        res = run(automaton, net, init, replicas=4, metrics=met)
        dens = met.series["active_fraction"]
        assert len(dens) == res.steps
        assert dens[0] == 1.0
        # identical deterministic replicas converge together
        assert dens[-1] > 0.0

    def test_metrics_do_not_perturb_the_run(self):
        net, programs, init = _kernel_workload(8)
        res_plain = run(programs, net, init, randomness=2, rng=5, until=10)
        res_metered = run(
            programs, net, init, randomness=2, rng=5, until=10,
            metrics=MetricsRegistry(),
        )
        assert res_metered.final_state == res_plain.final_state
        assert res_metered.rng_draws == res_plain.rng_draws


# ----------------------------------------------------------------------
# the unified event stream
# ----------------------------------------------------------------------
class TestEventStream:
    def test_step_record_is_step_event(self):
        # one schema: the legacy trace record and the telemetry step event
        # are the same type, same positional signature
        assert StepRecord is StepEvent
        rec = StepRecord(0, {1: ("a", "b")}, [])
        assert rec.change_count == 1
        assert not rec.quiescent
        assert StepRecord(3, {}, []).quiescent
        assert not StepRecord(3, {}, ["fault"]).quiescent

    def test_count_only_events(self):
        ev = StepEvent(2, change_count=5)
        assert ev.changes is None
        assert not ev.quiescent
        assert StepEvent(2, change_count=0).quiescent

    def test_stream_collects_and_filters(self):
        stream = EventStream()
        stream.emit(RunStartedEvent(n_nodes=4))
        stream.emit(StepEvent(0, {1: ("a", "b")}))
        stream.emit(StepEvent(1, {}))
        stream.emit(RunEndedEvent(steps=2))
        assert len(stream) == 4
        assert [e.time for e in stream.step_events()] == [0, 1]

    def test_jsonl_round_trip(self, tmp_path):
        stream = EventStream()
        stream.emit(RunStartedEvent(n_nodes=3, engine="vectorized"))
        stream.emit(
            StepEvent(0, {(0, 1): ("a", "b")}, [TopologyEvent(0, NODE_DOWN, 7)])
        )
        stream.emit(RunEndedEvent(steps=1, converged=True))
        path = tmp_path / "events.jsonl"
        stream.to_jsonl(path)
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [x["type"] for x in lines] == ["run_started", "step", "run_ended"]
        assert lines[1]["change_count"] == 1
        assert lines[1]["faults"][0]["kind"] == NODE_DOWN
        assert lines[2]["converged"] is True

    def test_dump_load_dump_identity(self):
        # the satellite acceptance check: loads() is dumps()'s inverse at
        # the JSONL level, so a second dump reproduces the bytes exactly
        stream = EventStream()
        stream.emit(RunStartedEvent(n_nodes=3, engine="vectorized"))
        stream.emit(
            StepEvent(0, {0: ("a", "b")}, [TopologyEvent(0, NODE_DOWN, 7)])
        )
        stream.emit(StepEvent(1, change_count=4))
        stream.emit(RunEndedEvent(steps=2, converged=True))
        text = stream.dumps()
        assert EventStream.loads(text).dumps() == text

    def test_loads_restores_typed_events(self):
        stream = EventStream()
        stream.emit(StepEvent(5, {}, []))
        stream.emit(RunEndedEvent(steps=6))
        loaded = EventStream.loads(stream.dumps())
        assert [type(e) for e in loaded] == [StepEvent, RunEndedEvent]
        assert loaded.events[0].time == 5 and loaded.events[0].quiescent
        assert loaded.events[1].steps == 6

    def test_loads_from_live_run_round_trips(self):
        net, automaton, init = _coloring_workload()
        stream = EventStream()
        run(automaton, net, init, observers=(MetricsObserver(stream=stream),))
        text = stream.dumps()
        assert EventStream.loads(text).dumps() == text

    def test_loads_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown event type"):
            EventStream.loads('{"type": "mystery", "x": 1}\n')

    def test_loads_drops_unknown_fields(self):
        text = '{"type": "run_ended", "steps": 3, "future_field": "?"}\n'
        loaded = EventStream.loads(text)
        assert loaded.events[0].steps == 3

    def test_loads_empty(self):
        assert len(EventStream.loads("")) == 0
        assert EventStream.loads("").dumps() == ""

    def test_from_jsonl_inverts_to_jsonl(self, tmp_path):
        stream = EventStream()
        stream.emit(RunStartedEvent(n_nodes=2))
        stream.emit(RunEndedEvent(steps=0, converged=False))
        path = tmp_path / "ev.jsonl"
        stream.to_jsonl(path)
        again = EventStream.from_jsonl(path)
        assert again.dumps() == stream.dumps()

    def test_observers_share_one_stream(self):
        net, automaton, init = _coloring_workload()
        stream = EventStream()
        tr = Trace(stream=stream)
        run(
            automaton, net, init,
            observers=(MetricsObserver(stream=stream),),
        )
        sim = SynchronousSimulator(net, automaton, init, trace=tr)
        sim.step()
        # both producers emitted into the same stream, same record type
        kinds = {type(e).__name__ for e in stream}
        assert kinds == {"RunStartedEvent", "StepEvent", "RunEndedEvent"}


# ----------------------------------------------------------------------
# trace: a view over the stream; snapshots stay aligned (PR 4 bugfix)
# ----------------------------------------------------------------------
class TestTraceUnification:
    def test_trace_is_a_stream_view(self):
        tr = Trace()
        tr.record(0, {1: ("a", "b")})
        tr.record(1, {}, ["fault"])
        assert tr.steps == tr.stream.step_events()
        assert len(tr) == 2
        assert tr.changed_nodes() == {1}
        assert tr.stream.dumps().count("\n") == 2

    def test_snapshot_none_placeholder_keeps_alignment(self):
        tr = Trace(snapshots=True)
        tr.record(0, {1: ("a", "b")}, state=None)  # no state available
        tr.record(1, {}, state=NetworkState({1: "b"}))
        assert len(tr.snapshots) == len(tr.steps) == 2
        assert tr.snapshots[0] is None
        assert tr.snapshots[1][1] == "b"

    def test_snapshots_align_through_simulator(self):
        net, automaton, init = _coloring_workload()
        tr = Trace(snapshots=True)
        sim = SynchronousSimulator(net, automaton, init, trace=tr)
        sim.run(3)
        assert len(tr.snapshots) == len(tr.steps) == 3
        assert all(s is not None for s in tr.snapshots)


# ----------------------------------------------------------------------
# fault plans: reused cursors auto-reset (PR 4 bugfix)
# ----------------------------------------------------------------------
class TestFaultPlanReuse:
    def test_consumed_property(self):
        plan = FaultPlan.node_faults({1: 3})
        assert not plan.consumed
        net = generators.path_graph(5)
        plan.apply_due(net, 2)
        assert plan.consumed and plan.exhausted
        plan.reset()
        assert not plan.consumed

    def test_run_reuses_plan_across_calls(self):
        plan = FaultPlan.node_faults({1: 4})
        applied_counts = []
        for _ in range(2):
            net, automaton, init = _distance_workload(8)
            run(automaton, net, init, fault_plan=plan, until="stable")
            applied_counts.append(len(plan.applied))
        # before the auto-reset fix the second run silently applied nothing
        assert applied_counts == [1, 1]

    @pytest.mark.parametrize("engine_cls", ["vectorized", "batched", "reference"])
    def test_engine_constructors_reset_consumed_plans(self, engine_cls):
        plan = FaultPlan.edge_faults({1: (2, 3)})
        results = []
        for _ in range(2):
            net, automaton, init = _distance_workload(8)
            if engine_cls == "vectorized":
                eng = VectorizedSynchronousEngine(net, automaton, init, fault_plan=plan)
                eng.run(4)
            elif engine_cls == "batched":
                eng = BatchedSynchronousEngine(
                    net, automaton, init, replicas=2, fault_plan=plan
                )
                eng.run(4)
            else:
                sim = SynchronousSimulator(net, automaton, init, fault_plan=plan)
                sim.run(4)
            results.append(len(plan.applied))
        assert results == [1, 1]

    def test_kernel_fault_sweep_reuses_plan(self):
        plan = FaultPlan.node_faults({1: 5})
        for _ in range(2):
            net = generators.complete_graph(8)
            res = kernel_fault_sweep(net, plan, replicas=2, rng=0, max_steps=500)
            assert res.faults_applied == 1

    def test_bridges_harness_reuses_plan(self):
        plan = FaultPlan.edge_faults({0: (8, 9)})
        for _ in range(2):
            net = generators.path_graph(10)
            res = bridges_under_faults(net, 0, plan, walk_steps=3, rng=1)
            assert res.faults_applied == 1

    def test_sweep_metrics_pass_through(self):
        met = MetricsRegistry()
        net = generators.complete_graph(8)
        plan = FaultPlan.node_faults({1: 5})
        kernel_fault_sweep(net, plan, replicas=2, rng=0, max_steps=500, metrics=met)
        assert met.get("steps") > 0
        assert met.get("fault_events") == 1
        assert met.series["active_fraction"]


# ----------------------------------------------------------------------
# change-count parity under until="stable" (PR 4 regression)
# ----------------------------------------------------------------------
class TestChangeCountParity:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_observer_matches_result_under_stable(self, engine):
        net, automaton, init = _distance_workload()
        ob = MetricsObserver()
        res = run(automaton, net, init, engine=engine, until="stable", observers=(ob,))
        assert ob.change_counts == res.change_counts
        assert len(ob.change_counts) == res.steps
        # the confirming no-change step is counted by both paths
        assert ob.change_counts[-1] == 0

    def test_batched_parity_under_stable(self):
        net, automaton, init = _coloring_workload()
        ob = MetricsObserver()
        res = run(automaton, net, init, replicas=3, until="stable", observers=(ob,))
        assert ob.change_counts == res.change_counts
        assert ob.change_counts[-1] == 0

    def test_born_stable_counts_one_step_everywhere(self):
        net = generators.cycle_graph(6)
        automaton, _ = tc.build(net, origin=0)
        # already a fixed point: sticky colouring from an all-coloured state
        stable = NetworkState.from_function(
            net, lambda v: tc.RED if v % 2 == 0 else tc.BLUE
        )
        for kwargs in ({"engine": "reference"}, {"engine": "vectorized"},
                       {"replicas": 2}):
            ob = MetricsObserver()
            res = run(
                automaton, net, stable, until="stable", observers=(ob,), **kwargs
            )
            assert res.steps == 1
            assert ob.change_counts == res.change_counts == [0]

    def test_faulted_stable_parity(self):
        plan = FaultPlan.node_faults({1: 11})
        net, automaton, init = _distance_workload()
        ob = MetricsObserver()
        res = run(
            automaton, net, init, fault_plan=plan, until="stable", observers=(ob,)
        )
        assert ob.change_counts == res.change_counts
        assert ob.change_counts[-1] == 0


# ----------------------------------------------------------------------
# Network shared between runs: CSR cache × fault masks (PR 4 coverage)
# ----------------------------------------------------------------------
class TestNetworkReuseAcrossRuns:
    def test_fault_masks_do_not_leak_into_next_run(self):
        net, automaton, init = _distance_workload(8)
        plan = FaultPlan.node_faults({1: 7})
        run(automaton, net, init, fault_plan=plan, until="stable")
        assert 7 not in net  # run 1 really mutated the shared instance

        # run 2 shares the instance, no faults: it must see exactly the
        # post-fault topology, not run 1's alive-masks or stale CSR
        init2 = NetworkState({v: init[v] for v in net})
        res2 = run(automaton, net, init2, until="stable")
        fresh = generators.path_graph(7)  # path 0..6 == surviving graph
        automaton_f, init_f = sp.build(fresh, [0], cap=8)
        res_fresh = run(automaton_f, fresh, init_f, until="stable")
        assert {v: res2.final_state[v] for v in net} == {
            v: res_fresh.final_state[v] for v in fresh
        }

    def test_manual_mutation_between_runs_invalidates_csr(self):
        net, automaton, init = _distance_workload(6)
        rebuilds0 = net.csr_rebuilds
        run(automaton, net, init, until="stable")
        assert net.csr_rebuilds == rebuilds0 + 1
        run(automaton, net, init, until="stable")
        assert net.csr_rebuilds == rebuilds0 + 1  # cache hit, no rebuild

        net.remove_edge(4, 5)  # mutation invalidates the instance cache
        init2 = NetworkState({v: init[v] for v in net})
        res = run(automaton, net, init2, until="stable")
        assert net.csr_rebuilds == rebuilds0 + 2
        assert res.final_state[5] == (False, 6)  # node 5 now unreachable

    @pytest.mark.parametrize("make_plan", [
        lambda init: FaultPlan.edge_faults({1: (2, 3)}),
        lambda init: FaultPlan.node_faults({1: 3}),
        lambda init: ChurnPlan([
            TopologyEvent(1, NODE_DOWN, 3),
            TopologyEvent(2, NODE_UP, 3, state=init[3], edges=(2,)),
        ]),
    ], ids=["edge-fault", "node-fault", "arrival"])
    def test_edge_fault_does_not_corrupt_shared_csr(self, make_plan):
        net, automaton, init = _distance_workload(6)
        mat0, _ = net.to_csr()
        data_before = mat0.data.copy()
        run(automaton, net, init, fault_plan=make_plan(init), until="stable")
        # every plan kind writes stored entries (a node fault zeroes the
        # node's row and its mirrors), so the engine writes into its own
        # copy; the matrix other holders may still reference is untouched
        assert np.array_equal(mat0.data, data_before)
        # and the network's own cache was invalidated by the topology edit
        mat1, _ = net.to_csr()
        assert mat1 is not mat0


# ----------------------------------------------------------------------
# manifests and deterministic replay
# ----------------------------------------------------------------------
ENGINES = ["reference", "vectorized", "batched"]


def _run_for(engine, *, flavour, seed=17):
    """One run() call per (engine, flavour) acceptance cell."""
    kwargs = {"replicas": 2} if engine == "batched" else {"engine": engine}
    if flavour == "deterministic":
        net, automaton, init = _distance_workload()
        return run(automaton, net, init, until="stable", **kwargs)
    if flavour == "probabilistic":
        net, programs, init = _kernel_workload()
        return run(
            programs, net, init, randomness=2,
            rng=np.random.default_rng(seed), until=9, **kwargs
        )
    net, automaton, init = _distance_workload()
    plan = FaultPlan(
        [TopologyEvent(1, NODE_DOWN, 11), TopologyEvent(2, EDGE_DOWN, (4, 5))]
    )
    return run(automaton, net, init, fault_plan=plan, until="stable", **kwargs)


class TestManifestReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flavour", ["deterministic", "probabilistic", "faulted"]
    )
    def test_replay_is_bitwise_identical(self, engine, flavour):
        res = _run_for(engine, flavour=flavour)
        man = res.manifest
        assert man is not None and man.engine == engine
        # replay() itself raises ReplayMismatchError on any divergence of
        # fingerprints, steps or draws — reaching the asserts means bitwise
        replayed = replay(man)
        assert replayed.final_state == res.final_state
        assert replayed.steps == res.steps
        assert replayed.rng_draws == res.rng_draws
        if engine == "batched":
            assert replayed.replica_states == res.replica_states

    def test_manifest_contents(self):
        net, programs, init = _kernel_workload(8)
        res = run(programs, net, init, randomness=2, rng=5, until=4)
        man = res.manifest
        assert man.ir_hash is not None
        assert man.network == network_fingerprint(net)
        assert man.rng == ("seed", 5)
        assert man.steps == 4
        assert man.final_fingerprint == state_fingerprint(res.final_state)
        obj = json.loads(man.to_json())
        assert obj["engine"] == "vectorized"
        assert obj["versions"]["numpy"]

    def test_ir_hash_is_stable_and_content_sensitive(self):
        from repro.core.ir import lower

        net, programs, init = _kernel_workload(8)
        h1 = lower(programs, 2).content_hash()
        h2 = lower(dict(programs), 2).content_hash()
        assert h1 == h2
        other = lower(tc.sticky_programs()).content_hash()
        assert other != h1

    def test_faulted_manifest_snapshots_prefault_topology(self):
        net, automaton, init = _distance_workload(8)
        plan = FaultPlan.node_faults({1: 7})
        res = run(automaton, net, init, fault_plan=plan, until="stable")
        assert 7 not in net  # original was mutated...
        assert 7 in res.manifest.network_nodes  # ...but the manifest kept it

    def test_generator_rng_capture_restores_position(self):
        gen = np.random.default_rng(123)
        gen.integers(10, size=7)  # advance the stream
        captured = capture_rng(gen)
        want = gen.integers(1000, size=5).tolist()
        got = restore_rng(captured).integers(1000, size=5).tolist()
        assert got == want

    def test_replay_of_consumed_generator_run(self):
        net, programs, init = _kernel_workload(8)
        gen = np.random.default_rng(99)
        gen.integers(10, size=3)  # not at the seed position anymore
        res = run(programs, net, init, randomness=2, rng=gen, until=6)
        replayed = replay(res.manifest)
        assert replayed.final_state == res.final_state

    @pytest.mark.parametrize("engine", ENGINES)
    def test_replay_after_manual_plan_consumption(self, engine):
        # regression: a plan partially consumed by a manual apply_due (and
        # kept alive by the caller) must not make the run — or its replay —
        # start from the stale cursor position; both re-apply the full
        # remaining schedule per the churn.py cursor contract
        from repro.runtime.churn import NODE_UP, ChurnPlan

        net, automaton, init = _distance_workload(10)
        events = [
            TopologyEvent(1, NODE_DOWN, 7),
            TopologyEvent(2, EDGE_DOWN, (3, 4)),
        ]
        if engine != "batched":  # batched boots scatter; keep dets simple
            events.append(
                TopologyEvent(3, NODE_UP, "x", state=init.get(0), edges=(5, 6))
            )
        plan = ChurnPlan(events)
        plan.apply_due(net, 1, init)  # caller consumes the first event
        assert plan.consumed
        kwargs = {"replicas": 2} if engine == "batched" else {"engine": engine}
        res = run(
            automaton, net, init, fault_plan=plan, until=8, max_steps=20,
            **kwargs,
        )
        replayed = replay(res.manifest)  # raises ReplayMismatchError on drift
        assert replayed.final_state == res.final_state
        assert replayed.steps == res.steps

    def test_replay_is_immune_to_caller_consuming_the_plan_later(self):
        # the manifest snapshots events by value; replay rebuilds a fresh
        # plan, so advancing the original plan object after the run cannot
        # shift the replay cursor
        net, automaton, init = _distance_workload(8)
        plan = FaultPlan.node_faults({1: 6, 3: 2})
        res = run(automaton, net, init, fault_plan=plan, until="stable")
        plan.apply_due(net.copy(), 99)  # caller keeps (ab)using the plan
        assert plan.consumed
        replayed = replay(res.manifest)
        assert replayed.final_state == res.final_state

    def test_replay_mismatch_raises(self):
        net, automaton, init = _distance_workload()
        res = run(automaton, net, init, until="stable")
        res.manifest.final_fingerprint = "0" * 64
        with pytest.raises(ReplayMismatchError, match="fingerprint"):
            replay(res.manifest)

    def test_replay_requires_an_outcome(self):
        net, automaton, init = _distance_workload()
        res = run(automaton, net, init, until="stable")
        res.manifest.final_fingerprint = None
        with pytest.raises(ValueError, match="no outcome"):
            replay(res.manifest)

    def test_manifest_content_hash_is_process_independent(self):
        # the campaign store records this hash next to each job, so it
        # must not depend on object addresses: two runs of the same
        # spec-seeded workload hash identically even though their
        # `until` predicates are distinct function objects
        from repro.runtime.telemetry import manifest_content_hash

        def make():
            net, programs, init = _kernel_workload(8)
            return run(
                programs, net, init, randomness=2, rng=5,
                until=election.kernel_unique_survivor,
            )

        h1 = manifest_content_hash(make().manifest)
        h2 = manifest_content_hash(make().manifest)
        assert h1 == h2 and len(h1) == 64

    def test_fingerprint_ignores_later_mutation_of_the_result(self):
        net, programs, init = _kernel_workload(8)
        res = run(programs, net, init, randomness=2, rng=5, until=4)
        want = state_fingerprint(res.final_state)
        for v in res.final_state:
            res.final_state[v] = election.K_OUT
        assert res.manifest.final_fingerprint == want
        replayed = replay(res.manifest)
        assert state_fingerprint(replayed.final_state) == want

    @pytest.mark.parametrize("replicas, golden", [
        (None, "b37187d340f2ef2a4c53dae8e698df732d0314e4d6c818624291988cdb81cfca"),
        (3, "aca1a590861ce2f40e28ba632841dfbd53414a633622648dba8a813dd66f2d07"),
    ])
    def test_manifest_content_hash_is_pinned(self, replicas, golden):
        # the campaign store keeps these hashes across releases: the lazy
        # fingerprints must serialize exactly as the eager ones did
        from repro.runtime.telemetry import manifest_content_hash

        net, programs, init = _kernel_workload(16)
        res = run(programs, net, init, randomness=2, rng=5, replicas=replicas,
                  until=election.kernel_unique_survivor)
        res.manifest.versions = {  # the library versions vary by host
            "python": "3", "numpy": "2", "scipy": "1", "repro": "1.0.0",
        }
        assert manifest_content_hash(res.manifest) == golden

    def test_replay_rejects_tampered_replica_fingerprints(self):
        net, programs, init = _kernel_workload(8)
        res = run(programs, net, init, randomness=2, rng=5, replicas=3,
                  until=4)
        res.manifest.replica_fingerprints = ["0" * 64] * 3
        with pytest.raises(ReplayMismatchError, match="per-replica"):
            replay(res.manifest)

    def test_manifest_content_hash_is_content_sensitive(self):
        from repro.runtime.telemetry import manifest_content_hash

        net, programs, init = _kernel_workload(8)
        a = run(programs, net, init, randomness=2, rng=5, until=4)
        net2, programs2, init2 = _kernel_workload(8)
        b = run(programs2, net2, init2, randomness=2, rng=6, until=4)
        assert manifest_content_hash(a.manifest) != manifest_content_hash(
            b.manifest
        )

    def test_callable_name_has_no_address(self):
        from repro.runtime.telemetry import _callable_name

        name = _callable_name(election.kernel_unique_survivor)
        assert name == "repro.algorithms.election.kernel_unique_survivor"
        anonymous = _callable_name(lambda s: True)
        assert "0x" not in anonymous and "<lambda>" in anonymous

    def test_reference_only_automaton_still_replays(self):
        # census reads view.support() — not lowerable, ir_hash is None,
        # identity is carried by the live automaton reference
        from repro.algorithms import census

        net = generators.cycle_graph(6)
        automaton, init = census.build(net, rng=np.random.default_rng(4))
        res = run(automaton, net, init, rng=np.random.default_rng(8), until=12)
        assert res.engine == "reference"
        assert res.manifest.ir_hash is None
        replayed = replay(res.manifest)
        assert replayed.final_state == res.final_state
