"""Tests for the :mod:`repro.runtime.api` front door.

Covers engine auto-selection (every mod-thresh algorithm must land on the
vectorized engine), the unified termination convention, the observer
interface, argument validation, and the bitwise reference ≡ vectorized
regression on seeded probabilistic automata — the front-door extension of
the engine-conformance harness.
"""

import numpy as np
import pytest
from test_engine_conformance import (
    random_churn_events,
    random_init,
    random_network,
    random_probabilistic_programs,
)

from repro import MetricsObserver, StepObserver, TraceObserver, run
from repro.core.automaton import FSSGA
from repro.core.modthresh import ModThreshProgram
from repro.network import NetworkState, generators
from repro.runtime.api import supports_vectorized
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.trace import Trace


def _hold_programs():
    """Every state maps to itself: stable from birth."""
    return {q: ModThreshProgram(clauses=(), default=q) for q in ("a", "b")}


def _blinker_programs():
    """a <-> b forever: no fixed point exists."""
    return {
        "a": ModThreshProgram(clauses=(), default="b"),
        "b": ModThreshProgram(clauses=(), default="a"),
    }


def _two_state_net(n=5):
    net = generators.path_graph(n)
    init = NetworkState.from_function(net, lambda v: "a" if v % 2 else "b")
    return net, init


#: The run() paths the termination policy must agree on.
TERMINATION_PATHS = ["reference", "vectorized", "batched", "quotient"]


def _path_kwargs(engine, net):
    """run() keywords selecting ``engine`` on ``net``: one replica for
    ``"batched"``; for ``"quotient"`` the path's reflection is declared
    (the alternating init of an odd :func:`_two_state_net` is constant on
    its orbits)."""
    if engine == "batched":
        return {"engine": engine, "replicas": 1}
    if engine == "quotient":
        from repro.network.symmetry import AutomorphismGroup

        last = net.num_nodes - 1
        net.declare_symmetry(
            AutomorphismGroup([{v: last - v for v in net}], name="reflection")
        )
    return {"engine": engine}


class _Recorder(StepObserver):
    """Collects every on_step call for parity assertions."""

    def __init__(self):
        self.events = []
        self.started = self.ended = False

    def on_run_start(self, net, state):
        self.started = True

    def on_step(self, time, changes, faults):
        self.events.append((time, dict(changes), list(faults)))

    def on_run_end(self, result):
        self.ended = True


# ----------------------------------------------------------------------
# engine auto-selection
# ----------------------------------------------------------------------
class TestAutoSelection:
    def test_two_coloring_selects_vectorized(self):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        assert run(automaton, net, init).engine == "vectorized"

    def test_bfs_selects_vectorized(self):
        from repro.algorithms import bfs

        net = generators.grid_graph(3, 3)
        automaton, init = bfs.build(net, originator=0, targets=[8])
        assert run(automaton, net, init).engine == "vectorized"

    def test_shortest_paths_selects_vectorized(self):
        from repro.algorithms import shortest_paths

        net = generators.grid_graph(3, 4)
        automaton, init = shortest_paths.build(net, targets=[0])
        assert run(automaton, net, init).engine == "vectorized"

    def test_coin_kernel_with_replicas_selects_batched(self):
        from repro.algorithms import election

        net = generators.complete_graph(6)
        res = run(
            election.coin_kernel_programs(),
            net,
            election.coin_kernel_init(net),
            replicas=3,
            randomness=2,
            rng=5,
            until=lambda s: sum(q != election.K_OUT for q in s.values()) <= 1,
            max_steps=500,
        )
        assert res.engine == "batched"
        assert len(res.replica_states) == 3

    def test_rule_based_census_falls_back_to_reference(self):
        from repro.algorithms import census

        net = generators.connected_gnp_graph(12, 0.4, 0)
        automaton, init = census.build(net, rng=0)
        assert automaton.is_rule_based
        assert run(automaton, net, init).engine == "reference"

    def test_fault_plan_stays_vectorized(self):
        # fault plans are lowered into live-node masks, not interpreted:
        # a faulted run of a lowerable automaton keeps the fast path
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        plan = FaultPlan([TopologyEvent(2, NODE_DOWN, 4)])
        res = run(automaton, net, init, fault_plan=plan, max_steps=200)
        assert res.engine == "vectorized"
        assert 4 not in res.final_state

    def test_reference_escape_hatch(self):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        res = run(automaton, net, init, engine="reference")
        assert res.engine == "reference"

    def test_supports_vectorized(self):
        assert supports_vectorized(_hold_programs())
        assert supports_vectorized(FSSGA.from_programs(_hold_programs()))
        assert not supports_vectorized({})
        assert not supports_vectorized({"a": lambda own, nbrs: own})
        assert not supports_vectorized(
            FSSGA({"a", "b"}, lambda own, nbrs: own)
        )


class TestQuotientNegotiation:
    """Quotient selection and its negative paths: every blocked run names
    the *actual* obstruction (regression-proofing the misleading-error
    class) — and ``auto`` falls back to a full-graph engine instead of
    failing."""

    @staticmethod
    def _declared_cycle(n=8):
        from repro.network.symmetry import cyclic_rotation

        net = generators.cycle_graph(n)
        net.declare_symmetry(cyclic_rotation(n))
        return net

    def test_auto_selects_quotient_when_eligible(self):
        net = self._declared_cycle()
        init = NetworkState.uniform(net, "a")
        res = run(_blinker_programs(), net, init, until=5)
        assert res.engine == "quotient"
        ref = run(
            _blinker_programs(), generators.cycle_graph(8), init, until=5,
            engine="vectorized",
        )
        assert res.final_state == ref.final_state
        assert res.change_counts == ref.change_counts

    def test_non_orbit_constant_init_falls_back_naming_blocker(self):
        from repro.core.ir import QuotientLoweringError

        net = self._declared_cycle()
        init = NetworkState.from_function(
            net, lambda v: "a" if v == 0 else "b"
        )
        assert run(_hold_programs(), net, init, until=2).engine == "vectorized"
        with pytest.raises(
            QuotientLoweringError, match="not orbit-constant"
        ) as exc:
            run(_hold_programs(), net, init, until=2, engine="quotient")
        assert exc.value.blocker == "init-not-orbit-constant"

    def test_fault_plan_falls_back_naming_blocker(self):
        from repro.core.ir import QuotientLoweringError

        net = self._declared_cycle()
        init = NetworkState.uniform(net, "a")
        plan = FaultPlan([TopologyEvent(1, NODE_DOWN, 3)])
        res = run(_hold_programs(), net, init, until=3, fault_plan=plan)
        assert res.engine == "vectorized"  # faults break symmetry
        with pytest.raises(QuotientLoweringError, match="break symmetry") as exc:
            run(
                _hold_programs(), net, init, until=3,
                fault_plan=FaultPlan([TopologyEvent(1, NODE_DOWN, 3)]),
                engine="quotient",
            )
        assert exc.value.blocker == "fault-plan"

    def test_churn_plan_names_its_own_blocker(self):
        """A plan that *adds* topology gets the dedicated ``churn-plan``
        blocker (an arrival changes the node set itself, which no orbit
        partition of the original network describes); ``auto`` falls back
        to the full-graph path, which runs the arrival end to end."""
        from repro.core.ir import QuotientLoweringError
        from repro.runtime.churn import ChurnPlan

        net = self._declared_cycle()
        init = NetworkState.uniform(net, "a")
        events = [
            TopologyEvent(1, "node-down", 3),
            TopologyEvent(2, "node-up", "x", state="b", edges=(0, 1)),
        ]
        res = run(
            _hold_programs(), net, init, until=4,
            fault_plan=ChurnPlan(list(events)),
        )
        assert res.engine == "vectorized"
        assert res.final_state["x"] == "b"  # the arrival joined and held
        with pytest.raises(QuotientLoweringError, match="arrival") as exc:
            run(
                _hold_programs(), net, init, until=4,
                fault_plan=ChurnPlan(list(events)), engine="quotient",
            )
        assert exc.value.blocker == "churn-plan"

    def test_undeclared_group_falls_back_naming_blocker(self):
        from repro.core.ir import QuotientLoweringError

        net = generators.cycle_graph(8)  # no declare_symmetry
        init = NetworkState.uniform(net, "a")
        assert run(_hold_programs(), net, init, until=2).engine == "vectorized"
        with pytest.raises(
            QuotientLoweringError, match="no automorphism group"
        ) as exc:
            run(_hold_programs(), net, init, until=2, engine="quotient")
        assert exc.value.blocker == "no-group"

    def test_stale_group_after_mutation_names_blocker(self):
        from repro.core.ir import QuotientLoweringError

        net = self._declared_cycle()
        net.remove_edge(0, 1)  # mutation does not revoke the declaration
        init = NetworkState.uniform(net, "a")
        assert run(_hold_programs(), net, init, until=2).engine == "vectorized"
        with pytest.raises(QuotientLoweringError, match="stale") as exc:
            run(_hold_programs(), net, init, until=2, engine="quotient")
        assert exc.value.blocker == "stale-group"
        assert "non-edge" in str(exc.value)  # the generator's actual failure

    def test_probabilistic_auto_never_quotients(self):
        """Shared per-orbit draws are a different stochastic process
        (symmetry can never break), so ``auto`` keeps probabilistic runs on
        the full-graph path even when every structural precondition holds;
        ``engine='quotient'`` is the explicit opt-in."""
        from repro.algorithms import election
        from repro.network.symmetry import full_symmetric

        net = generators.complete_graph(6)
        net.declare_symmetry(full_symmetric(range(6)))
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        res = run(programs, net, init, randomness=2, rng=3, until=4)
        assert res.engine == "vectorized"
        opt_in = run(
            programs, net, init, randomness=2, rng=3, until=4,
            engine="quotient",
        )
        assert opt_in.engine == "quotient"
        # on the quotient, a symmetric election can never elect: all nodes
        # stay in lockstep (the semantic reason auto refuses to switch)
        assert len(set(opt_in.final_state.values())) == 1

    def test_replicas_block_quotient(self):
        from repro.core.ir import QuotientLoweringError

        net = self._declared_cycle()
        init = NetworkState.uniform(net, "a")
        with pytest.raises(QuotientLoweringError, match="replicas") as exc:
            run(
                _hold_programs(), net, init, until=2, engine="quotient",
                replicas=3,
            )
        assert exc.value.blocker == "replicas"

    def test_quotient_error_is_a_lowering_error(self):
        from repro.core.ir import LoweringError, QuotientLoweringError

        assert issubclass(QuotientLoweringError, LoweringError)
        assert issubclass(QuotientLoweringError, TypeError)

    def test_quotient_run_replays_bitwise(self):
        from repro.runtime.telemetry import replay

        net = self._declared_cycle()
        init = NetworkState.uniform(net, "a")
        res = run(_blinker_programs(), net, init, until=7)
        assert res.engine == "quotient"
        again = replay(res.manifest)
        assert again.engine == "quotient"
        assert again.final_state == res.final_state


class TestValidation:
    def test_unknown_engine(self):
        net, init = _two_state_net()
        with pytest.raises(ValueError, match="unknown engine"):
            run(_hold_programs(), net, init, engine="warp")

    def test_vectorized_executes_fault_plan(self):
        net, init = _two_state_net()
        plan = FaultPlan([TopologyEvent(1, NODE_DOWN, 0)])
        res = run(
            _hold_programs(), net, init, engine="vectorized",
            fault_plan=plan, max_steps=50,
        )
        assert res.engine == "vectorized"
        assert 0 not in res.final_state
        assert plan.exhausted

    def test_batched_needs_replicas(self):
        net, init = _two_state_net()
        with pytest.raises(ValueError, match="replicas"):
            run(_hold_programs(), net, init, engine="batched")

    def test_replicas_need_batched(self):
        net, init = _two_state_net()
        with pytest.raises(ValueError, match="replicas"):
            run(_hold_programs(), net, init, engine="vectorized", replicas=2)

    def test_replicas_reject_rule_based(self):
        net, init = _two_state_net()
        automaton = FSSGA({"a", "b"}, lambda own, nbrs: own)
        with pytest.raises(ValueError, match="rule-based"):
            run(automaton, net, init, replicas=2)

    def test_until_bool_rejected(self):
        net, init = _two_state_net()
        with pytest.raises(TypeError):
            run(_hold_programs(), net, init, until=True)

    def test_until_negative_rejected(self):
        net, init = _two_state_net()
        with pytest.raises(ValueError):
            run(_hold_programs(), net, init, until=-1)

    def test_until_junk_rejected(self):
        net, init = _two_state_net()
        with pytest.raises(TypeError):
            run(_hold_programs(), net, init, until="sideways")

    @pytest.mark.parametrize(
        "kw",
        [{"engine": "reference"}, {"engine": "vectorized"},
         {"engine": "batched", "replicas": 2}, {"engine": "quotient"}],
        ids=lambda kw: kw["engine"],
    )
    def test_init_missing_a_node_names_it_on_every_engine(self, kw):
        from repro.network.symmetry import cyclic_rotation

        net = generators.cycle_graph(8)
        net.declare_symmetry(cyclic_rotation(8))
        init = NetworkState({v: "a" for v in range(7)})
        with pytest.raises(ValueError, match=r"initial state missing for nodes \[7\]"):
            run(_hold_programs(), net, init, until=2, **kw)


# ----------------------------------------------------------------------
# capability negotiation over the compiler IR
# ----------------------------------------------------------------------
class TestCapabilityNegotiation:
    def test_rule_based_hinted_selects_vectorized(self):
        # acceptance: a rule-based FSSGA with no hand-written programs
        # lands on the vectorized engine under engine="auto"
        from repro.algorithms import random_walk as rw

        net = generators.cycle_graph(8)
        automaton, init = rw.build(net, 0)
        assert automaton.is_rule_based
        assert supports_vectorized(automaton)
        res = run(automaton, net, init, rng=3, until=20)
        assert res.engine == "vectorized"

    def test_rule_based_hinted_bitwise_matches_reference(self):
        # the reference interprets the raw Python rule; the vectorized
        # engine runs the compiled IR — seeded runs must agree bitwise
        from repro.algorithms import random_walk as rw

        net = generators.cycle_graph(8)
        automaton, init = rw.build(net, 0)
        ref = run(
            automaton, net, init, engine="reference",
            rng=np.random.default_rng(17), until=30,
        )
        vec = run(automaton, net, init, rng=np.random.default_rng(17), until=30)
        assert vec.engine == "vectorized"
        assert ref.final_state == vec.final_state
        assert ref.change_counts == vec.change_counts
        assert ref.rng_draws == vec.rng_draws

    def test_supports_vectorized_respects_hints(self):
        from repro.algorithms import census, random_walk, two_coloring

        net = generators.cycle_graph(6)
        assert supports_vectorized(two_coloring.build(net, 0)[0])
        assert supports_vectorized(random_walk.build(net, 0)[0])
        # census reads view.support(): genuinely outside the IR
        assert not supports_vectorized(census.build(net, rng=0)[0])

    def test_pinned_engine_reports_actual_blocker(self):
        # regression: the old message blamed batching/faults for every
        # incapacity; negotiation now names the blocking capability
        net, init = _two_state_net()
        automaton = FSSGA({"a", "b"}, lambda own, view: own)  # no hints
        with pytest.raises(TypeError, match="compile_hints"):
            run(automaton, net, init, engine="vectorized")

    def test_modthresh_batched_faulted_runs(self):
        # regression: fault_plan + engine="batched" on plain mod-thresh
        # programs used to be rejected as "rule-based automata cannot be
        # batched"; faults now lower to masks on every engine
        net, init = _two_state_net(6)
        plan = FaultPlan([TopologyEvent(2, NODE_DOWN, 3)])
        res = run(
            _hold_programs(), net, init, engine="batched", replicas=2,
            fault_plan=plan, until="stable",
        )
        assert res.engine == "batched"
        for state in res.replica_states:
            assert 3 not in state
        assert plan.exhausted

    def test_faulted_vectorized_matches_reference(self):
        # acceptance: identical final states on a faulted run, fast path
        from repro.algorithms import shortest_paths

        net = generators.grid_graph(4, 4)
        automaton, init = shortest_paths.build(net, targets=[0])
        events = [TopologyEvent(2, NODE_DOWN, 5), TopologyEvent(3, EDGE_DOWN, (10, 11))]
        kw = dict(until="stable", max_steps=500)
        ref = run(
            automaton, net.copy(), init, engine="reference",
            fault_plan=FaultPlan(events), **kw,
        )
        vec = run(
            automaton, net.copy(), init, engine="vectorized",
            fault_plan=FaultPlan(events), **kw,
        )
        assert vec.engine == "vectorized"
        assert ref.final_state == vec.final_state
        assert ref.steps == vec.steps
        assert ref.change_counts == vec.change_counts


# ----------------------------------------------------------------------
# the unified termination convention
# ----------------------------------------------------------------------
class TestTermination:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_fixed_step_count_is_exact(self, engine):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        res = run(automaton, net, init, engine=engine, until=3)
        assert res.steps == 3
        sim = SynchronousSimulator(net, automaton, init.copy())
        sim.run(3)
        assert res.final_state == sim.state

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_zero_steps(self, engine):
        net, init = _two_state_net()
        res = run(_hold_programs(), net, init, engine=engine, until=0)
        assert res.steps == 0
        assert res.final_state == init
        assert res.change_counts == []

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_born_stable_counts_the_confirming_step(self, engine):
        net, init = _two_state_net()
        res = run(_hold_programs(), net, init, engine=engine, until="stable")
        assert res.steps == 1
        assert res.converged
        assert res.final_state == init

    def test_born_stable_batched(self):
        net, init = _two_state_net()
        res = run(_hold_programs(), net, init, until="stable", replicas=3)
        assert res.steps == 1
        assert list(res.replica_rounds) == [1, 1, 1]

    @pytest.mark.parametrize("engine", TERMINATION_PATHS)
    def test_initially_true_predicate_is_zero_steps(self, engine):
        net, init = _two_state_net()
        res = run(
            _blinker_programs(), net, init, until=lambda s: True,
            **_path_kwargs(engine, net),
        )
        assert res.steps == 0
        assert res.final_state == init

    @pytest.mark.parametrize("engine", TERMINATION_PATHS)
    def test_stable_budget_raises(self, engine):
        net, init = _two_state_net()
        with pytest.raises(RuntimeError, match="fixed point"):
            run(
                _blinker_programs(), net, init, until="stable", max_steps=10,
                **_path_kwargs(engine, net),
            )

    @pytest.mark.parametrize("engine", TERMINATION_PATHS)
    def test_predicate_budget_raises_after_exactly_max_steps(self, engine):
        net, init = _two_state_net()
        rec = _Recorder()
        with pytest.raises(RuntimeError, match="predicate"):
            run(
                _blinker_programs(), net, init, until=lambda s: False,
                max_steps=7, observers=(rec,), **_path_kwargs(engine, net),
            )
        assert len(rec.events) == 7

    CASES = {
        "fixed": (_blinker_programs, 4),
        "stable": (_blinker_programs, "stable"),
        "born-stable": (_hold_programs, "stable"),
        "predicate-false": (_blinker_programs, lambda s: False),
        "predicate-true": (_blinker_programs, lambda s: True),
        "predicate-after-1": (_blinker_programs, lambda s: s[0] == "a"),
        "until-true": (_hold_programs, True),
        "until-negative": (_hold_programs, -1),
        "until-junk": (_hold_programs, "sideways"),
    }

    @staticmethod
    def _outcome(engine, case):
        """Steps, draws and observer events of one run, or the exception
        type and the events seen before it."""
        programs, until = TestTermination.CASES[case]
        net, init = _two_state_net()
        rec = _Recorder()
        try:
            res = run(
                programs(), net, init, until=until, max_steps=6,
                observers=(rec,), **_path_kwargs(engine, net),
            )
        except (RuntimeError, TypeError, ValueError) as exc:
            return type(exc), len(rec.events)
        return res.steps, res.rng_draws, len(rec.events)

    @pytest.mark.parametrize("engine", TERMINATION_PATHS[1:])
    @pytest.mark.parametrize("case", list(CASES))
    def test_every_path_terminates_like_the_reference(self, engine, case):
        assert self._outcome(engine, case) == self._outcome("reference", case)

    def test_stable_engines_agree_on_step_count(self):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(10)
        automaton, init = two_coloring.build(net, origin=0)
        ref = run(automaton, net, init, engine="reference")
        vec = run(automaton, net, init, engine="vectorized")
        assert ref.steps == vec.steps
        assert ref.final_state == vec.final_state
        assert ref.change_counts == vec.change_counts

    def test_stability_waits_for_fault_plan_exhaustion(self):
        # a born-stable automaton with a fault at t=5 must keep stepping
        # until the plan has fired, then count the confirming step.
        net, init = _two_state_net(5)
        plan = FaultPlan([TopologyEvent(5, NODE_DOWN, 4)])
        res = run(_hold_programs(), net, init, until="stable", fault_plan=plan)
        assert res.steps == 6
        assert 4 not in res.final_state

    def test_run_until_budget_is_exact(self):
        # regression: run_until used to allow max_steps + 1 steps.
        net, init = _two_state_net()
        sim = SynchronousSimulator(net, FSSGA.from_programs(_blinker_programs()), init)
        with pytest.raises(RuntimeError):
            sim.run_until(lambda s: False, max_steps=5)
        assert sim.time == 5

    def test_run_until_initially_true_is_zero(self):
        net, init = _two_state_net()
        sim = SynchronousSimulator(net, FSSGA.from_programs(_blinker_programs()), init)
        assert sim.run_until(lambda s: True) == 0
        assert sim.time == 0


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
class TestObservers:
    def test_trace_observer_matches_reference_trace(self):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        ob = TraceObserver()
        res = run(automaton, net, init, engine="vectorized", observers=(ob,))
        assert res.engine == "vectorized"

        manual = Trace()
        sim = SynchronousSimulator(net, automaton, init.copy(), trace=manual)
        sim.run(res.steps)
        assert len(ob.trace) == len(manual)
        for got, want in zip(ob.trace.steps, manual.steps):
            assert (got.time, got.changes, got.faults) == (
                want.time, want.changes, want.faults,
            )

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_metrics_observer(self, engine):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        ob = MetricsObserver()
        res = run(automaton, net, init, engine=engine, observers=(ob,))
        assert len(ob.step_times) == res.steps
        assert ob.change_counts == res.change_counts
        assert ob.convergence_curve()[-1] == 0  # the confirming step
        assert ob.total_time > 0

    def test_observer_parity_across_engines(self):
        from repro.algorithms import two_coloring

        net = generators.cycle_graph(10)
        automaton, init = two_coloring.build(net, origin=0)
        ref, vec = _Recorder(), _Recorder()
        run(automaton, net, init, engine="reference", observers=(ref,))
        run(automaton, net, init, engine="vectorized", observers=(vec,))
        assert ref.started and ref.ended and vec.started and vec.ended
        assert ref.events == vec.events

    def test_observer_sees_faults(self):
        net, init = _two_state_net(5)
        plan = FaultPlan([TopologyEvent(2, NODE_DOWN, 4)])
        rec = _Recorder()
        run(
            _hold_programs(), net, init, until="stable",
            fault_plan=plan, observers=(rec,),
        )
        fault_times = [t for t, _, faults in rec.events if faults]
        assert fault_times == [2]


class TestResultStatesAreIndependent:
    """Result states share the engine's final σ; a caller mutating one of
    them must not reach the manifest or the other replicas."""

    def test_mutating_result_states(self):
        from repro.algorithms import election
        from repro.runtime.telemetry import state_fingerprint

        net = generators.cycle_graph(16)
        res = run(
            election.coin_kernel_programs(), net, election.coin_kernel_init(net),
            replicas=3, randomness=2, rng=11, until=4,
        )
        before = [list(s.items()) for s in res.replica_states]
        prints = [state_fingerprint(s) for s in res.replica_states]
        res.final_state[0] = "mutated"
        res.replica_states[1][3] = "mutated"
        assert res.manifest.final_fingerprint == prints[0]
        assert res.manifest.replica_fingerprints == prints
        assert list(res.replica_states[2].items()) == before[2]
        assert res.replica_states[0][0] == res.replica_states[1][3] == "mutated"

    def test_mutating_a_single_replica_final_state(self):
        from repro.algorithms import election
        from repro.runtime.telemetry import state_fingerprint

        net = generators.circulant_graph(64, (1, 2))
        res = run(
            election.coin_kernel_programs(), net, election.coin_kernel_init(net),
            randomness=2, rng=11, until=4,
        )
        want = state_fingerprint(res.final_state)
        res.final_state.drop([0, 1])
        assert res.manifest.final_fingerprint == want


# ----------------------------------------------------------------------
# bitwise reference ≡ vectorized through the front door
# ----------------------------------------------------------------------
class TestFrontDoorBitwiseConformance:
    @pytest.mark.parametrize("case", range(6))
    def test_seeded_probabilistic_runs_are_identical(self, case):
        rng = np.random.default_rng(4000 + case)
        randomness = int(rng.integers(2, 4))
        states, programs = random_probabilistic_programs(
            rng, int(rng.integers(2, 4)), randomness
        )
        net = random_network(rng)
        init = random_init(rng, net, states)
        seed = int(rng.integers(2**32))

        kw = dict(randomness=randomness, until=8)
        ref = run(
            programs, net, init, engine="reference",
            rng=np.random.default_rng(seed), **kw,
        )
        vec = run(
            programs, net, init, engine="vectorized",
            rng=np.random.default_rng(seed), **kw,
        )
        assert ref.final_state == vec.final_state
        assert ref.change_counts == vec.change_counts
        assert ref.rng_draws == vec.rng_draws == 8 * net.num_nodes

    def test_batched_replica_shares_single_engine_stream(self):
        rng = np.random.default_rng(4100)
        states, programs = random_probabilistic_programs(rng, 3, 2)
        net = generators.cycle_graph(7)
        init = random_init(rng, net, states)
        seed = 99

        vec = run(
            programs, net, init, engine="vectorized", randomness=2,
            rng=np.random.default_rng(seed), until=6,
        )
        bat = run(
            programs, net, init, engine="batched", replicas=1, randomness=2,
            rng=[np.random.default_rng(seed)], until=6,
        )
        assert bat.replica_states[0] == vec.final_state

    @pytest.mark.parametrize("case", range(6))
    def test_churn_change_reports_match_reference(self, case):
        """Arrivals boot before the step they precede, so a step's change
        report is relative to the boot state on every engine: observer
        events, change counts and draws agree with the reference."""
        from repro.runtime.churn import ChurnPlan

        rng = np.random.default_rng(4200 + case)
        randomness = int(rng.integers(2, 4))
        states, programs = random_probabilistic_programs(
            rng, int(rng.integers(2, 4)), randomness
        )
        net = random_network(rng, 2)
        init = random_init(rng, net, states)
        events = random_churn_events(rng, net, 10, states)
        seed = int(rng.integers(2**32))
        outcomes = []
        for engine in ("reference", "vectorized"):
            rec = _Recorder()
            res = run(
                programs, net.copy(), init, engine=engine, until=10,
                randomness=randomness, rng=np.random.default_rng(seed),
                fault_plan=ChurnPlan(list(events)), observers=(rec,),
            )
            outcomes.append(
                (res.final_state, res.change_counts, res.rng_draws, rec.events)
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n", [8, 9])
    def test_caller_generator_ends_where_the_reference_leaves_it(self, n):
        """A caller's Generator is drawn with plain ``integers``: after a
        run its whole bit-generator state, ``uinteger`` included, is the
        reference engine's — what a manifest of the next run captures."""
        from repro.algorithms import election

        net = generators.complete_graph(n)
        args = (election.coin_kernel_programs(), net, election.coin_kernel_init(net))
        g, g2 = np.random.default_rng(77), np.random.default_rng(77)
        run(*args, engine="vectorized", randomness=2, until=5, rng=g)
        run(*args, engine="reference", randomness=2, until=5, rng=g2)
        assert g.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize("n", [8, 9])
    def test_reused_caller_generator_manifest_hash(self, n):
        """A second run on a reused Generator hashes as if the first run
        drew ``integers(2, size=n)`` once per step from it."""
        from repro.algorithms import election
        from repro.runtime.telemetry import manifest_content_hash

        net = generators.complete_graph(n)
        args = (election.coin_kernel_programs(), net, election.coin_kernel_init(net))
        kw = dict(engine="vectorized", randomness=2, until=5)
        g = np.random.default_rng(78)
        run(*args, rng=g, **kw)
        second = run(*args, rng=g, **kw)
        twin = np.random.default_rng(78)
        for _ in range(5):
            twin.integers(2, size=n)
        expected = run(*args, rng=twin, **kw)
        assert (manifest_content_hash(second.manifest)
                == manifest_content_hash(expected.manifest))

    def test_coin_kernel_seeded(self):
        from repro.algorithms import election

        net = generators.complete_graph(9)
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        kw = dict(randomness=2, until=10)
        ref = run(programs, net, init, engine="reference", rng=np.random.default_rng(31), **kw)
        vec = run(programs, net, init, engine="vectorized", rng=np.random.default_rng(31), **kw)
        assert ref.final_state == vec.final_state


# ----------------------------------------------------------------------
# programs ≡ rules for the migrated algorithms
# ----------------------------------------------------------------------
class TestProgramRuleEquivalence:
    def test_bfs_programs_match_rule(self):
        from repro.algorithms import bfs

        net = generators.connected_gnp_graph(14, 0.25, 8)
        automaton, init = bfs.build(net, originator=0, targets=[9, 13])
        rule_based = FSSGA(bfs.ALPHABET, bfs.rule, name="bfs-rule")

        sim = SynchronousSimulator(net, rule_based, init.copy())
        for step in range(1, 2 * net.num_nodes):
            sim.step()
            res = run(automaton, net, init, engine="vectorized", until=step)
            assert res.final_state == sim.state, f"diverged at step {step}"

    def test_shortest_paths_labels_are_bfs_distances(self):
        from repro.algorithms import shortest_paths

        net = generators.grid_graph(4, 5)
        sinks = [0, 19]
        res = shortest_paths.run_labels(net, sinks)
        assert res.engine == "vectorized"
        assert shortest_paths.stabilized(net, res.final_state, sinks, net.num_nodes)

    def test_batched_predicate_deactivates_per_replica(self):
        from repro.algorithms import election

        net = generators.complete_graph(8)
        survivors = lambda s: sum(q != election.K_OUT for q in s.values())
        res = run(
            election.coin_kernel_programs(),
            net,
            election.coin_kernel_init(net),
            replicas=4,
            randomness=2,
            rng=7,
            until=lambda s: survivors(s) <= 1,
            max_steps=500,
        )
        assert res.engine == "batched"
        for state in res.replica_states:
            assert survivors(state) <= 1
        assert res.steps == int(res.replica_rounds.max())
