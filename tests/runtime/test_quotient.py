"""Unit tests for the symmetry-quotient engine and its run() integration.

Conformance against the full-graph engines lives in
``test_engine_conformance.py`` (the quotient axis); this file covers the
engine's own contract — lifted views, telemetry counters, the shared
per-orbit draw convention, precondition errors with structured blockers —
and the shared-instance reuse discipline: a network mutated *between*
runs (including by a faulted full-graph run) must not let a stale orbit
partition or stale group declaration leak into the next quotient run,
mirroring the CSR-cache reuse tests.
"""

import numpy as np
import pytest

from repro.core.ir import QuotientLoweringError
from repro.core.modthresh import ModThreshProgram, at_least
from repro.network import NetworkState, generators
from repro.network.symmetry import (
    cyclic_rotation,
    full_symmetric,
    torus_translations,
)
from repro.runtime import run
from repro.runtime.churn import NODE_DOWN, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.quotient import OrbitBroadcastRng, QuotientSynchronousEngine
from repro.runtime.telemetry import MetricsRegistry
from repro.runtime.vectorized import VectorizedSynchronousEngine


def _spread_programs():
    """BLANK turns ON next to an ON node; ON holds — a monotone flood."""
    return {
        "blank": ModThreshProgram(
            clauses=[(at_least("on", 1), "on")], default="blank"
        ),
        "on": ModThreshProgram(clauses=(), default="on"),
    }


def _declared_cycle(n=12, shift=1):
    net = generators.cycle_graph(n)
    net.declare_symmetry(cyclic_rotation(n, shift=shift))
    return net


class TestEngineContract:
    def test_simulates_one_representative_per_orbit(self):
        net = _declared_cycle(12)
        eng = QuotientSynchronousEngine(
            net, _spread_programs(), NetworkState.uniform(net, "blank")
        )
        assert eng.orbit_count == 1
        assert eng.orbit_sizes == (12,)
        assert eng.num_nodes == 12

    def test_subgroup_yields_multiple_orbits(self):
        net = _declared_cycle(12, shift=2)  # evens and odds
        eng = QuotientSynchronousEngine(
            net, _spread_programs(), NetworkState.uniform(net, "blank")
        )
        assert eng.orbit_count == 2
        assert sorted(eng.orbit_sizes) == [6, 6]

    def test_lifted_state_and_counts(self):
        net = _declared_cycle(12, shift=2)
        init = NetworkState.from_function(
            net, lambda v: "on" if v % 2 == 0 else "blank"
        )
        eng = QuotientSynchronousEngine(net, _spread_programs(), init)
        assert eng.state == init  # lift of the initial quotient state
        assert eng.state_counts() == {"blank": 6, "on": 6}
        eng.step()  # odds neighbour evens: everything turns on
        assert eng.state_counts() == {"blank": 0, "on": 12}
        assert set(eng.state.values()) == {"on"}
        assert len(eng.representative_state) == 2

    def test_quotient_matrix_counts_orbit_multiplicities(self):
        net = _declared_cycle(12, shift=2)
        eng = QuotientSynchronousEngine(
            net, _spread_programs(), NetworkState.uniform(net, "blank")
        )
        # each even node has two odd neighbours and vice versa
        dense = eng.quotient.toarray()
        assert dense.tolist() == [[0, 2], [2, 0]]

    def test_run_until_stable(self):
        net = _declared_cycle(9)
        init = NetworkState.uniform(net, "on")
        eng = QuotientSynchronousEngine(net, _spread_programs(), init)
        assert eng.run_until_stable() == 1  # born stable

    def test_metrics_count_quotient_side_work(self):
        net = generators.torus_graph(4, 6)
        net.declare_symmetry(torus_translations(4, 6))
        programs = {
            "a": ModThreshProgram(clauses=(), default="b"),
            "b": ModThreshProgram(clauses=(), default="a"),
        }
        met = MetricsRegistry()
        eng = QuotientSynchronousEngine(
            net, programs, NetworkState.uniform(net, "a"), metrics=met
        )
        eng.run(5)
        assert met.get("steps") == 5
        assert met.get("node_updates") == 5  # one rep, flips every step
        assert met.get("node_updates_lifted") == 5 * 24
        assert met.get("rng_draws") == 0  # deterministic


class TestPreconditionErrors:
    def test_missing_group(self):
        net = generators.cycle_graph(6)
        with pytest.raises(QuotientLoweringError) as exc:
            QuotientSynchronousEngine(
                net, _spread_programs(), NetworkState.uniform(net, "blank")
            )
        assert exc.value.blocker == "no-group"

    def test_non_orbit_constant_init_names_node(self):
        net = _declared_cycle(6)
        init = NetworkState.from_function(
            net, lambda v: "on" if v == 3 else "blank"
        )
        with pytest.raises(QuotientLoweringError, match="node 3") as exc:
            QuotientSynchronousEngine(net, _spread_programs(), init)
        assert exc.value.blocker == "init-not-orbit-constant"

    @pytest.mark.parametrize("shift", [1, 2])
    def test_array_state_init_names_the_same_node(self, shift):
        # an array-backed init takes the one-gather orbit check; its error
        # must match the per-node loop's on the equivalent dict state
        from repro.algorithms import election
        from repro.network.state import _ArrayState

        net = _declared_cycle(12, shift=shift)
        res = run(
            election.coin_kernel_programs(), net, election.coin_kernel_init(net),
            randomness=2, rng=5, until=1,
        )
        assert type(res.final_state) is _ArrayState
        errors = []
        for init in (res.final_state, NetworkState(dict(res.final_state))):
            with pytest.raises(QuotientLoweringError) as exc:
                run(election.coin_kernel_programs(), net, init, randomness=2,
                    rng=5, until=1, engine="quotient")
            errors.append((exc.value.blocker, str(exc.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] == "init-not-orbit-constant"

    def test_fault_plan_rejected(self):
        net = _declared_cycle(6)
        with pytest.raises(QuotientLoweringError, match="break symmetry") as exc:
            QuotientSynchronousEngine(
                net, _spread_programs(), NetworkState.uniform(net, "blank"),
                fault_plan=FaultPlan([TopologyEvent(1, NODE_DOWN, 2)]),
            )
        assert exc.value.blocker == "fault-plan"

    def test_stale_group_after_manual_mutation(self):
        net = _declared_cycle(6)
        net.remove_edge(2, 3)
        with pytest.raises(QuotientLoweringError, match="stale") as exc:
            QuotientSynchronousEngine(
                net, _spread_programs(), NetworkState.uniform(net, "blank")
            )
        assert exc.value.blocker == "stale-group"


class TestPreconditionCost:
    @pytest.mark.parametrize("engine", ["auto", "quotient"])
    def test_one_run_verifies_the_group_once(self, engine, monkeypatch):
        """The quotient preconditions are checked in one place: a run()
        verifies the declared group exactly once, whether the quotient
        was requested or picked by ``auto``."""
        from repro.network.symmetry import AutomorphismGroup

        net = _declared_cycle(64)  # declaring verifies once on its own
        calls = []
        verify = AutomorphismGroup.verify

        def counting_verify(self, net):
            calls.append(net)
            return verify(self, net)

        monkeypatch.setattr(AutomorphismGroup, "verify", counting_verify)
        res = run(
            _spread_programs(), net, NetworkState.uniform(net, "blank"),
            until=3, engine=engine,
        )
        assert res.engine == "quotient"
        assert len(calls) == 1


class TestOrbitBroadcastRng:
    def test_vector_mode_matches_scalar_mode(self):
        net = _declared_cycle(10, shift=2)
        seed = 99
        vec_rng = OrbitBroadcastRng(net, np.random.default_rng(seed))
        sca_rng = OrbitBroadcastRng(net, np.random.default_rng(seed))
        for _ in range(4):  # four "steps"
            vector = vec_rng.integers(5, size=10)
            scalars = [sca_rng.integers(5) for _ in range(10)]
            assert vector.tolist() == scalars

    def test_nodes_share_their_orbit_draw(self):
        net = _declared_cycle(10, shift=2)
        part = net.orbit_partition()
        draws = OrbitBroadcastRng(net, 1).integers(1000, size=10)
        order = net.nodes()
        by_orbit = {}
        for i, v in enumerate(order):
            by_orbit.setdefault(part.orbit_of[v], set()).add(int(draws[i]))
        assert all(len(s) == 1 for s in by_orbit.values())

    def test_base_stream_positions_match_quotient_engine(self):
        """The adapter consumes exactly one size=k vector per step from the
        base stream — the same positions the quotient engine reads."""
        net = _declared_cycle(10, shift=2)
        adapter = OrbitBroadcastRng(net, np.random.default_rng(7))
        direct = np.random.default_rng(7)
        for _ in range(3):
            adapter.integers(4, size=10)
            direct.integers(4, size=2)  # k = 2
        # both streams are now at the same position
        assert adapter.base.integers(1 << 30) == direct.integers(1 << 30)

    def test_wrong_size_rejected(self):
        net = _declared_cycle(10)
        with pytest.raises(ValueError, match="size"):
            OrbitBroadcastRng(net, 0).integers(4, size=7)


# ----------------------------------------------------------------------
# shared-instance reuse: mutations between runs (mirrors the CSR-cache
# reuse tests in test_telemetry.py / test_graph.py)
# ----------------------------------------------------------------------
class TestNetworkReuseAcrossRuns:
    def test_faulted_run_then_quotient_refuses_stale_group(self):
        """A faulted full-graph run mutates the shared network; the next
        explicit quotient run must detect the now-stale declaration rather
        than silently simulating the wrong topology."""
        net = _declared_cycle(8)
        init = NetworkState.uniform(net, "blank")
        res = run(
            _spread_programs(), net, init, until=3,
            fault_plan=FaultPlan([TopologyEvent(1, NODE_DOWN, 5)]),
        )
        assert res.engine == "vectorized"
        assert 5 not in net  # the fault really mutated the instance
        init2 = NetworkState({v: "blank" for v in net})
        with pytest.raises(QuotientLoweringError) as exc:
            run(_spread_programs(), net, init2, until=3, engine="quotient")
        assert exc.value.blocker == "stale-group"
        # and auto falls back instead of failing
        assert (
            run(_spread_programs(), net, init2, until=3).engine == "vectorized"
        )

    def test_mutation_between_runs_invalidates_orbit_cache(self):
        net = _declared_cycle(8)
        init = NetworkState.uniform(net, "blank")
        rebuilds0 = net.orbit_rebuilds
        run(_spread_programs(), net, init, until=2)
        assert net.orbit_rebuilds == rebuilds0 + 1
        run(_spread_programs(), net, init, until=2)
        assert net.orbit_rebuilds == rebuilds0 + 1  # cache hit, no rebuild

        net.remove_edge(0, 1)  # invalidates orbit + CSR caches together
        net.add_edge(0, 1)     # restore the cycle: group is valid again
        res = run(_spread_programs(), net, init, until=2)
        assert res.engine == "quotient"
        assert net.orbit_rebuilds == rebuilds0 + 2

    def test_quotient_and_full_runs_interleave_on_shared_instance(self):
        """Alternating quotient and vectorized runs on one instance agree
        bitwise and never see each other's cached artifacts."""
        net = _declared_cycle(10)
        init = NetworkState.from_function(net, lambda v: "blank")
        seed_state = NetworkState({v: "blank" for v in net})
        q1 = run(_spread_programs(), net, seed_state, until=4)
        v1 = run(
            _spread_programs(), net, seed_state, until=4, engine="vectorized"
        )
        q2 = run(_spread_programs(), net, init, until=4, engine="quotient")
        assert q1.engine == "quotient" and q2.engine == "quotient"
        assert q1.final_state == v1.final_state == q2.final_state


class TestKnownKernels:
    def test_probabilistic_election_shared_draws_on_complete_graph(self):
        """Explicit probabilistic quotient vs vectorized-with-adapter on
        K_9 running the coin kernel: bitwise-equal lifted trajectories (and
        the demonstration that shared draws can never elect a leader)."""
        from repro.algorithms import election

        net = generators.complete_graph(9)
        net.declare_symmetry(full_symmetric(range(9)))
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        seed = 20060730

        quo = QuotientSynchronousEngine(
            net, programs, init, randomness=2,
            rng=np.random.default_rng(seed),
        )
        vec = VectorizedSynchronousEngine(
            net.copy(), programs, init, randomness=2,
            rng=OrbitBroadcastRng(net, np.random.default_rng(seed)),
        )
        for step in range(12):
            quo.step()
            vec.step()
            assert quo.state == vec.state, f"diverged at step {step}"
            # symmetric draws keep all nodes in lockstep forever
            assert len(set(quo.state.values())) == 1
