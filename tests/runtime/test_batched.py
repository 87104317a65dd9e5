"""Tests for the batched multi-replica engine.

Seed-determinism regression contract: replica ``i`` of a
:class:`BatchedSynchronousEngine` seeded with master seed ``s`` is bitwise
identical to a single-replica :class:`VectorizedSynchronousEngine` seeded
with ``np.random.default_rng(s).spawn(R)[i]``, and reruns with the same
master seed reproduce every trajectory exactly.  Covered workloads: the
election coin kernel and the compiled Section 4.4 random-walk automaton.
"""

import numpy as np
import pytest

from repro.algorithms import election
from repro.core.modthresh import ModThreshProgram, at_least
from repro.network import NetworkState, generators
from repro.network.graph import Network
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.vectorized import VectorizedSynchronousEngine


def epidemic_programs():
    spread = ModThreshProgram(clauses=((at_least("i", 1), "i"),), default="s")
    stay = ModThreshProgram(clauses=(), default="i")
    return {"s": spread, "i": stay}


def compiled_random_walk_programs():
    """The Section 4.4 walk compiled to mod-thresh (tight atom bounds keep
    the Lemma 3.9 enumeration small)."""
    from repro.algorithms import random_walk as rw
    from repro.core.compile import compile_rule

    states = sorted(rw.ALPHABET)
    return {
        (q, i): compile_rule(
            lambda own, view, i=i: rw.rule(own, view, i),
            states,
            q,
            max_threshold=1,
            modulus=1,
            per_state_bounds={rw.TAILS: (2, 1)},
        )
        for q in states
        for i in range(2)
    }


class TestEngineBasics:
    def test_shared_init_deterministic_replicas_agree(self):
        net = generators.grid_graph(3, 4)
        progs = epidemic_programs()
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        bat = BatchedSynchronousEngine(net, progs, init, replicas=4)
        bat.run(3)
        states = bat.states
        assert all(s == states[0] for s in states[1:])

    def test_isolated_nodes_keep_state(self):
        net = Network(nodes=[0, 1], edges=[])
        bat = BatchedSynchronousEngine(
            net, epidemic_programs(), NetworkState({0: "i", 1: "s"}), replicas=2
        )
        bat.step()
        assert bat.replica_state(0) == {0: "i", 1: "s"}

    def test_per_replica_inits(self):
        net = generators.path_graph(4)
        inits = []
        for src in (0, 3):
            st = NetworkState.uniform(net, "s")
            st[src] = "i"
            inits.append(st)
        bat = BatchedSynchronousEngine(net, epidemic_programs(), inits)
        assert bat.replicas == 2
        bat.step()
        assert bat.replica_state(0)[1] == "i" and bat.replica_state(0)[3] == "s"
        assert bat.replica_state(1)[2] == "i" and bat.replica_state(1)[0] == "s"

    def test_state_counts_batched_matches_per_replica(self):
        net = generators.path_graph(5)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        bat = BatchedSynchronousEngine(net, epidemic_programs(), init, replicas=3)
        bat.run(2)
        assert bat.state_counts() == [
            bat.replica_state_counts(r) for r in range(3)
        ]

    def test_argument_validation(self):
        net = generators.path_graph(3)
        init = NetworkState.uniform(net, "s")
        progs = epidemic_programs()
        with pytest.raises(ValueError):
            BatchedSynchronousEngine(net, progs, init)  # no replica count
        with pytest.raises(ValueError):
            BatchedSynchronousEngine(net, progs, [init, init], replicas=3)
        with pytest.raises(ValueError):
            BatchedSynchronousEngine(
                net, progs, init, replicas=2, rng=[np.random.default_rng(0)]
            )

    def test_rule_based_rejected(self):
        from repro.core.automaton import FSSGA

        net = generators.path_graph(3)
        aut = FSSGA({0, 1}, lambda own, view: own)
        with pytest.raises(TypeError):
            BatchedSynchronousEngine(
                net, aut, NetworkState.uniform(net, 0), replicas=2
            )


class TestSeedDeterminism:
    def test_kernel_replicas_match_spawned_single_runs(self):
        net = generators.complete_graph(10)
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        R, seed = 6, 5
        bat = BatchedSynchronousEngine(
            net, programs, init, replicas=R, randomness=2, rng=seed
        )
        singles = [
            VectorizedSynchronousEngine(net, programs, init, randomness=2, rng=g)
            for g in np.random.default_rng(seed).spawn(R)
        ]
        for step in range(12):
            bat.step()
            for r, single in enumerate(singles):
                single.step()
                assert bat.replica_state(r) == single.state, (
                    f"replica {r} diverged from its spawned stream at step {step}"
                )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_odd_n_replicas_match_solo_runs_on_the_children(self, seed):
        """On an odd n every step draws an odd count, so the spawned
        streams alternate between an odd call on no cached half and one on
        a cached half; the solo runs draw the same children through plain
        ``integers``."""
        net = generators.complete_graph(9)
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        R = 3
        bat = BatchedSynchronousEngine(
            net, programs, init, replicas=R, randomness=2, rng=seed
        )
        singles = [
            VectorizedSynchronousEngine(net, programs, init, randomness=2, rng=g)
            for g in np.random.default_rng(seed).spawn(R)
        ]
        assert all(s.gen is g for s, g in zip(bat._draw_sources, bat.rngs))
        for step in range(9):
            bat.step()
            for r, single in enumerate(singles):
                single.step()
                assert bat._sigma[r].tobytes() == single._sigma.tobytes(), (
                    f"replica {r} diverged at step {step}"
                )
                ours = bat.rngs[r].bit_generator.state
                theirs = single.rng.bit_generator.state
                assert ours["state"] == theirs["state"]
                assert ours["has_uint32"] == theirs["has_uint32"] == (step + 1) % 2

    def test_random_walk_replicas_match_spawned_single_runs(self):
        from repro.algorithms import random_walk as rw

        programs = compiled_random_walk_programs()
        net = generators.cycle_graph(7)
        init = NetworkState.from_function(
            net, lambda v: rw.FLIP if v == 0 else rw.BLANK
        )
        R, seed = 4, 11
        bat = BatchedSynchronousEngine(
            net, programs, init, replicas=R, randomness=2, rng=seed
        )
        singles = [
            VectorizedSynchronousEngine(net, programs, init, randomness=2, rng=g)
            for g in np.random.default_rng(seed).spawn(R)
        ]
        moved = set()
        for step in range(30):
            bat.step()
            for r, single in enumerate(singles):
                single.step()
                assert bat.replica_state(r) == single.state, (
                    f"replica {r} diverged at step {step}"
                )
            for r in range(R):
                holders = bat.replica_state(r).nodes_in(rw.WALKER_STATES)
                if holders and holders[0] != 0:
                    moved.add(r)
        assert moved, "no walker ever moved — workload degenerate"

    def test_rerun_with_same_master_seed_is_bitwise_identical(self):
        net = generators.complete_graph(12)
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)

        def trajectory():
            bat = BatchedSynchronousEngine(
                net, programs, init, replicas=8, randomness=2, rng=42
            )
            frames = []
            for _ in range(10):
                bat.step()
                frames.append(bat._sigma.copy())
            return frames

        a, b = trajectory(), trajectory()
        assert all((x == y).all() for x, y in zip(a, b))

    def test_kernel_statistics_reproducible(self):
        net = generators.complete_graph(16)
        s1 = election.kernel_phase_statistics(net, replicas=16, rng=3)
        s2 = election.kernel_phase_statistics(net, replicas=16, rng=3)
        assert (s1.rounds == s2.rounds).all()
        assert s1.survivor_counts == [1] * 16

    def test_integer_seed_equals_generator_master(self):
        net = generators.complete_graph(8)
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        a = BatchedSynchronousEngine(
            net, programs, init, replicas=3, randomness=2, rng=9
        )
        b = BatchedSynchronousEngine(
            net, programs, init, replicas=3, randomness=2,
            rng=np.random.default_rng(9),
        )
        a.run(8)
        b.run(8)
        assert (a._sigma == b._sigma).all()


class TestQuiescenceMasks:
    def test_per_replica_rounds_match_single_runs(self):
        net = generators.path_graph(12)
        progs = epidemic_programs()
        inits = []
        for src in (0, 5, 11):
            st = NetworkState.uniform(net, "s")
            st[src] = "i"
            inits.append(st)
        engine = BatchedSynchronousEngine(net, progs, inits)
        rounds = engine.run_until_stable()
        expected = [
            VectorizedSynchronousEngine(net, progs, st).run_until_stable()
            for st in inits
        ]
        assert list(rounds) == expected
        assert not engine.active.any()
        assert all(
            all(state[v] == "i" for v in net) for state in engine.states
        )

    def test_converged_replica_stops_consuming_randomness(self):
        net = generators.complete_graph(6)
        programs = election.coin_kernel_programs()
        # replica 0 starts already terminated (all eliminated but one)
        done = NetworkState.uniform(net, election.K_OUT)
        done[0] = election.K_REMAIN1
        inits = [done, election.coin_kernel_init(net)]
        bat = BatchedSynchronousEngine(net, programs, inits, randomness=2, rng=1)
        untouched = np.random.default_rng(1).spawn(2)[0].bit_generator.state
        bat.run_until(
            lambda counts: election.kernel_remaining_count(counts) <= 1,
            max_steps=500,
        )
        assert bat.rounds[0] == 0
        assert bat.rounds[1] > 0
        assert bat.rngs[0].bit_generator.state == untouched

    def test_run_until_respects_max_steps(self):
        net = generators.path_graph(4)
        bat = BatchedSynchronousEngine(
            net,
            election.coin_kernel_programs(),
            election.coin_kernel_init(net),
            replicas=2,
            randomness=2,
            rng=0,
        )
        with pytest.raises(RuntimeError):
            bat.run_until(lambda counts: False, max_steps=5)
        assert bat.time == 5


class TestPartiallyActiveReplicas:
    """Replicas that differ in draws, stop at different steps, and share
    one churned topology: the gather/scatter path over a live view."""

    @pytest.mark.parametrize("case", range(4))
    def test_churned_replicas_match_spawned_single_runs(self, case):
        from test_engine_conformance import (
            random_churn_events,
            random_init,
            random_network,
            random_probabilistic_programs,
        )

        from repro.runtime.churn import ChurnPlan

        rng = np.random.default_rng(17000 + case)
        randomness = int(rng.integers(2, 4))
        states, programs = random_probabilistic_programs(
            rng, int(rng.integers(2, 4)), randomness
        )
        net = random_network(rng, 2)
        init = random_init(rng, net, states)
        events = random_churn_events(rng, net, 10, states)
        assert any(ev.kind == "node-up" for ev in events)  # arrivals included
        seed, R = int(rng.integers(2**32)), 3
        bat = BatchedSynchronousEngine(
            net.copy(), programs, init, replicas=R, randomness=randomness,
            rng=seed, fault_plan=ChurnPlan(list(events)),
        )
        singles = [
            VectorizedSynchronousEngine(
                net.copy(), programs, init, randomness=randomness, rng=g,
                fault_plan=ChurnPlan(list(events)),
            )
            for g in np.random.default_rng(seed).spawn(R)
        ]
        for step in range(10):
            bat.step()
            for r, single in enumerate(singles):
                single.step()
                assert bat.replica_state(r) == single.state, (
                    f"replica {r} diverged at step {step}"
                )

    def test_predicate_stops_replicas_while_plan_is_live(self):
        """Pinned outcome of a run() whose replicas stop at steps 2, 3, 4
        and 4 while churn events at t = 4, 6 and 9 are still pending."""
        import hashlib

        from repro import run
        from repro.runtime.churn import ChurnPlan, TopologyEvent

        net = generators.complete_graph(10)
        events = [
            TopologyEvent(1, "node-down", 3),
            TopologyEvent(2, "node-up", "a", state=election.K_REMAIN0,
                          edges=(0, 1, 2, 4)),
            TopologyEvent(4, "edge-down", (0, 1)),
            TopologyEvent(6, "node-up", 3, state=election.K_REMAIN0,
                          edges=(5, 6)),
            TopologyEvent(9, "node-up", "b", state=election.K_REMAIN1,
                          edges=(0, 7, 8)),
        ]
        plan = ChurnPlan(events)
        survivors = lambda s: sum(q != election.K_OUT for q in s.values())
        res = run(
            election.coin_kernel_programs(), net,
            election.coin_kernel_init(net), replicas=4, randomness=2,
            rng=20061, until=lambda s: survivors(s) <= 2, fault_plan=plan,
            max_steps=200,
        )
        rounds = [int(r) for r in res.replica_rounds]
        assert rounds == [3, 4, 4, 2]
        assert not plan.exhausted
        assert (res.steps, res.rng_draws, res.change_counts) == (
            4, 126, [4, 4, 3, 2]
        )
        blob = repr((
            [sorted(s.items(), key=repr) for s in res.replica_states],
            rounds, res.steps, res.rng_draws, res.change_counts,
        ))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "d1eb1978b9d165299678502e2a6bf0ab884613ff79b101c435f581599bd9cf43"
        )
