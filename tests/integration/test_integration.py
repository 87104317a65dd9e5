"""Cross-module integration tests: compositions the paper relies on."""


from repro.algorithms import bfs, census, shortest_paths, synchronizer as alpha
from repro.algorithms import two_coloring as tc
from repro.core.automaton import FSSGA
from repro.core.compile import compile_rule
from repro.core.convert import (
    modthresh_to_parallel,
    parallel_to_sequential,
    sequential_to_modthresh,
)
from repro.network import NetworkState, generators
from repro.runtime.simulator import AsynchronousSimulator, SynchronousSimulator
from repro.runtime.vectorized import VectorizedSynchronousEngine


class TestCompiledAutomatonRoundtrip:
    """Rule → compiled mod-thresh programs → all three engines agree."""

    def test_three_engines_agree(self):
        net = generators.grid_graph(3, 4)
        origin = 0
        # engine 1: rule-based reference
        aut_rule, init = tc.build(net, origin)
        sim_rule = SynchronousSimulator(net.copy(), aut_rule, init.copy())
        sim_rule.run_until_stable()

        # engine 2: compiled programs through the reference interpreter
        compiled = {
            q: compile_rule(tc.sticky_rule, sorted(tc.ALPHABET), q, max_threshold=1)
            for q in tc.ALPHABET
        }
        sim_prog = SynchronousSimulator(
            net.copy(), FSSGA.from_programs(compiled), init.copy()
        )
        sim_prog.run_until_stable()

        # engine 3: compiled programs through the vectorized engine
        vec = VectorizedSynchronousEngine(net.copy(), compiled, init.copy())
        vec.run_until_stable()

        assert dict(sim_rule.state.items()) == dict(sim_prog.state.items())
        assert dict(sim_rule.state.items()) == dict(vec.state.items())

    def test_conversion_chain_through_simulator(self):
        """Compile a rule, convert through the Theorem 3.7 cycle, and run
        the converted programs on a network."""
        compiled = compile_rule(
            tc.sticky_rule, sorted(tc.ALPHABET), tc.BLANK, max_threshold=1
        )
        par = modthresh_to_parallel(compiled, sorted(tc.ALPHABET))
        seq = parallel_to_sequential(par)
        back = sequential_to_modthresh(seq, sorted(tc.ALPHABET))
        from repro.core.multiset import iter_multisets

        for ms in iter_multisets(sorted(tc.ALPHABET), 3):
            assert back.evaluate(ms) == compiled.evaluate(ms)


class TestSynchronizedBFS:
    """Section 4.3: 'by using the result of Section 4.2 this can be
    transformed into an asynchronous algorithm'."""

    def test_async_bfs_finds_target(self):
        net = generators.grid_graph(3, 4)
        inner, init = bfs.build(net, 0, targets=[11])
        comp = alpha.wrap(inner)
        asim = AsynchronousSimulator(net, comp, alpha.initial_state(init), rng=1)
        asim.run_fair_rounds(60)
        final = NetworkState({v: asim.state[v][0] for v in net})
        assert bfs.originator_status(final, 0) == bfs.FOUND
        assert bfs.labels_match_distance(net, final, 0)

    def test_async_bfs_fails_without_target(self):
        net = generators.cycle_graph(7)
        inner, init = bfs.build(net, 0, targets=[])
        comp = alpha.wrap(inner)
        asim = AsynchronousSimulator(net, comp, alpha.initial_state(init), rng=2)
        asim.run_fair_rounds(60)
        final = NetworkState({v: asim.state[v][0] for v in net})
        assert bfs.originator_status(final, 0) == bfs.FAILED


class TestCensusRouting:
    """The paper's sensor-network story: census sizes the network while
    shortest-path labels route packets to data sinks."""

    def test_pipeline(self):
        net = generators.connected_gnp_graph(30, 0.15, 11)
        # phase 1: census
        aut_c, init_c = census.build(net, rng=11)
        sim_c = SynchronousSimulator(net, aut_c, init_c, rng=11)
        sim_c.run_until_stable()
        est = census.estimate(sim_c.state[0])
        assert est > 0
        # phase 2: routing to sinks
        sinks = [0, 7]
        aut_s, init_s = shortest_paths.build(net, sinks)
        sim_s = SynchronousSimulator(net, aut_s, init_s)
        sim_s.run_until_stable()
        for start in (13, 21, 29):
            path = shortest_paths.route_packet(net, sim_s.state, start, rng=1)
            assert path[-1] in sinks
            dists = net.bfs_distances(sinks)
            assert len(path) - 1 == dists[start]


class TestFaultsAcrossAlgorithms:
    def test_census_and_labels_after_shared_fault(self):
        """Two 0-sensitive algorithms on the same faulted topology."""
        from repro.runtime.churn import EDGE_DOWN, TopologyEvent
        from repro.runtime.faults import FaultPlan

        base = generators.grid_graph(4, 4)
        fault = TopologyEvent(3, EDGE_DOWN, (5, 6))

        net1 = base.copy()
        aut, init = census.build(net1, k=8, rng=2)
        sketches = {v: init[v] for v in net1}
        sim1 = SynchronousSimulator(
            net1, aut, init, rng=2, fault_plan=FaultPlan([fault])
        )
        sim1.run(30)
        expected = [0] * 8
        for v in net1:
            for j, b in enumerate(sketches[v]):
                expected[j] |= b
        assert all(sim1.state[v] == tuple(expected) for v in net1)

        net2 = base.copy()
        aut2, init2 = shortest_paths.build(net2, [0])
        sim2 = SynchronousSimulator(
            net2, aut2, init2, fault_plan=FaultPlan([TopologyEvent(3, EDGE_DOWN, (5, 6))])
        )
        sim2.run_until_stable(max_steps=200)
        assert shortest_paths.stabilized(net2, sim2.state, [0], net2.num_nodes)


class TestSynchronizedRandomWalk:
    """Section 4.4's walk, designed synchronous, run asynchronously via
    the probabilistic α synchronizer — exercising wrap_probabilistic on a
    real algorithm."""

    def test_walk_emerges_asynchronously(self):
        from repro.algorithms import random_walk as rw

        net = generators.cycle_graph(6)
        inner, init = rw.build(net, 0)
        comp = alpha.wrap_probabilistic(inner)
        asim = AsynchronousSimulator(
            net, comp, alpha.initial_state(init), rng=4
        )
        positions = [0]
        for _ in range(150):
            asim.run_fair_rounds(1)
            inner_state = NetworkState({v: asim.state[v][0] for v in net})
            pos = rw.walker_position(inner_state)
            if pos is not None and pos != positions[-1]:
                positions.append(pos)
        # the walker moved, along edges only, with exactly one walker in
        # every logical round
        assert len(positions) >= 3
        for a, b in zip(positions, positions[1:]):
            assert net.has_edge(a, b)


class TestFiringSquadOnPathNetwork:
    """The firing-squad CA runs on its own line substrate; cross-check
    the path length/geometry against the Network path generator."""

    def test_line_length_matches_path_graph(self):
        from repro.algorithms.firing_squad import FiringSquadLine

        net = generators.path_graph(9)
        line = FiringSquadLine(net.num_nodes)
        assert line.n == net.num_nodes
        for _ in range(100):
            line.step()
            if line.all_fired:
                break
        assert line.all_fired


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        for name in (
            "FSSGA",
            "ProbabilisticFSSGA",
            "SequentialProgram",
            "ParallelProgram",
            "ModThreshProgram",
            "Network",
            "NetworkState",
            "SynchronousSimulator",
            "AsynchronousSimulator",
            "FaultPlan",
        ):
            assert hasattr(repro, name), name

    def test_quickstart_docstring_flow(self):
        """The module docstring's quickstart must actually run."""
        from repro import SynchronousSimulator as Sim
        from repro.algorithms import two_coloring
        from repro.network import generators as gen

        net = gen.cycle_graph(8)
        automaton, init = two_coloring.build(net, origin=0)
        sim = Sim(net, automaton, init)
        sim.run_until_stable()
        assert two_coloring.succeeded(net, sim.state)
