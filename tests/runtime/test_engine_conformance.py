"""Engine-conformance harness: a differential cross-engine oracle.

Randomly generated mod-thresh automata (random alphabets, random clause
cascades over random mod/thresh propositions) run on randomly generated
networks through all three synchronous engines —
:class:`SynchronousSimulator`, :class:`VectorizedSynchronousEngine`, and
:class:`BatchedSynchronousEngine` — with shared seeds, asserting identical
state trajectories step by step.

Probabilistic runs can share streams bitwise because a numpy Generator
yields the same values whether bounded integers are drawn one scalar at a
time (the reference interpreter, one draw per node in network order) or as
one ``size=n`` vector (the vectorized engines), and all engines agree on
node order (``Network.to_csr`` uses insertion order, the same order the
reference simulator iterates).

The **churn axis** widens the faulted cases to the full topology-dynamics
event algebra: coherent mixed down/up schedules (deletions, resurrections,
edge restorations, plus fresh growth arrivals) run through the array
engines' union-topology lowering against the reference interpreter
mutating the live network — trajectories and telemetry counters must stay
bitwise identical, including the RNG draw order as resurrected and
arriving nodes re-enter the live ordering at the end (insertion-stamp
order on the array side).

The **quotient axis** runs the same differential oracle against the
:class:`~repro.runtime.quotient.QuotientSynchronousEngine` on networks
with declared automorphism groups (cycle/circulant rotations, subgroup
rotations with several orbits, full symmetric on complete graphs, torus
translations, grid reflections) from orbit-constant initial states,
asserting the *lifted* trajectory is bitwise identical to the full-graph
engines step by step.  Probabilistic quotient runs use the shared
per-orbit draw convention — one ``integers(r, size=k)`` vector per step,
every node of an orbit sharing its representative's draw — which the
full-graph engines consume through
:class:`~repro.runtime.quotient.OrbitBroadcastRng`; that adapter is *the*
documented convention for cross-engine probabilistic quotient
conformance (stock per-node draws are a different stochastic process, so
``engine="auto"`` never quotients probabilistic runs).

The **backend seam** re-runs the differential oracle with every array
engine executing through a :class:`RecordingBackend` — a
:class:`~repro.runtime.backends.NumpyBackend` subclass wrapping the
``neighbour_counts``/``transition``/``draw`` hooks the way a tracer
does.  Trajectories must stay bitwise identical to the reference
interpreter through the wrapped hooks, and the hooks must fire once per
executed step (``draw`` once per active replica per step).

The **transition axis** runs every class twice: as written, where each
IR whose Lemma 3.8 counter table fits under the cap steps by one table
gather, and again (the ``…OnCascade`` classes) with the cap at zero, so
every step runs the ``np.select`` cascade.

The default parametrization keeps cases small; the ``slow`` marker adds a
wider randomized sweep (opt-in: ``pytest -m slow``).
"""

import numpy as np
import pytest

from repro.core import ir as ir_module
from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import clear_lowering_cache, lower
from repro.core.modthresh import (
    And,
    ModAtom,
    ModThreshProgram,
    Not,
    Or,
    ThreshAtom,
)
from repro.network import NetworkState, generators
from repro.network import symmetry as sym
from repro.runtime import run
from repro.runtime.backends import NumpyBackend
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.churn import (
    EDGE_DOWN,
    NODE_DOWN,
    ChurnPlan,
    TopologyEvent,
    growth_plan,
    random_churn_plan,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.quotient import OrbitBroadcastRng, QuotientSynchronousEngine
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.telemetry import MetricsRegistry
from repro.runtime.vectorized import VectorizedSynchronousEngine

class RecordingBackend(NumpyBackend):
    """The numpy backend with its three hooks wrapped and counted.

    It subclasses and overrides exactly what a tracer does, so the
    conformance cases check that seam: ``step`` must reach the wrapped
    hooks through ``self``, and their results must pass through intact.
    """

    def __init__(self) -> None:
        self.calls = {"neighbour_counts": 0, "transition": 0, "draw": 0}

    def neighbour_counts(self, adj, sig, ir):
        self.calls["neighbour_counts"] += 1
        return super().neighbour_counts(adj, sig, ir)

    def transition(self, ir, counts, sig, live, draws):
        self.calls["transition"] += 1
        return super().transition(ir, counts, sig, live, draws)

    def draw(self, rng, randomness, size):
        self.calls["draw"] += 1
        return super().draw(rng, randomness, size)


# ----------------------------------------------------------------------
# random generators for automata, networks and initial states
# ----------------------------------------------------------------------
def random_proposition(rng, states, depth=2):
    kind = int(rng.integers(5 if depth > 0 else 2))
    q = states[int(rng.integers(len(states)))]
    if kind == 0:
        return ThreshAtom(q, int(rng.integers(1, 4)))
    if kind == 1:
        m = int(rng.integers(2, 4))
        return ModAtom(q, int(rng.integers(m)), m)
    if kind == 2:
        return Not(random_proposition(rng, states, depth - 1))
    children = tuple(random_proposition(rng, states, depth - 1) for _ in range(2))
    return And(children) if kind == 3 else Or(children)


def random_cascade(rng, states):
    clauses = tuple(
        (random_proposition(rng, states), states[int(rng.integers(len(states)))])
        for _ in range(int(rng.integers(0, 4)))
    )
    return ModThreshProgram(
        clauses=clauses, default=states[int(rng.integers(len(states)))]
    )


def random_deterministic_programs(rng, n_states):
    states = [f"q{i}" for i in range(n_states)]
    return states, {q: random_cascade(rng, states) for q in states}


def random_probabilistic_programs(rng, n_states, randomness):
    states = [f"q{i}" for i in range(n_states)]
    return states, {
        (q, i): random_cascade(rng, states)
        for q in states
        for i in range(randomness)
    }


def random_network(rng, scale=1):
    pick = int(rng.integers(5))
    if pick == 0:
        return generators.path_graph(int(rng.integers(4, 8 * scale)))
    if pick == 1:
        return generators.cycle_graph(int(rng.integers(3, 10 * scale)))
    if pick == 2:
        return generators.grid_graph(
            int(rng.integers(2, 3 + scale)), int(rng.integers(2, 3 + scale))
        )
    if pick == 3:
        return generators.random_tree(int(rng.integers(3, 10 * scale)), rng)
    # may be disconnected and contain isolated nodes — deliberately
    return generators.gnp_random_graph(int(rng.integers(4, 10 * scale)), 0.3, rng)


def random_init(rng, net, states):
    return NetworkState.from_function(
        net, lambda v: states[int(rng.integers(len(states)))]
    )


def random_fault_events(rng, net, steps):
    """1–3 node/edge deletions at random times within the horizon.

    ``TopologyEvent`` is frozen, so the same events parametrize a *fresh*
    :class:`FaultPlan` per engine (plans hold a cursor)."""
    nodes = list(net)
    events = []
    for _ in range(int(rng.integers(1, 4))):
        t = int(rng.integers(1, max(2, steps - 1)))
        v = nodes[int(rng.integers(len(nodes)))]
        nbrs = list(net.neighbors(v))
        if nbrs and rng.integers(2):
            events.append(TopologyEvent(t, EDGE_DOWN, (v, nbrs[int(rng.integers(len(nbrs)))])))
        else:
            events.append(TopologyEvent(t, NODE_DOWN, v))
    return events


def random_churn_events(rng, net, steps, states):
    """A coherent mixed topology-dynamics schedule for a conformance case:
    random deletions with resurrections and edge restorations
    (:func:`random_churn_plan` against a scratch copy, so every event is
    feasible when it fires) plus one or two *fresh* arrivals joining
    mid-run (:func:`growth_plan`).  Boot states are drawn from the case's
    alphabet.  Like :func:`random_fault_events`, the same event list
    parametrizes a fresh :class:`ChurnPlan` per engine."""
    boot = states[int(rng.integers(len(states)))]
    base = random_churn_plan(
        net, int(rng.integers(2, 6)), max_time=max(1, steps - 2),
        rng=rng, p_up=0.5, boot_state=boot,
    ).events()
    growth = growth_plan(
        net, int(rng.integers(1, 3)), attach=2,
        start=int(rng.integers(1, steps)), rng=rng,
        state=states[int(rng.integers(len(states)))],
    ).events()
    return base + growth


def symmetric_network(rng, scale=1):
    """A random network from the declared-group families, group attached.

    Families: cycles under the full rotation (one orbit) and under the
    shift-2 subgroup on even cycles (two orbits), complete graphs under
    the full symmetric group, tori under translations, circulants under
    rotation, and open grids under the reflection product group (many
    small orbits) — every generator family the package emits a group for.
    """
    pick = int(rng.integers(6))
    if pick == 0:
        n = int(rng.integers(3, 8 * scale))
        net, group = generators.cycle_graph(n), sym.cyclic_rotation(n)
    elif pick == 1:
        n = 2 * int(rng.integers(2, 4 * scale))  # even cycle, 2 orbits
        net, group = generators.cycle_graph(n), sym.cyclic_rotation(n, shift=2)
    elif pick == 2:
        n = int(rng.integers(2, 6 * scale))
        net, group = generators.complete_graph(n), sym.full_symmetric(range(n))
    elif pick == 3:
        r, c = int(rng.integers(3, 3 + 2 * scale)), int(rng.integers(3, 3 + 2 * scale))
        net, group = generators.torus_graph(r, c), sym.torus_translations(r, c)
    elif pick == 4:
        n = int(rng.integers(5, 8 * scale))
        offs = sorted({int(d) for d in rng.integers(1, n // 2 + 1, size=2)})
        net, group = generators.circulant_graph(n, offs), sym.cyclic_rotation(n)
    else:
        r, c = int(rng.integers(2, 3 + scale)), int(rng.integers(2, 3 + scale))
        net, group = generators.grid_graph(r, c), sym.grid_reflections(r, c)
    net.declare_symmetry(group)
    return net


def orbit_constant_init(rng, net, states):
    """A random initial state that is constant on each orbit."""
    part = net.orbit_partition()
    per_orbit = [states[int(rng.integers(len(states)))] for _ in part.reps]
    return NetworkState({v: per_orbit[part.orbit_of[v]] for v in net})


# ----------------------------------------------------------------------
# the differential assertions
# ----------------------------------------------------------------------
def assert_deterministic_conformance(
    case_seed, scale=1, steps=6, replicas=3, backend="auto"
):
    rng = np.random.default_rng(case_seed)
    states, programs = random_deterministic_programs(rng, int(rng.integers(2, 5)))
    net = random_network(rng, scale)
    init = random_init(rng, net, states)

    ref = SynchronousSimulator(net.copy(), FSSGA.from_programs(programs), init.copy())
    vec = VectorizedSynchronousEngine(net, programs, init, backend=backend)
    bat = BatchedSynchronousEngine(
        net, programs, init, replicas=replicas, backend=backend
    )
    for step in range(steps):
        ref.step()
        vec.step()
        bat.step()
        assert vec.state == ref.state, f"vectorized diverged at step {step}"
        for r in range(replicas):
            assert bat.replica_state(r) == ref.state, (
                f"batched replica {r} diverged at step {step}"
            )


def assert_probabilistic_conformance(case_seed, scale=1, steps=8, backend="auto"):
    rng = np.random.default_rng(case_seed)
    randomness = int(rng.integers(2, 4))
    states, programs = random_probabilistic_programs(
        rng, int(rng.integers(2, 4)), randomness
    )
    net = random_network(rng, scale)
    init = random_init(rng, net, states)
    seed = int(rng.integers(2**32))

    automaton = ProbabilisticFSSGA(set(states), randomness, programs)
    ref = SynchronousSimulator(
        net.copy(), automaton, init.copy(), rng=np.random.default_rng(seed)
    )
    vec = VectorizedSynchronousEngine(
        net, programs, init, randomness=randomness,
        rng=np.random.default_rng(seed), backend=backend,
    )
    # one replica sharing the very same stream as the single-replica engines
    bat = BatchedSynchronousEngine(
        net,
        programs,
        init,
        replicas=1,
        randomness=randomness,
        rng=[np.random.default_rng(seed)],
        backend=backend,
    )
    for step in range(steps):
        ref.step()
        vec.step()
        bat.step()
        assert vec.state == ref.state, f"vectorized diverged at step {step}"
        assert bat.replica_state(0) == ref.state, f"batched diverged at step {step}"


def assert_faulted_conformance(
    case_seed, scale=1, steps=8, replicas=2, backend="auto"
):
    """Mid-run faults lower to live-node masks on every engine: identical
    trajectories over the surviving nodes, step by step."""
    rng = np.random.default_rng(case_seed)
    states, programs = random_deterministic_programs(rng, int(rng.integers(2, 5)))
    net = random_network(rng, scale)
    init = random_init(rng, net, states)
    events = random_fault_events(rng, net, steps)

    ref = SynchronousSimulator(
        net.copy(), FSSGA.from_programs(programs), init.copy(),
        fault_plan=FaultPlan(events),
    )
    vec = VectorizedSynchronousEngine(
        net.copy(), programs, init, fault_plan=FaultPlan(events), backend=backend
    )
    bat = BatchedSynchronousEngine(
        net.copy(), programs, init, replicas=replicas,
        fault_plan=FaultPlan(events), backend=backend,
    )
    for step in range(steps):
        ref.step()
        vec.step()
        bat.step()
        assert vec.state == ref.state, f"vectorized diverged at step {step}"
        for r in range(replicas):
            assert bat.replica_state(r) == ref.state, (
                f"batched replica {r} diverged at step {step}"
            )


def assert_faulted_probabilistic_conformance(
    case_seed, scale=1, steps=8, backend="auto"
):
    """Faults + shared RNG streams: the live-compacted draw order must keep
    matching the reference's per-node draws as nodes disappear."""
    rng = np.random.default_rng(case_seed)
    randomness = int(rng.integers(2, 4))
    states, programs = random_probabilistic_programs(
        rng, int(rng.integers(2, 4)), randomness
    )
    net = random_network(rng, scale)
    init = random_init(rng, net, states)
    events = random_fault_events(rng, net, steps)
    seed = int(rng.integers(2**32))

    automaton = ProbabilisticFSSGA(set(states), randomness, programs)
    ref = SynchronousSimulator(
        net.copy(), automaton, init.copy(), rng=np.random.default_rng(seed),
        fault_plan=FaultPlan(events),
    )
    vec = VectorizedSynchronousEngine(
        net.copy(), programs, init, randomness=randomness,
        rng=np.random.default_rng(seed), fault_plan=FaultPlan(events),
        backend=backend,
    )
    bat = BatchedSynchronousEngine(
        net.copy(), programs, init, replicas=1, randomness=randomness,
        rng=[np.random.default_rng(seed)], fault_plan=FaultPlan(events),
        backend=backend,
    )
    for step in range(steps):
        ref.step()
        vec.step()
        bat.step()
        assert vec.state == ref.state, f"vectorized diverged at step {step}"
        assert bat.replica_state(0) == ref.state, f"batched diverged at step {step}"


def assert_churn_conformance(
    case_seed, scale=1, steps=8, replicas=2, backend="auto"
):
    """Mixed down/up churn lowers to the union topology + incremental
    masks on the array engines: trajectories bitwise-identical to the
    reference interpreter mutating the live network, step by step —
    deletions, resurrections, edge restorations and fresh arrivals all
    included."""
    rng = np.random.default_rng(case_seed)
    states, programs = random_deterministic_programs(rng, int(rng.integers(2, 5)))
    net = random_network(rng, scale)
    init = random_init(rng, net, states)
    events = random_churn_events(rng, net, steps, states)

    ref = SynchronousSimulator(
        net.copy(), FSSGA.from_programs(programs), init.copy(),
        fault_plan=ChurnPlan(list(events)),
    )
    vec = VectorizedSynchronousEngine(
        net.copy(), programs, init, fault_plan=ChurnPlan(list(events)),
        backend=backend,
    )
    bat = BatchedSynchronousEngine(
        net.copy(), programs, init, replicas=replicas,
        fault_plan=ChurnPlan(list(events)), backend=backend,
    )
    for step in range(steps):
        ref.step()
        vec.step()
        bat.step()
        assert vec.state == ref.state, f"vectorized diverged at step {step}"
        for r in range(replicas):
            assert bat.replica_state(r) == ref.state, (
                f"batched replica {r} diverged at step {step}"
            )


def assert_churn_probabilistic_conformance(
    case_seed, scale=1, steps=8, backend="auto"
):
    """Churn + shared RNG streams: the reference draws per node in live
    insertion order (a resurrected or arriving node re-enters at the
    *end* of the dict), so the array engines' live views must present
    rows in the same stamped order for the draw streams to stay aligned
    — the strictest check of the arrival lowering."""
    rng = np.random.default_rng(case_seed)
    randomness = int(rng.integers(2, 4))
    states, programs = random_probabilistic_programs(
        rng, int(rng.integers(2, 4)), randomness
    )
    net = random_network(rng, scale)
    init = random_init(rng, net, states)
    events = random_churn_events(rng, net, steps, states)
    seed = int(rng.integers(2**32))

    automaton = ProbabilisticFSSGA(set(states), randomness, programs)
    ref = SynchronousSimulator(
        net.copy(), automaton, init.copy(), rng=np.random.default_rng(seed),
        fault_plan=ChurnPlan(list(events)),
    )
    vec = VectorizedSynchronousEngine(
        net.copy(), programs, init, randomness=randomness,
        rng=np.random.default_rng(seed), fault_plan=ChurnPlan(list(events)),
        backend=backend,
    )
    bat = BatchedSynchronousEngine(
        net.copy(), programs, init, replicas=1, randomness=randomness,
        rng=[np.random.default_rng(seed)], fault_plan=ChurnPlan(list(events)),
        backend=backend,
    )
    for step in range(steps):
        ref.step()
        vec.step()
        bat.step()
        assert vec.state == ref.state, f"vectorized diverged at step {step}"
        assert bat.replica_state(0) == ref.state, f"batched diverged at step {step}"


def assert_quotient_deterministic_conformance(
    case_seed, scale=1, steps=6, backend="auto"
):
    """Quotient vs reference vs vectorized: bitwise-identical *lifted*
    trajectories on a random declared-group network from an orbit-constant
    initial state, step by step."""
    rng = np.random.default_rng(case_seed)
    states, programs = random_deterministic_programs(rng, int(rng.integers(2, 5)))
    net = symmetric_network(rng, scale)
    init = orbit_constant_init(rng, net, states)

    quo = QuotientSynchronousEngine(net, programs, init, backend=backend)
    ref = SynchronousSimulator(net.copy(), FSSGA.from_programs(programs), init.copy())
    vec = VectorizedSynchronousEngine(net.copy(), programs, init, backend=backend)
    for step in range(steps):
        quo.step()
        ref.step()
        vec.step()
        assert quo.state == ref.state, f"quotient diverged at step {step}"
        assert vec.state == ref.state, f"vectorized diverged at step {step}"


def assert_quotient_probabilistic_conformance(
    case_seed, scale=1, steps=8, backend="auto"
):
    """The probabilistic quotient convention, cross-checked bitwise: the
    quotient engine draws one value per orbit per step; the full-graph
    engines consume the *same base stream* through ``OrbitBroadcastRng``
    (one ``size=k`` vector per step, broadcast to nodes via orbit index) —
    so all three lifted trajectories must agree exactly."""
    rng = np.random.default_rng(case_seed)
    randomness = int(rng.integers(2, 4))
    states, programs = random_probabilistic_programs(
        rng, int(rng.integers(2, 4)), randomness
    )
    net = symmetric_network(rng, scale)
    init = orbit_constant_init(rng, net, states)
    seed = int(rng.integers(2**32))

    automaton = ProbabilisticFSSGA(set(states), randomness, programs)
    quo = QuotientSynchronousEngine(
        net, programs, init, randomness=randomness,
        rng=np.random.default_rng(seed), backend=backend,
    )
    ref = SynchronousSimulator(
        net.copy(), automaton, init.copy(),
        rng=OrbitBroadcastRng(net, np.random.default_rng(seed)),
    )
    vec = VectorizedSynchronousEngine(
        net.copy(), programs, init, randomness=randomness,
        rng=OrbitBroadcastRng(net, np.random.default_rng(seed)), backend=backend,
    )
    for step in range(steps):
        quo.step()
        ref.step()
        vec.step()
        assert quo.state == ref.state, f"quotient diverged at step {step}"
        assert vec.state == ref.state, f"vectorized diverged at step {step}"


# ----------------------------------------------------------------------
# default suite: small random cases
# ----------------------------------------------------------------------
class TestDeterministicConformance:
    @pytest.mark.parametrize("case", range(10))
    def test_random_automaton_trajectories(self, case):
        assert_deterministic_conformance(1000 + case)


class TestProbabilisticConformance:
    @pytest.mark.parametrize("case", range(10))
    def test_random_automaton_trajectories_shared_seed(self, case):
        assert_probabilistic_conformance(2000 + case)


class TestFaultedConformance:
    """Faulted trajectories execute identically on all three engines."""

    @pytest.mark.parametrize("case", range(10))
    def test_deterministic_faulted(self, case):
        assert_faulted_conformance(3000 + case)

    @pytest.mark.parametrize("case", range(10))
    def test_probabilistic_faulted(self, case):
        assert_faulted_probabilistic_conformance(4000 + case)


class TestChurnConformance:
    """Mixed down/up schedules (the topology-dynamics generalization)
    execute identically on all three engines — the acceptance criterion of
    the churn tentpole: no reference fallback, bitwise-equal trajectories
    through deletions, resurrections, restorations and fresh arrivals."""

    @pytest.mark.parametrize("case", range(10))
    def test_deterministic_churn(self, case):
        assert_churn_conformance(15000 + case)

    @pytest.mark.parametrize("case", range(10))
    def test_probabilistic_churn(self, case):
        assert_churn_probabilistic_conformance(16000 + case)

    def test_arrival_boots_and_attaches_on_every_engine(self):
        """An explicit hand-built schedule (not reliant on random picks):
        a node dies, a fresh node arrives and attaches to the epidemic,
        the dead node resurrects with a trimmed neighbourhood, and a
        severed edge comes back."""
        from repro.core.modthresh import ModThreshProgram, at_least

        programs = {
            "s": ModThreshProgram(clauses=((at_least("i", 1), "i"),), default="s"),
            "i": ModThreshProgram(clauses=(), default="i"),
        }
        net = generators.cycle_graph(6)
        init = NetworkState.uniform(net, "s")
        init[0] = "i"
        events = [
            TopologyEvent(1, "node-down", 3),
            TopologyEvent(2, "edge-down", (4, 5)),
            TopologyEvent(3, "node-up", "x", state="s", edges=(0, 4)),
            TopologyEvent(4, "node-up", 3, state="s", edges=(2,)),
            TopologyEvent(5, "edge-up", (4, 5)),
        ]
        ref = SynchronousSimulator(
            net.copy(), FSSGA.from_programs(programs), init.copy(),
            fault_plan=ChurnPlan(list(events)),
        )
        vec = VectorizedSynchronousEngine(
            net.copy(), programs, init, fault_plan=ChurnPlan(list(events))
        )
        bat = BatchedSynchronousEngine(
            net.copy(), programs, init, replicas=2,
            fault_plan=ChurnPlan(list(events)),
        )
        for step in range(10):
            ref.step()
            vec.step()
            bat.step()
            assert vec.state == ref.state, f"vectorized diverged at step {step}"
            assert bat.replica_state(0) == ref.state
            assert bat.replica_state(1) == ref.state
        # the arrival caught the infection through its edge to node 0,
        # and the resurrected node through its single kept edge to node 2
        assert ref.state["x"] == "i" and ref.state[3] == "i"


class TestQuotientConformance:
    """Orbit-representative simulation lifts back to the exact full-graph
    trajectory on every declared-group family (acceptance criterion of the
    symmetry-quotient tentpole)."""

    @pytest.mark.parametrize("case", range(10))
    def test_deterministic_lifted_trajectories(self, case):
        assert_quotient_deterministic_conformance(9000 + case)

    @pytest.mark.parametrize("case", range(10))
    def test_probabilistic_shared_orbit_draws(self, case):
        assert_quotient_probabilistic_conformance(9500 + case)

    def test_named_families_deterministic(self):
        """One explicit pass per family (not reliant on random picks)."""
        from repro.algorithms import two_coloring as tc

        programs = tc.sticky_programs()
        cases = [
            (generators.cycle_graph(9), sym.cyclic_rotation(9)),
            (generators.cycle_graph(8), sym.cyclic_rotation(8, shift=2)),
            (generators.complete_graph(7), sym.full_symmetric(range(7))),
            (generators.torus_graph(3, 5), sym.torus_translations(3, 5)),
            (generators.circulant_graph(10, (1, 3)), sym.cyclic_rotation(10)),
            (generators.grid_graph(3, 4), sym.grid_reflections(3, 4)),
        ]
        for net, group in cases:
            net.declare_symmetry(group)
            init = NetworkState.uniform(net, tc.BLANK)
            quo = QuotientSynchronousEngine(net, programs, init)
            vec = VectorizedSynchronousEngine(net.copy(), programs, init)
            for step in range(6):
                quo.step()
                vec.step()
                assert quo.state == vec.state, (
                    f"{group.name}: diverged at step {step}"
                )

    def test_quotient_counters_reflect_orbit_work(self):
        """``node_updates``/``rng_draws`` count representatives (the work
        actually done); ``node_updates_lifted`` matches the full-graph
        engine's ``node_updates`` exactly."""
        rng = np.random.default_rng(9900)
        randomness = 2
        states, programs = random_probabilistic_programs(rng, 3, randomness)
        net = generators.torus_graph(4, 4)
        net.declare_symmetry(sym.torus_translations(4, 4))
        init = orbit_constant_init(rng, net, states)
        seed = 20060730

        met_quo, met_vec = MetricsRegistry(), MetricsRegistry()
        quo = QuotientSynchronousEngine(
            net, programs, init, randomness=randomness,
            rng=np.random.default_rng(seed), metrics=met_quo,
        )
        vec = VectorizedSynchronousEngine(
            net.copy(), programs, init, randomness=randomness,
            rng=OrbitBroadcastRng(net, np.random.default_rng(seed)),
            metrics=met_vec,
        )
        steps = 8
        for _ in range(steps):
            quo.step()
            vec.step()
        assert quo.state == vec.state
        k, n = quo.orbit_count, net.num_nodes
        assert k == 1 and n == 16  # torus translations are transitive
        assert met_quo.get("steps") == met_vec.get("steps") == steps
        assert met_quo.get("rng_draws") == steps * k
        assert met_vec.get("rng_draws") == steps * n
        assert met_quo.get("node_updates_lifted") == met_vec.get("node_updates")
        assert met_quo.get("node_updates") * n == (
            met_quo.get("node_updates_lifted") * k
        )


class TestCounterConformance:
    """Theorem 3.7 extended to the instrumentation: the telemetry counters
    (steps, node updates, RNG draws, fault/churn events) agree exactly
    across reference/vectorized/batched on shared-seed trajectories.
    ``fault_events`` keeps its historical deletions-only meaning;
    ``churn_events`` counts every applied topology event."""

    COUNTERS = (
        "steps", "node_updates", "rng_draws", "fault_events", "churn_events"
    )

    def _counters_for_case(self, case_seed, steps=8, churn=False):
        rng = np.random.default_rng(case_seed)
        randomness = int(rng.integers(2, 4))
        states, programs = random_probabilistic_programs(
            rng, int(rng.integers(2, 4)), randomness
        )
        net = random_network(rng)
        init = random_init(rng, net, states)
        events = (
            random_churn_events(rng, net, steps, states)
            if churn
            else random_fault_events(rng, net, steps)
        )
        seed = int(rng.integers(2**32))

        automaton = ProbabilisticFSSGA(set(states), randomness, programs)
        met_ref, met_vec, met_bat = (MetricsRegistry() for _ in range(3))
        ref = SynchronousSimulator(
            net.copy(), automaton, init.copy(),
            rng=np.random.default_rng(seed),
            fault_plan=ChurnPlan(list(events)), metrics=met_ref,
        )
        vec = VectorizedSynchronousEngine(
            net.copy(), programs, init, randomness=randomness,
            rng=np.random.default_rng(seed),
            fault_plan=ChurnPlan(list(events)), metrics=met_vec,
        )
        bat = BatchedSynchronousEngine(
            net.copy(), programs, init, replicas=1, randomness=randomness,
            rng=[np.random.default_rng(seed)],
            fault_plan=ChurnPlan(list(events)), metrics=met_bat,
        )
        for _ in range(steps):
            ref.step()
            vec.step()
            bat.step()
        return met_ref, met_vec, met_bat

    @pytest.mark.parametrize("case", range(6))
    def test_probabilistic_faulted_counters_agree(self, case):
        met_ref, met_vec, met_bat = self._counters_for_case(7000 + case)
        for name in self.COUNTERS:
            assert met_vec.get(name) == met_ref.get(name), name
            assert met_bat.get(name) == met_ref.get(name), name
        assert met_ref.get("rng_draws") > 0
        # deletion-only schedules: the two event counters coincide
        assert met_ref.get("churn_events") == met_ref.get("fault_events")

    @pytest.mark.parametrize("case", range(4))
    def test_churn_counters_agree(self, case):
        """Mixed schedules: ``churn_events`` counts every applied event,
        ``fault_events`` only the deletions — identically on all engines."""
        met_ref, met_vec, met_bat = self._counters_for_case(
            7700 + case, churn=True
        )
        for name in self.COUNTERS:
            assert met_vec.get(name) == met_ref.get(name), name
            assert met_bat.get(name) == met_ref.get(name), name
        assert met_ref.get("churn_events") >= met_ref.get("fault_events")
        assert met_ref.get("churn_events") > 0

    @pytest.mark.parametrize("case", range(4))
    def test_deterministic_counters_agree(self, case):
        rng = np.random.default_rng(7500 + case)
        states, programs = random_deterministic_programs(
            rng, int(rng.integers(2, 5))
        )
        net = random_network(rng)
        init = random_init(rng, net, states)
        met_ref, met_vec, met_bat = (MetricsRegistry() for _ in range(3))
        ref = SynchronousSimulator(
            net.copy(), FSSGA.from_programs(programs), init.copy(),
            metrics=met_ref,
        )
        vec = VectorizedSynchronousEngine(net, programs, init, metrics=met_vec)
        bat = BatchedSynchronousEngine(
            net, programs, init, replicas=1, metrics=met_bat
        )
        for _ in range(6):
            ref.step()
            vec.step()
            bat.step()
        for name in self.COUNTERS:
            assert met_vec.get(name) == met_ref.get(name), name
            assert met_bat.get(name) == met_ref.get(name), name
        assert met_ref.get("rng_draws") == 0  # deterministic: no draws
        # batched quiescence-mask density was recorded per step
        assert met_bat.series["active_fraction"] == [1.0] * 6


class TestRuleBasedConformance:
    """Rule-based automata with ``compile_hints`` lower through the Lemma
    3.9 compiler; the vector engines run the compiled IR against the
    reference interpreter executing the *raw Python rule* — a differential
    check of the compiler itself, not just of the engines."""

    def test_two_coloring_rule_based(self):
        from repro.algorithms import two_coloring as tc

        net = generators.cycle_graph(11)  # odd cycle: FAILED must flood
        automaton, init = tc.build(net, 0)
        assert automaton.is_rule_based
        ref = SynchronousSimulator(net.copy(), automaton, init.copy())
        vec = VectorizedSynchronousEngine(net, automaton, init)
        bat = BatchedSynchronousEngine(net, automaton, init, replicas=2)
        for step in range(14):
            ref.step()
            vec.step()
            bat.step()
            assert vec.state == ref.state, f"vectorized diverged at step {step}"
            assert bat.replica_state(0) == ref.state
            assert bat.replica_state(1) == ref.state

    def test_random_walk_rule_based_shared_seed(self):
        from repro.algorithms import random_walk as rw

        net = generators.cycle_graph(8)
        automaton, init = rw.build(net, 0)
        assert automaton.is_rule_based
        seed = 424242
        ref = SynchronousSimulator(
            net.copy(), automaton, init.copy(), rng=np.random.default_rng(seed)
        )
        vec = VectorizedSynchronousEngine(
            net, automaton, init, rng=np.random.default_rng(seed)
        )
        bat = BatchedSynchronousEngine(
            net, automaton, init, replicas=1,
            rng=[np.random.default_rng(seed)],
        )
        for step in range(40):
            ref.step()
            vec.step()
            bat.step()
            assert vec.state == ref.state, f"vectorized diverged at step {step}"
            assert bat.replica_state(0) == ref.state

    def test_rule_based_faulted(self):
        from repro.algorithms import two_coloring as tc

        net = generators.grid_graph(4, 4)  # nodes are ints r*4+c
        automaton, init = tc.build(net, 0)
        events = [
            TopologyEvent(2, NODE_DOWN, 5),
            TopologyEvent(4, EDGE_DOWN, (10, 11)),
        ]
        ref = SynchronousSimulator(
            net.copy(), automaton, init.copy(), fault_plan=FaultPlan(events)
        )
        vec = VectorizedSynchronousEngine(
            net.copy(), automaton, init, fault_plan=FaultPlan(events)
        )
        bat = BatchedSynchronousEngine(
            net.copy(), automaton, init, replicas=2,
            fault_plan=FaultPlan(events),
        )
        for step in range(10):
            ref.step()
            vec.step()
            bat.step()
            assert vec.state == ref.state, f"vectorized diverged at step {step}"
            assert bat.replica_state(0) == ref.state
            assert bat.replica_state(1) == ref.state


class TestKnownAutomata:
    """The harness applied to the repo's own mod-thresh workloads."""

    def test_two_coloring(self):
        from repro.algorithms import two_coloring as tc

        net = generators.cycle_graph(10)
        programs = tc.sticky_programs()
        init = NetworkState.from_function(
            net, lambda v: tc.RED if v == 0 else tc.BLANK
        )
        ref = SynchronousSimulator(
            net.copy(), FSSGA.from_programs(programs), init.copy()
        )
        vec = VectorizedSynchronousEngine(net, programs, init)
        bat = BatchedSynchronousEngine(net, programs, init, replicas=2)
        for _ in range(12):
            ref.step()
            vec.step()
            bat.step()
            assert vec.state == ref.state
            assert bat.replica_state(0) == ref.state
            assert bat.replica_state(1) == ref.state

    def test_election_coin_kernel(self):
        from repro.algorithms import election

        net = generators.complete_graph(9)
        programs = election.coin_kernel_programs()
        init = election.coin_kernel_init(net)
        seed = 77
        automaton = ProbabilisticFSSGA(
            {election.K_REMAIN0, election.K_REMAIN1, election.K_OUT}, 2, programs
        )
        ref = SynchronousSimulator(
            net.copy(), automaton, init.copy(), rng=np.random.default_rng(seed)
        )
        vec = VectorizedSynchronousEngine(
            net, programs, init, randomness=2, rng=np.random.default_rng(seed)
        )
        bat = BatchedSynchronousEngine(
            net, programs, init, replicas=1, randomness=2,
            rng=[np.random.default_rng(seed)],
        )
        for _ in range(15):
            ref.step()
            vec.step()
            bat.step()
            assert vec.state == ref.state
            assert bat.replica_state(0) == ref.state


class TestBackendConformance:
    """The same harness run through :class:`RecordingBackend`.

    Wrapping the hooks must not change a single state code: counts are
    exact integers and the RNG draw stream is consumed identically, so
    there is no tolerance — equality is exact.  The call counts pin the
    seam a tracer relies on.
    """

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(3))
    def test_deterministic(self, backend, case):
        assert_deterministic_conformance(13000 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(3))
    def test_probabilistic(self, backend, case):
        assert_probabilistic_conformance(13100 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(2))
    def test_faulted(self, backend, case):
        assert_faulted_conformance(13200 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(2))
    def test_faulted_probabilistic(self, backend, case):
        assert_faulted_probabilistic_conformance(13300 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(2))
    def test_churn(self, backend, case):
        assert_churn_conformance(13600 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(2))
    def test_churn_probabilistic(self, backend, case):
        assert_churn_probabilistic_conformance(13700 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(2))
    def test_quotient_deterministic(self, backend, case):
        assert_quotient_deterministic_conformance(13400 + case, backend=backend())

    @pytest.mark.parametrize("backend", [RecordingBackend], ids=["numpy"])
    @pytest.mark.parametrize("case", range(2))
    def test_quotient_probabilistic(self, backend, case):
        assert_quotient_probabilistic_conformance(13500 + case, backend=backend())

    def test_backend_name_pass_through(self):
        """Engines accept both a name and a prebuilt backend instance."""
        rng = np.random.default_rng(0)
        states, programs = random_deterministic_programs(rng, 3)
        net = random_network(rng, 1)
        init = random_init(rng, net, states)
        rec = RecordingBackend()
        by_name = VectorizedSynchronousEngine(net, programs, init,
                                              backend="numpy")
        by_obj = VectorizedSynchronousEngine(net, programs, init, backend=rec)
        assert by_obj.backend is rec
        assert by_name.backend.name == by_obj.backend.name == "numpy"

    def test_hooks_fire_once_per_executed_step(self):
        from repro.algorithms import two_coloring as tc

        net = generators.cycle_graph(12)
        init = NetworkState.from_function(
            net, lambda v: tc.RED if v == 0 else tc.BLANK
        )
        rec = RecordingBackend()
        res = run(tc.sticky_programs(), net, init, backend=rec)
        assert res.backend == "numpy"
        assert res.steps > 1
        assert rec.calls == {
            "neighbour_counts": res.steps, "transition": res.steps, "draw": 0,
        }

    def test_draw_fires_once_per_active_replica_per_step(self):
        from repro.algorithms import election

        net = generators.complete_graph(6)
        rec = RecordingBackend()
        res = run(
            election.coin_kernel_programs(), net,
            election.coin_kernel_init(net), replicas=3, randomness=2,
            rng=7, backend=rec,
        )
        rounds = [int(k) for k in res.replica_rounds]
        assert len(set(rounds)) > 1, "replicas must stop at different steps"
        assert res.backend == "numpy"
        assert res.steps == max(rounds)
        assert rec.calls == {
            "neighbour_counts": res.steps,
            "transition": res.steps,
            "draw": sum(rounds),
        }


# ----------------------------------------------------------------------
# opt-in wide sweep (pytest -m slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestConformanceSweep:
    @pytest.mark.parametrize("case", range(40))
    def test_deterministic_wide(self, case):
        assert_deterministic_conformance(5000 + case, scale=4, steps=10, replicas=4)

    @pytest.mark.parametrize("case", range(40))
    def test_probabilistic_wide(self, case):
        assert_probabilistic_conformance(6000 + case, scale=4, steps=12)

    @pytest.mark.parametrize("case", range(40))
    def test_faulted_wide(self, case):
        assert_faulted_conformance(7000 + case, scale=4, steps=12, replicas=4)

    @pytest.mark.parametrize("case", range(40))
    def test_faulted_probabilistic_wide(self, case):
        assert_faulted_probabilistic_conformance(8000 + case, scale=4, steps=12)

    @pytest.mark.parametrize("case", range(40))
    def test_churn_wide(self, case):
        assert_churn_conformance(15500 + case, scale=4, steps=12, replicas=4)

    @pytest.mark.parametrize("case", range(40))
    def test_churn_probabilistic_wide(self, case):
        assert_churn_probabilistic_conformance(16500 + case, scale=4, steps=12)

    @pytest.mark.parametrize("case", range(40))
    def test_quotient_deterministic_wide(self, case):
        assert_quotient_deterministic_conformance(9000 + case, scale=4, steps=10)

    @pytest.mark.parametrize("case", range(40))
    def test_quotient_probabilistic_wide(self, case):
        assert_quotient_probabilistic_conformance(9500 + case, scale=4, steps=12)


# ----------------------------------------------------------------------
# the transition axis: every class again on the cascade path
# ----------------------------------------------------------------------
@pytest.fixture
def cascade_path(monkeypatch):
    """Lower with no counter table, so every step runs the cascade."""
    monkeypatch.setattr(ir_module, "_COUNTER_TABLE_CAP", 0)
    clear_lowering_cache()
    yield
    clear_lowering_cache()


def _on_cascade(cls):
    """``cls``'s cases again, with the counter table disabled."""
    sub = type(f"{cls.__name__}OnCascade", (cls,), {})
    return pytest.mark.usefixtures("cascade_path")(sub)


TestDeterministicConformanceOnCascade = _on_cascade(TestDeterministicConformance)
TestProbabilisticConformanceOnCascade = _on_cascade(TestProbabilisticConformance)
TestFaultedConformanceOnCascade = _on_cascade(TestFaultedConformance)
TestChurnConformanceOnCascade = _on_cascade(TestChurnConformance)
TestQuotientConformanceOnCascade = _on_cascade(TestQuotientConformance)
TestCounterConformanceOnCascade = _on_cascade(TestCounterConformance)
TestRuleBasedConformanceOnCascade = _on_cascade(TestRuleBasedConformance)
TestKnownAutomataOnCascade = _on_cascade(TestKnownAutomata)
TestBackendConformanceOnCascade = _on_cascade(TestBackendConformance)
TestConformanceSweepOnCascade = _on_cascade(TestConformanceSweep)


def test_the_default_cases_step_by_the_table():
    """Without the fixture most random automata get a counter table, so
    the classes as written do exercise the table path."""
    tabled = 0
    for seed in range(1000, 1010):
        rng = np.random.default_rng(seed)
        _, programs = random_deterministic_programs(rng, int(rng.integers(2, 5)))
        tabled += lower(programs).step_tables.counter_table is not None
    for seed in range(2000, 2010):
        rng = np.random.default_rng(seed)
        randomness = int(rng.integers(2, 4))
        _, programs = random_probabilistic_programs(
            rng, int(rng.integers(2, 4)), randomness
        )
        tabled += lower(programs, randomness).step_tables.counter_table is not None
    assert tabled >= 15
