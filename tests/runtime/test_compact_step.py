"""The compact array step: narrow state codes, the Lemma 3.8 counter
table and the circulant stencil.

Each fast path is checked against the code it replaces: the counter table
against the ``np.select`` cascade (and the per-node reference automaton)
on counts well past the counter grid, and the stencil against the CSR
product, on the circulant edge cases where ``+d`` and ``-d`` meet.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro import run
from repro.algorithms import bfs, election, random_walk, shortest_paths, two_coloring
from repro.core import ir as ir_module
from repro.core.ir import lower
from repro.network import NetworkState, generators
from repro.network.symmetry import cyclic_rotation
from repro.runtime.backends import kernels
from repro.runtime.engine import CirculantAdjacency, full_topology
from repro.runtime.telemetry import MetricsRegistry
from repro.runtime.vectorized import VectorizedSynchronousEngine


def _in_repo_irs():
    net = generators.cycle_graph(6)
    return {
        "coin-kernel": lower(election.coin_kernel_programs(), 2),
        "two-coloring": lower(two_coloring.programs()),
        "two-coloring-sticky": lower(two_coloring.sticky_programs()),
        "two-coloring-rule": lower(two_coloring.build(net, 0)[0]),
        "random-walk-rule": lower(random_walk.build(net, 0)[0]),
        "shortest-paths-2": lower(shortest_paths.programs(2)),
        "shortest-paths-4": lower(shortest_paths.programs(4)),
        "shortest-paths-8": lower(shortest_paths.programs(8)),
        "bfs": lower(bfs.programs()),
    }


IRS = _in_repo_irs()


def _cascade(ir, counts, sig, draws):
    """The cascade path, whatever table ``ir`` has."""
    return kernels._cascade(ir, ir.step_tables, counts, sig, None, draws)


def _oracle(ir, counts, sig, draws):
    """Successor codes by the reference automaton, one entry at a time.

    Every row needs a neighbour (Q^+), so callers pass rows with a nonzero
    count."""
    aut = ir.as_automaton()
    states = ir.step_tables.feature_column
    out = []
    for i, c in enumerate(sig.tolist()):
        nbrs = Counter({q: int(counts[i, j]) for q, j in states.items()})
        assert sum(nbrs.values()) > 0
        if ir.probabilistic:
            q = aut.transition(ir.alphabet[c], nbrs, int(draws[i]))
        else:
            q = aut.transition(ir.alphabet[c], nbrs)
        out.append(ir.code[q])
    return np.array(out)


@pytest.mark.parametrize("name", sorted(IRS))
def test_counter_table_equals_the_cascade(name):
    ir = IRS[name]
    tables = ir.step_tables
    s, r = len(ir.alphabet), ir.randomness
    sizes = [t + period for t, period in tables.counters]
    cells = s * r * math.prod(sizes)
    if cells > ir_module._COUNTER_TABLE_CAP:
        assert tables.counter_table is None
        return
    table = tables.counter_table
    assert table.shape == (s * r, math.prod(sizes))
    assert table.dtype == tables.lut.dtype
    # the full counter grid, every key
    cols = math.prod(sizes)
    grid = np.indices(sizes).reshape(len(sizes), cols).T
    keys = np.arange(s * r)
    sig = np.repeat(keys // r, cols)
    draws = np.repeat(keys % r, cols) if ir.probabilistic else None
    counts = np.tile(grid, (s * r, 1))
    np.testing.assert_array_equal(
        table.ravel(), _cascade(ir, counts, sig, draws)
    )
    # counts past the grid reach the table through the counter index
    rng = np.random.default_rng(len(name))
    m = 2000
    counts = rng.integers(0, 3 * max(sizes, default=1) + 3,
                          size=(m, len(sizes)))
    sig = rng.integers(s, size=m)
    draws = rng.integers(r, size=m) if ir.probabilistic else None
    got = kernels.transition(ir, counts, sig.astype(tables.lut.dtype), None, draws)
    np.testing.assert_array_equal(got, _cascade(ir, counts, sig, draws))
    some = np.flatnonzero(counts.sum(axis=1) > 0)[:200]
    np.testing.assert_array_equal(
        got[some],
        _oracle(ir, counts[some], sig[some], None if draws is None else draws[some]),
    )


@pytest.mark.parametrize("name", ["coin-kernel", "random-walk-rule"])
def test_narrow_draws_give_the_same_successors(name):
    """The engine's raw-stream draws come as uint8, a caller's as int64:
    the counter table and the cascade read both alike."""
    ir = IRS[name]
    tables = ir.step_tables
    rng = np.random.default_rng(len(name))
    m = 2000
    counts = rng.integers(0, 9, size=(m, len(tables.counters)))
    sig = rng.integers(len(ir.alphabet), size=m).astype(tables.lut.dtype)
    draws = rng.integers(ir.randomness, size=m)
    narrow = draws.astype(np.uint8)
    want = _cascade(ir, counts, sig, draws)
    np.testing.assert_array_equal(_cascade(ir, counts, sig, narrow), want)
    assert tables.counter_table is not None
    for d in (draws, narrow):
        np.testing.assert_array_equal(kernels.transition(ir, counts, sig, None, d), want)


def test_bfs_keeps_the_cascade():
    assert IRS["bfs"].step_tables.counter_table is None
    assert IRS["shortest-paths-8"].step_tables.counter_table is None
    assert IRS["coin-kernel"].step_tables.counter_table.shape == (6, 2)
    assert IRS["two-coloring"].step_tables.counter_table.size == 64


def test_counter_index_mod_and_threshold_atoms():
    from repro.core.modthresh import ModAtom, ModThreshProgram, ThreshAtom

    # state 1 has thresholds 2 and 5 and moduli 2 and 3: T = 5, L = 6
    progs = {
        0: ModThreshProgram(
            ((ThreshAtom(1, 2), 0), (ModAtom(1, 1, 2), 1),
             (ThreshAtom(1, 5), 2), (ModAtom(1, 2, 3), 1)), 2),
        1: ModThreshProgram((), 0),
        2: ModThreshProgram((), 1),
    }
    ir = lower(progs)
    assert ir.step_tables.counters == ((5, 6),)
    counts = np.arange(200)[:, None]
    sig = np.zeros(200, dtype=np.int64)
    got = kernels.transition(ir, counts, sig.astype(np.int8), None, None)
    np.testing.assert_array_equal(got, _cascade(ir, counts, sig, None))


# ----------------------------------------------------------------------
# narrow codes
# ----------------------------------------------------------------------
def test_state_codes_and_counts_are_narrow():
    net = generators.circulant_graph(64, (1, 2, 3))
    eng = VectorizedSynchronousEngine(
        net, election.coin_kernel_programs(), election.coin_kernel_init(net),
        randomness=2, rng=1,
    )
    assert eng._sigmas.dtype == np.int8
    assert isinstance(eng.adjacency, CirculantAdjacency)
    counts = eng.backend.neighbour_counts(eng.adjacency, eng._sigmas[0], eng._ir)
    assert counts.dtype == np.int8 and counts.shape == (64, 1)
    eng.run(5)
    assert eng._sigmas.dtype == np.int8
    # decoded values are Python objects, never numpy scalars
    assert all(type(q) is str for q in eng.state.values())


def test_narrow_int():
    assert kernels.narrow_int(0) == np.int8
    assert kernels.narrow_int(127) == np.int8
    assert kernels.narrow_int(128) == np.int16
    assert kernels.narrow_int(2**31) == np.int64


# ----------------------------------------------------------------------
# the circulant stencil
# ----------------------------------------------------------------------
STENCIL_CASES = {
    "d = n/2": lambda: generators.circulant_graph(10, (5,)),
    "d and n-d": lambda: generators.circulant_graph(12, (3, 9, 2)),
    "offsets >= n": lambda: generators.circulant_graph(9, (10, 20, 4)),
    "cycle(3)": lambda: generators.cycle_graph(3),
    "cycle(8)": lambda: generators.cycle_graph(8),
    "K_7 as C_7(1..3)": lambda: generators.circulant_graph(7, range(1, 4)),
    "K_8 as C_8(1..4)": lambda: generators.circulant_graph(8, range(1, 5)),
}


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
def test_stencil_counts_equal_the_csr_product(case):
    net = STENCIL_CASES[case]()
    op = full_topology(net, None).adjacency
    assert isinstance(op, CirculantAdjacency)
    csr, order = net.to_csr()
    assert order == list(range(len(order)))
    n = len(order)
    np.testing.assert_array_equal(
        np.asarray(op.sum(axis=1)).ravel(), np.asarray(csr.sum(axis=1)).ravel()
    )
    rng = np.random.default_rng(n)
    states = np.array([0, 1, 2])
    for sig in (rng.integers(3, size=n), rng.integers(3, size=(4, n))):
        got = kernels.feature_counts(op, sig, states)
        want = kernels.feature_counts(csr, sig, states)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)


def test_fresh_circulant_never_builds_the_csr_and_an_edit_takes_it():
    P, init = election.coin_kernel_programs, election.coin_kernel_init
    net = generators.circulant_graph(512, (1, 2, 3))
    edited = net.copy()
    edited.add_edge(0, 1)  # already an edge: same topology, plain Network
    assert net._circulant is not None and edited._circulant is None
    met = MetricsRegistry()
    fresh = run(P(), net, init(net), randomness=2, rng=9, until=12,
                engine="vectorized", metrics=met)
    assert met.get("csr_rebuilds") == 0 and net.csr_rebuilds == 0
    met = MetricsRegistry()
    plain = run(P(), edited, init(edited), randomness=2, rng=9, until=12,
                engine="vectorized", metrics=met)
    assert met.get("csr_rebuilds") == 1
    assert list(plain.final_state.items()) == list(fresh.final_state.items())
    assert plain.change_counts == fresh.change_counts
    assert plain.rng_draws == fresh.rng_draws


def test_faulted_and_quotient_runs_keep_the_csr():
    from repro.runtime.churn import EDGE_DOWN, TopologyEvent
    from repro.runtime.faults import FaultPlan

    P, init = election.coin_kernel_programs, election.coin_kernel_init
    net = generators.circulant_graph(64, (1, 2))
    plan = FaultPlan([TopologyEvent(2, EDGE_DOWN, (0, 1))])
    ref = run(P(), net.copy(), init(net), randomness=2, rng=3, until=6,
              engine="reference", fault_plan=FaultPlan(plan.events()))
    vec = run(P(), net.copy(), init(net), randomness=2, rng=3, until=6,
              engine="vectorized", fault_plan=plan)
    assert vec.final_state == ref.final_state
    cyc = generators.cycle_graph(32)
    cyc.declare_symmetry(cyclic_rotation(32))
    eng_init = NetworkState.uniform(cyc, "r0")
    quo = run(P(), cyc, eng_init, randomness=2, rng=3, until=4, engine="quotient")
    assert quo.engine == "quotient" and cyc.csr_rebuilds == 1


# ----------------------------------------------------------------------
# the alphabet check names the state on every engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "vectorized", "batched", "quotient"])
def test_state_outside_the_alphabet_names_it(engine):
    from repro.algorithms import two_coloring as tc

    net = generators.cycle_graph(8)
    if engine == "quotient":
        # an orbit-constant init reaches the encoder
        net.declare_symmetry(cyclic_rotation(8))
        init = NetworkState.uniform(net, "zzz")
    else:
        init = NetworkState.from_function(
            net, lambda v: "zzz" if v == 0 else tc.BLANK
        )
    kwargs = {"replicas": 2} if engine == "batched" else {}
    with pytest.raises(ValueError, match="own state 'zzz' not in Q"):
        run(tc.sticky_programs(), net, init, engine=engine, until=3, **kwargs)
