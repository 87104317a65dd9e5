"""Property tests of the numpy step kernel against a per-node oracle.

:meth:`NumpyBackend.step` counts only the feature states the atoms read
and resolves each ``(state, draw)`` group on its own rows; the oracle knows
none of that.  It walks an adjacency list, builds each node's neighbour
multiset and asks the IR's reference automaton
(:meth:`~repro.core.ir.CompiledAutomaton.as_automaton`) for the successor,
so any disagreement is a kernel bug.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.ir import lower
from repro.core.modthresh import (
    FALSE,
    TRUE,
    And,
    ModAtom,
    ModThreshProgram,
    Not,
    Or,
    ThreshAtom,
)
from repro.network import generators
from repro.runtime.backends import NumpyBackend

#: A state no program owns or outputs: atoms on it read a zero count.
OUTSIDE = "zz"


def oracle_step(ir, rows, sig, draws):
    """Successor codes of one state row by a per-node walk.

    ``rows[v]`` lists ``(u, multiplicity)`` pairs; a node without
    neighbours holds (the reference automaton's convention).
    """
    aut = ir.as_automaton()
    states = [ir.alphabet[c] for c in sig]
    out = []
    for v, row in enumerate(rows):
        nbrs = Counter()
        for u, w in row:
            nbrs[states[u]] += w
        if ir.probabilistic:
            q = aut.transition(states[v], nbrs, int(draws[v]))
        else:
            q = aut.transition(states[v], nbrs)
        out.append(ir.code[q])
    return np.array(out, dtype=np.int64)


def csr_from_rows(rows):
    m = len(rows)
    pairs = [(v, u, w) for v, row in enumerate(rows) for u, w in row]
    v, u, w = zip(*pairs) if pairs else ((), (), ())
    return sparse.csr_matrix(
        (np.array(w, dtype=np.int64), (np.array(v, dtype=np.int64),
                                       np.array(u, dtype=np.int64))),
        shape=(m, m),
    )


def kernel_step(ir, rows, sig, draws):
    adj = csr_from_rows(rows)
    live = np.asarray(adj.sum(axis=1)).ravel() > 0
    return NumpyBackend().step(adj, sig, live, draws, ir)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def atoms(states):
    thresh = st.builds(ThreshAtom, states, st.integers(1, 4))
    mod = st.integers(1, 5).flatmap(
        lambda m: st.builds(ModAtom, states, st.integers(0, m - 1), st.just(m))
    )
    return thresh | mod


def propositions(states):
    return st.recursive(
        atoms(states) | st.sampled_from([TRUE, FALSE]),
        lambda sub: (
            sub.map(Not)
            | st.lists(sub, min_size=1, max_size=3).map(lambda c: And(tuple(c)))
            | st.lists(sub, min_size=1, max_size=3).map(lambda c: Or(tuple(c)))
        ),
        max_leaves=4,
    )


@st.composite
def automata(draw):
    """A lowered IR: deterministic or with r in {2, 3}; atoms may name a
    state outside the alphabet, some own states have no program (result
    only, so they hold) and, when probabilistic, some ``(q, i)`` keys are
    missing from the table."""
    n_states = draw(st.integers(2, 4))
    alphabet = list(range(n_states))
    atom_states = st.sampled_from(alphabet + [OUTSIDE])
    programs = st.builds(
        lambda clauses, default: ModThreshProgram(tuple(clauses), default),
        st.lists(
            st.tuples(propositions(atom_states), st.sampled_from(alphabet)),
            max_size=3,
        ),
        st.sampled_from(alphabet),
    )
    r = draw(st.sampled_from([None, 2, 3]))
    keys = alphabet if r is None else [(q, i) for q in alphabet for i in range(r)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    mapping = {k: draw(programs) for k in chosen}
    return lower(mapping, r)


@st.composite
def neighbourhoods(draw, weighted):
    """Adjacency rows over up to 12 nodes, isolated nodes included; with
    ``weighted`` the entries are quotient-style multiplicities."""
    m = draw(st.integers(1, 12))
    weights = st.integers(1, 300) if weighted else st.just(1)
    rows = []
    for v in range(m):
        nbrs = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
        rows.append([(u, draw(weights)) for u in nbrs if u != v])
    return rows


def codes(draw, ir, shape):
    return np.array(
        draw(st.lists(st.integers(0, len(ir.alphabet) - 1),
                      min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
        dtype=np.int64,
    ).reshape(shape)


def draws_for(draw, ir, shape):
    if not ir.probabilistic:
        return None
    flat = draw(st.lists(st.integers(0, ir.randomness - 1),
                         min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.int64).reshape(shape)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.data(), automata(), st.booleans())
def test_step_matches_per_node_oracle(data, ir, weighted):
    rows = data.draw(neighbourhoods(weighted))
    sig = codes(data.draw, ir, (len(rows),))
    draws = draws_for(data.draw, ir, sig.shape)
    got = kernel_step(ir, rows, sig, draws)
    np.testing.assert_array_equal(got, oracle_step(ir, rows, sig, draws))


@settings(max_examples=60, deadline=None)
@given(st.data(), automata(), st.integers(1, 4))
def test_replica_stack_matches_per_replica_oracle(data, ir, replicas):
    rows = data.draw(neighbourhoods(weighted=False))
    sig = codes(data.draw, ir, (replicas, len(rows)))
    draws = draws_for(data.draw, ir, sig.shape)
    got = kernel_step(ir, rows, sig, draws)
    assert got.shape == sig.shape
    for r in range(replicas):
        want = oracle_step(ir, rows, sig[r],
                           None if draws is None else draws[r])
        np.testing.assert_array_equal(got[r], want)


# ----------------------------------------------------------------------
# the named corner cases
# ----------------------------------------------------------------------
def _mod_heavy_ir():
    """Mod and thresh atoms whose verdicts flip only above 255."""
    clauses = (
        (ModAtom(1, 3, 7) & ~ThreshAtom(1, 280), 2),
        (ModAtom(0, 0, 256), 1),
        (ThreshAtom(2, 290), 0),
    )
    return lower({q: ModThreshProgram(clauses, q) for q in (0, 1, 2)})


def test_mod_atoms_see_counts_above_255_on_k300():
    net = generators.complete_graph(300)
    adj, order = net.to_csr()
    rows = [[(int(u), 1) for u in adj.indices[adj.indptr[v]:adj.indptr[v + 1]]]
            for v in range(len(order))]
    ir = _mod_heavy_ir()
    rng = np.random.default_rng(3)
    for _ in range(5):
        sig = rng.integers(3, size=300)
        got = kernel_step(ir, rows, sig, None)
        np.testing.assert_array_equal(got, oracle_step(ir, rows, sig, None))


def test_mod_atoms_see_quotient_multiplicities_above_255():
    # two orbits: each representative sees 300 members of the other orbit
    rows = [[(1, 300)], [(0, 300), (1, 4)]]
    ir = _mod_heavy_ir()
    for sig in ([0, 1], [1, 1], [2, 0], [1, 2]):
        sig = np.array(sig, dtype=np.int64)
        got = kernel_step(ir, rows, sig, None)
        np.testing.assert_array_equal(got, oracle_step(ir, rows, sig, None))


def test_no_feature_states_computes_no_counts():
    ir = lower(
        {(0, 0): ModThreshProgram(((TRUE, 1),), 0),
         (1, 1): ModThreshProgram((), 0)},
        2,
    )
    assert ir.step_tables.feature_states.size == 0
    rows = [[(1, 1)], [(0, 1)], []]
    adj = csr_from_rows(rows)
    sig = np.array([0, 1, 1], dtype=np.int64)
    counts = NumpyBackend().neighbour_counts(adj, sig, ir)
    assert counts.shape == (3, 0)
    for draws in ([0, 1, 1], [1, 0, 0]):
        draws = np.array(draws, dtype=np.int64)
        got = kernel_step(ir, rows, sig, draws)
        np.testing.assert_array_equal(got, oracle_step(ir, rows, sig, draws))


def test_outside_states_and_missing_keys_have_no_column():
    ir = lower(
        {(0, 0): ModThreshProgram(((ThreshAtom(OUTSIDE, 1), 1),), 0),
         (0, 1): ModThreshProgram(((ModAtom(1, 1, 2), 1),), 0)},
        2,
    )
    tables = ir.step_tables
    assert tables.feature_column == {1: 0}
    # (1, 0) and (1, 1) are missing from the table: 1 holds
    assert tables.lut[ir.code[1] * 2:ir.code[1] * 2 + 2].tolist() == [1, 1]
    rows = [[(1, 1)], [(0, 1)]]
    sig = np.array([0, 1], dtype=np.int64)
    for draws in ([0, 0], [1, 1]):
        draws = np.array(draws, dtype=np.int64)
        got = kernel_step(ir, rows, sig, draws)
        np.testing.assert_array_equal(got, oracle_step(ir, rows, sig, draws))


@pytest.mark.parametrize("replicas", [None, 3])
def test_isolated_nodes_hold(replicas):
    ir = lower({0: ModThreshProgram((), 1), 1: ModThreshProgram((), 0)})
    rows = [[], [(2, 1)], [(1, 1)], []]
    sig = np.array([0, 1, 0, 1], dtype=np.int64)
    if replicas is not None:
        sig = np.tile(sig, (replicas, 1))
    got = kernel_step(ir, rows, sig, None)
    np.testing.assert_array_equal(got[..., [0, 3]], sig[..., [0, 3]])
    np.testing.assert_array_equal(got[..., [1, 2]], 1 - sig[..., [1, 2]])
