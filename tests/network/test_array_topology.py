"""Array-built networks: the regular generators, laziness and aliasing.

The regular generator families build a :class:`Network` from edge arrays
and build the adjacency sets only when a query or mutation needs them.
The oracle below is the node-by-node ``add_edge`` construction each
family used before; an array-built network must be indistinguishable
from it — node order, canonical edge list, neighbour-set iteration order
(which reaches ``edges()`` and so the faulted-run manifests), the CSR
export and the content fingerprint.
"""

import copy
import pickle

import numpy as np
import pytest

from repro import run
from repro.algorithms import election
from repro.network import generators
from repro.network.graph import Network
from repro.network.symmetry import AutomorphismGroup, cyclic_rotation, orbit_partition
from repro.runtime.churn import ChurnPlan, TopologyEvent
from repro.runtime.faults import FaultPlan
from repro.runtime.telemetry import network_fingerprint


# ----------------------------------------------------------------------
# the node-by-node reference constructions
# ----------------------------------------------------------------------
def _ref_path(n):
    return Network(nodes=range(n), edges=((i, i + 1) for i in range(n - 1)))


def _ref_cycle(n):
    g = _ref_path(n)
    g.add_edge(n - 1, 0)
    return g


def _ref_circulant(n, offsets):
    offs = sorted({int(d) % n for d in offsets} - {0})
    g = Network(nodes=range(n))
    for i in range(n):
        for d in offs:
            j = (i + d) % n
            if i != j and not g.has_edge(i, j):
                g.add_edge(i, j)
    return g


def _ref_complete(n):
    return Network(
        nodes=range(n),
        edges=((i, j) for i in range(n) for j in range(i + 1, n)),
    )


def _ref_grid(rows, cols):
    g = Network(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def _ref_torus(rows, cols):
    g = Network(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            g.add_edge(v, r * cols + (c + 1) % cols)
            g.add_edge(v, ((r + 1) % rows) * cols + c)
    return g


def _ref_hypercube(dim):
    n = 1 << dim
    g = Network(nodes=range(n))
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                g.add_edge(v, u)
    return g


FAMILIES = {
    "path": (generators.path_graph, _ref_path),
    "cycle": (generators.cycle_graph, _ref_cycle),
    "circulant": (generators.circulant_graph, _ref_circulant),
    "complete": (generators.complete_graph, _ref_complete),
    "grid": (generators.grid_graph, _ref_grid),
    "torus": (generators.torus_graph, _ref_torus),
    "hypercube": (generators.hypercube_graph, _ref_hypercube),
}

CASES = [
    ("path", (1,)),
    ("path", (2,)),
    ("path", (9,)),
    ("cycle", (3,)),
    ("cycle", (4,)),
    ("cycle", (17,)),
    ("circulant", (3, (1,))),
    ("circulant", (8, (4,))),  # even n, offset n/2 only
    ("circulant", (8, (1, 4))),
    ("circulant", (10, (1, 5, 13))),  # offset >= n
    ("circulant", (9, (1, 1, -1, 10, -8))),  # negative and duplicate offsets
    ("circulant", (12, (3, 9, 6))),
    ("circulant", (16, range(1, 9))),  # K_16
    ("complete", (1,)),
    ("complete", (2,)),
    ("complete", (17,)),
    ("grid", (1, 1)),
    ("grid", (1, 6)),
    ("grid", (6, 1)),
    ("grid", (4, 7)),
    ("torus", (3, 3)),
    ("torus", (3, 5)),
    ("hypercube", (1,)),
    ("hypercube", (2,)),
    ("hypercube", (6,)),
    # the two cases where building the neighbour sets in ascending CSR
    # order, instead of replaying the edges, changes neighbour order
    ("torus", (40, 50)),
    ("circulant", (4096, (1, 5, 64, 2047))),
]


@pytest.mark.parametrize(
    "family,args", CASES, ids=[f"{f}{a}" for f, a in CASES]
)
def test_array_generator_matches_add_edge_oracle(family, args):
    build, reference = FAMILIES[family]
    net, ref = build(*args), reference(*args)
    mat, order = net.to_csr()
    ref_mat, ref_order = ref.to_csr()
    assert "_adj" not in net.__dict__  # the export did not materialize
    assert order == ref_order
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mat, name), getattr(ref_mat, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert (net.num_nodes, net.num_edges) == (ref.num_nodes, ref.num_edges)
    assert net.nodes() == ref.nodes()
    assert net.edges() == ref.edges()
    assert [list(net.neighbors(v)) for v in net] == [
        list(ref.neighbors(v)) for v in ref
    ]
    assert network_fingerprint(net) == network_fingerprint(ref)
    # repr feeds the fingerprints: materialized ids are Python ints
    assert all(type(v) is int for v in net.nodes())
    assert all(type(u) is int for v in net for u in net.neighbors(v))


def test_node_queries_do_not_materialize():
    net = generators.circulant_graph(64, (1, 2, 3))
    assert len(net) == net.num_nodes == 64 and net.num_edges == 192
    assert list(net) == net.nodes() == list(range(64))
    assert 63 in net and 64 not in net and "a" not in net
    assert np.int64(5) in net and 2.0 in net and 2.5 not in net
    assert net.node_index() == {v: v for v in range(64)}
    clone = net.copy()
    assert clone.to_csr()[1] == net.to_csr()[1]
    assert "_adj" not in net.__dict__ and "_adj" not in clone.__dict__
    assert net.degree(0) == 6  # any other query builds the sets
    assert "_adj" in net.__dict__ and "_adj" not in clone.__dict__
    # and leaves a plain Network, with no laziness hook on its lookups
    assert type(net) is Network and type(clone) is not Network


def _union_find_orbits(net, group):
    """Orbits by union-find over the generator edges, numbered by first
    node in insertion order (the loop the array pass replaced)."""
    nodes = net.nodes()
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for g in group.generators:
        for v in nodes:
            w = g.get(v)
            if w is not None and w in parent and find(v) != find(w):
                parent[find(w)] = find(v)
    reps, index, orbit_of, sizes = [], {}, {}, []
    for v in nodes:
        j = index.setdefault(find(v), len(reps))
        if j == len(reps):
            reps.append(v)
            sizes.append(0)
        orbit_of[v] = j
        sizes[j] += 1
    return tuple(reps), orbit_of, tuple(sizes)


@pytest.mark.parametrize("seed", range(12))
def test_orbit_partition_matches_union_find(seed):
    """Random, partly undefined or out-of-range generators over a
    dict-built network with shuffled string labels."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    labels = [f"v{i}" for i in rng.permutation(n).tolist()]
    net = Network(nodes=labels)
    gens = []
    for _ in range(int(rng.integers(0, 4))):
        image = rng.permutation(n).tolist()
        keep = rng.random(n) < rng.choice([0.3, 0.9, 1.0])
        g = {labels[i]: labels[image[i]] for i in range(n) if keep[i]}
        if n > 1:
            g[labels[0]] = "outside"
        gens.append(g)
    group = AutomorphismGroup(tuple(gens))
    part = orbit_partition(net, group)
    assert (part.reps, part.orbit_of, part.sizes) == _union_find_orbits(
        net, group
    )
    assert list(part.orbit_of) == labels


# ----------------------------------------------------------------------
# the run path never builds the adjacency sets, and the tracer seam sees
# the one export per network
# ----------------------------------------------------------------------
def test_runs_read_only_the_csr_through_the_class_seam(monkeypatch):
    seen = []
    original = Network.to_csr

    def to_csr(net):
        before = net.csr_rebuilds
        out = original(net)
        seen.append((id(net), net.csr_rebuilds != before))
        return out

    monkeypatch.setattr(Network, "to_csr", to_csr)
    P, init = election.coin_kernel_programs, election.coin_kernel_init
    circ = generators.circulant_graph(2**12, (1, 2, 3))
    cycle = generators.cycle_graph(4096)
    cycle.declare_symmetry(cyclic_rotation(4096))
    for _ in range(2):
        vec = run(P(), circ, init(circ), randomness=2, rng=5, until=4,
                  engine="vectorized")
        quo = run(P(), cycle, init(cycle), randomness=2, rng=5, until=4,
                  engine="quotient")
        assert (vec.engine, quo.engine) == ("vectorized", "quotient")
    # the circulant counts by its stencil and never exports a CSR; the
    # quotient reads the CSR once and then its cache
    assert [rebuilt for who, rebuilt in seen if who == id(circ)] == []
    calls = [rebuilt for who, rebuilt in seen if who == id(cycle)]
    assert calls.count(True) == 1 and calls[0] is True
    assert calls.count(False) >= 1  # the second run hit the cache
    for net in (circ, cycle):
        assert "_adj" not in net.__dict__


# ----------------------------------------------------------------------
# copies, mutation and pickling
# ----------------------------------------------------------------------
def _e22_shaped_events(init):
    """Outages, edge faults, recoveries with partial re-attachment, fresh
    arrivals and an edge repair over K_n (the shape of the E22 churn
    schedule)."""
    events = [TopologyEvent(1 + v % 3, "node-down", v) for v in range(8)]
    events += [TopologyEvent(2, "edge-down", (v, v + 1)) for v in range(8, 12)]
    events += [
        TopologyEvent(6, "node-up", v, state=init[v], edges=tuple(range(20, 40)))
        for v in range(4)
    ]
    events += [
        TopologyEvent(8 + i, "node-up", f"new{i}", state=election.K_REMAIN0,
                      edges=tuple(range(50, 60)))
        for i in range(4)
    ]
    events.append(TopologyEvent(10, "edge-up", (8, 9)))
    return events


def _snapshot(net):
    mat, order = net.to_csr()
    return (net.nodes(), net.edges(), order, mat.indptr.copy(),
            mat.indices.copy(), mat.data.copy())


def _assert_same(a, b):
    assert a[:3] == b[:3]
    for x, y in zip(a[3:], b[3:]):
        np.testing.assert_array_equal(x, y)


def test_mutating_runs_leave_array_state_and_copies_intact():
    P, init = election.coin_kernel_programs, election.coin_kernel_init
    net = generators.complete_graph(128)
    mat, _ = net.to_csr()
    before = _snapshot(net)
    frozen = (mat.indptr.copy(), mat.indices.copy(), mat.data.copy())

    # a churn run on a copy leaves the original untouched
    clone = net.copy()
    plan = ChurnPlan(_e22_shaped_events(init(clone)))
    res = run(P(), clone, init(clone), randomness=2, rng=7, until=20,
              fault_plan=plan)
    assert res.engine == "vectorized"
    _assert_same(_snapshot(net), before)

    # a churn run on the network itself mutates it exactly like the
    # same run on the edge-by-edge K_128, and writes nothing into the
    # arrays it exported before the run
    ref = _ref_complete(128)
    for target in (net, ref):
        run(P(), target, init(target), randomness=2, rng=7, until=20,
            fault_plan=ChurnPlan(_e22_shaped_events(init(target))))
    for x, y in zip((mat.indptr, mat.indices, mat.data), frozen):
        np.testing.assert_array_equal(x, y)
    _assert_same(_snapshot(net), _snapshot(ref))

    # a faulted reference run on a copy of a fresh network
    net = generators.complete_graph(128)
    before = _snapshot(net)
    clone = net.copy()
    faults = FaultPlan([
        TopologyEvent(1, "node-down", 3),
        TopologyEvent(2, "edge-down", (5, 6)),
        TopologyEvent(3, "node-down", 9),
    ])
    run(P(), clone, init(clone), randomness=2, rng=3, until=6,
        engine="reference", fault_plan=faults)
    assert clone.num_nodes == 126
    _assert_same(_snapshot(net), before)


@pytest.mark.parametrize("materialized", [False, True])
def test_pickle_and_deepcopy_round_trip(materialized):
    net = generators.complete_graph(128)
    if materialized:
        net.degree(0)
    clones = (pickle.loads(pickle.dumps(net)), copy.deepcopy(net))
    want = _snapshot(net)
    for clone in clones:
        assert ("_adj" in clone.__dict__) == materialized
        _assert_same(_snapshot(clone), want)
        assert [list(clone.neighbors(v)) for v in clone] == [
            list(net.neighbors(v)) for v in net
        ]
        clone.add_edge(0, "x")  # the node queries follow the mutation
        assert "x" in clone and len(clone) == clone.num_nodes == 129
        assert "x" not in net and net.num_edges == 8128
