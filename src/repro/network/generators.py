"""Network generators used throughout the tests, examples and benchmarks.

Every generator returns a fresh :class:`~repro.network.graph.Network` whose
nodes are consecutive integers starting at 0 (except where documented).
Randomized generators take an explicit ``rng`` (``numpy.random.Generator``)
or integer seed so that every experiment is replayable.

The regular families (path, cycle, circulant, complete, grid, torus,
hypercube) compute their edge arrays in numpy, each edge once and in the
order a node-by-node loop of :meth:`~repro.network.graph.Network.add_edge`
calls would add it, and build the network with ``Network._from_edges``.
Cycles and circulants also record their residue set ``S = {±d mod n}``,
from which the array engine counts neighbours by a stencil; editing the
network drops it.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.network.graph import Network

__all__ = [
    "path_graph",
    "cycle_graph",
    "circulant_graph",
    "complete_graph",
    "star_graph",
    "wheel_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree",
    "random_tree",
    "gnp_random_graph",
    "gnm_random_graph",
    "random_regular_graph",
    "connected_gnp_graph",
    "barbell_graph",
    "lollipop_graph",
    "theta_graph",
    "caterpillar_graph",
    "complete_bipartite_graph",
    "petersen_graph",
]

RngLike = Union[int, np.random.Generator, None]


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def path_graph(n: int) -> Network:
    """P_n: nodes 0..n-1 in a line."""
    if n < 1:
        raise ValueError("path_graph requires n >= 1")
    eu = np.arange(n - 1, dtype=np.int64)
    return Network._from_edges(n, eu, eu + 1)


def cycle_graph(n: int) -> Network:
    """C_n: a cycle on n >= 3 nodes."""
    if n < 3:
        raise ValueError("cycle_graph requires n >= 3")
    eu = np.arange(n, dtype=np.int64)  # the path, then the edge (n-1, 0)
    net = Network._from_edges(n, eu, (eu + 1) % n)
    net._circulant = (1, n - 1)
    return net


def circulant_graph(n: int, offsets) -> Network:
    """The circulant C_n(offsets): node i joined to i ± d for each offset d.

    Circulants are vertex-transitive — the rotation ``i → i + 1 (mod n)``
    is an automorphism whatever the offsets — which makes them the natural
    multi-degree family for symmetry-quotient tests
    (``C_n((1,))`` is the cycle, ``C_n(range(1, n//2 + 1))`` is K_n).
    """
    if n < 3:
        raise ValueError("circulant_graph requires n >= 3")
    offs = sorted({int(d) % n for d in offsets} - {0})
    if not offs:
        raise ValueError("circulant_graph needs at least one nonzero offset")
    # (i, d) for i ascending, then d ascending.  The edge {i, i + d} is
    # also reached as (i + d mod n, n - d) when n - d is an offset, so it
    # is added by whichever of the two comes first: (i, d) iff i + d < n.
    i = np.repeat(np.arange(n, dtype=np.int64), len(offs))
    d = np.tile(np.asarray(offs, dtype=np.int64), n)
    first = (i + d < n) | ~np.isin(n - d, offs)
    net = Network._from_edges(n, i[first], (i[first] + d[first]) % n)
    net._circulant = tuple(sorted({r for d in offs for r in (d, n - d)}))
    return net


def complete_graph(n: int) -> Network:
    """K_n."""
    if n < 1:
        raise ValueError("complete_graph requires n >= 1")
    return Network._from_edges(n, *np.triu_indices(n, k=1))


def star_graph(n_leaves: int) -> Network:
    """A star: hub 0 joined to leaves 1..n_leaves."""
    if n_leaves < 1:
        raise ValueError("star_graph requires at least one leaf")
    return Network(edges=((0, i) for i in range(1, n_leaves + 1)))


def wheel_graph(n_rim: int) -> Network:
    """Hub 0 joined to a rim cycle 1..n_rim."""
    if n_rim < 3:
        raise ValueError("wheel_graph requires a rim of >= 3 nodes")
    g = star_graph(n_rim)
    for i in range(1, n_rim):
        g.add_edge(i, i + 1)
    g.add_edge(n_rim, 1)
    return g


def grid_graph(rows: int, cols: int) -> Network:
    """rows x cols grid; node (r, c) is the integer r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    # per node v = r*cols + c: the edge right, then the edge down
    v = np.arange(rows * cols, dtype=np.int64)
    keep = np.stack((v % cols + 1 < cols, v // cols + 1 < rows), axis=1).ravel()
    eu = np.repeat(v, 2)[keep]
    ev = np.stack((v + 1, v + cols), axis=1).ravel()[keep]
    return Network._from_edges(rows * cols, eu, ev)


def torus_graph(rows: int, cols: int) -> Network:
    """rows x cols torus (grid with wraparound); needs both dims >= 3."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be >= 3 to stay simple")
    # per node v = r*cols + c: the edge right, then the edge down (with
    # both dims >= 3 no two of these coincide)
    n = rows * cols
    v = np.arange(n, dtype=np.int64)
    r, c = v // cols, v % cols
    right = r * cols + (c + 1) % cols
    down = (v + cols) % n
    return Network._from_edges(
        n, np.repeat(v, 2), np.stack((right, down), axis=1).ravel()
    )


def hypercube_graph(dim: int) -> Network:
    """The dim-dimensional hypercube Q_dim on 2**dim nodes."""
    if dim < 1:
        raise ValueError("hypercube dimension must be >= 1")
    n = 1 << dim
    # per node v: bits b ascending, keeping the partner above v
    v = np.repeat(np.arange(n, dtype=np.int64), dim)
    u = v ^ np.tile(np.int64(1) << np.arange(dim, dtype=np.int64), n)
    up = u > v
    return Network._from_edges(n, v[up], u[up])


def binary_tree(height: int) -> Network:
    """Complete binary tree of the given height (height 0 = single node)."""
    if height < 0:
        raise ValueError("height must be >= 0")
    n = (1 << (height + 1)) - 1
    g = Network(nodes=range(n))
    for v in range(n):
        for child in (2 * v + 1, 2 * v + 2):
            if child < n:
                g.add_edge(v, child)
    return g


def random_tree(n: int, rng: RngLike = None) -> Network:
    """A uniformly random labelled tree on n nodes (via Prüfer sequences)."""
    if n < 1:
        raise ValueError("random_tree requires n >= 1")
    if n == 1:
        return Network(nodes=[0])
    if n == 2:
        return Network(edges=[(0, 1)])
    import heapq

    gen = _rng(rng)
    prufer = [int(x) for x in gen.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    g = Network(nodes=range(n))
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, x)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    g.add_edge(u, v)
    return g


def gnp_random_graph(n: int, p: float, rng: RngLike = None) -> Network:
    """Erdős–Rényi G(n, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    gen = _rng(rng)
    g = Network(nodes=range(n))
    if p == 0.0 or n < 2:
        return g
    # vectorized upper-triangle coin flips
    iu, ju = np.triu_indices(n, k=1)
    mask = gen.random(iu.shape[0]) < p
    for u, v in zip(iu[mask], ju[mask]):
        g.add_edge(int(u), int(v))
    return g


def gnm_random_graph(n: int, m: int, rng: RngLike = None) -> Network:
    """Uniform random graph with exactly n nodes and m edges."""
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds the maximum {max_m} for n={n}")
    gen = _rng(rng)
    chosen = gen.choice(max_m, size=m, replace=False)
    g = Network(nodes=range(n))
    # decode linear index into upper-triangle (u, v)
    iu, ju = np.triu_indices(n, k=1)
    for idx in chosen:
        g.add_edge(int(iu[idx]), int(ju[idx]))
    return g


def random_regular_graph(n: int, d: int, rng: RngLike = None) -> Network:
    """A random d-regular simple graph via the pairing model (with retries)."""
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph")
    if d >= n:
        raise ValueError("need d < n")
    gen = _rng(rng)
    for _ in range(200):
        stubs = np.repeat(np.arange(n), d)
        gen.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Network(nodes=range(n), edges=edges)
    raise RuntimeError(f"failed to sample a simple {d}-regular graph on {n} nodes")


def connected_gnp_graph(n: int, p: float, rng: RngLike = None) -> Network:
    """G(n, p) resampled until connected (p should be above the threshold)."""
    gen = _rng(rng)
    for _ in range(500):
        g = gnp_random_graph(n, p, gen)
        if g.is_connected():
            return g
    raise RuntimeError(f"could not sample a connected G({n}, {p}) in 500 tries")


def barbell_graph(clique: int, bridge_len: int) -> Network:
    """Two K_clique cliques joined by a path of bridge_len edges.

    Every edge of the connecting path is a bridge; clique edges are not.
    """
    if clique < 3:
        raise ValueError("cliques must have >= 3 nodes to contain non-bridges")
    if bridge_len < 1:
        raise ValueError("bridge_len must be >= 1")
    g = complete_graph(clique)
    offset = clique + bridge_len - 1
    for i in range(clique):
        for j in range(i + 1, clique):
            g.add_edge(offset + i, offset + j)
    # path from node 0 of clique A to node offset of clique B
    chain = [0] + [clique + i for i in range(bridge_len - 1)] + [offset]
    for a, b in zip(chain, chain[1:]):
        g.add_edge(a, b)
    return g


def lollipop_graph(clique: int, tail: int) -> Network:
    """K_clique with a path of ``tail`` extra nodes hanging off node 0."""
    if clique < 3 or tail < 1:
        raise ValueError("need clique >= 3 and tail >= 1")
    g = complete_graph(clique)
    prev = 0
    for i in range(tail):
        g.add_edge(prev, clique + i)
        prev = clique + i
    return g


def theta_graph(len_a: int, len_b: int, len_c: int) -> Network:
    """Two terminals joined by three internally disjoint paths.

    Path lengths (in edges) must each be >= 1 and at most one may equal 1
    (to keep the graph simple).  No edge of a theta graph is a bridge.
    """
    lens = [len_a, len_b, len_c]
    if any(x < 1 for x in lens):
        raise ValueError("path lengths must be >= 1")
    if sum(1 for x in lens if x == 1) > 1:
        raise ValueError("at most one path may have length 1 (simple graph)")
    g = Network(nodes=[0, 1])
    nxt = 2
    for length in lens:
        prev = 0
        for _ in range(length - 1):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, 1)
    return g


def caterpillar_graph(spine: int, legs_per_node: int) -> Network:
    """A path of ``spine`` nodes, each with ``legs_per_node`` pendant leaves."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("need spine >= 1 and legs_per_node >= 0")
    g = path_graph(spine)
    nxt = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(v, nxt)
            nxt += 1
    return g


def complete_bipartite_graph(a: int, b: int) -> Network:
    """K_{a,b}: parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return Network(
        nodes=range(a + b),
        edges=((i, a + j) for i in range(a) for j in range(b)),
    )


def petersen_graph() -> Network:
    """The Petersen graph (3-regular, girth 5, bridgeless, non-bipartite)."""
    g = cycle_graph(5)
    for i in range(5):
        g.add_edge(i, 5 + i)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
    return g
