"""The array engine's coin draws come from the raw PCG64 bit stream.

For r = 2^k ≤ 256, ``Generator.integers(r, size=m)`` on PCG64 is the top
k bits of consecutive 32-bit halves of the raw 64-bit outputs, low half
first.  The engine's private stream (:class:`repro.runtime.engine._RawStream`)
relies on that, so these tests pin it against ``integers`` on a twin
generator: equal values and an equal stream position after every call,
over seeds, bounds, sizes and odd/even call sequences.  A numpy change to
its bounded-integer algorithm fails here first.
"""

import numpy as np
import pytest

from repro.algorithms import election, two_coloring
from repro.network import NetworkState, generators
from repro.network.symmetry import cyclic_rotation
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.engine import _draw_source, _RawStream
from repro.runtime.quotient import OrbitBroadcastRng, QuotientSynchronousEngine
from repro.runtime.vectorized import VectorizedSynchronousEngine

SIZES = (1, 2, 3, 64, 1001, 2**17)
# even, odd on no cached half, odd on a cached half (the scalar first),
# even on a cached half, and every size of SIZES in both parities of state
SEQUENCE = (2, 64, 1, 3, 1001, 2, 2**17, 1, 64, 3, 1, 1, 2**17, 1001, 1)


def _position(gen):
    state = gen.bit_generator.state
    return state["state"], state["has_uint32"]


@pytest.mark.parametrize("r", [2, 4, 256])
@pytest.mark.parametrize("seed", range(20))
def test_raw_stream_is_the_integers_stream(seed, r):
    gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = _draw_source(gen, r)
    assert isinstance(stream, _RawStream)
    assert set(SEQUENCE) == set(SIZES)
    for m in SEQUENCE:
        got, want = stream.integers(r, size=m), twin.integers(r, size=m)
        np.testing.assert_array_equal(got, want)
        assert _position(gen) == _position(twin), f"stream moved apart at m={m}"


@pytest.mark.parametrize("m", SIZES)
def test_each_size_after_a_cached_half(m):
    for seed in range(20):
        gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        stream = _draw_source(gen, 2)
        for size in (1, m):  # the first call leaves a half cached
            np.testing.assert_array_equal(
                stream.integers(2, size=size), twin.integers(2, size=size)
            )
            assert _position(gen) == _position(twin)


def test_raw_draws_are_uint8():
    stream = _draw_source(np.random.default_rng(0), 2)
    assert stream.integers(2, size=64).dtype == np.uint8
    stream.integers(2, size=1)
    assert stream.integers(2, size=3).dtype == np.uint8  # cached half first


@pytest.mark.parametrize("r", [3, 1, 512])
def test_other_bounds_fall_back(r):
    gen = np.random.default_rng(0)
    assert _draw_source(gen, r) is gen


def test_other_bit_generators_fall_back():
    gen = np.random.Generator(np.random.Philox(0))
    assert _draw_source(gen, 2) is gen


# ----------------------------------------------------------------------
# which streams the engine owns
# ----------------------------------------------------------------------
def _coin(n=9):
    net = generators.complete_graph(n)
    return net, election.coin_kernel_programs(), election.coin_kernel_init(net)


@pytest.mark.parametrize(
    "rng", [7, np.int64(7), None, np.random.SeedSequence(7)],
    ids=["int", "np-int", "none", "seed-sequence"],
)
def test_seeded_engines_draw_from_the_raw_stream(rng):
    net, programs, init = _coin()
    vec = VectorizedSynchronousEngine(net, programs, init, randomness=2, rng=rng)
    assert isinstance(vec._draw_sources[0], _RawStream)
    assert vec._draw_sources[0].gen is vec.rng
    bat = BatchedSynchronousEngine(
        net, programs, init, replicas=3, randomness=2, rng=rng
    )
    assert [s.gen for s in bat._draw_sources] == bat.rngs


def test_batched_from_a_master_generator_owns_its_children():
    net, programs, init = _coin()
    master = np.random.default_rng(7)
    before = master.bit_generator.state
    bat = BatchedSynchronousEngine(
        net, programs, init, replicas=2, randomness=2, rng=master
    )
    assert all(isinstance(s, _RawStream) for s in bat._draw_sources)
    bat.run(3)
    assert master.bit_generator.state == before


def test_seeded_quotient_draws_from_the_raw_stream():
    net = generators.cycle_graph(12)
    net.declare_symmetry(cyclic_rotation(12))
    eng = QuotientSynchronousEngine(
        net, election.coin_kernel_programs(), election.coin_kernel_init(net),
        randomness=2, rng=5,
    )
    assert isinstance(eng._draw_sources[0], _RawStream)


def test_caller_sources_stay_on_integers():
    net, programs, init = _coin()
    for rng in (np.random.default_rng(1), np.random.PCG64(1)):
        vec = VectorizedSynchronousEngine(net, programs, init, randomness=2, rng=rng)
        assert vec._draw_sources[0] is vec.rng
    gens = [np.random.default_rng(s) for s in range(3)]
    bat = BatchedSynchronousEngine(
        net, programs, init, replicas=3, randomness=2, rng=gens
    )
    assert bat._draw_sources == gens
    cycle = generators.cycle_graph(12)
    cycle.declare_symmetry(cyclic_rotation(12))
    shared = OrbitBroadcastRng(cycle, 3)
    vec = VectorizedSynchronousEngine(
        cycle, programs, election.coin_kernel_init(cycle), randomness=2,
        rng=shared,
    )
    assert vec._draw_sources[0] is shared


def test_deterministic_engines_keep_their_generator():
    net = generators.cycle_graph(9)
    init = NetworkState.from_function(
        net, lambda v: two_coloring.RED if v == 0 else two_coloring.BLANK
    )
    vec = VectorizedSynchronousEngine(net, two_coloring.programs(), init, rng=3)
    assert vec._draw_sources[0] is vec.rng
