"""Unit tests for repro.network.state."""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro import run
from repro.algorithms import election
from repro.network import NetworkState, generators
from repro.network.state import _ArrayState
from repro.runtime.telemetry import state_fingerprint


class TestConstruction:
    def test_uniform(self):
        net = generators.path_graph(4)
        st = NetworkState.uniform(net, "q0")
        assert all(st[v] == "q0" for v in net)
        assert len(st) == 4

    def test_from_function(self):
        net = generators.path_graph(4)
        st = NetworkState.from_function(net, lambda v: v % 2)
        assert st[0] == 0 and st[1] == 1

    def test_from_mapping(self):
        st = NetworkState({0: "a", 1: "b"})
        assert st[0] == "a"


class TestMutation:
    def test_set_and_item(self):
        st = NetworkState({0: "a"})
        st.set(0, "b")
        st[1] = "c"
        assert st[0] == "b" and st[1] == "c"

    def test_drop(self):
        st = NetworkState({0: "a", 1: "b"})
        st.drop([0, 99])
        assert 0 not in st and 1 in st

    def test_copy_independent(self):
        st = NetworkState({0: "a"})
        cp = st.copy()
        cp.set(0, "z")
        assert st[0] == "a"


class TestQueries:
    def test_counts(self):
        st = NetworkState({0: "a", 1: "a", 2: "b"})
        assert st.counts() == Counter({"a": 2, "b": 1})

    def test_nodes_in(self):
        st = NetworkState({0: "a", 1: "b", 2: "a"})
        assert st.nodes_in(["a"]) == [0, 2]

    def test_restrict(self):
        st = NetworkState({0: "a", 1: "b"})
        assert dict(st.restrict([1]).items()) == {1: "b"}

    def test_equality(self):
        assert NetworkState({0: "a"}) == NetworkState({0: "a"})
        assert NetworkState({0: "a"}) == {0: "a"}
        assert NetworkState({0: "a"}) != NetworkState({0: "b"})


# ----------------------------------------------------------------------
# array-backed states
# ----------------------------------------------------------------------
def _coin_run(net, engine, until=3):
    return run(
        election.coin_kernel_programs(), net, election.coin_kernel_init(net),
        randomness=2, rng=7, until=until, engine=engine,
    )


def _array_and_dict(kind):
    """An array-backed state and the equivalent dict-backed one, built
    independently: the uniform init, or a vectorized run's final state
    against the reference engine's (bitwise equal for one seed)."""
    net = generators.cycle_graph(8)
    if kind == "uniform":
        return NetworkState.uniform(net, "q0"), NetworkState({v: "q0" for v in range(8)})
    return _coin_run(net, "vectorized").final_state, _coin_run(net, "reference").final_state


KINDS = ["uniform", "final"]


class TestArrayState:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reads_match_the_dict_state(self, kind):
        st, twin = _array_and_dict(kind)
        assert type(st) is _ArrayState and type(twin) is NetworkState
        assert list(st) == list(twin)
        assert len(st) == len(twin) == 8
        for v in (np.int64(3), 3, "x", 8, -1, 2.0):
            assert (v in st) == (v in twin), v
        assert st[np.int64(3)] == twin[3]
        assert st.get("x") is None and st.get(8) is None
        assert list(st.items()) == list(twin.items())
        assert list(st.values()) == list(twin.values())
        assert st.counts() == twin.counts()
        assert list(st.counts()) == list(twin.counts())  # first-appearance order
        assert all(type(q) is str for q in st.values())
        assert all(type(st[v]) is str for v in st)
        assert type(st) is _ArrayState  # none of these reads built the dict

    @pytest.mark.parametrize("kind", KINDS)
    def test_fingerprint_and_equality(self, kind):
        st, twin = _array_and_dict(kind)
        assert state_fingerprint(st) == state_fingerprint(twin)
        assert type(st) is _ArrayState
        plain = dict(twin.items())
        assert st == twin and twin == st
        assert st == plain and plain == st
        plain[0] = "other"
        assert st != plain and plain != st

    def test_equality_between_array_states_of_different_tables(self):
        net = generators.cycle_graph(8)
        init = election.coin_kernel_init(net)
        res = _coin_run(net, "vectorized", until=0)  # σ under the IR's table
        assert res.final_state == init and init == res.final_state
        assert type(res.final_state) is _ArrayState and type(init) is _ArrayState
        assert res.final_state != _coin_run(net, "vectorized").final_state

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_round_trip(self, kind):
        st, twin = _array_and_dict(kind)
        back = pickle.loads(pickle.dumps(st))
        assert back == twin and list(back.items()) == list(twin.items())
        assert all(type(q) is str for q in back.values())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("op", ["set", "setitem", "drop", "restrict"])
    def test_mutation_materialises_and_leaves_the_arrays(self, kind, op):
        st, twin = _array_and_dict(kind)
        codes, decode = st._codes, st._decode
        saved = codes.copy(), decode.copy()
        cp = st.copy()
        if op == "set":
            st.set(0, "new")
        elif op == "setitem":
            st[0] = "new"
        elif op == "drop":
            st.drop([0])
        else:
            assert st.restrict([1, 2]) == {1: twin[1], 2: twin[2]}
        assert type(st) is NetworkState
        assert not hasattr(st, "_codes")
        assert np.array_equal(codes, saved[0]) and list(decode) == list(saved[1])
        assert type(cp) is _ArrayState and cp == twin
        if op == "restrict":
            assert st == twin
        elif op == "drop":
            assert 0 not in st and list(st) == list(twin)[1:]
        else:
            assert st[0] == "new" and list(st) == list(twin)

    def test_state_outside_the_alphabet_is_named(self):
        net = generators.cycle_graph(8)
        with pytest.raises(ValueError, match="own state 'zzz' not in Q"):
            run(election.coin_kernel_programs(), net,
                NetworkState.uniform(net, "zzz"), randomness=2, rng=1, until=1,
                engine="vectorized")
