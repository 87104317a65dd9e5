"""The correctness checks catch a wrong final state."""

from repro.algorithms import election
from repro.network.state import NetworkState

import sim

SEED = 2006


def _corrupt(state):
    """The same state with one node moved to another automaton state."""
    flipped = dict(state)
    v = next(iter(flipped))
    flipped[v] = election.K_OUT if flipped[v] != election.K_OUT else "r0"
    return NetworkState(flipped)


def test_every_mix_kind_matches_its_oracle():
    results = sim.mix_round(SEED, sim.Probe())
    assert sim.mix_violations(SEED, results) == []
    digests = sim.mix_digests(results)
    assert sim.oracle_violations(SEED, digests, sim.mix_oracles(SEED)) == []


def test_a_corrupted_final_state_trips_the_oracle_check():
    results = sim.mix_round(SEED, sim.Probe())
    oracles = sim.mix_oracles(SEED)
    oracles["churn"] = _corrupt(oracles["churn"])
    bad = sim.oracle_violations(SEED, sim.mix_digests(results), oracles)
    assert len(bad) == 1 and "churn" in bad[0]


def test_a_corrupted_final_state_trips_the_repeat_check():
    net = sim.generators.circulant_graph(256, sim.OFFSETS)
    first = sim._coin(net, 11, 8).final_state
    again = sim._coin(net, 11, 8).final_state
    digests = [(11, sim.state_digest(first)), (11, sim.state_digest(again))]
    assert sim.repeat_violations(digests) == []
    digests.append((11, sim.state_digest(_corrupt(again))))
    assert len(sim.repeat_violations(digests)) == 1


def test_a_batched_replica_with_two_survivors_is_caught():
    results = sim.mix_round(SEED, sim.Probe())
    replica = dict(results["batched"].replica_states[3])
    out = [v for v, q in replica.items() if q == election.K_OUT]
    replica[out[0]] = "r0"
    results["batched"].replica_states[3] = NetworkState(replica)
    assert any("survivor" in v for v in sim.mix_violations(SEED, results))
