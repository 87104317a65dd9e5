"""Randomized leader election as a local-rule FSSGA (paper, Section 4.7,
Algorithm 4.4).

Every node starts identical (up to its private random bits).  The run
proceeds in phases, kept loosely synchronized by a mod-3 phase counter.
Within a phase the cluster machinery must evolve in *lockstep logical
rounds* — the paper: "We keep nodes synchronized in phases using a similar
abstraction to that given in Section 4.2" — so each node also carries a
mod-3 round clock plus (current, previous) copies of its intra-phase
state, exactly the α-synchronizer construction: a node acts only when no
same-phase neighbour's clock is behind, reading current state from
same-clock neighbours and previous state from neighbours one round ahead.
Without this, staggered phase starts skew the BFS distance labels and a
*single* cluster can manufacture spurious multiple-root evidence.

Per phase:

1. Each *remaining* node picks a label ∈ {0, 1} and roots a BFS cluster
   (mod-3 distance ``cdist``, propagated root label ``clabel``).
   Non-remaining nodes join the first cluster to reach them.
2. Nodes watch for evidence of multiple clusters: conflicting propagated
   labels, a root seeing a would-be predecessor, mismatches in the
   Dolev-style random recolouring each root streams down its cluster
   (lockstep makes in-cluster checks deterministic no-ops while
   cross-cluster checks fail with probability 1/2 per round), or two
   walker signals at once (agents from different clusters colliding).
3. Evidence raises ``NP_i`` (new phase, carrying the largest label known),
   which floods the graph; nodes increment their phase after being in NP.
   A remaining node with label 0 that sees ``NP_1`` is eliminated — so
   with ≥ 2 remaining nodes each is eliminated with probability ≥ 1/4 per
   phase (Claim 4.1) and Θ(log n) phases suffice whp.
4. A root whose neighbourhood is fully labelled releases a Milgram agent
   (the Section 4.5 traversal, embedded as a product component).  The
   agent visits the cluster and retracts; its return certifies ≥ n
   recolourings happened (Claim 4.2), so the root declares itself
   *leader*.  Premature leaders (possible on long paths, as the paper
   notes) are demoted by the next NP wave; at termination exactly one
   leader remains whp.

Engineering notes (the paper's pseudocode is informal; deviations are
spelled out here):

* Colour comparisons are gated by a two-stage validity flag so the
  propagation transient raises no false alarms.
* The embedded traversal elects extension targets with the Section 4.4
  coin protocol; eligible participants are non-remaining, already-claimed
  (``cdist`` set) nodes with no arm neighbour.
* After declaring leader, a root freezes, so the network reaches a true
  fixed point; the paper's applet instead runs on.

Randomness r = 8 (three private bits per activation: label, colour,
election coin).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.core.automaton import NeighborhoodView, ProbabilisticFSSGA
from repro.core.modthresh import ModThreshProgram, at_least
from repro.network.graph import Network, Node
from repro.network.state import NetworkState

__all__ = [
    "InnerState",
    "ElectionState",
    "STAR",
    "build",
    "leaders",
    "remaining",
    "run_until_elected",
    "LocalElectionResult",
    "K_REMAIN0",
    "K_REMAIN1",
    "K_OUT",
    "coin_kernel_programs",
    "coin_kernel_init",
    "kernel_remaining_count",
    "kernel_unique_survivor",
    "KernelPhaseStats",
    "kernel_phase_statistics",
    "phase_statistics_job",
]

STAR = "*"

# traversal sub-fields (match repro.algorithms.traversal naming)
T_BLANK, T_ARM, T_HAND, T_VISITED = "blank", "arm", "hand", "visited"
S_IDLE, S_FLIP, S_WAIT, S_NOTAILS, S_ELECT = "idle", "flip", "wait", "notails", "elect"
S_HEADS, S_TAILS, S_ELIM = "heads", "tails", "elim"

_T_STATUSES = (T_BLANK, T_ARM, T_HAND, T_VISITED)
_T_SUBS = (S_IDLE, S_FLIP, S_WAIT, S_NOTAILS, S_ELECT, S_HEADS, S_TAILS, S_ELIM)


class InnerState(NamedTuple):
    """The per-phase, round-synchronized portion of a node's state."""

    cdist: object  # STAR or 0/1/2 — mod-3 BFS distance from my cluster root
    clabel: int  # my cluster root's label (meaningful iff cdist != STAR)
    colour: int  # 0/1 current recolouring value
    colour_prev: int
    colour_valid: int  # 0 = unset, 1 = fresh, 2 = mature
    tstat: str  # traversal status
    tsub: str  # traversal election substate


class ElectionState(NamedTuple):
    """One node's composite state."""

    phase: int  # 0, 1, 2 (mod 3)
    remain: bool
    label: int  # 0 / 1, this phase's random label (meaningful iff remain)
    np: int  # -1 = none, else the NP level (0 or 1)
    leader: bool
    clock: int  # 0, 1, 2 — intra-phase round counter (α-synchronizer)
    cur: InnerState
    prev: InnerState


def _valid_inner(s: object) -> bool:
    return (
        isinstance(s, InnerState)
        and (s.cdist == STAR or s.cdist in (0, 1, 2))
        and s.clabel in (0, 1)
        and s.colour in (0, 1)
        and s.colour_prev in (0, 1)
        and s.colour_valid in (0, 1, 2)
        and s.tstat in _T_STATUSES
        and s.tsub in _T_SUBS
    )


class _ElectionSpace:
    """Lazy membership test for the composite state space."""

    def __contains__(self, q: object) -> bool:
        if not isinstance(q, ElectionState):
            return False
        return (
            q.phase in (0, 1, 2)
            and isinstance(q.remain, bool)
            and q.label in (0, 1)
            and q.np in (-1, 0, 1)
            and isinstance(q.leader, bool)
            and q.clock in (0, 1, 2)
            and _valid_inner(q.cur)
            and _valid_inner(q.prev)
        )

    def __len__(self) -> int:
        inner = 4 * 2 * 2 * 2 * 3 * 4 * 8
        return 3 * 2 * 2 * 3 * 2 * 3 * inner * inner


def _fresh_inner(remain: bool, label: int, colour: int) -> InnerState:
    return InnerState(
        cdist=0 if remain else STAR,
        clabel=label,
        colour=colour,
        colour_prev=colour,
        colour_valid=2 if remain else 0,
        tstat=T_BLANK,
        tsub=S_IDLE,
    )


def _fresh_phase_state(
    phase: int, remain: bool, label: int, colour: int
) -> ElectionState:
    inner = _fresh_inner(remain, label, colour)
    return ElectionState(
        phase=phase,
        remain=remain,
        label=label,
        np=-1,
        leader=False,
        clock=0,
        cur=inner,
        prev=inner,
    )


def rule(own: ElectionState, view: NeighborhoodView, draw: int) -> ElectionState:
    """One synchronous activation of the election automaton."""
    label_bit = draw & 1
    colour_bit = (draw >> 1) & 1
    coin = S_HEADS if ((draw >> 2) & 1) == 0 else S_TAILS
    p = own.phase
    prev_p = (p - 1) % 3
    next_p = (p + 1) % 3

    # 1. wait for phase stragglers (do nothing at all while any neighbour
    #    is a whole phase behind — this also pins our round clock at its
    #    current value so the α invariant survives phase boundaries).
    if view.any_matching(lambda q: q.phase == prev_p):
        return own

    # 2. advance the phase (after being in NP, or seeing an advanced
    #    neighbour).
    if own.np != -1 or view.any_matching(lambda q: q.phase == next_p):
        new_remain = own.remain and not (own.np == 1 and own.label == 0)
        return _fresh_phase_state(next_p, new_remain, label_bit, colour_bit)

    # 3. NP propagation (immediate, un-clocked: the broadcast wave).
    if view.any_matching(lambda q: q.phase == p and q.np != -1):
        return _enter_np(own, view, p)

    # 4. the α-synchronizer gate: act only when no same-phase neighbour's
    #    clock is behind ours.
    behind = (own.clock - 1) % 3
    if view.any_matching(lambda q: q.phase == p and q.clock == behind):
        return own

    # effective (round-aligned) neighbour inner states: same clock -> cur,
    # one ahead -> prev.
    ahead = (own.clock + 1) % 3
    eff: list[InnerState] = []
    for q, count in view._counts.items():
        if q.phase != p:
            continue
        if q.clock == own.clock:
            eff.extend([q.cur] * count)
        elif q.clock == ahead:
            eff.extend([q.prev] * count)
        # q.clock == behind was excluded above

    # 5. synchronized evidence check.
    if _np_evidence(own, eff):
        return _enter_np(own, view, p)

    # 6. synchronized inner step.  A declared leader keeps participating
    # in rounds (freezing its clock would deadlock neighbours waiting on
    # it) but freezes its colour stream, so the cluster state converges.
    new_inner = _inner_step(own, eff, colour_bit, coin)
    new_leader = (
        own.remain
        and own.cur.cdist == 0
        and own.cur.tstat == T_HAND
        and new_inner.tstat == T_VISITED
    )
    return own._replace(
        clock=(own.clock + 1) % 3,
        prev=own.cur,
        cur=new_inner,
        leader=own.leader or new_leader,
    )


def _enter_np(own: ElectionState, view: NeighborhoodView, p: int) -> ElectionState:
    """Enter NP with the largest label known (the paper's NP_1/NP_0 rule:
    'if any neighbour is NP_1, or label = 1, or any neighbours' label is
    1, enter NP_1, else NP_0')."""
    level1 = (
        view.any_matching(lambda q: q.phase == p and q.np == 1)
        or (own.remain and own.label == 1)
        or (own.cur.cdist != STAR and own.cur.clabel == 1)
        or view.any_matching(
            lambda q: q.phase == p and q.cur.cdist != STAR and q.cur.clabel == 1
        )
    )
    return own._replace(np=1 if level1 else 0, leader=False)


def _np_evidence(own: ElectionState, eff: list[InnerState]) -> bool:
    """Round-synchronized local evidence that more than one root exists."""
    # (a) conflicting propagated labels in my neighbourhood
    saw0 = any(s.cdist != STAR and s.clabel == 0 for s in eff)
    saw1 = any(s.cdist != STAR and s.clabel == 1 for s in eff)
    if saw0 and saw1:
        return True
    if own.cur.cdist != STAR:
        mine = own.cur.clabel
        if (mine == 0 and saw1) or (mine == 1 and saw0):
            return True
    # (b) a root with a would-be predecessor
    if own.remain and own.cur.cdist == 0:
        if any(s.cdist == 2 for s in eff):
            return True
    # (c) recolouring mismatches (both sides mature)
    me = own.cur
    if me.cdist != STAR and me.colour_valid == 2:
        pred_d = (me.cdist - 1) % 3
        for s in eff:
            if s.cdist == pred_d and s.colour_valid == 2 and s.colour_prev != me.colour:
                return True
            if s.cdist == me.cdist and s.colour_valid == 2 and s.colour != me.colour:
                return True
    # (d) two walker signals at once: agents from different clusters collide
    hands = sum(1 for s in eff if s.tstat == T_HAND)
    if hands >= 2:
        return True
    return False


def _inner_step(
    own: ElectionState,
    eff: list[InnerState],
    colour_bit: int,
    coin: str,
) -> InnerState:
    me = own.cur
    is_root = own.remain and me.cdist == 0

    # --- cluster growth: adopt the first cluster to reach me
    if me.cdist == STAR:
        for x in (0, 1, 2):
            hits = [s for s in eff if s.cdist == x]
            if hits:
                return me._replace(
                    cdist=(x + 1) % 3, clabel=hits[0].clabel
                )
        return me

    new = me

    # --- colour propagation (Dolev recolouring, lockstep); a declared
    # leader stops drawing fresh colours so its cluster converges.
    if is_root:
        next_colour = me.colour if own.leader else colour_bit
        new = new._replace(colour_prev=new.colour, colour=next_colour)
    else:
        pred_d = (me.cdist - 1) % 3
        pred_colours = [
            s.colour for s in eff if s.cdist == pred_d and s.colour_valid >= 1
        ]
        if pred_colours:
            if me.colour_valid == 0:
                new = new._replace(colour=pred_colours[0], colour_valid=1)
            else:
                new = new._replace(
                    colour_prev=new.colour,
                    colour=pred_colours[0],
                    colour_valid=2,
                )

    # --- embedded Milgram traversal
    new = _traversal_step(own, new, eff, coin, is_root)
    return new


def _traversal_step(
    own: ElectionState,
    me: InnerState,
    eff: list[InnerState],
    coin: str,
    is_root: bool,
) -> InnerState:
    st, sub = me.tstat, me.tsub

    def any_hand(subs) -> bool:
        return any(s.tstat == T_HAND and s.tsub in subs for s in eff)

    arm_near = any(s.tstat == T_ARM for s in eff)
    armhand = sum(1 for s in eff if s.tstat in (T_ARM, T_HAND))

    if st == T_VISITED:
        return me

    if st == T_BLANK:
        # the root releases the agent once its neighbourhood is labelled
        if is_root and not any(s.cdist == STAR for s in eff):
            if armhand == 0:
                return me._replace(tstat=T_HAND, tsub=S_IDLE)
        if any_hand((S_ELECT,)):
            if sub == S_TAILS:
                return me._replace(tstat=T_HAND, tsub=S_IDLE)
            return me._replace(tsub=S_IDLE)
        if any_hand((S_FLIP,)):
            if sub == S_HEADS:
                return me._replace(tsub=S_ELIM)
            if sub == S_TAILS:
                return me._replace(tsub=coin)
            eligible = (
                sub == S_IDLE
                and not own.remain
                and me.cdist != STAR
                and not arm_near
            )
            if eligible:
                return me._replace(tsub=coin)
            return me
        if any_hand((S_NOTAILS,)):
            if sub == S_HEADS:
                return me._replace(tsub=coin)
            return me
        return me

    if st == T_HAND:
        if sub == S_IDLE:
            return me._replace(tsub=S_FLIP)
        if sub in (S_FLIP, S_NOTAILS):
            return me._replace(tsub=S_WAIT)
        if sub == S_WAIT:
            participants = [
                s
                for s in eff
                if s.tstat == T_BLANK and s.tsub in (S_HEADS, S_TAILS, S_ELIM)
            ]
            tails = [s for s in participants if s.tsub == S_TAILS]
            if not participants:
                return me._replace(tstat=T_VISITED, tsub=S_IDLE)
            if not tails:
                return me._replace(tsub=S_NOTAILS)
            if len(tails) == 1:
                return me._replace(tsub=S_ELECT)
            return me._replace(tsub=S_FLIP)
        if sub == S_ELECT:
            return me._replace(tstat=T_ARM, tsub=S_IDLE)
        return me

    # st == T_ARM: retraction
    if is_root:
        if armhand == 0:
            return me._replace(tstat=T_HAND, tsub=S_IDLE)
    else:
        if armhand <= 1:
            return me._replace(tstat=T_HAND, tsub=S_IDLE)
    return me


def build(
    net: Network,
    rng: Union[int, np.random.Generator, None] = None,
) -> tuple[ProbabilisticFSSGA, NetworkState]:
    """The election automaton and a (privately randomized) initial state.

    Every node starts remaining at phase 0 with a fresh random label and
    colour — the only per-node asymmetry is private randomness, as leader
    election demands.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    automaton = ProbabilisticFSSGA(
        _ElectionSpace(), 8, rule, name="leader-election"
    )
    init = NetworkState.from_function(
        net,
        lambda v: _fresh_phase_state(
            0, True, int(gen.integers(2)), int(gen.integers(2))
        ),
    )
    return automaton, init


def leaders(state: NetworkState) -> list[Node]:
    """Nodes currently claiming leadership."""
    return [v for v, q in state.items() if q.leader]


def remaining(state: NetworkState) -> list[Node]:
    """Nodes still remaining (candidates)."""
    return [v for v, q in state.items() if q.remain]


class LocalElectionResult(NamedTuple):
    leader: Node
    steps: int
    phases_observed: int


def run_until_elected(
    net: Network,
    rng: Union[int, np.random.Generator, None] = None,
    max_steps: Optional[int] = None,
) -> LocalElectionResult:
    """Run the local-rule election until a stable unique leader emerges.

    Termination condition: exactly one remaining node, it claims leadership
    and the network has reached a fixed point.
    """
    if net.num_nodes < 2 or not net.is_connected():
        raise ValueError("election needs a connected network with >= 2 nodes")
    from repro.runtime.api import run as _run

    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    automaton, init = build(net, gen)
    n = net.num_nodes
    if max_steps is None:
        max_steps = max(6000, 1200 * n * max(1, math.ceil(math.log2(n))))
    threshold = 2 * n + 20
    tracker = {"phase_changes": 0, "last": None, "quiet": 0, "state": init}

    def settled(state: NetworkState) -> bool:
        tracker["state"] = state
        counts = tuple(sorted(q.phase for q in state.values()))
        if counts != tracker["last"]:
            tracker["phase_changes"] += 1
            tracker["last"] = counts
        lead = leaders(state)
        rem = remaining(state)
        if len(lead) == 1 and len(rem) == 1 and lead == rem:
            # clocks keep cycling, so look for sustained stability of the
            # leadership configuration rather than a syntactic fixed point.
            tracker["quiet"] += 1
            return tracker["quiet"] >= threshold
        tracker["quiet"] = 0
        return False

    try:
        res = _run(
            automaton,
            net,
            init,
            engine="reference",
            until=settled,
            max_steps=max_steps,
            rng=gen,
        )
    except RuntimeError:
        state = tracker["state"]
        raise RuntimeError(
            f"election not finished after {max_steps} steps "
            f"(remaining={len(remaining(state))}, leaders={leaders(state)})"
        ) from None
    return LocalElectionResult(
        leaders(res.final_state)[0], res.steps, tracker["phase_changes"]
    )


# ----------------------------------------------------------------------
# Claim 4.1 coin-elimination kernel (mod-thresh, engine-friendly)
# ----------------------------------------------------------------------
#
# The full Algorithm 4.4 automaton above is rule-based over a huge
# composite alphabet, which locks replica statistics into the per-node
# reference interpreter.  The *probabilistic core* of its analysis —
# Claim 4.1's per-phase coin elimination — is mod-thresh expressible over
# three states, so distributions over runs (phases to a unique survivor,
# per-phase elimination rates) can be batch-simulated on the vectorized
# engines.  One synchronous step is one phase: every remaining node holds
# this phase's label (r0 or r1); a label-0 remainer that detects a label-1
# remainer among its neighbours is eliminated (the NP₁ evidence reaching
# it), and every surviving remainer draws next phase's label from its
# private coin (randomness r = 2).
#
# Detection here is neighbourhood-local.  On a complete graph every
# remaining pair is adjacent, so detection is global exactly as in
# Claim 4.1's broadcast argument and the kernel terminates with a unique
# survivor in Θ(log n) expected phases (each label-0 remainer is
# eliminated w.p. ≥ 1/4 whenever ≥ 2 remain).  On sparser graphs the
# remaining set can become independent and stall — the full automaton's
# NP broadcast is what relays the evidence — so run the kernel on K_n for
# phase statistics, or read it as the one-hop detection model.

K_REMAIN0 = "r0"  # remaining, this phase's label = 0
K_REMAIN1 = "r1"  # remaining, this phase's label = 1
K_OUT = "out"  # eliminated


def coin_kernel_programs() -> dict:
    """The Claim 4.1 phase kernel as probabilistic mod-thresh programs.

    Keys are ``(own_state, draw)`` with r = 2; feed to any engine with
    ``randomness=2``.
    """
    elim = (at_least(K_REMAIN1, 1), K_OUT)
    return {
        (K_REMAIN0, 0): ModThreshProgram(clauses=(elim,), default=K_REMAIN0),
        (K_REMAIN0, 1): ModThreshProgram(clauses=(elim,), default=K_REMAIN1),
        (K_REMAIN1, 0): ModThreshProgram(clauses=(), default=K_REMAIN0),
        (K_REMAIN1, 1): ModThreshProgram(clauses=(), default=K_REMAIN1),
        (K_OUT, 0): ModThreshProgram(clauses=(), default=K_OUT),
        (K_OUT, 1): ModThreshProgram(clauses=(), default=K_OUT),
    }


def coin_kernel_init(net: Network) -> NetworkState:
    """Everyone remaining with label 0: the first step is a pure label
    draw (no r1 exists yet, so nothing can be eliminated), and phases
    proper begin at step 2 — mirroring the fresh-phase reset of the full
    automaton."""
    return NetworkState.uniform(net, K_REMAIN0)


def kernel_remaining_count(counts: Mapping) -> int:
    """Remaining-candidate count from a ``{state: multiplicity}`` dict."""
    return counts.get(K_REMAIN0, 0) + counts.get(K_REMAIN1, 0)


def _survivors(state: Mapping) -> int:
    """Remaining candidates (nodes not out) in a node → state mapping,
    counted from ``state.counts()`` when it is a :class:`NetworkState`
    (one ``np.bincount`` on an array-backed state)."""
    if isinstance(state, NetworkState):
        counts = state.counts()
        return sum(counts.values()) - counts.get(K_OUT, 0)
    return sum(1 for q in state.values() if q != K_OUT)


def kernel_unique_survivor(state: Mapping) -> bool:
    """Termination predicate: at most one remaining candidate.

    A top-level function (not a closure) so batched kernel runs — and the
    campaign jobs that shard them across worker processes — stay
    picklable.
    """
    return _survivors(state) <= 1


class KernelPhaseStats(NamedTuple):
    """Replica statistics of the coin-elimination kernel."""

    replicas: int
    rounds: np.ndarray  # per-replica phases until a unique survivor
    mean_rounds: float
    survivor_counts: list  # remaining candidates at termination (all 1s)


def kernel_phase_statistics(
    net: Network,
    replicas: int = 64,
    rng: Union[int, np.random.Generator, None] = None,
    max_steps: int = 10_000,
    metrics=None,
):
    """Phases-to-unique-survivor over ``replicas`` independent kernel runs.

    All replicas evolve in one :class:`~repro.runtime.batched.
    BatchedSynchronousEngine` computation; replica ``i`` is bitwise
    reproducible from ``np.random.default_rng(seed).spawn(replicas)[i]``.
    Use a complete graph for Claim 4.1 statistics (see the kernel notes
    above); expected phases there are Θ(log n).

    This is the in-process API (it takes a live network and returns a
    :class:`KernelPhaseStats`); :func:`phase_statistics_job` is the same
    computation in campaign-job form.
    """
    stats, _ = _phase_statistics(net, replicas, rng, max_steps, metrics)
    return stats


def _phase_statistics(net, replicas, rng, max_steps, metrics):
    """Shared core: returns ``(KernelPhaseStats, RunResult)``."""
    from repro.runtime.api import run as _run

    res = _run(
        coin_kernel_programs(),
        net,
        coin_kernel_init(net),
        replicas=replicas,
        randomness=2,
        rng=rng,
        until=kernel_unique_survivor,
        max_steps=max_steps,
        metrics=metrics,
    )
    stats = KernelPhaseStats(
        replicas=replicas,
        rounds=res.replica_rounds,
        mean_rounds=float(np.mean(res.replica_rounds)),
        survivor_counts=[_survivors(st) for st in res.replica_states],
    )
    return stats, res


def phase_statistics_job(
    rng=None,
    metrics=None,
    *,
    family: str = "repro.network.generators.complete_graph",
    n: int = 32,
    replicas: int = 64,
    max_steps: int = 10_000,
) -> dict:
    """Campaign-job form of :func:`kernel_phase_statistics`.

    A pure top-level function under the ``repro.campaigns`` convention
    (``fn(rng, metrics, **params) -> dict``): the network is built from a
    dotted generator name + ``n`` so the job spec holds only JSON values,
    and the result is plain data plus the run's
    :func:`~repro.runtime.telemetry.manifest_content_hash` for
    replay-level provenance.
    """
    from repro.campaigns.spec import resolve_dotted
    from repro.runtime.telemetry import manifest_content_hash

    net = resolve_dotted(family)(n)
    stats, res = _phase_statistics(net, replicas, rng, max_steps, metrics)
    return {
        "family": family,
        "n": n,
        "replicas": stats.replicas,
        "rounds": [int(r) for r in stats.rounds],
        "mean_rounds": stats.mean_rounds,
        "survivor_counts": [int(s) for s in stats.survivor_counts],
        "log2_n": math.log2(n),
        "manifest_hash": manifest_content_hash(res.manifest),
    }
