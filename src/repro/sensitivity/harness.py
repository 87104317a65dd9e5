"""Fault-injection experiments for the Section 2 sensitivity claims.

Each function runs one of the paper's algorithms under a fault plan that
avoids the algorithm's critical nodes, then evaluates *reasonable
correctness*: the final answer must match a fault-free execution on some
graph G′ with ``G_0 ⊇ G′ ⊇ G_f``.  For the 0-sensitive algorithms here the
natural witness is G_f itself (the surviving component), which is what the
checks verify.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.algorithms import census as census_mod
from repro.algorithms import election as election_mod
from repro.algorithms import shortest_paths as sp_mod
from repro.algorithms.beta_synchronizer import BetaSynchronizer
from repro.algorithms.bridges import BridgeFinder
from repro.algorithms.synchronizer import initial_state as alpha_initial, wrap as alpha_wrap
from repro.core.automaton import FSSGA
from repro.network.graph import Network, Node
from repro.network.properties import bridges as true_bridges
from repro.network.state import NetworkState
from repro.runtime.api import StepObserver, run
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, is_up_event
from repro.runtime.faults import FaultPlan
from repro.runtime.telemetry import MetricsRegistry

__all__ = [
    "FaultExperimentResult",
    "census_under_faults",
    "shortest_paths_under_faults",
    "kernel_fault_sweep",
    "fault_sweep_job",
    "kernel_churn_sweep",
    "churn_resilience_job",
    "resilience_curve",
    "bridges_under_faults",
    "synchronizer_fault_comparison",
]

RngLike = Union[int, np.random.Generator, None]


def _gen(rng: RngLike) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


@dataclass
class FaultExperimentResult:
    """Outcome of one fault-injected execution."""

    reasonably_correct: bool
    faults_applied: int
    detail: dict = field(default_factory=dict)


def census_under_faults(
    net: Network,
    fault_plan: FaultPlan,
    k: Optional[int] = None,
    rng: RngLike = None,
    settle_steps: Optional[int] = None,
) -> FaultExperimentResult:
    """Flajolet–Martin census with mid-run faults (0-sensitive, E1/E14).

    Reasonable correctness per the paper: for every surviving connected
    component G′, the common estimate lies in ``[½·2^{ℓmin}, …]`` — we check
    the concrete guarantee that the final sketch of each component equals
    the OR of the sketches its nodes drew initially (the semi-lattice
    answer on a graph between G_0 and G_f), and report the estimates.
    """
    gen = _gen(rng)
    automaton, init = census_mod.build(net, k=k, rng=gen)
    initial_sketches = {v: init[v] for v in net}
    if settle_steps is None:
        settle_steps = 4 * net.num_nodes + 20
    # census reads neighbourhoods through ``view.support()`` — a genuinely
    # non-mod-thresh observable — so capability negotiation keeps it on the
    # reference engine (the fault plan itself no longer forces a fallback).
    res = run(
        automaton, net, init, rng=gen, fault_plan=fault_plan, until=settle_steps
    )
    final = res.final_state

    ok = True
    estimates = {}
    for comp in net.connected_components():
        expected = None
        for v in comp:
            s = initial_sketches[v]
            expected = s if expected is None else tuple(
                a | b for a, b in zip(expected, s)
            )
        for v in comp:
            if final[v] != expected:
                ok = False
        any_node = next(iter(comp))
        estimates[any_node] = census_mod.estimate(final[any_node])
    return FaultExperimentResult(
        reasonably_correct=ok,
        faults_applied=len(fault_plan.applied),
        detail={"estimates": estimates, "engine": res.engine},
    )


def shortest_paths_under_faults(
    net: Network,
    targets: list[Node],
    fault_plan: FaultPlan,
    rng: RngLike = None,
) -> FaultExperimentResult:
    """Distance labels with mid-run faults (0-sensitive, E3/E14).

    After faults stop and the network settles, every label must equal the
    true capped distance *in the surviving graph* — the G′ = G_f witness.
    """
    cap = net.num_nodes
    automaton, init = sp_mod.build(net, targets, cap=cap)
    # the distance-label programs lower to the engine IR, so this faulted
    # run executes on the vectorized engine under engine="auto".
    res = run(
        automaton,
        net,
        init,
        rng=_gen(rng),
        fault_plan=fault_plan,
        until="stable",
        max_steps=20 * cap + 200,
    )
    final = res.final_state
    ok = sp_mod.stabilized(net, final, targets, cap)
    return FaultExperimentResult(
        reasonably_correct=ok,
        faults_applied=len(fault_plan.applied),
        detail={"labels": sp_mod.labels(final), "engine": res.engine},
    )


def _kernel_sweep_done(counts: Mapping) -> bool:
    """Top-level (picklable) per-replica stop condition: ≤ 1 contender."""
    return election_mod.kernel_remaining_count(counts) <= 1


def _kernel_sweep(
    net: Network,
    plan,
    done,
    replicas: int,
    rng: RngLike,
    max_steps: int,
    metrics: Optional[MetricsRegistry],
) -> tuple[FaultExperimentResult, np.ndarray]:
    """Run the election coin kernel over batched replicas under ``plan``
    until ``done(counts)`` holds for every replica.

    Returns the result and the per-replica converged mask: all True when
    :meth:`~repro.runtime.engine.SynchronousArrayEngine.run_until` finishes,
    else ``done`` evaluated on each replica's counts at the step budget.
    """
    # a plan reused from an earlier sweep is auto-reset by the engine
    # constructor, so len(plan.applied) below reflects *this* run
    engine = BatchedSynchronousEngine(
        net,
        election_mod.coin_kernel_programs(),
        election_mod.coin_kernel_init(net),
        replicas,
        randomness=2,
        rng=_gen(rng),
        fault_plan=plan,
        metrics=metrics,
    )
    try:
        engine.run_until(done, max_steps=max_steps)
        converged = np.ones(engine.replicas, dtype=bool)
    except RuntimeError:
        converged = np.fromiter(
            (done(engine.replica_state_counts(r)) for r in range(engine.replicas)),
            dtype=bool,
            count=engine.replicas,
        )
    res = FaultExperimentResult(
        reasonably_correct=bool(converged.all()),
        faults_applied=len(plan.applied),
        detail={
            "engine": "batched",
            "replicas": int(engine.replicas),
            "rounds": [int(r) for r in engine.rounds],
            "remaining": [
                election_mod.kernel_remaining_count(c)
                for c in engine.state_counts()
            ],
            "live_nodes": int(engine.live_count),
        },
    )
    return res, converged


def kernel_fault_sweep(
    net: Network,
    fault_plan: FaultPlan,
    replicas: int = 8,
    rng: RngLike = None,
    max_steps: int = 5_000,
    metrics: Optional[MetricsRegistry] = None,
) -> FaultExperimentResult:
    """Election coin kernel under faults, swept over batched replicas (E14).

    All replicas run the Section 4.3 elimination kernel on the *same*
    network trajectory: the fault plan fires once inside the batched
    engine and every replica sees the shrinking topology at the same
    step.  Each replica stops once at most one contender remains among
    the surviving nodes.  The kernel is 0-sensitive — elimination is
    monotone and needs no recovery — so reasonable correctness is simply
    that every replica still converges to ≤ 1 remaining contender on the
    surviving graph (the G′ = G_f witness).  ``net`` is mutated by the
    plan; pass a copy to keep the original.  An optional ``metrics``
    registry is wired into the batched engine (steps, rng draws, fault
    events, quiescence-mask density).

    This is the in-process API (live network + plan);
    :func:`fault_sweep_job` is the same computation in campaign-job form.
    """
    res, _ = _kernel_sweep(
        net, fault_plan, _kernel_sweep_done, replicas, rng, max_steps, metrics
    )
    return res


def fault_sweep_job(
    rng=None,
    metrics=None,
    *,
    family: str = "repro.network.generators.complete_graph",
    n: int = 24,
    replicas: int = 8,
    num_faults: int = 4,
    fault_window: int = 6,
    fault_kinds: tuple = (NODE_DOWN, EDGE_DOWN),
    max_steps: int = 5_000,
) -> dict:
    """Campaign-job form of :func:`kernel_fault_sweep` (k-sensitivity
    sweeps as sharded jobs).

    Pure and picklable under the ``repro.campaigns`` convention: the
    network comes from a dotted generator name + ``n`` and the fault plan
    is drawn *inside* the job from the job's own RNG
    (:func:`~repro.runtime.faults.random_fault_plan` over ``num_faults``
    events in ``[0, fault_window]``), so the whole experiment — topology,
    schedule, kernel trajectory — is a deterministic function of the job
    spec.
    """
    from repro.campaigns.spec import resolve_dotted
    from repro.runtime.faults import random_fault_plan

    gen = _gen(rng)
    net = resolve_dotted(family)(n)
    plan = random_fault_plan(
        net, num_faults, fault_window, rng=gen, kinds=tuple(fault_kinds)
    )
    res = kernel_fault_sweep(
        net, plan, replicas=replicas, rng=gen, max_steps=max_steps,
        metrics=metrics,
    )
    return {
        "family": family,
        "n": n,
        "num_faults": num_faults,
        "fault_window": fault_window,
        "reasonably_correct": bool(res.reasonably_correct),
        "faults_applied": int(res.faults_applied),
        "replicas": int(res.detail["replicas"]),
        "rounds": res.detail["rounds"],
        "remaining": [int(r) for r in res.detail["remaining"]],
        "live_nodes": int(res.detail["live_nodes"]),
    }


def kernel_churn_sweep(
    net: Network,
    churn_plan,
    replicas: int = 8,
    rng: RngLike = None,
    max_steps: int = 5_000,
    metrics: Optional[MetricsRegistry] = None,
) -> FaultExperimentResult:
    """Election coin kernel under general churn, over batched replicas (E22).

    The Section 2 sensitivity framework only deletes; this sweep extends
    it to the full topology-dynamics layer: the
    :class:`~repro.runtime.churn.ChurnPlan` may revive downed nodes or
    grow the network mid-election, and an arriving node boots in its
    event's declared state — booting as a *contender* re-opens a settled
    election, which is exactly the stress the resilience curve measures.
    All replicas share one topology trajectory (the plan fires once
    inside the batched engine, which keeps churn on the vector fast path
    via union-topology lowering).  A replica only counts as converged
    once the plan is exhausted *and* at most one contender remains: a
    pending arrival can re-add contenders, so nothing is settled while
    events are still due.  ``net`` is mutated by the plan; pass a copy to
    keep the original.
    """
    def done(counts: Mapping) -> bool:
        return churn_plan.exhausted and _kernel_sweep_done(counts)

    res, converged = _kernel_sweep(
        net, churn_plan, done, replicas, rng, max_steps, metrics
    )
    res.detail["up_events"] = sum(1 for ev in churn_plan.applied if is_up_event(ev))
    res.detail["converged"] = [bool(c) for c in converged]
    return res


def churn_resilience_job(
    rng=None,
    metrics=None,
    *,
    family: str = "repro.network.generators.complete_graph",
    n: int = 24,
    replicas: int = 8,
    num_events: int = 4,
    churn_window: int = 8,
    p_up: float = 0.4,
    max_steps: int = 5_000,
) -> dict:
    """Campaign-job form of :func:`kernel_churn_sweep` — one point of the
    accuracy-vs-churn-rate resilience curve (E22).

    Pure and picklable under the ``repro.campaigns`` convention: the
    network comes from a dotted generator name + ``n`` and the churn
    schedule is drawn inside the job from the job's own RNG
    (:func:`~repro.runtime.churn.random_churn_plan`, ``num_events``
    events over ``[0, churn_window]`` with an up-event fraction of
    ``p_up``; arrivals boot as fresh contenders).  ``churn_rate`` in the
    result is events per step of the churn window, the curve's x-axis.
    """
    from repro.campaigns.spec import resolve_dotted
    from repro.runtime.churn import random_churn_plan

    gen = _gen(rng)
    net = resolve_dotted(family)(n)
    plan = random_churn_plan(
        net,
        num_events,
        churn_window,
        rng=gen,
        p_up=p_up,
        boot_state=election_mod.K_REMAIN0,
    )
    res = kernel_churn_sweep(
        net, plan, replicas=replicas, rng=gen, max_steps=max_steps,
        metrics=metrics,
    )
    return {
        "family": family,
        "n": n,
        "num_events": num_events,
        "churn_window": churn_window,
        "churn_rate": num_events / max(churn_window, 1),
        "p_up": p_up,
        "reasonably_correct": bool(res.reasonably_correct),
        "events_applied": int(res.faults_applied),
        "up_events": int(res.detail["up_events"]),
        "replicas": int(res.detail["replicas"]),
        "rounds": res.detail["rounds"],
        "remaining": [int(r) for r in res.detail["remaining"]],
        "live_nodes": int(res.detail["live_nodes"]),
        "converged_fraction": float(np.mean(res.detail["converged"])),
    }


def resilience_curve(
    event_counts=(0, 2, 4, 8),
    *,
    family: str = "repro.network.generators.complete_graph",
    n: int = 24,
    replicas: int = 8,
    seeds: int = 4,
    churn_window: int = 8,
    p_up: float = 0.4,
    max_steps: int = 5_000,
    rng: RngLike = None,
) -> list[dict]:
    """Accuracy vs churn rate for the Section 4 election kernel (E22).

    In-process convenience over :func:`churn_resilience_job`: one curve
    point per entry of ``event_counts``, each aggregated over ``seeds``
    independently seeded jobs (spawned from ``rng``, so the whole curve
    is reproducible from one seed).  Points report the fraction of
    (seed, replica) runs that converged — the resilience measure — plus
    the mean rounds-to-convergence.  The campaign preset
    ``churn-resilience`` shards the same jobs across workers with
    resumable storage instead.
    """
    master = _gen(rng)
    streams = master.spawn(len(tuple(event_counts)) * seeds)
    curve = []
    for i, num_events in enumerate(event_counts):
        results = [
            churn_resilience_job(
                rng=streams[i * seeds + s],
                family=family,
                n=n,
                replicas=replicas,
                num_events=num_events,
                churn_window=churn_window,
                p_up=p_up,
                max_steps=max_steps,
            )
            for s in range(seeds)
        ]
        rounds = [r for res in results for r in res["rounds"]]
        curve.append(
            {
                "num_events": int(num_events),
                "churn_rate": num_events / max(churn_window, 1),
                "accuracy": float(
                    np.mean([res["converged_fraction"] for res in results])
                ),
                "mean_rounds": float(np.mean(rounds)),
                "seeds": seeds,
                "replicas": replicas,
                "n": n,
            }
        )
    return curve


def bridges_under_faults(
    net: Network,
    start: Node,
    fault_plan: FaultPlan,
    walk_steps: int,
    rng: RngLike = None,
) -> FaultExperimentResult:
    """Random-walk bridge finding with faults away from the agent (E2/E14).

    The agent is 1-sensitive: we require the plan to protect the agent's
    position (checked as faults are applied).  Correctness: every edge the
    walk flagged as a non-bridge is indeed not a bridge of the surviving
    graph or was not a bridge of some intermediate graph — the sound check
    is one-sided, since exceeding ±1 proves a cycle existed when it
    happened.
    """
    finder = BridgeFinder(net, start, rng=_gen(rng))
    if fault_plan.consumed:
        # this harness drives apply_due itself (no engine construction to
        # auto-reset the cursor), so rewind reused plans explicitly
        fault_plan.reset()
    agent_lost = False
    for _ in range(walk_steps):
        fault_plan.apply_due(net, finder.steps)
        if not finder.agent.alive:
            agent_lost = True
            break
        finder.step()
    surviving_bridges = true_bridges(net)
    # edges flagged as non-bridges must never be bridges of the initial
    # graph (a counter can only exceed ±1 by traversing a cycle through the
    # edge, and cycles only disappear under decreasing faults).
    flagged = finder.exceeded_edges()
    ok = not agent_lost
    detail = {
        "flagged_non_bridges": flagged,
        "surviving_bridges": surviving_bridges,
        "agent_lost": agent_lost,
    }
    return FaultExperimentResult(
        reasonably_correct=ok,
        faults_applied=len(fault_plan.applied),
        detail=detail,
    )


def synchronizer_fault_comparison(
    net: Network,
    fault_plan: FaultPlan,
    rounds: int = 30,
    rng: RngLike = None,
) -> dict:
    """α (FSSGA) vs β (tree) synchronizer under the same edge fault (E14).

    Runs both over ``rounds`` units of time; the fault plan is applied to a
    *copy* of the network for each synchronizer.  Returns how many rounds
    each completed: the β synchronizer stalls at the first tree fault,
    while the α synchronizer (a 0-sensitive balancing algorithm) keeps
    advancing clocks in the surviving component.
    """
    gen = _gen(rng)

    # --- β: tree-based
    beta_net = net.copy()
    beta = BetaSynchronizer(beta_net)
    beta_rounds = 0
    plan_events = fault_plan.events()
    for t in range(rounds):
        for ev in plan_events:
            if ev.time == t:
                ev.apply(beta_net)
        if beta.pulse():
            beta_rounds += 1

    # --- α: a trivial inner automaton (single state) wrapped by the
    # synchronizer; clocks advance whenever no neighbour lags.  Clock
    # advances are read off the per-step change events via an observer.
    alpha_net = net.copy()
    inner = FSSGA({"idle"}, lambda own, view: "idle", name="noop")
    composite = alpha_wrap(inner)
    init = alpha_initial(NetworkState.uniform(alpha_net, "idle"))
    unwrapped = {v: 0 for v in alpha_net}

    class _ClockObserver(StepObserver):
        def on_step(self, time, changes, faults):
            for v, (old, new) in changes.items():
                if old[2] != new[2]:
                    unwrapped[v] += 1

    alpha_plan = FaultPlan(plan_events)
    run(
        composite,
        alpha_net,
        init,
        rng=gen,
        fault_plan=alpha_plan,
        until=rounds,
        observers=(_ClockObserver(),),
    )
    alpha_min_clock = min(unwrapped[v] for v in alpha_net) if len(alpha_net) else 0

    return {
        "beta_rounds_completed": beta_rounds,
        "beta_broken": beta.broken,
        "alpha_min_clock": alpha_min_clock,
        "alpha_rounds_attempted": rounds,
    }
