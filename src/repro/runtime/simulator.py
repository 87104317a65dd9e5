"""Reference FSSGA simulators (paper, Section 3.4 evolution rules).

:class:`SynchronousSimulator` applies the successor rule to every node at
once; :class:`AsynchronousSimulator` activates one node at a time under a
pluggable :class:`~repro.runtime.scheduler.Scheduler`.  Both support fault
and churn plans (events applied before the step whose time has arrived —
down events delete topology, up events restore or grow it, with arriving
nodes booting in their event's declared state), execution traces,
deterministic seeding, and probabilistic automata (each activation draws
``i`` uniformly from ``{0, …, r-1}``, n independent draws per synchronous
step, per Definition 3.11).  These simulators *are* the conformance
oracle: they mutate the dict-backed network directly, and the array
engines must match them bitwise.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.network.graph import Network, Node
from repro.network.state import NetworkState, require_states
from repro.runtime.backends import DEFAULT_MAX_STEPS
from repro.runtime.churn import ChurnPlan, count_down_events
from repro.runtime.scheduler import RandomScheduler, Scheduler
from repro.runtime.telemetry import MetricsRegistry, coerce_rng
from repro.runtime.trace import Trace

Automaton = Union[FSSGA, ProbabilisticFSSGA]

__all__ = ["SynchronousSimulator", "AsynchronousSimulator"]


class _BaseSimulator:
    def __init__(
        self,
        net: Network,
        automaton: Automaton,
        init: NetworkState,
        rng: Union[int, np.random.Generator, None] = None,
        fault_plan: Optional[ChurnPlan] = None,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        require_states(init, net)
        self.net = net
        self.automaton = automaton
        self.state = init.copy()
        self.rng = coerce_rng(rng)
        if fault_plan is not None:
            fault_plan.ensure_fresh()  # cursor contract: full schedule re-applies
        self.fault_plan = fault_plan
        self.trace = trace
        self.metrics = metrics
        self.time = 0

    @property
    def probabilistic(self) -> bool:
        return isinstance(self.automaton, ProbabilisticFSSGA)

    def _apply_faults(self) -> list:
        if self.fault_plan is None:
            return []
        return self.fault_plan.apply_due(self.net, self.time, self.state)

    def _successor(self, v: Node) -> object:
        neighbors = Counter(self.state[u] for u in self.net.neighbors(v))
        own = self.state[v]
        if self.probabilistic:
            draw = int(self.rng.integers(self.automaton.randomness))
            return self.automaton.transition(own, neighbors, draw)
        return self.automaton.transition(own, neighbors)

    def run_until(
        self,
        predicate: Callable[[NetworkState], bool],
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> int:
        """Step until ``predicate(state)`` holds; returns steps taken.

        The predicate is checked *before* each step, so an initially
        satisfied predicate returns 0; at most ``max_steps`` calls to
        :meth:`step` are made before :class:`RuntimeError`.  The return
        value counts executed steps — the same convention as
        :func:`repro.runtime.api.run` (note that :meth:`run_until_stable`
        also counts executed steps, its last one being the no-change step
        that confirms the fixed point).
        """
        for steps in range(max_steps):
            if predicate(self.state):
                return steps
            self.step()
        if predicate(self.state):
            return max_steps
        raise RuntimeError(f"predicate not reached within {max_steps} steps")


class SynchronousSimulator(_BaseSimulator):
    """Lock-step evolution: ``σ'(v) = f[σ(v)](σ(Γ(v)))`` for every v at once."""

    def step(self) -> dict:
        """One synchronous step; returns the ``{node: (old, new)}`` delta."""
        faults = self._apply_faults()
        old = self.state
        changes: dict = {}
        new = NetworkState()
        for v in self.net:
            succ = self._successor(v)
            new[v] = succ
            if succ != old[v]:
                changes[v] = (old[v], succ)
        self.state = new
        if self.trace is not None:
            self.trace.record(self.time, changes, faults, state=new)
        met = self.metrics
        if met is not None:
            met.inc("steps")
            met.inc("node_updates", len(changes))
            if faults:
                downs = count_down_events(faults)
                if downs:
                    met.inc("fault_events", downs)
                met.inc("churn_events", len(faults))
            if self.probabilistic:
                met.inc("rng_draws", len(self.net))
        self.time += 1
        return changes

    def run(self, steps: int) -> None:
        """Run exactly ``steps`` synchronous steps."""
        for _ in range(steps):
            self.step()

    def run_until_stable(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Step until a fixed point (no node changes); returns steps taken.

        Only meaningful for deterministic automata whose executions
        converge; probabilistic automata may never reach a syntactic fixed
        point.  Raises :class:`RuntimeError` at the step budget.
        """
        for steps in range(1, max_steps + 1):
            if not self.step() and (
                self.fault_plan is None or self.fault_plan.exhausted
            ):
                return steps
        raise RuntimeError(f"no fixed point within {max_steps} steps")


class AsynchronousSimulator(_BaseSimulator):
    """One-node-at-a-time evolution under a scheduler.

    ``time`` counts individual activations.  :meth:`run_fair_rounds` runs
    whole "units of time" in which every live node activates exactly once in
    a random order — the fairness assumption of the synchronizer analysis.
    """

    def __init__(
        self,
        net: Network,
        automaton: Automaton,
        init: NetworkState,
        scheduler: Optional[Scheduler] = None,
        rng: Union[int, np.random.Generator, None] = None,
        fault_plan: Optional[ChurnPlan] = None,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(net, automaton, init, rng, fault_plan, trace, metrics)
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()

    def step(self) -> dict:
        """Activate one scheduled node; returns the (≤1 entry) delta."""
        faults = self._apply_faults()
        v = self.scheduler.next_node(self.net, self.state, self.time, self.rng)
        changes: dict = {}
        if v is not None:
            old = self.state[v]
            new = self._successor(v)
            if new != old:
                self.state.set(v, new)
                changes[v] = (old, new)
        if self.trace is not None:
            self.trace.record(self.time, changes, faults, state=self.state)
        met = self.metrics
        if met is not None:
            met.inc("steps")
            met.inc("node_updates", len(changes))
            if faults:
                downs = count_down_events(faults)
                if downs:
                    met.inc("fault_events", downs)
                met.inc("churn_events", len(faults))
            if self.probabilistic and v is not None:
                met.inc("rng_draws")
        self.time += 1
        return changes

    def run(self, activations: int) -> None:
        for _ in range(activations):
            self.step()

    def run_fair_rounds(self, rounds: int) -> None:
        """Run ``rounds`` units of time: per unit, every live node activates
        exactly once in a fresh random order (overrides the scheduler)."""
        for _ in range(rounds):
            order = self.net.nodes()
            self.rng.shuffle(order)
            for v in order:
                faults = self._apply_faults()
                changes: dict = {}
                if v in self.net:
                    old = self.state[v]
                    new = self._successor(v)
                    if new != old:
                        self.state.set(v, new)
                        changes[v] = (old, new)
                if self.trace is not None:
                    self.trace.record(self.time, changes, faults, state=self.state)
                self.time += 1
