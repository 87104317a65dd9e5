"""Decreasing benign faults (paper, Section 1) — the deletion-only plan.

A fault permanently deletes a node or an edge; nothing joins the network
and there is no malicious behaviour.  A fault is a
:class:`~repro.runtime.churn.TopologyEvent` of kind ``node-down`` or
``edge-down``; simulators apply all events due at time ``t`` *before*
computing step ``t``.

:class:`FaultPlan` is the deletion-only subclass of
:class:`~repro.runtime.churn.ChurnPlan`: it keeps the Section 2 name and
the :meth:`~FaultPlan.node_faults` / :meth:`~FaultPlan.edge_faults`
constructors.  Schedules that also *add* topology (regional recovery,
growth) live in :mod:`repro.runtime.churn`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Union

import numpy as np

from repro.network.graph import Network, Node
from repro.runtime.churn import EDGE_DOWN, NODE_DOWN, ChurnPlan, TopologyEvent

__all__ = ["FaultPlan", "random_fault_plan"]


def _pairs(schedule) -> list[tuple]:
    """``{time: target}`` or ``[(time, target), …]`` → a pair list.

    The dict form predates the churn layer and cannot express two faults
    at the same step (keys are unique); both forms are accepted, and the
    list form preserves same-time ordering (plan sorting is stable).
    """
    if isinstance(schedule, Mapping):
        return list(schedule.items())
    return [(t, target) for t, target in schedule]


class FaultPlan(ChurnPlan):
    """A time-ordered schedule of deletion events.

    The stateful-cursor semantics (``apply_due`` advances it; engines
    auto-``reset`` a plan already ``consumed`` at construction; resetting
    re-applies the schedule but never resurrects deleted topology) are
    inherited from :class:`~repro.runtime.churn.ChurnPlan` — see that
    class for the full contract.  This subclass exists for the historical
    name and the deletion-only convenience constructors; it accepts any
    event the churn layer accepts.
    """

    @classmethod
    def node_faults(
        cls, schedule: Union[dict[int, Node], list[tuple[int, Node]]]
    ) -> "FaultPlan":
        """Convenience: ``{time: node}`` or ``[(time, node), …]`` → plan.

        The list form allows several faults at the same step (the dict
        form cannot — its keys are unique) and keeps their given order.
        """
        return cls([TopologyEvent(t, NODE_DOWN, v) for t, v in _pairs(schedule)])

    @classmethod
    def edge_faults(
        cls, schedule: Union[dict[int, tuple], list[tuple[int, tuple]]]
    ) -> "FaultPlan":
        """Convenience: ``{time: (u, v)}`` or ``[(time, (u, v)), …]`` → plan."""
        return cls([TopologyEvent(t, EDGE_DOWN, e) for t, e in _pairs(schedule)])


def random_fault_plan(
    net: Network,
    num_faults: int,
    max_time: int,
    rng: Union[int, np.random.Generator, None] = None,
    kinds: tuple[str, ...] = (NODE_DOWN, EDGE_DOWN),
    protect: tuple = (),
) -> FaultPlan:
    """A random fault plan over the current topology.

    ``rng`` accepts a :class:`numpy.random.Generator` (used as-is) *or*
    an int seed (``None`` seeds from entropy); equal seeds give identical
    plans, so a sweep can reproduce its schedules from recorded seeds
    alone.  ``kinds`` draws from ``node-down`` and ``edge-down``.
    ``protect`` lists nodes that may never be deleted (and whose
    incident edges are also spared) — useful for keeping an algorithm's
    critical nodes alive, per the Section 2 sensitivity definition.
    """
    bad = [k for k in kinds if k not in (NODE_DOWN, EDGE_DOWN)]
    if bad:
        raise ValueError(
            f"fault kinds must be {NODE_DOWN!r} or {EDGE_DOWN!r}, not {bad}"
        )
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    protected = set(protect)
    node_pool = [v for v in net.nodes() if v not in protected]
    edge_pool = [
        (u, v) for u, v in net.edges() if u not in protected and v not in protected
    ]
    events: list[TopologyEvent] = []
    for _ in range(num_faults):
        kind = kinds[int(gen.integers(len(kinds)))]
        time = int(gen.integers(0, max_time + 1))
        pool = node_pool if kind == NODE_DOWN else edge_pool
        if pool:
            idx = int(gen.integers(len(pool)))
            events.append(TopologyEvent(time, kind, pool.pop(idx)))
    return FaultPlan(events)
