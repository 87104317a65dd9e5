"""The single-replica full-graph engine: R = 1 over the network's CSR.

A thin constructor over :class:`~repro.runtime.engine.SynchronousArrayEngine`
(see there for the Lemma 3.8 count product, the churn lowering and the
live view).  Its one random stream is used verbatim, so
``run(engine="vectorized", rng=seed)`` draws exactly what the reference
interpreter draws: one value per live node per step, in insertion order.
It is benchmarked against the reference interpreter in
``benchmarks/bench_engines.py`` (experiment E15).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import CompiledAutomaton
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.runtime.backends import NumpyBackend
from repro.runtime.churn import ChurnPlan
from repro.runtime.engine import SingleReplicaEngine, _is_seed
from repro.runtime.telemetry import MetricsRegistry, coerce_rng

__all__ = ["VectorizedSynchronousEngine"]


class VectorizedSynchronousEngine(SingleReplicaEngine):
    """Synchronous FSSGA evolution with numpy/scipy inner loops.

    Parameters
    ----------
    net:
        The network.  With a ``fault_plan`` the engine mutates ``net``
        exactly as the reference simulator does (events fire before the
        step whose time has arrived) and recomputes its live-node arrays
        at each topology change.
    programs:
        Anything :func:`repro.core.ir.lower` accepts: ``{q:
        ModThreshProgram}``, ``{(q, i): ModThreshProgram}`` (then
        ``randomness`` must be given), an :class:`FSSGA` /
        :class:`ProbabilisticFSSGA` built from programs of any Theorem 3.7
        form, a rule-based automaton declaring ``compile_hints``, or a
        pre-lowered :class:`~repro.core.ir.CompiledAutomaton`.
    init:
        Initial :class:`~repro.network.state.NetworkState`.
    randomness:
        ``r`` of Definition 3.11 for probabilistic program mappings.
    rng:
        Seed or Generator for probabilistic draws.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` or
        :class:`~repro.runtime.churn.ChurnPlan` lowered into per-step
        live-node masks.  Plans that add topology (``node-up`` /
        ``edge-up``) lower the plan's *union* topology into the
        construction-time CSR with not-yet-arrived entries masked dead,
        so churn runs keep the vector fast path; every ``node-up`` boot
        state must belong to the automaton alphabet.  A plan whose
        cursor was already consumed by a previous run is auto-reset.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry`
        receiving the engine-agnostic counters (``steps``,
        ``node_updates``, ``rng_draws``, ``fault_events``).  ``None``
        (default) costs one branch per step.  The resolved backend name
        is recorded as the registry's ``backend`` tag.
    backend:
        The executor of the counts → atoms → cascades hot loop:
        ``"auto"`` / ``"numpy"``, or a live
        :class:`~repro.runtime.backends.NumpyBackend` instance (see
        :func:`repro.runtime.backends.resolve_backend`).
    """

    def __init__(
        self,
        net: Network,
        programs: Union[Mapping, FSSGA, ProbabilisticFSSGA, CompiledAutomaton],
        init: NetworkState,
        randomness: Optional[int] = None,
        rng: Union[int, np.random.Generator, None] = None,
        fault_plan: Optional[ChurnPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Union[str, NumpyBackend, None] = "auto",
    ) -> None:
        super().__init__(
            net, programs, [init], randomness, [coerce_rng(rng)],
            fault_plan, metrics, backend,
        )
        if _is_seed(rng):
            self._own_streams()
