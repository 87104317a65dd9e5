"""The numpy/scipy step-kernel executor every array engine runs.

A backend owns the hot primitives of a synchronous FSSGA step —
neighbour counting of the states the atoms read, atom-table evaluation
and cascade-table state transition — plus the RNG-draw hook.  Engines own
everything else: CSR construction, fault masking, live-node slicing,
replica bookkeeping, telemetry and state decoding.

:class:`NumpyBackend` is a thin wrapper over
:mod:`repro.runtime.backends.kernels`: neighbour counts of the IR's
feature states via one operator product (a CSR, or the circulant
stencil; single vector or stacked replicas), then one gather from the
Lemma 3.8 counter table, or, when the IR has none, the lookup-table
gather plus per-group ``np.select`` cascade resolution.  It stays a class so the hooks form a seam: a
subclass can wrap :meth:`~NumpyBackend.neighbour_counts`,
:meth:`~NumpyBackend.transition` and :meth:`~NumpyBackend.draw` (to time
or record them) and pass the instance as ``backend=``.

All hooks are shape-generic over the leading axes: ``sig`` is ``(m,)``
or ``(R, m)`` (the array engine always passes its ``(R, m)`` replica
stack), and ``live`` is ``(m,)``, broadcasting across replicas, or
``None`` when every row has a neighbour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.backends import kernels

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """Feature-state counting + the counter-table (or cascade) transition."""

    #: The ``backend=`` string; also the tag recorded in telemetry and
    #: run manifests.
    name = "numpy"

    def step(self, adj, sig: np.ndarray, live: np.ndarray,
             draws: Optional[np.ndarray], ir) -> np.ndarray:
        """One synchronous transition: counts → atoms → cascades.

        ``adj`` is the ``(m, m)`` topology operator: the scipy CSR
        adjacency — the live-compacted matrix under faults, or the
        quotient matrix ``Q`` with orbit multiplicities — or a
        :class:`~repro.runtime.engine.CirculantAdjacency`.  ``sig`` holds
        the integer state codes, ``(m,)`` or ``(R, m)``; ``live`` is
        ``(m,)`` bool, and ``False`` nodes (degree 0) hold their state,
        or ``None`` when no node does.  ``draws`` are
        per-node draws in ``[0, r)`` shaped like ``sig``, or ``None``
        for deterministic automata.  ``ir`` is the
        :class:`~repro.core.ir.CompiledAutomaton` being executed.

        Both hooks go through ``self``, positionally, so a subclass can
        wrap them.  Returns the successor codes, shaped like ``sig``.
        """
        counts = self.neighbour_counts(adj, sig, ir)
        return self.transition(ir, counts, sig, live, draws)

    def neighbour_counts(self, adj, sig: np.ndarray, ir) -> np.ndarray:
        """The ``(..., m, F)`` count tensor.

        Column ``f`` counts, for every node, the neighbours in state
        ``ir.step_tables.feature_states[f]`` — only the states some atom
        reads (Lemma 3.8).  Exact integers: mod atoms see true counts.
        """
        return kernels.feature_counts(adj, sig, ir.step_tables.feature_states)

    def transition(self, ir, counts, sig, live, draws):
        """The successor codes of ``sig``.

        ``counts`` is what :meth:`neighbour_counts` returned; ``sig``,
        ``live`` and ``draws`` are as for :meth:`step`.
        """
        return kernels.transition(ir, counts, sig, live, draws)

    def draw(self, rng, randomness: int, size) -> np.ndarray:
        """Draw per-node randomness from ``rng``.

        One bounded ``integers(r, size=m)`` vector per call — the stream
        the reference interpreter consumes one scalar at a time, so
        shared-seed runs agree bitwise.  ``rng`` is a caller's Generator
        or draw source, or, for a stream the engine created itself, the
        engine's private stream object, which serves the same values from
        the raw PCG64 bit stream (see :mod:`repro.runtime.engine`).
        Override only to observe or post-process, never to change the
        stream, and pass ``rng`` through as given.
        """
        return rng.integers(randomness, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
