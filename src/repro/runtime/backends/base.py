"""The :class:`ArrayBackend` contract every execution backend implements.

A backend owns the three hot primitives of a synchronous FSSGA step —
neighbour counting of the states the atoms read, atom-table evaluation
and cascade-table state transition — plus the RNG-draw hook.  Engines own everything else: CSR construction, fault
masking, live-node slicing, replica bookkeeping, telemetry and state
decoding.  The boundary is numpy: engines hand the backend numpy arrays
(plus the scipy CSR adjacency) and get a numpy state vector back, so a
backend is free to run its middle on whatever substrate it likes (a JIT
kernel, an accelerator array library) as long as the returned codes are
exact.

All hooks are shape-generic over the leading axes: ``sig`` is ``(m,)``
or ``(R, m)`` (the array engine always passes its ``(R, m)`` replica
stack), and ``live`` is ``(m,)``, broadcasting across replicas.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Base class / protocol for pluggable step-kernel backends.

    Subclasses must set :attr:`name` (the ``backend=`` string that selects
    them) and implement :meth:`step`; the granular hooks
    (:meth:`neighbour_counts` / :meth:`transition`) are optional — fused
    backends may not expose them separately.
    """

    #: Registry key; also the tag recorded in telemetry and run manifests.
    name: str = ""

    # -- the three hot primitives ---------------------------------------
    def step(self, adj, sig: np.ndarray, live: np.ndarray,
             draws: Optional[np.ndarray], ir) -> np.ndarray:
        """One synchronous transition: counts → atoms → cascades.

        Parameters
        ----------
        adj:
            ``(m, m)`` scipy CSR adjacency — the live-compacted matrix
            under faults, or the quotient matrix ``Q`` with orbit
            multiplicities.
        sig:
            Integer state codes, ``(m,)`` or ``(R, m)``.
        live:
            ``(m,)`` bool; ``False`` nodes (degree 0) hold their state.
        draws:
            Per-node draws in ``[0, r)``, same shape as ``sig``, or
            ``None`` for deterministic automata.
        ir:
            The :class:`~repro.core.ir.CompiledAutomaton` being executed.

        Returns the successor state codes, same shape as ``sig``.  The
        result must be exact — engines assert bitwise trajectory equality
        across backends.
        """
        raise NotImplementedError

    def neighbour_counts(self, adj, sig: np.ndarray, ir):
        """Optional granular hook: the ``(..., m, F)`` count tensor.

        Column ``f`` counts, for every node, the neighbours in state
        ``ir.step_tables.feature_states[f]`` — only the states some atom
        reads (Lemma 3.8).  Exact integers: mod atoms see true counts.
        A backend exposing the hooks calls both through ``self`` from
        :meth:`step`, positionally, so a subclass can wrap them.
        """
        raise NotImplementedError(f"{self.name} backend only exposes step()")

    def transition(self, ir, counts, sig, live, draws):
        """Optional granular hook: the successor codes of ``sig``.

        ``counts`` is what :meth:`neighbour_counts` returned; ``sig``,
        ``live`` and ``draws`` are as for :meth:`step`.
        """
        raise NotImplementedError(f"{self.name} backend only exposes step()")

    # -- RNG hook -------------------------------------------------------
    def draw(self, rng, randomness: int, size) -> np.ndarray:
        """Draw per-node randomness from ``rng``.

        Every backend must consume ``rng`` identically — one bounded
        ``integers(r, size=m)`` vector per call — or shared-seed runs
        would diverge across backends.  Override only to post-process
        (e.g. move draws to a device), never to change the stream.
        """
        return rng.integers(randomness, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
