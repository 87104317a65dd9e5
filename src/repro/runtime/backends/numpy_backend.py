"""The default numpy/scipy backend — the bitwise reference.

A thin wrapper over :mod:`repro.runtime.backends.kernels`: neighbour counts
of the IR's feature states via one CSR × dense product (single vector or
stacked replicas), then the lookup-table gather plus per-group
``np.select`` cascade resolution.  It is the ``backend="auto"`` choice and
the reference the other backends are held to.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.backends import kernels
from repro.runtime.backends.base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Feature-state CSR counting + grouped ``np.select`` cascades."""

    name = "numpy"

    def neighbour_counts(self, adj, sig: np.ndarray, ir) -> np.ndarray:
        return kernels.feature_counts(adj, sig, ir.step_tables.feature_states)

    def transition(self, ir, counts, sig, live, draws):
        return kernels.transition(ir, counts, sig, live, draws)

    def step(self, adj, sig: np.ndarray, live: np.ndarray,
             draws: Optional[np.ndarray], ir) -> np.ndarray:
        # both hooks go through ``self`` so subclasses can wrap them
        counts = self.neighbour_counts(adj, sig, ir)
        return self.transition(ir, counts, sig, live, draws)
