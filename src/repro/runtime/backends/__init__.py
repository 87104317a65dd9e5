"""The array step kernel and the one backend that executes it.

The array engine (:mod:`repro.runtime.engine`, behind the vectorized,
batched and quotient labels) executes a
:class:`~repro.core.ir.CompiledAutomaton` IR, and its per-step hot path
decomposes into neighbour counts of the IR's feature states (a CSR,
quotient-CSR or circulant-stencil product) and the state transition (one
Lemma 3.8 counter-table gather, or atom-table evaluation and cascade
resolution), plus an RNG-draw hook.  This package
owns that seam:

* :mod:`repro.runtime.backends.kernels` — the numpy/scipy primitives;
* :class:`~repro.runtime.backends.numpy_backend.NumpyBackend` — the
  executor the engines call, whose ``neighbour_counts``/``transition``/
  ``draw`` hooks a subclass may wrap.

``backend="auto"``, ``None`` and ``"numpy"`` resolve to a fresh
:class:`NumpyBackend`; a :class:`NumpyBackend` *instance* (or subclass
instance) passes through untouched.  The retired names ``"numba"`` and
``"array-api"`` raise :class:`~repro.core.ir.BackendLoweringError` with
blocker ``"backend-retired"``, so a manifest recorded by them replays to
a structured error.  Every engine records the backend's name in its
telemetry tags and every :func:`repro.runtime.api.run` manifest carries
it.
"""

from __future__ import annotations

from typing import Union

from repro.core.ir import BackendLoweringError
from repro.runtime.backends.numpy_backend import NumpyBackend

__all__ = ["NumpyBackend", "DEFAULT_MAX_STEPS", "resolve_backend"]

#: The one shared step budget for every engine's open-ended run modes
#: (``run_until_stable`` / ``run_until`` / ``run(until=...)``) — hoisted
#: here so the engines cannot drift apart on the default again.
DEFAULT_MAX_STEPS = 100_000

_RETIRED = ("numba", "array-api")


def resolve_backend(
    backend: Union[str, NumpyBackend, None] = "auto"
) -> NumpyBackend:
    """Resolve a ``backend=`` argument to a live :class:`NumpyBackend`.

    A retired name raises :class:`~repro.core.ir.BackendLoweringError`
    with blocker ``"backend-retired"``; any other unknown name raises
    ``ValueError`` listing the choices.
    """
    if isinstance(backend, NumpyBackend):
        return backend
    if backend is None or backend == "auto" or backend == "numpy":
        return NumpyBackend()
    if backend in _RETIRED:
        raise BackendLoweringError(
            f"backend {backend!r} has been retired; the numpy backend is "
            f"the only step-kernel executor (pass 'auto' or 'numpy')",
            blocker="backend-retired",
        )
    raise ValueError(
        f"unknown backend {backend!r}; choose from ('auto', 'numpy') or "
        f"pass a NumpyBackend instance"
    )
