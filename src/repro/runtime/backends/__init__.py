"""Pluggable array backends: one shared step kernel, many substrates.

The array engine (:mod:`repro.runtime.engine`, behind the vectorized,
batched and quotient labels) executes a
:class:`~repro.core.ir.CompiledAutomaton` IR, and its per-step hot path
decomposes into three primitives — neighbour counts of the IR's feature
states via a CSR / quotient-CSR product, atom-table evaluation,
cascade-table state transition — plus an RNG-draw hook.  This package
owns that seam:

* :class:`~repro.runtime.backends.base.ArrayBackend` — the contract
  (:meth:`~repro.runtime.backends.base.ArrayBackend.step` and friends);
* :class:`~repro.runtime.backends.numpy_backend.NumpyBackend` — the
  numpy/scipy kernel of :mod:`repro.runtime.backends.kernels`, the
  default and the bitwise reference;
* :class:`~repro.runtime.backends.array_api.ArrayApiBackend` — the kernel
  in pure array-API calls, so cupy/torch namespaces slot in unmodified;
* :class:`~repro.runtime.backends.numba_backend.NumbaBackend` — an
  optional JIT backend fusing CSR counting, atom evaluation and cascade
  resolution into one compiled loop per automaton, cached by IR content
  hash (:func:`backend_cache_info` mirrors
  :func:`repro.core.ir.lowering_cache_info`).

Selection mirrors engine negotiation: ``backend="auto"`` always resolves
to the numpy default (JIT warm-up only pays off at scale, so faster
backends are opt-in), a pinned name resolves or raises
:class:`~repro.core.ir.BackendLoweringError` with a machine-readable
``blocker`` naming the actual obstruction, and an
:class:`~repro.runtime.backends.base.ArrayBackend` *instance* passes
through untouched (how a cupy/torch namespace or a test double is
injected).  Every engine records the resolved backend's name in its
telemetry tags and every :func:`repro.runtime.api.run` manifest carries
it, so replay re-pins the backend the original run used.
"""

from __future__ import annotations

from typing import Union

from repro.core.ir import BackendLoweringError
from repro.runtime.backends.base import ArrayBackend
from repro.runtime.backends.kernels import AtomTable, ctree_bool, prop_bool
from repro.runtime.backends.array_api import ArrayApiBackend
from repro.runtime.backends.numba_backend import (
    HAS_NUMBA,
    NumbaBackend,
    clear_kernel_cache,
    kernel_cache_info,
)
from repro.runtime.backends.numpy_backend import NumpyBackend

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "ArrayApiBackend",
    "NumbaBackend",
    "BackendLoweringError",
    "BACKENDS",
    "DEFAULT_MAX_STEPS",
    "HAS_NUMBA",
    "resolve_backend",
    "available_backends",
    "backend_cache_info",
    "clear_backend_cache",
    "AtomTable",
    "prop_bool",
    "ctree_bool",
]

#: The one shared step budget for every engine's open-ended run modes
#: (``run_until_stable`` / ``run_until`` / ``run(until=...)``) — hoisted
#: here so the engines cannot drift apart on the default again.
DEFAULT_MAX_STEPS = 100_000

#: Selectable backend names, in documentation order.
BACKENDS = ("auto", "numpy", "array-api", "numba")

_FACTORIES = {
    "numpy": NumpyBackend,
    "array-api": ArrayApiBackend,
    "numba": NumbaBackend,
}


def available_backends() -> tuple:
    """Names of the backends whose dependencies are importable here."""
    names = ["numpy", "array-api"]
    if HAS_NUMBA:
        names.append("numba")
    return tuple(names)


def resolve_backend(
    backend: Union[str, ArrayBackend, None] = "auto"
) -> ArrayBackend:
    """Resolve a ``backend=`` argument to a live :class:`ArrayBackend`.

    ``"auto"`` (or ``None``) picks the numpy default — the bitwise
    reference; faster backends are opt-in by name.  A pinned name that
    cannot be honoured raises
    :class:`~repro.core.ir.BackendLoweringError` whose ``blocker`` names
    the obstruction (``"numba-unavailable"``), matching the quotient
    engine's negotiation convention; an unknown name raises
    ``ValueError`` listing the choices.  Instances pass through verbatim.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None or backend == "auto" or backend == "numpy":
        return NumpyBackend()
    factory = _FACTORIES.get(backend)
    if factory is None:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS} or pass an "
            f"ArrayBackend instance"
        )
    return factory()  # NumbaBackend raises the blocker itself when absent


def backend_cache_info() -> dict:
    """Compile-cache counters for the JIT backend (tables per IR hash)."""
    return kernel_cache_info()


def clear_backend_cache() -> None:
    """Drop the JIT backend's cached kernel tables."""
    clear_kernel_cache()
