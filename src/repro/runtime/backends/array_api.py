"""Array-API backend: the step kernel in pure ``xp.*`` calls.

The numpy backend leans on scipy CSR products and ``np.select`` — both
outside the `array API standard <https://data-apis.org/array-api/>`_, so
neither runs on cupy/torch/jax arrays.  This backend re-expresses the
three hot primitives in standard calls only:

* neighbour counts of the IR's feature states densify the adjacency once
  (cached per matrix object) and use broadcasted ``xp.matmul`` —
  ``(m, m) @ (..., m, F)`` covers the single-replica, batched and quotient
  shapes in one expression;
* atom evaluation is comparison/remainder ops over the counts tensor,
  memoized per step exactly like the numpy :class:`AtomTable`;
* cascade resolution folds a reversed ``xp.where`` chain (the last write
  wins, so applying clauses in reverse order gives ``np.select``'s
  first-match semantics).

Engines talk numpy at the boundary: inputs are converted with
``xp.asarray`` on entry and the new state vector is converted back with
``np.asarray`` on exit, so with ``namespace=numpy`` (the default) every
conversion is free and the results are bitwise-identical to the numpy
backend — all arithmetic is exact integer/boolean.  A cupy/torch
namespace slots in unmodified, paying two host/device transfers per step
for the state vector while the O(m·s) kernel math runs on the device.

The dense adjacency costs O(m²) memory: fine for the quotient matrix and
conformance-scale networks this backend targets, wrong for huge sparse
graphs — pin ``backend="numpy"`` (or ``"numba"``) there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.backends.base import ArrayBackend

__all__ = ["ArrayApiBackend"]


class ArrayApiBackend(ArrayBackend):
    """Step kernel over any array-API namespace (default: numpy)."""

    name = "array-api"

    def __init__(self, namespace=None) -> None:
        self.xp = namespace if namespace is not None else np
        self._adj_cache: Optional[tuple] = None  # (csr object, dense xp array)

    # ------------------------------------------------------------------
    def _dense_adjacency(self, adj):
        """The adjacency as a dense ``xp`` int64 array, cached per object.

        Fault firings replace the engine's live matrix with a fresh CSR, so
        identity caching refreshes exactly when the topology changes; the
        strong reference keeps the keyed object alive (no id reuse).
        """
        if self._adj_cache is not None and self._adj_cache[0] is adj:
            return self._adj_cache[1]
        dense = self.xp.asarray(adj.toarray(), dtype=self.xp.int64)
        self._adj_cache = (adj, dense)
        return dense

    def neighbour_counts(self, adj, sig, ir):
        xp = self.xp
        sigx = xp.asarray(sig)
        features = xp.asarray(ir.step_tables.feature_states, dtype=sigx.dtype)
        indicator = xp.astype(sigx[..., None] == features, xp.int64)
        return xp.matmul(self._dense_adjacency(adj), indicator)

    def transition(self, ir, counts, sig, live, draws):
        xp = self.xp
        sigx = xp.asarray(sig)
        livex = xp.asarray(live)
        drawsx = xp.asarray(draws) if draws is not None else None
        column = ir.step_tables.feature_column
        memo: dict[int, object] = {}
        shape = counts.shape[:-1]

        def atom_truth(idx):
            arr = memo.get(idx)
            if arr is None:
                atom = ir.atoms[idx]
                col = column.get(atom.state)
                if hasattr(atom, "threshold"):
                    if col is None:  # state never occurs
                        arr = xp.ones(shape, dtype=xp.bool)
                    else:
                        arr = counts[..., col] < atom.threshold
                else:
                    if col is None:
                        arr = xp.full(shape, atom.residue == 0, dtype=xp.bool)
                    else:
                        arr = counts[..., col] % atom.modulus == atom.residue
                memo[idx] = arr
            return arr

        def ctree(tree):
            op = tree[0]
            if op == "atom":
                return atom_truth(tree[1])
            if op == "not":
                return ~ctree(tree[1])
            if op == "and":
                out = xp.ones(shape, dtype=xp.bool)
                for c in tree[1]:
                    out = out & ctree(c)
                return out
            if op == "or":
                out = xp.zeros(shape, dtype=xp.bool)
                for c in tree[1]:
                    out = out | ctree(c)
                return out
            return xp.full(shape, bool(tree[1]), dtype=xp.bool)

        new_sig = sigx
        for (qc, draw), cprog in ir.table.items():
            mask = livex & (sigx == qc)
            if drawsx is not None:
                mask = mask & (drawsx == draw)
            if not bool(xp.any(mask)):
                continue
            # reversed where-chain == np.select first-match semantics
            resolved = xp.full(shape, cprog.default, dtype=sigx.dtype)
            for tree, result in reversed(cprog.clauses):
                resolved = xp.where(
                    ctree(tree),
                    xp.asarray(result, dtype=sigx.dtype),
                    resolved,
                )
            new_sig = xp.where(mask, resolved, new_sig)
        return np.asarray(new_sig)

    def step(self, adj, sig, live, draws, ir):
        counts = self.neighbour_counts(adj, sig, ir)
        new_sig = self.transition(ir, counts, sig, live, draws)
        if new_sig is sig:  # no cascade fired: hand back a fresh array
            new_sig = np.array(new_sig)
        return new_sig
