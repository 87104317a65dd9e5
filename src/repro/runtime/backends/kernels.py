"""The shared numpy step-kernel primitives every array engine executes.

One synchronous step is counts → transition, laid out the way Lemma 3.8
allows: an atom reads one neighbour counter, so a step counts only the
``F`` *feature states* some atom names
(:attr:`~repro.core.ir.StepTables.feature_states`), and every atom on a
state q reads its count c only through the *counter index* ``c`` if
``c < T_q``, else ``T_q + (c − T_q) mod L_q`` (``T_q`` the largest
threshold on q, ``L_q`` the lcm of its moduli).  State codes come in the
narrowest integer dtype holding the alphabet, so every array of a step is
a byte or two per node.

* :func:`feature_counts` — the ``(..., m, F)`` neighbour counts as one
  product ``adj @ indicator`` in the operator's dtype: a CSR whose
  entries the engine narrows to the largest row sum, or the circulant
  stencil (exact either way, so mod atoms see true counts); an
  ``(R, m)`` replica stack uses one ``(m, R·F)`` indicator, and
  ``F = 0`` computes nothing.
* :func:`transition` — the successor codes.  With a counter table
  (:attr:`~repro.core.ir.StepTables.counter_table`) it is one gather at
  ``(code·r + draw, counter indices)``.  Without one (the table would
  exceed its cap) the cascade runs: one gather through the IR's
  ``(s·r,)`` lookup table settles every clause-less program and every
  hold, then each program with clauses runs ``np.select`` (exactly the
  first-match semantics of a Definition 3.6 cascade) over its own rows.
  The table is filled by the cascade itself, on the counter grid.
* :class:`AtomTable` / :func:`ctree_bool` / :func:`prop_bool` — atom and
  proposition evaluation for the cascade; each atom is evaluated at most
  once per step and shared by every cascade that mentions it.

Everything is shape-generic over the leading axes — ``(m,)`` or an
``(R, m)`` replica stack — so one implementation serves every topology
operator and replica count with no code divergence.
:class:`~repro.runtime.backends.NumpyBackend` is a thin wrapper over these
functions.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.modthresh import (
    And,
    ModAtom,
    Not,
    Or,
    Proposition,
    ThreshAtom,
    _Const,
)

__all__ = [
    "prop_bool",
    "AtomTable",
    "ctree_bool",
    "feature_counts",
    "transition",
]


def prop_bool(prop: Proposition, counts: np.ndarray, code: Mapping) -> np.ndarray:
    """Evaluate a proposition over a counts tensor ``(..., F)`` → bool ``(...)``.

    ``code`` maps a state to its count column; a state without one never
    occurs among the neighbours (its count is 0).
    """
    shape = counts.shape[:-1]
    if isinstance(prop, ThreshAtom):
        col = code.get(prop.state)
        if col is None:
            return np.ones(shape, dtype=bool)  # state never occurs
        return counts[..., col] < prop.threshold
    if isinstance(prop, ModAtom):
        col = code.get(prop.state)
        if col is None:
            return np.full(shape, prop.residue == 0)
        return counts[..., col] % prop.modulus == prop.residue
    if isinstance(prop, And):
        out = np.ones(shape, dtype=bool)
        for c in prop.children:
            out &= prop_bool(c, counts, code)
        return out
    if isinstance(prop, Or):
        out = np.zeros(shape, dtype=bool)
        for c in prop.children:
            out |= prop_bool(c, counts, code)
        return out
    if isinstance(prop, Not):
        return ~prop_bool(prop.child, counts, code)
    if isinstance(prop, _Const):
        return np.full(shape, prop.evaluate(None))  # constant
    raise TypeError(f"unexpected proposition {prop!r}")


class AtomTable:
    """Per-step truth table over the IR's unique feature atoms.

    Each atom evaluates lazily, exactly once, into a boolean array over
    all entries, shared by every cascade that references it — the
    common-subexpression payoff of the atom-table IR.
    """

    __slots__ = ("atoms", "counts", "code", "_memo")

    def __init__(self, atoms: tuple, counts: np.ndarray, code: Mapping) -> None:
        self.atoms = atoms
        self.counts = counts
        self.code = code
        self._memo: dict[int, np.ndarray] = {}

    def truth(self, idx: int) -> np.ndarray:
        arr = self._memo.get(idx)
        if arr is None:
            arr = prop_bool(self.atoms[idx], self.counts, self.code)
            self._memo[idx] = arr
        return arr


def ctree_bool(tree: tuple, table: AtomTable, rows: np.ndarray) -> np.ndarray:
    """Evaluate a compiled proposition tree on the entries ``rows``."""
    op = tree[0]
    if op == "atom":
        return table.truth(tree[1])[rows]
    if op == "not":
        return ~ctree_bool(tree[1], table, rows)
    if op == "and":
        out = np.ones(rows.shape, dtype=bool)
        for c in tree[1]:
            out &= ctree_bool(c, table, rows)
        return out
    if op == "or":
        out = np.zeros(rows.shape, dtype=bool)
        for c in tree[1]:
            out |= ctree_bool(c, table, rows)
        return out
    return np.full(rows.shape, tree[1])  # ("const", bool)


def narrow_int(top: int) -> np.dtype:
    """The narrowest signed integer dtype holding ``0..top``."""
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def feature_counts(adj, sig: np.ndarray, feature_states: np.ndarray) -> np.ndarray:
    """Neighbour counts of the feature states: ``adj @ indicator``.

    ``adj`` is an ``(m, m)`` CSR adjacency (or quotient matrix with orbit
    multiplicities), or any operator with ``@`` on a dense ``(m, k)``
    block and a ``dtype``, such as the circulant stencil of
    :mod:`repro.runtime.engine`.  ``sig`` is ``(m,)`` or ``(R, m)``; the
    result is the dense ``(..., m, F)`` table ``counts[..., v, f] =
    μ_{feature_states[f]}(Γ(v))`` in the operator's dtype.  The counts
    are exact as long as that dtype holds the largest row sum: the engine
    narrows a CSR's entries to the narrowest such dtype, and the stencil
    counts in one holding the degree.
    """
    nfeat = feature_states.shape[0]
    if not nfeat:
        return np.zeros(sig.shape + (0,), dtype=np.int64)
    if sig.ndim == 1:
        return adj @ (sig[:, None] == feature_states).astype(adj.dtype)
    nrep, m = sig.shape
    indicator = (sig.T[:, :, None] == feature_states).reshape(m, nrep * nfeat)
    counts = adj @ indicator.astype(adj.dtype)  # (m, R*F)
    return np.ascontiguousarray(counts.reshape(m, nrep, nfeat).transpose(1, 0, 2))


def transition(ir, counts: np.ndarray, sig: np.ndarray, live, draws) -> np.ndarray:
    """Successor codes of ``sig`` under ``ir`` given its feature ``counts``.

    ``draws`` is ``None`` exactly for deterministic IRs; ``live`` is
    ``(m,)`` and broadcasts across replicas (``False`` entries hold), or
    ``None`` when every row is live.  With a counter table the result is
    one gather; otherwise the cascade runs.  Either way the codes come in
    the IR's code dtype, that of :attr:`~repro.core.ir.StepTables.lut`.
    """
    tables = ir.step_tables
    table = tables.counter_table
    if table is None:
        return _cascade(ir, tables, counts, sig, live, draws)
    new_sig = table.take(_table_index(ir, tables, counts, sig, draws))
    return new_sig if live is None else np.where(live, new_sig, sig)


def _table_index(ir, tables, counts, sig, draws) -> np.ndarray:
    """Flat :attr:`~repro.core.ir.StepTables.counter_table` index of every
    entry, ``(code·r + draw)·C + Σ_f index_f·stride_f``, in the narrowest
    dtype holding the table's size."""
    table = tables.counter_table
    dtype = narrow_int(table.size - 1)
    idx = sig.astype(dtype)
    if draws is not None:
        idx *= ir.randomness
        idx += draws.astype(dtype, copy=False)
    stride = table.shape[1]
    if stride > 1:
        idx *= stride
    # the column dtype must hold both the counts and the table indices
    wide = np.promote_types(counts.dtype, dtype)
    for f, (t, period) in enumerate(tables.counters):
        if t + period == 1:
            continue  # one counter value: no atom on this state can differ
        stride //= t + period
        c = counts[..., f].astype(wide)
        if period == 1:
            np.minimum(c, t, out=c)
        else:
            c = np.where(c < t, c, (c - t) % period + t)
        if stride > 1:
            c *= stride
        idx += c
    return idx


def _cascade(ir, tables, counts, sig, live, draws) -> np.ndarray:
    """:func:`transition` without the counter table: one gather through
    the ``lut``, then ``np.select`` over each clause program's rows."""
    key = sig if draws is None else sig.astype(np.int64) * ir.randomness + draws
    new_sig = tables.lut[key]
    if live is not None:
        new_sig = np.where(live, new_sig, sig)
    if tables.clause_programs:
        flat_new = new_sig.reshape(-1)
        # int64 so modular atoms never overflow a narrow count dtype
        atoms = AtomTable(
            ir.atoms,
            counts.reshape(key.size, counts.shape[-1]).astype(np.int64, copy=False),
            tables.feature_column,
        )
        for k, prog in tables.clause_programs:
            hit = key == k
            if live is not None:
                hit &= live
            rows = np.flatnonzero(hit)
            if rows.size:
                flat_new[rows] = np.select(
                    [ctree_bool(tree, atoms, rows) for tree, _ in prog.clauses],
                    [np.int64(c) for _, c in prog.clauses],
                    default=np.int64(prog.default),
                )
    return new_sig
