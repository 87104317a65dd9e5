"""The shared numpy step-kernel primitives every array engine executes.

One synchronous step is counts → atoms → cascades, laid out the way
Lemma 3.8 allows: an atom reads one neighbour counter, so a step counts
only the ``F`` *feature states* some atom names
(:attr:`~repro.core.ir.StepTables.feature_states`), and each
``(state, draw)`` group resolves its cascade on that group's nodes only.

* :func:`feature_counts` — the ``(..., m, F)`` neighbour counts as one
  CSR × dense product ``adj @ indicator`` (exact int64, so mod atoms see
  true counts however large); an ``(R, m)`` replica stack uses one
  ``(m, R·F)`` indicator, and ``F = 0`` computes nothing.
* :func:`transition` — the successor codes: one gather through the IR's
  ``(s·r,)`` lookup table settles every clause-less program and every
  hold, then each program with clauses runs ``np.select`` (exactly the
  first-match semantics of a Definition 3.6 cascade) over its own rows.
* :class:`AtomTable` / :func:`ctree_bool` / :func:`prop_bool` — atom and
  proposition evaluation; each atom is evaluated at most once per step and
  shared by every cascade that mentions it.

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


def feature_counts(adj, sig: np.ndarray, feature_states: np.ndarray) -> np.ndarray:
    """Neighbour counts of the feature states: ``adj @ indicator``.

    ``adj`` is an ``(m, m)`` CSR adjacency (or quotient matrix with orbit
    multiplicities) and ``sig`` is ``(m,)`` or ``(R, m)``; the result is
    the dense ``(..., m, F)`` int64 table ``counts[..., v, f] =
    μ_{feature_states[f]}(Γ(v))``.
    """
    nfeat = feature_states.shape[0]
    if not nfeat:
        return np.zeros(sig.shape + (0,), dtype=np.int64)
    if sig.ndim == 1:
        return adj @ (sig[:, None] == feature_states).astype(np.int64)
    nrep, m = sig.shape
    indicator = (sig.T[:, :, None] == feature_states).reshape(m, nrep * nfeat)
    counts = adj @ indicator.astype(np.int64)  # (m, R*F)
    return np.ascontiguousarray(counts.reshape(m, nrep, nfeat).transpose(1, 0, 2))


def transition(ir, counts: np.ndarray, sig: np.ndarray, live: np.ndarray,
               draws) -> np.ndarray:
    """Successor codes of ``sig`` under ``ir`` given its feature ``counts``.

    ``draws`` is ``None`` exactly for deterministic IRs; ``live`` is
    ``(m,)`` and broadcasts across replicas (``False`` entries hold).
    """
    tables = ir.step_tables
    key = sig if draws is None else sig * ir.randomness + draws
    new_sig = np.where(live, tables.lut[key], sig)
    if tables.clause_programs:
        flat_new = new_sig.reshape(-1)
        atoms = AtomTable(
            ir.atoms, counts.reshape(key.size, counts.shape[-1]),
            tables.feature_column,
        )
        for k, prog in tables.clause_programs:
            rows = np.flatnonzero((key == k) & live)
            if rows.size:
                flat_new[rows] = np.select(
                    [ctree_bool(tree, atoms, rows) for tree, _ in prog.clauses],
                    [np.int64(c) for _, c in prog.clauses],
                    default=np.int64(prog.default),
                )
    return new_sig
