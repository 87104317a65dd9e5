"""The shared engine IR: every front-end form lowered to one compiled object.

Theorem 3.7 proves the sequential, parallel and mod-thresh formulations are
one function class, and Lemma 3.9 (via :mod:`repro.core.compile`) recovers a
mod-thresh cascade from a traced rule.  This module turns those equivalence
proofs into a compiler: :func:`lower` accepts any automaton the package can
express —

* a ``{q: program}`` / ``{(q, i): program}`` mapping whose values are
  :class:`~repro.core.modthresh.ModThreshProgram`,
  :class:`~repro.core.sequential.SequentialProgram` (Lemma 3.9) or
  :class:`~repro.core.parallel.ParallelProgram` (Lemma 3.5 ∘ 3.9);
* an :class:`~repro.core.automaton.FSSGA` /
  :class:`~repro.core.automaton.ProbabilisticFSSGA` built from such
  programs;
* a *rule-based* automaton that declares ``compile_hints``, compiled per
  own state by the checked Lemma 3.9 enumeration with automatic bound
  inference (the structured :class:`~repro.core.compile.CompilationError`
  tells the loop exactly which bound to widen);

— and emits a :class:`CompiledAutomaton`: an integer-coded state alphabet,
a table of unique mod/thresh feature atoms (shared across all cascades, so
engines evaluate each feature once per step), and a transition table mapping
``(own-state code, draw)`` to a compiled clause cascade.  All three engines
execute this IR; :meth:`CompiledAutomaton.as_automaton` re-expresses it as a
reference-interpreter automaton so the reference engine runs the very same
programs.

Automata that cannot be lowered raise :class:`LoweringError` (a
``TypeError`` subclass, matching the engines' historic rejection type) with
the genuinely blocking capability in the message — ``api.py`` surfaces that
reason instead of guessing.

Lowering is cached: automaton objects are memoized weakly by identity,
hashable program mappings by value, so a fault sweep constructing hundreds
of engines for one automaton compiles it once
(:func:`lowering_cache_info` / :func:`clear_lowering_cache`).
"""

from __future__ import annotations

import hashlib
import math
import weakref
from collections.abc import Hashable, Mapping
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.compile import CompilationError, compile_rule
from repro.core.convert import parallel_to_sequential, sequential_to_modthresh
from repro.core.modthresh import (
    And,
    ModAtom,
    ModThreshProgram,
    Not,
    Or,
    Proposition,
    ThreshAtom,
    _Const,
)
from repro.core.parallel import ParallelProgram
from repro.core.sequential import SequentialProgram
from repro.core.simplify import prune_cascade

State = Hashable

__all__ = [
    "CompiledAutomaton",
    "CompiledProgram",
    "StepTables",
    "LoweringError",
    "QuotientLoweringError",
    "BackendLoweringError",
    "lower",
    "lowering_cache_info",
    "clear_lowering_cache",
]

#: Ceiling on the Lemma 3.9 class enumeration ∏(t_q + m_q) per own state.
DEFAULT_MAX_CLASSES = 4096

#: Skip cascade pruning when its O(clauses² · domain) work exceeds this.
_PRUNE_WORK_LIMIT = 50_000

#: Bound-inference retry budget (each retry widens exactly one bound).
_MAX_WIDENINGS = 64

#: Most cells (``s·r`` keys × counter vectors) a Lemma 3.8 counter table
#: may have; above it the step kernel runs the cascade.  Tests lower it to
#: force the cascade path.
_COUNTER_TABLE_CAP = 1 << 16


class LoweringError(TypeError):
    """The automaton cannot be lowered to the engine IR.

    Subclasses ``TypeError`` because the vectorized engines historically
    raised ``TypeError`` for rule-based automata; the message names the
    actual blocking capability (no compile hints, untraced queries,
    non-enumerable alphabet, class-table blowup, …).
    """


class QuotientLoweringError(LoweringError):
    """The run cannot take the symmetry-quotient execution path.

    Raised when a quotient lowering is requested (``engine="quotient"``)
    but a precondition fails; ``blocker`` is a stable machine-readable tag
    (``"no-group"``, ``"stale-group"``, ``"init-not-orbit-constant"``,
    ``"fault-plan"``, ``"replicas"``, …) naming the *actual* obstruction,
    and the message spells it out.  ``engine="auto"`` catches these and
    falls back to a full-graph engine instead of surfacing them.
    """

    def __init__(self, message: str, *, blocker: str) -> None:
        super().__init__(message)
        self.blocker = blocker


class BackendLoweringError(LoweringError):
    """The run cannot execute on the requested array backend.

    Raised when a backend is named that cannot take effect; ``blocker``
    is a stable machine-readable tag naming the *actual* obstruction,
    matching the quotient-engine convention: ``"backend-retired"`` for
    the retired ``"numba"``/``"array-api"`` names (so a manifest recorded
    by them replays to this error), ``"reference-engine"`` when a pinned
    backend lands on the reference interpreter.  ``backend="auto"`` never
    raises this.
    """

    def __init__(self, message: str, *, blocker: str) -> None:
        super().__init__(message)
        self.blocker = blocker


class CompiledProgram:
    """One own-state's cascade in IR form.

    ``clauses`` is a tuple of ``(ctree, result_code)`` pairs; ``default``
    is the else-branch result code.  A *ctree* is a nested tuple whose
    leaves reference indices into the automaton's shared atom table:
    ``("atom", i)``, ``("not", c)``, ``("and", (c, …))``, ``("or", (c, …))``
    or ``("const", bool)`` — first-match semantics identical to the source
    :class:`~repro.core.modthresh.ModThreshProgram` (kept in ``source``).
    """

    __slots__ = ("clauses", "default", "source")

    def __init__(self, clauses: tuple, default: int, source: ModThreshProgram):
        self.clauses = clauses
        self.default = default
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledProgram({len(self.clauses)} clauses, default={self.default})"


class StepTables(NamedTuple):
    """Per-IR lookup tables for the array step kernel, derived once.

    Lemma 3.8: a mod-thresh cascade reads, per atom, one neighbour counter,
    so a step only needs the counts of the states some atom names.

    ``feature_states``
        Sorted codes of the alphabet states that appear in some atom — the
        ``F`` count columns a step computes (atoms on states outside the
        alphabet read a constant zero count and need no column).
    ``feature_column``
        ``state → column`` over those states, the ``code`` mapping
        :func:`~repro.runtime.backends.kernels.prop_bool` reads counts by.
    ``lut``
        ``(s·r,)`` successor codes indexed by ``key = code·r + draw``: a
        clause-less program's default, ``code`` itself (hold) for a key the
        table lacks, and the default for the programs with clauses, whose
        nodes are then overwritten by cascade resolution.  Its dtype, the
        narrowest signed integer holding the alphabet, is the dtype the
        array engine stores state codes in.
    ``clause_programs``
        ``((key, CompiledProgram), …)`` for the programs with clauses.
    ``decode``
        The alphabet as an object array: ``decode[codes]`` maps a code
        array back to states in one gather.
    ``counters``
        ``((T, L), …)``, one Lemma 3.8 counter per count column: ``T`` is
        the largest threshold of an atom on that state (0 if none) and
        ``L`` the lcm of its moduli (1 if none).  Every atom on the state
        reads a count ``c`` only through its *counter index* ``c`` if
        ``c < T``, else ``T + (c − T) mod L`` — one of ``T + L`` values,
        and itself a count with the same atom truth values.
    ``counter_table``
        ``(s·r, C)`` successor codes, ``C = ∏(T + L)``: row ``key``,
        column the counter indices of the count columns in row-major
        order, so a step's transition is one gather.  Filled at lowering
        by the cascade itself (:func:`~repro.runtime.backends.kernels.transition`
        on the counter grid), so the two paths cannot disagree.  ``None``
        when ``s·r·C`` exceeds a private cap (for example BFS, whose
        counter space has 2^36 cells); the cascade then runs every step.
    """

    feature_states: np.ndarray
    feature_column: dict
    lut: np.ndarray
    clause_programs: tuple
    decode: np.ndarray
    counters: tuple
    counter_table: Optional[np.ndarray] = None


def _hold(q: State) -> ModThreshProgram:
    """The no-op program padding result-only own states."""
    return ModThreshProgram(clauses=(), default=q)


class CompiledAutomaton:
    """The shared engine IR (see module docstring).

    Attributes
    ----------
    alphabet:
        The integer-coded state alphabet as a tuple (sorted by repr —
        the node order contract shared by every engine).
    code:
        ``state → int`` over ``alphabet``.
    probabilistic / randomness:
        Definition 3.11 parameters (``randomness == 1`` when deterministic).
    atoms:
        Tuple of unique :class:`ThreshAtom` / :class:`ModAtom` features
        referenced by the cascades — the per-state mod/thresh feature
        table.  Engines evaluate each atom once per step and share the
        result across every cascade that mentions it.
    table:
        ``(own-state code, draw) → CompiledProgram``; ``draw`` is always 0
        for deterministic automata.
    """

    def __init__(
        self,
        alphabet: tuple,
        probabilistic: bool,
        randomness: int,
        atoms: tuple,
        table: dict,
        source_programs: dict,
        name: str = "",
    ) -> None:
        self.alphabet = alphabet
        self.code = {q: i for i, q in enumerate(alphabet)}
        self.probabilistic = probabilistic
        self.randomness = randomness
        self.atoms = atoms
        self.table = table
        self.source_programs = source_programs
        self.name = name
        self._content_hash: Optional[str] = None
        self._step_tables: Optional[StepTables] = None

    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable hex digest of the IR content — the automaton identity a
        :class:`~repro.runtime.telemetry.RunManifest` records.

        Covers the coded alphabet, the randomness parameters, the unique
        atom table and every cascade (clauses + defaults); the cosmetic
        ``name`` is excluded.  Computed once and cached on the instance,
        so manifest capture after the first run is a dict lookup.
        """
        if self._content_hash is None:
            h = hashlib.sha256()
            h.update(repr(self.alphabet).encode())
            h.update(
                f"|prob={self.probabilistic}|r={self.randomness}".encode()
            )
            h.update(repr(self.atoms).encode())
            for key in sorted(self.table):
                prog = self.table[key]
                h.update(
                    f"|{key}:{prog.clauses!r}>{prog.default}".encode()
                )
            self._content_hash = h.hexdigest()
        return self._content_hash

    @property
    def step_tables(self) -> StepTables:
        """The kernel's derived :class:`StepTables`, built on first use.

        Derived from the fields :meth:`content_hash` covers, so they are
        not hashed themselves.
        """
        if self._step_tables is None:
            from repro.runtime.backends.kernels import narrow_int, transition

            s, r = len(self.alphabet), self.randomness
            used = {a.state for a in self.atoms}
            feature_states = np.array(
                [c for c, q in enumerate(self.alphabet) if q in used],
                dtype=np.int64,
            )
            lut = np.repeat(np.arange(s, dtype=narrow_int(s - 1)), r)  # hold
            clause_programs = []
            for (qc, draw), prog in self.table.items():
                if draw >= r:  # never drawn
                    continue
                key = qc * r + draw
                lut[key] = prog.default
                if prog.clauses:
                    clause_programs.append((key, prog))
            decode = np.empty(s, dtype=object)
            for c, q in enumerate(self.alphabet):
                decode[c] = q  # element-wise: tuple states stay scalars
            counters = tuple(
                self._counter(self.alphabet[c]) for c in feature_states.tolist()
            )
            # the cascade-only tables are complete: the fill below runs
            # the cascade through them
            self._step_tables = StepTables(
                feature_states=feature_states,
                feature_column={
                    self.alphabet[c]: j
                    for j, c in enumerate(feature_states.tolist())
                },
                lut=lut,
                clause_programs=tuple(clause_programs),
                decode=decode,
                counters=counters,
            )
            sizes = [t + period for t, period in counters]
            cols = math.prod(sizes)
            if s * r * cols <= _COUNTER_TABLE_CAP:
                # every (key, counter vector) pair, the counter indices
                # standing in as counts
                grid = np.indices(sizes).reshape(len(sizes), cols).T
                keys = np.arange(s * r)
                codes = np.repeat(keys // r, cols).astype(lut.dtype)
                draws = np.repeat(keys % r, cols) if self.probabilistic else None
                table = transition(
                    self, np.tile(grid, (s * r, 1)), codes, None, draws
                ).reshape(s * r, cols)
                self._step_tables = self._step_tables._replace(
                    counter_table=table
                )
        return self._step_tables

    def _counter(self, q: State) -> tuple[int, int]:
        """``(T, L)`` of state ``q``: its largest threshold and the lcm of
        its moduli over the atom table."""
        return (
            max((a.threshold for a in self.atoms
                 if isinstance(a, ThreshAtom) and a.state == q), default=0),
            math.lcm(*(a.modulus for a in self.atoms
                       if isinstance(a, ModAtom) and a.state == q)),
        )

    def program_for(self, q: State, draw: int = 0) -> Optional[CompiledProgram]:
        """The compiled cascade for ``(q, draw)``, or None (hold state)."""
        return self.table.get((self.code[q], draw))

    def as_automaton(self) -> Union[FSSGA, ProbabilisticFSSGA]:
        """Re-express the IR as a reference-interpreter automaton.

        Result-only states (no cascade of their own) get hold programs, so
        the reference engine and the vectorized engines execute identical
        semantics — this is what makes the three engines one IR runtime.
        """
        if self.probabilistic:
            full = {
                (q, i): self.source_programs.get((q, i), _hold(q))
                for q in self.alphabet
                for i in range(self.randomness)
            }
            return ProbabilisticFSSGA(
                frozenset(self.alphabet), self.randomness, full, name=self.name
            )
        full = {
            q: self.source_programs.get(q, _hold(q)) for q in self.alphabet
        }
        return FSSGA(frozenset(self.alphabet), full, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = f"r={self.randomness}" if self.probabilistic else "det"
        return (
            f"CompiledAutomaton(|Q|={len(self.alphabet)}, {kind}, "
            f"{len(self.atoms)} atoms, {len(self.table)} cascades)"
        )


# ----------------------------------------------------------------------
# proposition → ctree interning (atom-table common-subexpression sharing)
# ----------------------------------------------------------------------
def _intern(prop: Proposition, atoms: list, index: dict) -> tuple:
    if isinstance(prop, (ThreshAtom, ModAtom)):
        i = index.get(prop)
        if i is None:
            i = len(atoms)
            atoms.append(prop)
            index[prop] = i
        return ("atom", i)
    if isinstance(prop, Not):
        return ("not", _intern(prop.child, atoms, index))
    if isinstance(prop, And):
        return ("and", tuple(_intern(c, atoms, index) for c in prop.children))
    if isinstance(prop, Or):
        return ("or", tuple(_intern(c, atoms, index) for c in prop.children))
    if isinstance(prop, _Const):
        return ("const", prop.evaluate(None))
    raise LoweringError(f"unexpected proposition {prop!r}")


# ----------------------------------------------------------------------
# front-end form → ModThreshProgram dict
# ----------------------------------------------------------------------
def _to_modthresh(prog: object, conversion_alphabet: list) -> ModThreshProgram:
    """Lower one FSM program to mod-thresh form (Theorem 3.7)."""
    if isinstance(prog, ModThreshProgram):
        return prog
    if isinstance(prog, SequentialProgram):
        return sequential_to_modthresh(prog, conversion_alphabet)
    if isinstance(prog, ParallelProgram):
        return sequential_to_modthresh(
            parallel_to_sequential(prog), conversion_alphabet
        )
    raise LoweringError(
        f"cannot lower program of type {type(prog).__name__}: expected "
        f"ModThreshProgram, SequentialProgram or ParallelProgram"
    )


def _lower_program_dict(
    programs: Mapping,
    probabilistic: bool,
    randomness: int,
    conversion_alphabet: list,
    name: str,
) -> CompiledAutomaton:
    """Assemble the IR from a mapping of (already typed) FSM programs."""
    mt: dict = {}
    for key, prog in programs.items():
        mt[key] = _to_modthresh(prog, conversion_alphabet)

    own_states = {k[0] for k in mt} if probabilistic else set(mt)
    alphabet_set = set(own_states)
    for prog in mt.values():
        alphabet_set.update(prog.results())
    alphabet = tuple(sorted(alphabet_set, key=repr))
    code = {q: i for i, q in enumerate(alphabet)}

    atoms: list = []
    index: dict = {}
    table: dict = {}
    for key, prog in mt.items():
        q, draw = key if probabilistic else (key, 0)
        clauses = tuple(
            (_intern(p, atoms, index), code[r]) for p, r in prog.clauses
        )
        table[(code[q], draw)] = CompiledProgram(
            clauses, code[prog.default], prog
        )
    return CompiledAutomaton(
        alphabet=alphabet,
        probabilistic=probabilistic,
        randomness=randomness,
        atoms=tuple(atoms),
        table=table,
        source_programs=mt,
        name=name,
    )


# ----------------------------------------------------------------------
# rule-based lowering: checked Lemma 3.9 compilation with bound inference
# ----------------------------------------------------------------------
def _infer_and_compile(
    rule, states: list, own: State, hints: Mapping
) -> ModThreshProgram:
    """Compile ``rule`` for ``own``, widening declared bounds on demand.

    Starts from the hinted (or minimal) per-state bounds and retries on
    structured :class:`CompilationError`: a thresh violation raises that
    state's threshold bound to the queried ``t``, a mod violation lifts the
    modulus to the lcm.  Unrecoverable violations (support / group /
    unknown-state queries) and class-table blowups become
    :class:`LoweringError`.
    """
    t0 = int(hints.get("max_threshold", 1))
    m0 = int(hints.get("modulus", 1))
    psb = hints.get("per_state_bounds") or {}
    cap = int(hints.get("max_classes", DEFAULT_MAX_CLASSES))
    bounds = {s: tuple(psb.get(s, (t0, m0))) for s in states}
    for _ in range(_MAX_WIDENINGS):
        n_classes = 1
        for t, m in bounds.values():
            n_classes *= t + m
        if n_classes > cap:
            raise LoweringError(
                f"Lemma 3.9 enumeration for own={own!r} needs {n_classes} "
                f"multiplicity classes (> max_classes={cap}); the alphabet "
                f"or query bounds are too large to compile"
            )
        try:
            return compile_rule(rule, states, own, per_state_bounds=bounds)
        except CompilationError as exc:
            if exc.kind == "thresh" and exc.needed is not None:
                t, m = bounds[exc.state]
                if exc.needed <= t:
                    raise LoweringError(str(exc)) from exc
                bounds[exc.state] = (exc.needed, m)
            elif exc.kind == "mod" and exc.needed is not None:
                t, m = bounds[exc.state]
                widened = math.lcm(m, exc.needed)
                if widened == m:
                    raise LoweringError(str(exc)) from exc
                bounds[exc.state] = (t, widened)
            else:
                raise LoweringError(
                    f"rule-based automaton is not compilable: {exc}"
                ) from exc
    raise LoweringError(
        f"bound inference for own={own!r} did not converge within "
        f"{_MAX_WIDENINGS} widenings"
    )


def _maybe_prune(prog: ModThreshProgram, states: list) -> ModThreshProgram:
    """Prune the compiled cascade when doing so is cheap.

    The Lemma 3.9 enumeration emits ∏(t+m) clauses, most of them shadowed
    or default-equivalent; pruning is exact over the bounded verification
    domain (`repro.core.simplify`), so semantics — and cross-engine
    conformance — are unchanged.  Its greedy pass is O(clauses² · domain),
    so big cascades are left as-emitted rather than spending seconds at
    compile time to shave per-step np.select calls."""
    from repro.core.simplify import verification_bound

    try:
        bound = verification_bound(prog)
    except ValueError:  # pragma: no cover - defensive
        return prog
    work = len(prog.clauses) ** 2 * (bound + 1) ** len(states)
    if work > _PRUNE_WORK_LIMIT:
        return prog
    return prune_cascade(prog, states)


def _lower_rule_based(
    aut: Union[FSSGA, ProbabilisticFSSGA]
) -> CompiledAutomaton:
    hints = aut.compile_hints
    if hints is None:
        raise LoweringError(
            "rule-based automaton has no compile_hints: only rules declared "
            "compilable (FSSGA(..., compile_hints=...)) are lowered via the "
            "Lemma 3.9 enumeration; undeclared rules run on the reference "
            "interpreter"
        )
    if not isinstance(aut.alphabet, frozenset):
        raise LoweringError(
            "rule-based automaton has a lazy (non-enumerable) alphabet; "
            "the Lemma 3.9 enumeration needs a finite explicit Q"
        )
    states = sorted(aut.alphabet, key=repr)
    probabilistic = isinstance(aut, ProbabilisticFSSGA)
    randomness = aut.randomness if probabilistic else 1

    compiled: dict = {}
    if probabilistic:
        for i in range(randomness):
            det_rule = lambda own, view, _i=i: aut._rule(own, view, _i)
            for q in states:
                prog = _infer_and_compile(det_rule, states, q, hints)
                compiled[(q, i)] = _maybe_prune(prog, states)
    else:
        for q in states:
            prog = _infer_and_compile(aut._rule, states, q, hints)
            compiled[q] = _maybe_prune(prog, states)

    ca = _lower_program_dict(
        compiled, probabilistic, randomness, states, aut.name
    )
    # rule outputs are validated against Q at transition time; the compiled
    # table inherits that, but the coded alphabet must still span all of Q
    # (a rule may never *output* some state that nodes can start in).
    if set(ca.alphabet) != set(states):
        return _widen_alphabet(ca, states)
    return ca


def _widen_alphabet(ca: CompiledAutomaton, states: list) -> CompiledAutomaton:
    """Re-code a compiled automaton over the full alphabet ``states``."""
    alphabet = tuple(sorted(set(states) | set(ca.alphabet), key=repr))
    code = {q: i for i, q in enumerate(alphabet)}
    old_decode = {i: q for q, i in ca.code.items()}
    table = {}
    for (qc, draw), prog in ca.table.items():
        clauses = tuple(
            (tree, code[old_decode[r]]) for tree, r in prog.clauses
        )
        table[(code[old_decode[qc]], draw)] = CompiledProgram(
            clauses, code[old_decode[prog.default]], prog.source
        )
    return CompiledAutomaton(
        alphabet=alphabet,
        probabilistic=ca.probabilistic,
        randomness=ca.randomness,
        atoms=ca.atoms,
        table=table,
        source_programs=ca.source_programs,
        name=ca.name,
    )


# ----------------------------------------------------------------------
# the compile-once cache
# ----------------------------------------------------------------------
_AUTOMATON_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MAPPING_CACHE: dict = {}
_MAPPING_CACHE_LIMIT = 256
_STATS = {"hits": 0, "misses": 0}


def lowering_cache_info() -> dict:
    """Hit/miss counters and current cache sizes (for tests/benchmarks)."""
    return {
        "hits": _STATS["hits"],
        "misses": _STATS["misses"],
        "automata": len(_AUTOMATON_CACHE),
        "mappings": len(_MAPPING_CACHE),
    }


def clear_lowering_cache() -> None:
    """Drop every cached lowering and reset the counters."""
    _AUTOMATON_CACHE.clear()
    _MAPPING_CACHE.clear()
    _STATS["hits"] = 0
    _STATS["misses"] = 0


# ----------------------------------------------------------------------
# the front door of the compiler
# ----------------------------------------------------------------------
def lower(
    automaton: Union[Mapping, FSSGA, ProbabilisticFSSGA, CompiledAutomaton],
    randomness: Optional[int] = None,
) -> CompiledAutomaton:
    """Lower any supported automaton form to the shared engine IR.

    Raises :class:`LoweringError` (a ``TypeError``) when no lowering
    exists, with the blocking capability in the message.
    """
    if isinstance(automaton, CompiledAutomaton):
        return automaton

    if isinstance(automaton, (FSSGA, ProbabilisticFSSGA)):
        cached = _AUTOMATON_CACHE.get(automaton)
        if cached is not None:
            _STATS["hits"] += 1
            return cached
        _STATS["misses"] += 1
        if automaton.is_rule_based:
            ca = _lower_rule_based(automaton)
        else:
            probabilistic = isinstance(automaton, ProbabilisticFSSGA)
            r = automaton.randomness if probabilistic else 1
            if isinstance(automaton.alphabet, frozenset):
                conv = sorted(automaton.alphabet, key=repr)
            else:
                keys = automaton._programs.keys()
                own = {k[0] for k in keys} if probabilistic else set(keys)
                conv = sorted(own, key=repr)
            ca = _lower_program_dict(
                automaton._programs, probabilistic, r, conv, automaton.name
            )
        _AUTOMATON_CACHE[automaton] = ca
        return ca

    if isinstance(automaton, Mapping):
        if not automaton:
            raise LoweringError("cannot lower an empty program mapping")
        try:
            cache_key = (frozenset(automaton.items()), randomness)
        except TypeError:
            cache_key = None
        if cache_key is not None:
            cached = _MAPPING_CACHE.get(cache_key)
            if cached is not None:
                _STATS["hits"] += 1
                return cached
        _STATS["misses"] += 1

        keys = list(automaton.keys())
        probabilistic = isinstance(keys[0], tuple) and randomness is not None
        if probabilistic:
            if randomness < 1:
                raise ValueError("probabilistic programs need randomness >= 1")
            r = int(randomness)
            own = {k[0] for k in keys}
        else:
            r = 1
            own = set(keys)
        conv = sorted(own, key=repr)
        ca = _lower_program_dict(dict(automaton), probabilistic, r, conv, "")
        if cache_key is not None:
            if len(_MAPPING_CACHE) >= _MAPPING_CACHE_LIMIT:
                _MAPPING_CACHE.pop(next(iter(_MAPPING_CACHE)))
            _MAPPING_CACHE[cache_key] = ca
        return ca

    raise LoweringError(
        f"cannot lower {type(automaton).__name__}: expected a program "
        f"mapping, FSSGA, ProbabilisticFSSGA or CompiledAutomaton"
    )
