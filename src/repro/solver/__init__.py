"""Constraint solver used as the backend of symbolic execution.

The paper uses Z3 as its constraint solver.  Z3 is not available in this
environment, so this package implements a purpose-built SMT-lite solver that
decides exactly the constraint fragment SEFL programs emit:

* terms: variables of fixed bit width, integer constants, ``var +/- const``
  offsets and ``var - var`` differences;
* atoms: equality, disequality and ordering comparisons between terms;
* formulas: arbitrary boolean combinations (``And`` / ``Or`` / ``Not``) of
  atoms.

The solver combines three engines:

* :mod:`repro.solver.intervals` — interval-set domains (used for constraints
  between a variable and constants, including the very large "one of these
  500 000 MAC addresses" disjunctions emitted by switch models);
* a union-find over variable equalities plus difference-bound propagation
  (used by invariance checks and NAT/stateful-firewall models);
* a DPLL-style case split for disjunctions that mix several variables.

It also produces *models* (concrete satisfying assignments), which the
conformance-testing framework of the paper (§8.3) needs in order to derive
test packets from symbolic paths.
"""

from repro.solver.ast import (
    Add,
    And,
    BoolFalse,
    BoolTrue,
    Const,
    Eq,
    FALSE,
    Formula,
    Ge,
    Gt,
    Le,
    Lt,
    Member,
    Ne,
    Not,
    Or,
    Sub,
    Term,
    Var,
    conjoin,
    disjoin,
)
from repro.solver.canonical import CanonicalForm, canonical_fingerprint, canonical_form
from repro.solver.form import PathCondition
from repro.solver.incremental import IncrementalSolver, SolverContext
from repro.solver.intervals import Interval, IntervalSet
from repro.solver.result import SolverResult, SolverStats
from repro.solver.solver import Solver
from repro.solver.verdict_cache import (
    CacheConflictError,
    CacheCorruptionError,
    VerdictCache,
    resolve_verdict,
)

__all__ = [
    "Add",
    "And",
    "BoolFalse",
    "BoolTrue",
    "CacheConflictError",
    "CacheCorruptionError",
    "CanonicalForm",
    "Const",
    "Eq",
    "FALSE",
    "Formula",
    "Ge",
    "Gt",
    "IncrementalSolver",
    "Interval",
    "IntervalSet",
    "Le",
    "Lt",
    "Member",
    "Ne",
    "Not",
    "Or",
    "PathCondition",
    "Solver",
    "SolverContext",
    "SolverResult",
    "SolverStats",
    "Sub",
    "Term",
    "Var",
    "VerdictCache",
    "canonical_fingerprint",
    "canonical_form",
    "conjoin",
    "disjoin",
    "resolve_verdict",
]
