"""Top-level satisfiability interface.

:class:`Solver` plays the role Z3 plays in the paper: SymNet hands it the
conjunction of all constraints accumulated along an execution path and asks
whether the path is feasible, optionally requesting a concrete model (used by
the conformance-testing framework to build test packets).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.solver.ast import (
    And,
    BoolFalse,
    BoolTrue,
    Eq,
    Formula,
    Ge,
    Gt,
    Le,
    Lt,
    Member,
    Ne,
    Not,
    Or,
    Var,
    formula_size,
)
from repro.solver.form import PathCondition
from repro.solver.result import SolverResult, SolverStats
from repro.solver.theory import TheorySolver

_FORMULA_NODES = (
    Eq, Ne, Lt, Le, Gt, Ge, Member, And, Or, Not, BoolTrue, BoolFalse,
)


class Solver:
    """Decide boolean combinations of SEFL-fragment constraints.

    Parameters
    ----------
    max_case_splits:
        Upper bound on the number of disjunction branches explored before the
        solver gives up and reports "unknown".  Network models keep mixed
        disjunctions tiny, so the default is generous.
    model_search_budget:
        Budget for the concrete-assignment search used to back "sat" answers
        and to produce models.
    """

    def __init__(
        self,
        max_case_splits: int = 20_000,
        model_search_budget: int = 256,
        stats: Optional[SolverStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else SolverStats()
        self._max_case_splits = max_case_splits
        self._theory = TheorySolver(model_search_budget=model_search_budget)

    # -- public API -----------------------------------------------------------

    def check(
        self,
        constraints: Union[Formula, Sequence[Formula]],
        want_model: bool = False,
    ) -> SolverResult:
        """Check satisfiability of ``constraints`` (a formula, or any
        iterable of formulas taken as their conjunction) from scratch: a
        fresh path condition, everything assumed, the residual decided."""
        if isinstance(constraints, _FORMULA_NODES):
            constraints = (constraints,)
        form = PathCondition()
        for formula in constraints:
            form.assume(formula)
        return self.decide(form, want_model)

    def probe(self, form: PathCondition, formula: Formula, atom=None) -> SolverResult:
        """Satisfiability of ``form ∧ formula`` from scratch, leaving ``form``
        as it was — the reference for :meth:`IncrementalSolver.probe`, which
        may take ``atom``'s word for what ``formula`` is; this one does not."""
        form.push()
        try:
            form.assume(formula)
            return self.check(form.formulas)
        finally:
            form.pop()

    def decide(self, form: PathCondition, want_model: bool = False) -> SolverResult:
        """Full solve of a path condition, starting from its solved form:
        the theory solver on the domains and residual atoms, a DPLL case
        split over the residual's mixed disjunctions.  ``form`` is used as
        the split's scratch space (``push``/``pop``) and left as found."""
        start = time.perf_counter()
        splits = [0]
        # Most recently asserted first, so the stable smallest-first sort
        # keeps breaking ties the way it always has.
        pending = [item for item in reversed(form.residual) if isinstance(item, Or)]
        verdict, model = self._split(form, pending, want_model, splits)
        atoms = sum(formula_size(formula) for formula in form.formulas)
        self.stats.record(verdict, time.perf_counter() - start, atoms, splits[0])
        named_model = None
        if model is not None:
            named_model = {var.name: value for var, value in model.items()}
        return SolverResult(verdict=verdict, model=named_model)

    def is_satisfiable(
        self, constraints: Union[Formula, Sequence[Formula]]
    ) -> bool:
        """Convenience wrapper treating "unknown" as satisfiable.

        The symbolic execution engine is conservative: a path is only killed
        when its constraints are *provably* unsatisfiable.
        """
        return not self.check(constraints).is_unsat

    def get_model(
        self, constraints: Union[Formula, Sequence[Formula]]
    ) -> Optional[Dict[str, int]]:
        """Return a satisfying assignment, or ``None`` if unsat/unknown."""
        result = self.check(constraints, want_model=True)
        if result.is_sat:
            return result.model
        return None

    # -- internals ------------------------------------------------------------

    def _split(
        self,
        form: PathCondition,
        pending: List[Or],
        want_model: bool,
        splits: List[int],
    ) -> Tuple[str, Optional[Dict[Var, int]]]:
        """Decide ``form`` with the disjunctions in ``pending`` still to be
        case-split (the others in its residual already are)."""
        if not pending:
            return self._theory.decide(form, want_model)

        # Quick feasibility check of the non-disjunctive part before splitting.
        if self._theory.decide(form)[0] == "unsat":
            return "unsat", None

        # DPLL-style case split over the smallest disjunction first.
        pending.sort(key=lambda d: len(d.operands))
        chosen, rest = pending[0], pending[1:]
        saw_unknown = False
        for branch in chosen.operands:
            if splits[0] >= self._max_case_splits:
                return "unknown", None
            splits[0] += 1
            mark = len(form.residual)
            form.push()
            try:
                form.assume(branch)
                opened = [
                    item for item in form.residual[mark:] if isinstance(item, Or)
                ]
                # Again most recent first: the branch's own, then the rest.
                verdict, model = self._split(
                    form, (rest + opened)[::-1], want_model, splits
                )
            finally:
                form.pop()
            if verdict == "sat":
                return "sat", model
            if verdict == "unknown":
                saw_unknown = True
        # No branch is satisfiable — provably, unless one was undecided (a
        # residual atom outside the fragment makes every leaf "unknown" at
        # best, so the split can then never answer "sat").
        return ("unknown", None) if saw_unknown else ("unsat", None)
