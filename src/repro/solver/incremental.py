"""Incremental satisfiability: cheap answers off a path condition's solved
form, and a verdict memo in front of the full solve.

The symbolic execution engine accumulates path constraints one conjunct at a
time, and at every branch point it asks "is the conjunction still
satisfiable?".  Re-normalising and re-propagating the *entire* conjunction
each time makes the per-branch cost grow linearly with path length
(quadratic over a whole path); a :class:`~repro.solver.form.PathCondition`
keeps the committed prefix in solved form instead, and
:meth:`IncrementalSolver.check` reads the answer off it, cheapest tier first:

1. if domain propagation already emptied a variable's domain the condition
   is known unsat — no solver work at all (counted as a *fast path*);
2. if the residual is empty, the constraints are exactly the per-variable
   domains, which are non-empty by construction — satisfiable, again without
   a solver call (also a fast path);
3. otherwise the base solver decides the residual, starting from the solved
   form, behind a memoization cache keyed on the exact (order- and
   duplicate-insensitive) set of conjuncts, with hit/miss counters recorded
   in :class:`repro.solver.result.SolverStats`.

A path condition belongs to its caller (the engine's state holds one per
path) and is handed to :meth:`~IncrementalSolver.check`,
:meth:`~IncrementalSolver.probe` or :meth:`~IncrementalSolver.probe_member`;
the solver keeps no per-path data, only the verdict memo and the counters.

Verdict parity with ``Solver.check`` holds by construction: a from-scratch
check builds the same form from the same formulas and decides it with the
same :meth:`Solver.decide` tier 3 calls, and tiers 1 and 2 are that call's
own first two answers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.solver.ast import Formula, Member, Var
from repro.obs.trace import get_tracer
from repro.solver.canonical import canonical_fingerprint
from repro.solver.form import PathCondition
from repro.solver.intervals import IntervalSet
from repro.solver.result import SolverResult, SolverStats
from repro.solver.solver import Solver
from repro.solver.verdict_cache import VerdictCache

#: The verdicts tiers 1 and 2 answer with: one shared object each, so an
#: answer read off the solved form allocates nothing (results are frozen).
SAT = SolverResult(verdict="sat")
UNSAT = SolverResult(verdict="unsat")


class IncrementalSolver:
    """Answers satisfiability questions about a :class:`PathCondition`
    (which belongs to no solver), behind a verdict cache.

    Wraps a base :class:`Solver`; all statistics (including cache and
    fast-path counters) accumulate in ``base.stats``, the one place they
    are read.

    Full solves are memoized in a :class:`VerdictCache` keyed on
    :func:`canonical_fingerprint`, SHA-256 over the exact conjunct set, so
    paths that assert the same conjuncts — in any order, any number of
    times — share one entry; the cache also memoises each set's key.  Passing
    ``verdict_cache`` lets many solvers (e.g. every job a campaign worker
    runs) share one persistent cache and key memo; ``shared_cache`` adds
    an optional cross-process tier (any dict-like object, typically a
    ``multiprocessing.Manager().dict()``) consulted on local misses and fed
    on full solves, each ``get`` or store one counted round-trip.
    ``paranoid`` re-verifies every local hit against a from-scratch solve —
    a debug tripwire used by the mutation tests.
    Without ``verdict_cache`` the solver gets a cache of its own, bounded
    at 10,000 entries.
    """

    def __init__(
        self,
        base: Optional[Solver] = None,
        verdict_cache: Optional[VerdictCache] = None,
        shared_cache: Optional[object] = None,
        paranoid: bool = False,
    ) -> None:
        self.base = base if base is not None else Solver()
        self.cache = (
            verdict_cache
            if verdict_cache is not None
            else VerdictCache(max_entries=10_000)
        )
        self.shared = shared_cache
        self.paranoid = paranoid

    @property
    def stats(self) -> SolverStats:
        return self.base.stats

    # -- memoized full checks --------------------------------------------------

    def check(self, form: PathCondition) -> SolverResult:
        """Satisfiability of a path condition, cheapest tier first (see the
        module docstring)."""
        if form.unsat:
            self.stats.record_fast_path()
            return UNSAT
        if not form.residual:
            # Pure per-variable domains, all non-empty: trivially satisfiable.
            self.stats.record_fast_path()
            return SAT
        return self._memoized(form.conjuncts(), lambda: self.base.decide(form))

    def probe(self, form: PathCondition, formula: Formula,
              steps: Optional[Sequence[tuple]] = None) -> SolverResult:
        """Satisfiability of ``form ∧ formula``, leaving ``form`` as it was:
        ``push / assume / check / pop``, the assumption applied as its
        compiled ``steps`` (:meth:`PathCondition.compile`) when the caller
        has them.  A caller that knows ``formula`` is the atom
        ``var ∈ allowed`` asks :meth:`probe_member` instead."""
        form.push()
        try:
            if steps is None:
                form.assume(formula)
            else:
                form.apply(formula, steps)
            return self.check(form)
        finally:
            form.pop()

    def probe_member(
        self,
        form: PathCondition,
        var: Var,
        allowed: IntervalSet,
    ) -> Tuple[SolverResult, Optional[IntervalSet]]:
        """:meth:`probe` of the atom ``var ∈ allowed`` (built as a formula
        only if tier 3 needs it), plus the domain the atom leaves ``var``
        with — what a branch that goes on to assume it passes to
        :meth:`PathCondition.assume_member`, so the intersection is worked
        out once (``None`` when ``form`` is unsat already).  The first two
        tiers, counted exactly as ``check`` would have, are read off the
        solved form without opening a scope or classifying anything."""
        stats = self.base.stats
        if form.unsat:
            stats.record_fast_path()
            return UNSAT, None
        domain = form.domains.get(var)
        if domain is None:
            domain = IntervalSet.full(var.width)
        narrowed = domain.intersection(allowed)
        if narrowed.is_empty():
            stats.record_fast_path()
            return UNSAT, narrowed
        if not form.residual:
            stats.record_fast_path()
            return SAT, narrowed
        form.push()
        try:
            form.assume_member(Member(var, allowed), var, allowed, narrowed)
            return self.check(form), narrowed
        finally:
            form.pop()

    def check_cached(self, conjuncts: List[Formula]) -> SolverResult:
        """Memoized from-scratch solve of a conjunct list."""
        return self._memoized(conjuncts, lambda: self.base.check(list(conjuncts)))

    def _memoized(
        self, conjuncts: List[Formula], solve: Callable[[], SolverResult]
    ) -> SolverResult:
        """The verdict filed under ``conjuncts``' fingerprint, or
        ``solve()``'s, filed for the next caller."""
        exact = frozenset(conjuncts)
        key = self.cache.exact_key(exact)
        if key == "unknown":
            self.stats.record_cache_hit()
            return SolverResult(verdict="unknown")
        if key is None:  # first sight in this cache's (worker's) lifetime
            key = canonical_fingerprint(conjuncts)
            self.cache.remember_exact(exact, key)
        verdict = self.cache.get(key)
        if verdict == "unknown":
            # Entries injected by merge/warm maps may carry "unknown";
            # serving one would suppress the very solve that could upgrade
            # it (and diverge from an uncached run).  Treat as a miss.
            verdict = None
        if verdict is not None:
            if self.paranoid:
                self.cache.verify_entry(key, conjuncts)
            self.stats.record_cache_hit()
            return SolverResult(verdict=verdict)
        if self.shared is not None:
            self.stats.record_shared_round_trip()
            try:
                verdict = self.shared.get(key)
            except Exception:
                # Broken proxy (manager gone, pipe closed): degrade to the
                # local tiers for the rest of this solver's lifetime.  The
                # counter keeps the degrade observable — answers stay
                # correct, the shared tier's speedup is what was lost.
                verdict = None
                self.shared = None
                self.stats.record_degraded_operation()
            if verdict == "unknown":
                verdict = None
            if verdict is not None:
                # Promote into the local cache; it counts as a fresh entry
                # so campaign jobs report verdicts they imported this way.
                self.cache.put(key, verdict)
                self.stats.record_shared_cache_hit()
                return SolverResult(verdict=verdict)
        self.stats.record_cache_miss()
        tracer = get_tracer()
        if tracer.enabled:
            # Trace only full solves: they carry essentially all the solver
            # wall time, and fast paths / cache hits are far too many to
            # record span-per-check.  Guarding on ``enabled`` keeps the
            # untraced hot path free of even the kwargs dict.
            with tracer.span("solver.check", conjuncts=len(conjuncts)):
                result = solve()
        else:
            result = solve()
        if result.verdict == "unknown":
            # Incompleteness, not an answer: budgets are consumed in
            # conjunct order, so a later run handed this set in another
            # order might solve it definitively.  Memoize it only in this
            # process's exact-set memo, never as a verdict to publish.
            self.cache.remember_exact(exact, "unknown")
            return result
        self.cache.put(
            key,
            result.verdict,
            witness=list(conjuncts) if self.cache.debug else None,
        )
        if self.shared is not None:
            self.stats.record_shared_round_trip()
            try:
                self.shared[key] = result.verdict
            except Exception:
                self.shared = None
                self.stats.record_degraded_operation()
        return result
