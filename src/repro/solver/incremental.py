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
   form, behind a memoization cache keyed on the canonicalized (order- and
   duplicate-insensitive) set of conjuncts, with hit/miss counters recorded
   in :class:`repro.solver.result.SolverStats`.

Verdict parity with ``Solver.check`` holds by construction: a from-scratch
check builds the same form from the same formulas and decides it with the
same :meth:`Solver.decide` tier 3 calls, and tiers 1 and 2 are that call's
own first two answers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.solver.ast import Formula, Var
from repro.obs.trace import get_tracer
from repro.solver.canonical import canonical_fingerprint
from repro.solver.form import PathCondition
from repro.solver.intervals import IntervalSet
from repro.solver.result import SolverResult, SolverStats
from repro.solver.solver import Solver
from repro.solver.verdict_cache import VerdictCache


class SolverContext(PathCondition):
    """A path condition that knows which solver answers its ``check()``."""

    __slots__ = ("owner",)

    def __init__(self, owner: "IncrementalSolver") -> None:
        super().__init__()
        self.owner = owner

    def clone(self) -> "SolverContext":
        copy = super().clone()
        copy.owner = self.owner
        return copy

    def check(self, want_model: bool = False) -> SolverResult:
        """Satisfiability of everything asserted so far."""
        return self.owner.check(self, want_model)


class IncrementalSolver:
    """Factory for :class:`SolverContext` plus a canonical verdict cache.

    Wraps a base :class:`Solver`; all statistics (including cache and
    fast-path counters) accumulate in ``base.stats`` so existing
    instrumentation keeps working.

    Full solves are memoized in a :class:`VerdictCache` keyed on the
    alpha-renaming-invariant :func:`canonical_fingerprint` of the conjunct
    set, so structurally similar paths — different variable names, shuffled
    conjunct order, linear-arithmetic variants of the same atoms — share one
    entry; the cache also memoises each exact set's key.  Passing
    ``verdict_cache`` lets many solvers (e.g. every job a campaign worker
    runs) share one persistent cache and key memo; ``shared_cache`` adds
    an optional cross-process tier (any dict-like object, typically a
    ``multiprocessing.Manager().dict()``) consulted on local misses and fed
    on full solves.  ``paranoid`` re-verifies every local hit against a
    from-scratch solve — a debug tripwire used by the mutation tests.
    """

    def __init__(
        self,
        base: Optional[Solver] = None,
        max_cache_entries: int = 10_000,
        verdict_cache: Optional[VerdictCache] = None,
        shared_cache: Optional[object] = None,
        paranoid: bool = False,
    ) -> None:
        self.base = base if base is not None else Solver()
        self.cache = (
            verdict_cache
            if verdict_cache is not None
            else VerdictCache(max_entries=max_cache_entries)
        )
        self.shared = shared_cache
        if shared_cache is not None and hasattr(shared_cache, "bind_stats"):
            # A sharded tier (repro.store.sharding) reports its round-trip
            # and batched-publish counters through this solver's stats.
            shared_cache.bind_stats(self.base.stats)
        self.paranoid = paranoid
        # Per-instance counters (SolverStats aggregates across every
        # IncrementalSolver sharing the base solver).
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> SolverStats:
        return self.base.stats

    def context(self) -> SolverContext:
        return SolverContext(self)

    # -- memoized full checks --------------------------------------------------

    def check(self, form: PathCondition, want_model: bool = False) -> SolverResult:
        """Satisfiability of a path condition, cheapest tier first (see the
        module docstring)."""
        if form.unsat:
            self.stats.record_fast_path()
            return SolverResult(verdict="unsat")
        if want_model:
            return self.base.decide(form, want_model=True)
        if not form.residual:
            # Pure per-variable domains, all non-empty: trivially satisfiable.
            self.stats.record_fast_path()
            return SolverResult(verdict="sat")
        return self._memoized(form.conjuncts(), lambda: self.base.decide(form))

    def probe(
        self,
        form: PathCondition,
        formula: Formula,
        atom: Optional[Tuple[Var, IntervalSet]] = None,
    ) -> SolverResult:
        """Satisfiability of ``form ∧ formula``, leaving ``form`` as it was:
        ``push / assume / check / pop``.  A caller that knows ``formula`` is
        the atom ``var ∈ allowed`` passes it as ``atom``, and the first two
        tiers — counted exactly as ``check`` would have — are read off the
        solved form without opening a scope or classifying anything."""
        if atom is not None:
            var, allowed = atom
            domain = form.domains.get(var)
            if domain is None:
                domain = IntervalSet.full(var.width)
            if form.unsat or domain.intersection(allowed).is_empty():
                self.stats.record_fast_path()
                return SolverResult(verdict="unsat")
            if not form.residual:
                self.stats.record_fast_path()
                return SolverResult(verdict="sat")
        form.push()
        try:
            if atom is None:
                form.assume(formula)
            else:
                form.assume_member(formula, *atom)
            return self.check(form)
        finally:
            form.pop()

    def check_cached(self, conjuncts: List[Formula]) -> SolverResult:
        """Memoized from-scratch solve of a conjunct list."""
        return self._memoized(conjuncts, lambda: self.base.check(list(conjuncts)))

    def _memoized(
        self, conjuncts: List[Formula], solve: Callable[[], SolverResult]
    ) -> SolverResult:
        """The verdict filed under ``conjuncts``' canonical fingerprint, or
        ``solve()``'s, filed for the next caller."""
        exact = frozenset(conjuncts)
        key = self.cache.exact_key(exact)
        if key == "unknown":
            self._hits += 1
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
            self._hits += 1
            self.stats.record_cache_hit()
            return SolverResult(verdict=verdict)
        if self.shared is not None:
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
        self._misses += 1
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
            # conjunct order, so an alpha-variant of this set might solve
            # definitively.  Memoize only under the exact conjunct set.
            self.cache.remember_exact(exact, "unknown")
            return result
        self.cache.put(
            key,
            result.verdict,
            witness=list(conjuncts) if self.cache.debug else None,
        )
        if self.shared is not None:
            try:
                self.shared[key] = result.verdict
            except Exception:
                self.shared = None
                self.stats.record_degraded_operation()
        return result

    def cache_info(self) -> Tuple[int, int, int]:
        """``(hits, misses, size)`` of *this* solver's memoization cache."""
        return (self._hits, self._misses, len(self.cache))

    def clear_cache(self) -> None:
        self.cache.clear()
        self._hits = 0
        self._misses = 0
