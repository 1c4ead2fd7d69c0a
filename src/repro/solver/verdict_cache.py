"""Cross-job verdict cache keyed on canonical constraint fingerprints.

A :class:`VerdictCache` maps :func:`repro.solver.canonical.canonical_fingerprint`
keys to solver verdicts (``"sat"`` / ``"unsat"`` / ``"unknown"``).  Because
the key is alpha-renaming-invariant, one cache serves every structurally
similar path of every campaign job that shares it: per-worker caches live in
the campaign runtime cache and survive across jobs, their fresh entries are
merged back into the campaign report (warming later campaigns), and an
optional process-shared tier (a ``multiprocessing.Manager`` dict) lets
parallel workers exchange verdicts live.  The cache also memoises each
*exact* conjunct set's key, so a set the worker has seen — in this job or an
earlier one — is canonicalised once per process, not once per job.

Soundness instrumentation
-------------------------

Aggressive caching is only shippable with a tripwire for silent weakening:

* ``put``/``merge`` refuse to overwrite an entry with a *different* verdict
  (:class:`CacheConflictError`) — the solver is deterministic, so a conflict
  proves either canonicalization collapsed two inequivalent sets or an entry
  was corrupted;
* in ``debug`` mode the cache retains a witness conjunct set per entry, and
  :meth:`VerdictCache.verify_entry` / :meth:`VerdictCache.verify_witnesses`
  re-derive the fingerprint and re-solve from scratch, raising
  :class:`CacheCorruptionError` on any mismatch.  The mutation tests in
  ``tests/test_canonical_cache.py`` corrupt entries deliberately and assert
  these hooks catch it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.solver.ast import Formula
from repro.solver.canonical import canonical_fingerprint

_VERDICTS = ("sat", "unsat", "unknown")


class CacheCorruptionError(RuntimeError):
    """A cache entry failed re-verification against a from-scratch solve."""


class CacheConflictError(RuntimeError):
    """Two different verdicts were recorded for the same fingerprint."""


def resolve_verdict(existing: Optional[str], incoming: str) -> str:
    """The one policy for combining verdicts recorded under one fingerprint:
    ``"replace"`` (take the incoming verdict), ``"keep"`` (retain the
    existing one) or ``"conflict"``.

    "unknown" is budget-dependent solver incompleteness, not a semantic
    claim — the split/model-search budgets are consumed in conjunct order,
    so alpha-variants of one set may legitimately land on "unknown" vs a
    definite verdict.  A definite verdict therefore supersedes an unknown
    and is never downgraded by one; only definite-vs-definite disagreement
    proves a cache (or canonicalization) is corrupt.
    """
    if incoming not in _VERDICTS:
        raise ValueError(f"not a solver verdict: {incoming!r}")
    if existing is None or (existing == "unknown" and incoming != "unknown"):
        return "replace"
    if existing == incoming or incoming == "unknown":
        return "keep"
    return "conflict"


class VerdictCache:
    """Bounded LRU map from canonical fingerprints to solver verdicts."""

    __slots__ = ("_entries", "_witnesses", "_fresh", "_max_entries", "debug",
                 "hits", "misses", "merged", "applied_tokens", "_exact")

    def __init__(self, max_entries: int = 100_000, debug: bool = False) -> None:
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._witnesses: Dict[str, Tuple[Formula, ...]] = {}
        # Entries added (computed or imported from a shared tier) since the
        # last begin_collection() — what a campaign job reports back.
        # Tracked independently of the LRU so eviction cannot lose verdicts
        # a job already paid for.
        self._fresh: Dict[str, str] = {}
        self._max_entries = max_entries
        self.debug = debug
        self.hits = 0
        self.misses = 0
        self.merged = 0
        # Idempotence tokens for bulk imports: a campaign stamps its warm
        # map with a content token so only the first job per worker pays
        # the merge (see campaign.execute_job).
        self.applied_tokens: set = set()
        # Exact-set memo: frozenset(conjuncts) -> its fingerprint, or
        # "unknown" once its solve came back unknown.  Process-local cost
        # cache, bounded like the entries: never snapshot, merged or pickled.
        self._exact: "OrderedDict[frozenset, str]" = OrderedDict()

    def __getstate__(self) -> Dict[str, object]:
        return {s: getattr(self, s) for s in self.__slots__ if s != "_exact"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._exact = OrderedDict()

    # -- basic mapping ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> Optional[str]:
        verdict = self._entries.get(fingerprint)
        if verdict is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return verdict

    def peek(self, fingerprint: str) -> Optional[str]:
        """Look up an entry without touching LRU order or hit/miss counters
        (the store's load-time conflict probing must not skew statistics)."""
        return self._entries.get(fingerprint)

    def put(
        self,
        fingerprint: str,
        verdict: str,
        witness: Optional[Iterable[Formula]] = None,
        fresh: bool = True,
    ) -> None:
        existing = self._entries.get(fingerprint)
        action = resolve_verdict(existing, verdict)
        if action == "conflict":
            raise CacheConflictError(
                f"fingerprint {fingerprint[:12]}… already maps to "
                f"{existing!r}, refusing to overwrite with {verdict!r}"
            )
        if action == "keep" and existing != verdict:
            return  # an "unknown" never downgrades a definite entry
        self._entries[fingerprint] = verdict
        self._entries.move_to_end(fingerprint)
        if self.debug and witness is not None:
            self._witnesses[fingerprint] = tuple(witness)
        if fresh:
            self._fresh[fingerprint] = verdict
        while len(self._entries) > self._max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._witnesses.pop(evicted, None)

    def exact_key(self, exact: frozenset) -> Optional[str]:
        """What :meth:`remember_exact` filed for this exact conjunct set."""
        key = self._exact.get(exact)
        if key is not None:
            self._exact.move_to_end(exact)
        return key

    def remember_exact(self, exact: frozenset, key: str) -> None:
        """File ``key`` (a fingerprint, or "unknown": deterministic on
        identical input, so never shared with alpha-variants) for ``exact``."""
        self._exact[exact] = key
        if len(self._exact) > self._max_entries:
            self._exact.popitem(last=False)

    def snapshot(self) -> Dict[str, str]:
        """Picklable copy of every entry (for merging / warm starts)."""
        return dict(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._witnesses.clear()
        self._fresh.clear()
        self._exact.clear()
        self.applied_tokens.clear()
        self.hits = 0
        self.misses = 0
        self.merged = 0

    # -- campaign plumbing -----------------------------------------------------

    def begin_collection(self) -> None:
        """Start a fresh-entry collection window (one per campaign job)."""
        self._fresh = {}

    def fresh_entries(self) -> Dict[str, str]:
        """Entries added since :meth:`begin_collection`."""
        return dict(self._fresh)

    def merge(self, entries: Mapping[str, str], strict: bool = True) -> int:
        """Import ``entries`` (a snapshot / campaign report), returning how
        many were new.  A definite verdict supersedes an "unknown"; a
        definite-vs-definite conflict raises :class:`CacheConflictError`
        unless ``strict`` is False (then the existing entry wins)."""
        added = 0
        for fingerprint in sorted(entries):
            verdict = entries[fingerprint]
            existing = self._entries.get(fingerprint)
            action = resolve_verdict(existing, verdict)
            if action == "conflict" and strict:
                raise CacheConflictError(
                    f"merge conflict on {fingerprint[:12]}…: "
                    f"cache has {existing!r}, incoming {verdict!r}"
                )
            if action == "replace":
                self.put(fingerprint, verdict, fresh=False)
                if existing is None:
                    added += 1
        self.merged += added
        return added

    # -- soundness hooks -------------------------------------------------------

    def verify_entry(
        self,
        fingerprint: str,
        conjuncts: Iterable[Formula],
        solver: Optional[object] = None,
    ) -> bool:
        """Re-derive ``fingerprint`` from ``conjuncts`` and re-solve them
        from scratch; raise :class:`CacheCorruptionError` on any mismatch."""
        conjuncts = list(conjuncts)
        recomputed = canonical_fingerprint(conjuncts)
        if recomputed != fingerprint:
            raise CacheCorruptionError(
                f"fingerprint mismatch: entry keyed {fingerprint[:12]}… but "
                f"witness canonicalizes to {recomputed[:12]}…"
            )
        stored = self._entries.get(fingerprint)
        if stored is None:
            raise CacheCorruptionError(
                f"no entry for fingerprint {fingerprint[:12]}…"
            )
        if solver is None:
            from repro.solver.solver import Solver

            solver = Solver()
        fresh = solver.check(conjuncts)
        # An "unknown" on either side contradicts nothing (budget-dependent
        # incompleteness); only definite-vs-definite disagreement is proof
        # of corruption.
        if (
            fresh.verdict != stored
            and fresh.verdict != "unknown"
            and stored != "unknown"
        ):
            raise CacheCorruptionError(
                f"verdict mismatch for {fingerprint[:12]}…: cache says "
                f"{stored!r}, fresh solve says {fresh.verdict!r}"
            )
        return True

    def verify_witnesses(self, solver: Optional[object] = None) -> int:
        """Verify every retained debug witness; returns how many were
        checked.  Only meaningful when the cache was built with
        ``debug=True``."""
        checked = 0
        for fingerprint, witness in list(self._witnesses.items()):
            self.verify_entry(fingerprint, witness, solver)
            checked += 1
        return checked
