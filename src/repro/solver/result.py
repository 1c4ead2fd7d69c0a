"""Solver result and statistics containers."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.obs.metrics import (
    DEGRADED_OPERATIONS,
    SHARED_PUBLISH_ENTRIES,
    SHARED_ROUND_TRIPS,
    SOLVER_CHECKS,
    SOLVER_SECONDS,
)


def _reported(default=0, family=None, **labels):
    """A :class:`SolverStats` counter that reports carry: it is exposed as
    ``solver_<field>`` on every report struct and JSON ``stats`` block (see
    :func:`expose_solver_counters`), and a campaign's total feeds the
    registry series ``family{labels}`` (none: JSON-only).  Unmarked fields
    stay solver-internal."""
    return field(
        default=default,
        metadata={"reported": True, "family": family, "labels": labels},
    )


@dataclass
class SolverStats:
    """Counters mirroring the instrumentation used in the paper's evaluation
    ("time spent in and number of calls to the constraint solver").

    This is the one declaration of the solver-counter list.  An engine run,
    a campaign job and a campaign roll-up each carry *one* ``SolverStats``
    delta (:meth:`since` / :meth:`merge`); their ``solver_*`` attributes,
    JSON keys and registry series are derived from the fields marked
    :func:`_reported` here, so a new counter is added in exactly one place."""

    calls: int = _reported()
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    time_seconds: float = _reported(0.0, SOLVER_SECONDS)
    atoms_processed: int = 0
    case_splits: int = 0
    # Incremental-solver instrumentation: queries answered without a full
    # solve, either because domain propagation alone decided them
    # (``fast_paths``) or because a canonically-equal formula was memoized
    # (``cache_hits``).  ``cache_misses`` counts memoized full solves.
    fast_paths: int = _reported(0, SOLVER_CHECKS, tier="fast_path")
    cache_hits: int = _reported(0, SOLVER_CHECKS, tier="cache_hit")
    cache_misses: int = _reported(0, SOLVER_CHECKS, tier="full_solve")
    # Cross-job verdict-cache instrumentation: hits served by the
    # process-shared tier (``shared_cache_hits``) and entries imported into
    # a local cache from the persistent store (``cache_merged``).
    shared_cache_hits: int = _reported(0, SOLVER_CHECKS, tier="shared_hit")
    cache_merged: int = _reported()
    # Sharded shared-tier instrumentation (repro.store.sharding): proxy
    # round-trips to the Manager shards, and batched verdict publishes
    # (``shared_publish_batches`` flushes carrying
    # ``shared_publish_entries`` verdicts in total).
    shared_round_trips: int = _reported(0, SHARED_ROUND_TRIPS)
    shared_publish_batches: int = _reported()
    shared_publish_entries: int = _reported(0, SHARED_PUBLISH_ENTRIES)
    # Best-effort operations that failed and were absorbed by a degrade
    # path (dead Manager proxy, failed quarantine move, ...).  The answers
    # stay correct; the counter makes the degradation observable instead of
    # silent.
    degraded_operations: int = _reported(0, DEGRADED_OPERATIONS)

    def record(self, verdict: str, elapsed: float, atoms: int, splits: int) -> None:
        self.calls += 1
        self.time_seconds += elapsed
        self.atoms_processed += atoms
        self.case_splits += splits
        if verdict == "sat":
            self.sat += 1
        elif verdict == "unsat":
            self.unsat += 1
        else:
            self.unknown += 1

    def record_fast_path(self) -> None:
        self.fast_paths += 1

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        self.cache_misses += 1

    def record_shared_cache_hit(self) -> None:
        self.shared_cache_hits += 1

    def record_merged_entries(self, count: int) -> None:
        self.cache_merged += count

    def record_shared_round_trip(self) -> None:
        self.shared_round_trips += 1

    def record_shared_publish(self, entries: int) -> None:
        self.shared_publish_batches += 1
        self.shared_publish_entries += entries

    def record_degraded_operation(self, count: int = 1) -> None:
        self.degraded_operations += count

    def merge(self, other: "SolverStats") -> None:
        for name in _COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "SolverStats":
        return replace(self)

    def since(self, before: "SolverStats") -> "SolverStats":
        """The work done between the ``before`` :meth:`snapshot` and now."""
        return SolverStats(
            **{
                name: getattr(self, name) - getattr(before, name)
                for name in _COUNTER_NAMES
            }
        )

    def reported(self) -> Dict[str, float]:
        """``{"solver_calls": ..., ...}``: the reported counters under the
        names reports and JSON payloads use, in declaration order."""
        return {
            "solver_" + name: getattr(self, name) for name in REPORTED_COUNTERS
        }


_COUNTER_NAMES = tuple(f.name for f in fields(SolverStats))
#: The ``SolverStats`` fields reports expose as ``solver_<field>``.
REPORTED_COUNTERS = tuple(
    f.name for f in fields(SolverStats) if f.metadata.get("reported")
)


def expose_solver_counters(cls):
    """Class decorator for report structs holding one ``solver_stats:
    SolverStats`` delta: adds a read-only ``solver_<field>`` property per
    reported counter, so ``report.solver_cache_misses`` keeps working
    without the struct re-declaring (and every producer re-copying) the
    counter list."""
    for name in REPORTED_COUNTERS:
        setattr(
            cls,
            "solver_" + name,
            property(lambda self, _name=name: getattr(self.solver_stats, _name)),
        )
    return cls


@dataclass
class SolverResult:
    """Outcome of a satisfiability query.

    ``verdict`` is one of ``"sat"``, ``"unsat"`` or ``"unknown"``; ``model``
    maps variable names to concrete values when ``verdict == "sat"`` and a
    model was requested.
    """

    verdict: str
    model: Optional[Dict[str, int]] = None
    reason: str = ""

    @property
    def is_sat(self) -> bool:
        return self.verdict == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.verdict == "unsat"

    def __bool__(self) -> bool:
        return self.is_sat
