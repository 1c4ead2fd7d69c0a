"""First-class network-wide query objects for verification campaigns.

A single :class:`~repro.core.engine.SymbolicExecutor` run answers questions
about *one* injection port.  The paper's headline results are network-wide —
"the reachability matrix of the Stanford backbone", "the network is loop
free", "field X is invariant everywhere" — so campaigns aggregate many runs
into the query objects defined here:

* :class:`ReachabilityMatrix` — all-pairs reachability: which terminal ports
  each injection port can deliver packets to, with path counts;
* :class:`LoopReport` — every loop (or exhausted hop budget) found anywhere,
  keyed by injection port;
* :class:`InvariantReport` — per-field invariance verdicts plus drop-policy
  coverage (every non-delivered path accounted for by an explicit reason).

All objects are plain-data: built from the picklable per-job reports the
campaign workers return, serialisable with ``to_dict``, and comparable via
``fingerprint`` (used to assert parallel and sequential campaigns agree).

Each class folds itself out of job reports with ``from_jobs`` — one fold
per kind, shared by ``CampaignResult.aggregate`` and the session API's
demultiplexer.  Failed jobs have no answer and are left out of every fold;
callers hand the reports over in injection-point order.

Adding a new aggregation kind
-----------------------------

1. Collect the raw (picklable!) facts into the job report — see
   :mod:`repro.core.facts` for the three places that takes;
2. add a result class here with ``from_jobs`` / ``to_dict`` / ``fingerprint``;
3. register it under its kind name in :data:`AGGREGATIONS` and name the
   ``CampaignResult`` attribute that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.metrics import (
    CAMPAIGNS,
    JOB_SECONDS,
    JOBS,
    STORE_ENTRIES,
    STORE_PUBLISH_SECONDS,
    STREAM_FIRST_RESULT_SECONDS,
    Family,
    MetricsRegistry,
    get_registry,
)
from repro.solver.result import (
    REPORTED_COUNTERS,
    SolverStats,
    expose_solver_counters,
)


def port_key(element: str, port: str) -> str:
    """Canonical ``element:port`` key used for matrix rows and columns."""
    return f"{element}:{port}"


# ---------------------------------------------------------------------------
# Reachability matrix
# ---------------------------------------------------------------------------


class ReachabilityMatrix:
    """All-pairs reachability: injection port -> terminal port -> path count.

    Rows are injection points (``element:port`` the campaign injected at),
    columns are terminal output ports where at least one packet was
    delivered.  Cell values count the delivered paths, so the matrix doubles
    as a crude multiplicity report (ECMP-style duplication shows up as >1).
    """

    def __init__(self) -> None:
        self._cells: Dict[str, Dict[str, int]] = {}

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_jobs(cls, jobs: Iterable) -> "ReachabilityMatrix":
        matrix = cls()
        for job in jobs:
            if job.error is None:
                matrix.add_source(job.source_key)
                for destination, count in job.delivered_to.items():
                    matrix.record(job.source_key, destination, count)
        return matrix

    def add_source(self, source: str) -> None:
        """Register an injection point even if nothing was reachable from it
        (an all-zero row is information too)."""
        self._cells.setdefault(source, {})

    def record(self, source: str, destination: str, paths: int = 1) -> None:
        row = self._cells.setdefault(source, {})
        row[destination] = row.get(destination, 0) + paths

    # -- queries ----------------------------------------------------------------

    def reachable(self, source: str, destination: str) -> bool:
        return self._cells.get(source, {}).get(destination, 0) > 0

    def path_count(self, source: str, destination: str) -> int:
        return self._cells.get(source, {}).get(destination, 0)

    @property
    def sources(self) -> List[str]:
        return sorted(self._cells)

    @property
    def destinations(self) -> List[str]:
        seen = set()
        for row in self._cells.values():
            seen.update(row)
        return sorted(seen)

    def destinations_from(self, source: str) -> List[str]:
        return sorted(self._cells.get(source, {}))

    def pair_count(self) -> int:
        """Number of reachable (source, destination) pairs."""
        return sum(1 for _, _, count in self.pairs() if count > 0)

    def pairs(self) -> List[Tuple[str, str, int]]:
        """Sorted ``(source, destination, paths)`` triples — the canonical
        order-independent view of the matrix."""
        return sorted(
            (source, destination, count)
            for source, row in self._cells.items()
            for destination, count in row.items()
        )

    # -- reporting --------------------------------------------------------------

    def fingerprint(self) -> Tuple[Tuple[str, str, int], ...]:
        """Hashable canonical form; identical for any execution order."""
        return tuple(self.pairs())

    def to_dict(self) -> Dict[str, object]:
        return {
            "sources": self.sources,
            "destinations": self.destinations,
            "pairs": [
                {"from": source, "to": destination, "paths": count}
                for source, destination, count in self.pairs()
            ],
            "reachable_pairs": self.pair_count(),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReachabilityMatrix):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __repr__(self) -> str:
        return (
            f"ReachabilityMatrix(sources={len(self._cells)}, "
            f"pairs={self.pair_count()})"
        )


# ---------------------------------------------------------------------------
# Loop report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopFinding:
    """One looping path: where it was injected, where the loop closed and the
    port trace that demonstrates it.  ``cut_off`` marks a path that merely
    ran out of hop budget: reported, but proof of nothing."""

    source: str
    detected_at: str
    reason: str
    trace: Tuple[str, ...] = ()
    cut_off: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "detected_at": self.detected_at,
            "reason": self.reason,
            "trace": list(self.trace),
            "cut_off": self.cut_off,
        }


class LoopReport:
    """Network-wide loop-freedom verdict: every loop found by any job."""

    def __init__(self) -> None:
        self._findings: List[LoopFinding] = []
        self._sources: List[str] = []

    @classmethod
    def from_jobs(cls, jobs: Iterable) -> "LoopReport":
        report = cls()
        for job in jobs:
            if job.error is None:
                report.add_source(job.source_key)
                for loop in job.loops:
                    report.record(
                        LoopFinding(
                            job.source_key,
                            str(loop.get("detected_at", "?")),
                            str(loop.get("reason", "")),
                            tuple(loop.get("trace", ())),
                            bool(loop.get("cut_off", False)),
                        )
                    )
        return report

    def add_source(self, source: str) -> None:
        self._sources.append(source)

    def record(self, finding: LoopFinding) -> None:
        self._findings.append(finding)

    @property
    def loop_free(self) -> bool:
        return not self._findings

    @property
    def loop_proved(self) -> bool:
        """A finding the loop detector proved (not a hop-budget cut-off)."""
        return any(not finding.cut_off for finding in self._findings)

    @property
    def findings(self) -> List[LoopFinding]:
        return sorted(
            self._findings, key=lambda f: (f.source, f.detected_at, f.trace)
        )

    def sources_with_loops(self) -> List[str]:
        return sorted({finding.source for finding in self._findings})

    def fingerprint(self) -> Tuple[Tuple[str, str, Tuple[str, ...]], ...]:
        return tuple(
            (f.source, f.detected_at, f.trace) for f in self.findings
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "loop_free": self.loop_free,
            "sources_checked": sorted(self._sources),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def __repr__(self) -> str:
        return f"LoopReport(loop_free={self.loop_free}, findings={len(self._findings)})"


# ---------------------------------------------------------------------------
# Invariants and drop-policy coverage
# ---------------------------------------------------------------------------


@dataclass
class InvariantCell:
    """Aggregated invariance verdict for one (source, field) pair."""

    checked: int = 0
    held: int = 0
    skipped: int = 0

    @property
    def violated(self) -> int:
        return self.checked - self.held

    @property
    def holds(self) -> bool:
        return self.checked == self.held

    def to_dict(self) -> Dict[str, int]:
        return {
            "checked": self.checked,
            "held": self.held,
            "violated": self.violated,
            "skipped": self.skipped,
        }


class InvariantReport:
    """Per-field invariance across the campaign plus drop-policy coverage.

    A field is *network-invariant* when it provably keeps its injected value
    on every delivered path from every injection port.  Drop-policy coverage
    verifies the mirror property: every packet that did **not** get delivered
    carries an explicit machine-readable stop reason (no path silently
    vanishes), and tabulates those reasons so a policy audit can diff them
    against expectations.
    """

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, str], InvariantCell] = {}
        self._drop_reasons: Dict[str, Dict[str, int]] = {}
        self._unexplained_drops: int = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_jobs(
        cls, jobs: Iterable, fields: Optional[Sequence[str]] = None
    ) -> "InvariantReport":
        """``fields`` keeps only those fields' cells (one query's share of
        jobs that checked a whole batch's fields)."""
        report = cls()
        for job in jobs:
            if job.error is None:
                report.record_drops(job.source_key, job.drop_reasons)
                for name, counts in job.invariants.items():
                    if fields is None or name in fields:
                        cell = report._cells.setdefault(
                            (job.source_key, name), InvariantCell()
                        )
                        cell.checked += counts.get("checked", 0)
                        cell.held += counts.get("held", 0)
                        cell.skipped += counts.get("skipped", 0)
        return report

    def record_drops(self, source: str, reasons: Dict[str, int]) -> None:
        row = self._drop_reasons.setdefault(source, {})
        for reason, count in reasons.items():
            if not reason:
                self._unexplained_drops += count
                reason = "<unexplained>"
            row[reason] = row.get(reason, 0) + count

    # -- queries ----------------------------------------------------------------

    @property
    def fields(self) -> List[str]:
        return sorted({field_name for _, field_name in self._cells})

    def field_holds(self, field_name: str) -> bool:
        """True only when the field was actually checked somewhere and never
        violated.  A field with zero checked paths (typo'd name, template
        that never allocates it) is vacuous, not verified — report False so
        the tool cannot hand out green verdicts it never earned."""
        cells = [
            cell for (_, name), cell in self._cells.items() if name == field_name
        ]
        checked = sum(cell.checked for cell in cells)
        return checked > 0 and all(cell.holds for cell in cells)

    def field_vacuous(self, field_name: str) -> bool:
        """True when the field was requested but no path could be checked."""
        cells = [
            cell for (_, name), cell in self._cells.items() if name == field_name
        ]
        return bool(cells) and sum(cell.checked for cell in cells) == 0

    def violations(self) -> List[Tuple[str, str, InvariantCell]]:
        return sorted(
            (source, name, cell)
            for (source, name), cell in self._cells.items()
            if not cell.holds
        )

    @property
    def drops_covered(self) -> bool:
        """True when every non-delivered path carried an explicit reason."""
        return self._unexplained_drops == 0

    def drop_reason_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for row in self._drop_reasons.values():
            for reason, count in row.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def fingerprint(self) -> Tuple:
        return (
            tuple(
                (source, name, cell.checked, cell.held, cell.skipped)
                for (source, name), cell in sorted(self._cells.items())
            ),
            tuple(sorted(self.drop_reason_totals().items())),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "fields": {
                name: {
                    "holds": self.field_holds(name),
                    "vacuous": self.field_vacuous(name),
                    "by_source": {
                        source: cell.to_dict()
                        for (source, cell_name), cell in sorted(self._cells.items())
                        if cell_name == name
                    },
                }
                for name in self.fields
            },
            "drop_policy": {
                "covered": self.drops_covered,
                "reasons": self.drop_reason_totals(),
                "by_source": {
                    source: dict(sorted(reasons.items()))
                    for source, reasons in sorted(self._drop_reasons.items())
                },
            },
        }

    def __repr__(self) -> str:
        return (
            f"InvariantReport(fields={self.fields}, "
            f"violations={len(self.violations())}, covered={self.drops_covered})"
        )


#: Aggregation kind -> the class that folds it out of job reports.  The one
#: list of kinds: ``facts.CAMPAIGN_QUERIES`` is its keys.
AGGREGATIONS = {
    "reachability": ReachabilityMatrix,
    "loops": LoopReport,
    "invariants": InvariantReport,
}


# ---------------------------------------------------------------------------
# Solver statistics roll-up
# ---------------------------------------------------------------------------


#: How a final job report came to be (``JobReport.outcome``): the label
#: values of ``repro_jobs_total``.  Every outcome but ``executed`` is counted
#: by the :class:`CampaignStats` field that names it.
OUTCOMES = ("executed", "error", "delta_spliced")


def _stat(family=None, *, default=0, **labels):
    """A :class:`CampaignStats` counter: it feeds the registry series
    ``family{labels}`` (none: JSON-only).  A field on ``repro_jobs_total``
    counts the absorbed reports of its ``outcome``."""
    return field(default=default, metadata={"family": family, "labels": labels})


@expose_solver_counters
@dataclass
class CampaignStats:
    """Aggregated engine/solver counters across every job of a campaign.

    This is the one declaration of the campaign counters.  Declaration order
    is the :meth:`to_dict` key order: ``solver_stats`` stands for its
    reported ``solver_*`` counters, and a ``ClassVar`` is a derived
    read-only property, declared here for its key position only.  Each field
    names the registry series it feeds, or none; :meth:`to_dict`,
    :meth:`from_dict`, :meth:`absorb` and the registry publication below are
    walks of these declarations."""

    jobs: int = _stat()
    paths: int = _stat()
    engine_steps: ClassVar[int]
    state_memo_hits: ClassVar[int]
    state_memo_misses: ClassVar[int]
    elapsed_seconds: float = _stat(default=0.0)
    wall_clock_seconds: float = _stat(default=0.0)
    #: Sum of every job's solver delta; ``stats.solver_cache_misses`` etc.
    #: read through to it.  Its ``degraded_operations`` additionally takes
    #: the campaign driver's own store failures (failed quarantine moves,
    #: baseline writes): the answers stay correct, a non-zero count means
    #: some tier ran degraded.
    solver_stats: SolverStats = field(default_factory=SolverStats)
    degraded_operations: ClassVar[int]
    #: Persistent-store traffic (set by the campaign driver, not absorbed
    #: per job): verdicts available on disk at campaign start, and fresh
    #: verdicts this campaign appended to the store.
    store_entries_loaded: int = _stat(STORE_ENTRIES, direction="loaded")
    store_entries_published: int = _stat(STORE_ENTRIES, direction="published")
    #: Delta verification: reports spliced from a stored baseline instead of
    #: executing anything.
    jobs_spliced_by_delta: int = _stat(JOBS, outcome="delta_spliced")
    executed_jobs: ClassVar[int]
    cache_hit_rate: ClassVar[float]
    #: Distinct verdict-cache entries merged back into the campaign report
    #: (set by the aggregation, not absorbed per job).
    verdict_cache_entries: int = _stat()
    truncated_jobs: int = _stat()
    failed_jobs: int = _stat(JOBS, outcome="error")

    def absorb(self, report) -> None:
        """Fold one final job report (its paths, engine time, solver delta
        and outcome) into the roll-up."""
        self.jobs += 1
        self.paths += report.path_count
        self.elapsed_seconds += report.elapsed_seconds
        self.solver_stats.merge(report.solver_stats)
        if report.truncated:
            self.truncated_jobs += 1
        counted = _OUTCOME_FIELDS.get(report.outcome)
        if counted is not None:
            setattr(self, counted, getattr(self, counted) + 1)

    @property
    def executed_jobs(self) -> int:
        """Jobs that actually ran an engine: the total minus the ports
        answered by delta splicing.  This is the per-worker-safe execution
        count (the process-local ``execution_counters`` only sees the
        parent's share under a pool)."""
        return self.jobs - self.jobs_spliced_by_delta

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of memo-tier lookups served without a full solve."""
        solver = self.solver_stats
        hits = solver.cache_hits + solver.shared_cache_hits
        lookups = hits + solver.cache_misses
        return hits / lookups if lookups else 0.0

    def series(self) -> Iterator[Tuple[Family, Dict[str, str], float]]:
        """``(family, labels, value)`` of every counter that feeds the
        registry, the solver block's included."""
        for owner in (self.solver_stats, self):
            for spec in fields(owner):
                family = spec.metadata.get("family")
                if family is not None:
                    yield family, spec.metadata["labels"], getattr(owner, spec.name)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for name in _DECLARED:
            if name == "solver_stats":
                payload.update(
                    ("solver_" + counter, getattr(self.solver_stats, counter))
                    for counter in REPORTED_COUNTERS
                    if counter not in _DECLARED
                )
            else:
                payload[name] = getattr(self, name)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CampaignStats":
        """Rehydrate a :meth:`to_dict` payload (the plan-result cache stores
        the stats of the run that computed the answers).  The key order is
        part of the stored-answer schema, so a payload of any other shape
        is refused before it gets here."""
        stats = cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})
        for counter in REPORTED_COUNTERS:
            key = counter if counter in _DECLARED else "solver_" + counter
            setattr(stats.solver_stats, counter, payload.get(key, 0))
        return stats


#: The declared names, in ``to_dict`` order (a reported solver counter
#: declared here by its own name leaves the ``solver_*`` block).
_DECLARED = tuple(CampaignStats.__annotations__)
# A reported solver counter declared above by its own name reads through.
for _name in set(_DECLARED) & set(REPORTED_COUNTERS):
    setattr(CampaignStats, _name, property(lambda self, _n=_name: getattr(self.solver_stats, _n)))
#: ``JobReport.outcome`` -> the field counting it.
_OUTCOME_FIELDS = {
    spec.metadata["labels"]["outcome"]: spec.name
    for spec in fields(CampaignStats)
    if spec.metadata.get("family") is JOBS
}


# ---------------------------------------------------------------------------
# Registry publication: the campaign driver calls these once per final report
# and once per finished campaign, so each series moves by the campaign's stats.
# ---------------------------------------------------------------------------


def record_job_report(report) -> None:
    """Publish one final job report as the driver delivers it: its outcome,
    and an executed job's wall clock."""
    JOBS.get().inc(outcome=report.outcome)
    if report.outcome == "executed":
        JOB_SECONDS.get().observe(report.elapsed_seconds)


def record_campaign_stats(stats: CampaignStats) -> None:
    """Publish one finished campaign: every series its counters name, but
    the outcome counts, which :func:`record_job_report` fed per report."""
    CAMPAIGNS.get().inc()
    for family, labels, value in stats.series():
        if family is not JOBS:
            family.get().inc(value, **labels)


def ensure_core_families(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register every family a campaign or plan feeds, each series at zero,
    so a scrape before any run still shows them — a service that has done
    nothing must expose ``repro_degraded_operations_total 0``, not an
    empty page."""
    registry = registry or get_registry()
    CAMPAIGNS.get(registry).inc(0)
    for outcome in OUTCOMES:
        JOBS.get(registry).inc(0, outcome=outcome)
    for family, labels, _ in CampaignStats().series():
        family.get(registry).inc(0, **labels)
    for family in (JOB_SECONDS, STORE_PUBLISH_SECONDS, STREAM_FIRST_RESULT_SECONDS):
        family.get(registry)
    return registry
