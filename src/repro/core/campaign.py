"""Verification campaigns: fan one network out across many injection ports.

The engine answers questions about one injection port at a time; the claims
that matter operationally are network-wide.  A :class:`VerificationCampaign`
takes a network *source*, a set of injection points and packet templates,
turns them into one :class:`~repro.core.jobs.CampaignJob` per injection
point and pushes them through a **staged pipeline**:

``validate → jobs → delta partition → execute → aggregate → store publish →
delta finish (summary, baseline record)``

* the *delta stage* (:class:`~repro.core.delta.DeltaReducer`) is the one
  work-avoidance stage in front of the executor: it answers the ports a
  change provably did not touch from a baseline and records the finished
  run as the next one;
* the *executor* (:func:`repro.core.executor.run_jobs`) runs what is left —
  in-process or on a process pool — and is the only stage that knows how;
* the aggregation folds the per-job reports into the query objects of
  :mod:`repro.core.queries`.  It is order-independent, so a campaign run on
  ``--workers N``, with or without delta splicing, produces bit-identical
  query results to a plain sequential run.

This module keeps the orchestration (:class:`VerificationCampaign`,
:class:`CampaignResult`) and re-exports the names of the stages' modules
(:mod:`~repro.core.sources`, :mod:`~repro.core.jobs`,
:mod:`~repro.core.executor`, :mod:`~repro.core.delta`) that users import
from here.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.delta import CampaignBaseline, DeltaReducer
from repro.core.executor import run_jobs
from repro.core.facts import (
    CAMPAIGN_QUERIES,
    DEFAULT_INVARIANT_FIELDS,
    Facts,
)
from repro.core.jobs import (
    CampaignJob,
    JobReport,
    Runtime,
    clear_runtime_cache,
    execute_job,
    execution_counters,
    reset_execution_counters,
    runtime_for,
    semantic_projection,
)
from repro.core.queries import (
    AGGREGATIONS,
    CampaignStats,
    InvariantReport,
    LoopReport,
    ReachabilityMatrix,
    record_campaign_stats,
    record_job_report,
)
from repro.core.settings import PACKET_TEMPLATES, SETTING_NAMES, RunSettings
from repro.core.sources import (
    NetworkSource,
    default_injection_ports,
    free_input_ports,
)
from repro.network.topology import Network
from repro.obs import get_tracer
from repro.obs.metrics import STORE_PUBLISH_SECONDS
from repro.solver.verdict_cache import CacheConflictError, resolve_verdict

__all__ = [
    "CAMPAIGN_QUERIES",
    "DEFAULT_INVARIANT_FIELDS",
    "PACKET_TEMPLATES",
    "CampaignJob",
    "CampaignResult",
    "Facts",
    "JobReport",
    "NetworkSource",
    "RunSettings",
    "VerificationCampaign",
    "clear_runtime_cache",
    "default_injection_ports",
    "execute_job",
    "execution_counters",
    "free_input_ports",
    "reset_execution_counters",
    "semantic_projection",
]


# ---------------------------------------------------------------------------
# Campaign result
# ---------------------------------------------------------------------------

#: Aggregation kind -> the CampaignResult attribute holding its fold (the
#: kind name is also its key in the JSON report).
_AGGREGATE_ATTRIBUTES = {
    "reachability": "reachability",
    "loops": "loop_report",
    "invariants": "invariant_report",
}


@dataclass
class CampaignResult:
    """Aggregated outcome of a verification campaign."""

    source: str
    queries: Tuple[str, ...]
    jobs: List[JobReport] = field(default_factory=list)
    validation_problems: List[str] = field(default_factory=list)
    execution_mode: str = "in-process"
    workers: int = 1
    reachability: ReachabilityMatrix = field(default_factory=ReachabilityMatrix)
    loop_report: LoopReport = field(default_factory=LoopReport)
    invariant_report: InvariantReport = field(default_factory=InvariantReport)
    stats: CampaignStats = field(default_factory=CampaignStats)
    #: Canonical verdict-cache entries merged from every job — the fresh
    #: verdicts this run derived, which the campaign publishes to its store.
    verdict_cache: Dict[str, str] = field(default_factory=dict)
    #: How delta verification partitioned this run (spliced/executed counts,
    #: touched files/elements, or a fallback reason); empty when no baseline
    #: was in play.
    delta_info: Dict[str, object] = field(default_factory=dict)
    #: This run packaged as the next run's delta baseline (directory
    #: sources only).
    baseline: Optional[CampaignBaseline] = field(default=None, repr=False)

    @classmethod
    def aggregate(
        cls,
        source: str,
        queries: Sequence[str],
        jobs: Iterable[JobReport],
        *,
        validation_problems: Sequence[str] = (),
        execution_mode: str = "in-process",
        workers: int = 1,
        wall_clock_seconds: float = 0.0,
    ) -> "CampaignResult":
        result = cls(
            source=source,
            queries=tuple(queries),
            validation_problems=list(validation_problems),
            execution_mode=execution_mode,
            workers=workers,
        )
        # Sort by injection point so aggregation order (and therefore every
        # fingerprint) is independent of completion order.
        result.jobs = sorted(jobs, key=lambda j: (j.element, j.port))
        for job in result.jobs:
            result.stats.absorb(job)
            # Merge the job's fresh verdicts into the campaign-level cache
            # under the one verdict-combination policy (resolve_verdict):
            # definite verdicts supersede "unknown"s, so the merged map is
            # order-independent; a definite-vs-definite conflict would mean
            # two jobs solved one set differently and must fail loudly.
            for fingerprint, verdict in job.verdict_cache_entries:
                known = result.verdict_cache.get(fingerprint)
                action = resolve_verdict(known, verdict)
                if action == "conflict":
                    raise CacheConflictError(
                        f"jobs disagree on fingerprint {fingerprint[:12]}…: "
                        f"{known!r} vs {verdict!r} (the solver is "
                        "deterministic: one of them is corrupt)"
                    )
                if action == "replace":
                    result.verdict_cache[fingerprint] = verdict
        for kind, attribute in _AGGREGATE_ATTRIBUTES.items():
            if kind in result.queries:
                setattr(result, attribute, AGGREGATIONS[kind].from_jobs(result.jobs))
        result.stats.wall_clock_seconds = wall_clock_seconds
        result.stats.verdict_cache_entries = len(result.verdict_cache)
        return result

    @property
    def baseline_payload(self) -> Optional[Dict[str, object]]:
        """The persisted form of :attr:`baseline` — what ``--save-baseline``
        writes and the store keeps."""
        return self.baseline.to_payload() if self.baseline is not None else None

    @property
    def job_errors(self) -> List[Tuple[str, str]]:
        return [(job.source_key, job.error) for job in self.jobs if job.error]

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "network": self.source,
            "queries": list(self.queries),
            "workers": self.workers,
            "execution_mode": self.execution_mode,
            "validation_problems": list(self.validation_problems),
            "stats": self.stats.to_dict(),
            "verdict_cache": {"entries": len(self.verdict_cache)},
            "jobs": [job.to_dict() for job in self.jobs],
        }
        if self.delta_info:
            payload["delta"] = dict(self.delta_info)
        for kind, attribute in _AGGREGATE_ATTRIBUTES.items():
            if kind in self.queries:
                payload[kind] = getattr(self, attribute).to_dict()
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


class VerificationCampaign:
    """Fan a network out across many injection ports and aggregate queries.

    >>> campaign = VerificationCampaign(network)        # doctest: +SKIP
    ... campaign.add_injection("sw0", "in0")  # default: every free input port
    ... result = campaign.run(workers=4)
    ... result.reachability.pairs()
    """

    def __init__(
        self,
        source: Union[NetworkSource, Network, str],
        *,
        queries: Sequence[str] = CAMPAIGN_QUERIES,
        store: Optional[object] = None,
        baseline: Optional[object] = None,
        **options: object,
    ) -> None:
        """``options`` are :class:`~repro.core.settings.RunSettings` fields
        (``packet``, ``max_paths``, ``delta``, …) and
        :class:`~repro.core.facts.Facts` channels (``invariant_fields``, …);
        ``queries`` is the campaign's spelling of the facts' ``kinds``.
        ``baseline`` is a :class:`~repro.core.delta.CampaignBaseline` or its
        payload; a payload that does not parse raises ``ValueError``."""
        if isinstance(source, Network):
            source = NetworkSource.from_network(source)
        elif isinstance(source, str):
            source = NetworkSource.from_directory(source)
        self.source = source
        self.settings = RunSettings(
            **{name: options.pop(name) for name in SETTING_NAMES if name in options}
        )
        options.setdefault("kinds", tuple(queries))
        options.setdefault("invariant_fields", DEFAULT_INVARIANT_FIELDS)
        # What every job collects unless ``add_injection`` narrows it.
        self.facts = Facts(**options)
        # ``store`` (a :class:`repro.store.VerificationStore`) is the durable
        # warm-start path: workers merge its verdicts once per store state and
        # the campaign publishes its fresh verdicts back after aggregation.
        # It is part of the cache stack ``shared_cache`` switches off.
        self._store = store if self.settings.shared_cache else None
        # An explicit delta baseline (a ``--save-baseline`` file, a
        # scenario's previous state), possibly still in payload form: one
        # that cannot be parsed is refused, never silently dropped.
        if baseline is not None and not isinstance(baseline, CampaignBaseline):
            baseline = CampaignBaseline.parse(baseline)
        self._baseline: Optional[CampaignBaseline] = baseline
        self._injections: List[Tuple[str, str]] = []
        self._injection_facts: Dict[Tuple[str, str], Facts] = {}
        # The runtime-cache entry this campaign resolved, pinned for the
        # campaign's lifetime so every stage sees one build even if the
        # LRU evicts the entry in between.
        self._runtime: Optional[Runtime] = None

    # -- injection points ---------------------------------------------------------

    def add_injection(
        self,
        element: str,
        port: str = "in0",
        facts: Optional[Facts] = None,
    ) -> "VerificationCampaign":
        """Add one injection point.  ``facts`` narrows the fact channels the
        port's job collects to a subset of the campaign's globals (the API
        planner's per-port narrowing); omitted, the job collects the full
        template."""
        if facts is not None:
            unknown = set(facts.kinds) - set(self.facts.kinds)
            if unknown:
                raise ValueError(
                    f"per-port facts ask for {sorted(unknown)} which the "
                    f"campaign does not aggregate {self.facts.kinds}"
                )
            self._injection_facts[(element, port)] = facts
        self._injections.append((element, port))
        return self

    def add_injections(
        self, injections: Iterable[Tuple[str, str]]
    ) -> "VerificationCampaign":
        for element, port in injections:
            self.add_injection(element, port)
        return self

    def add_default_injections(self) -> "VerificationCampaign":
        """The workload's registered injection ports, or every free input
        port when the source does not define any.  Fully wired networks
        (rings) have no free edges; those fall back to every input port."""
        runtime = self._resolve()
        return self.add_injections(
            default_injection_ports(runtime.network, runtime.registered_injections)
        )

    # -- pipeline stages ------------------------------------------------------------

    def _resolve(self) -> Runtime:
        if self._runtime is None:
            self._runtime = runtime_for(self.source)
        return self._runtime

    def network(self) -> Network:
        """The campaign's network, built once per process by the runtime
        cache (a :class:`~repro.api.NetworkModel` over the same source, and
        this campaign's in-process jobs, share that one build)."""
        return self._resolve().network

    def validate(self) -> List[str]:
        """Structural problems of the network, computed once per build (a
        :class:`~repro.api.NetworkModel` over the same source, and the CLI,
        report the same list)."""
        return list(self._resolve().validation)

    def jobs(self, memo_scope: str = "") -> List[CampaignJob]:
        """One job per injection point, of the run ``memo_scope`` names."""
        if not self._injections:
            self.add_default_injections()
        template = CampaignJob(
            self.source,
            "",
            "",
            settings=self.settings,
            facts=self.facts,
            built=self._resolve().content_digest,
            memo_scope=memo_scope,
        )
        if self._store is not None:
            # Jobs reference the store by directory + content token; each
            # worker process merges the stored verdicts locally, exactly
            # once per store state (see execute_job).
            template = replace(
                template,
                store_dir=self._store.directory,
                store_token=self._store.content_token(),
            )
        return [
            replace(
                template,
                element=element,
                port=port,
                facts=self._injection_facts.get((element, port), self.facts),
            )
            for element, port in sorted(set(self._injections))
        ]

    def _publish(self, result: CampaignResult) -> None:
        """Persist every fresh verdict this campaign derived.  A
        definite-vs-definite conflict with the store proves a corrupted
        record that slipped past the integrity checks — but the finished
        result in hand was computed from live solves and is correct
        regardless, so the store's never-crash-a-campaign contract applies:
        warn loudly, count a degraded operation and skip the publish
        instead of discarding the run."""
        result.stats.store_entries_loaded = self._store.verdict_count()
        publish_started = time.perf_counter()
        try:
            with get_tracer().span(
                "store.publish", entries=len(result.verdict_cache)
            ):
                result.stats.store_entries_published = self._store.publish(
                    result.verdict_cache
                )
        except CacheConflictError as exc:
            warnings.warn(
                f"verdict store at {self._store.directory} conflicts "
                f"with this campaign's live solves ({exc}); nothing was "
                "published — the store is likely corrupted (inspect / "
                "compact it)",
                RuntimeWarning,
                stacklevel=2,
            )
            self._store.degraded_operations += 1
            result.stats.store_entries_published = 0
            return
        STORE_PUBLISH_SECONDS.get().observe(time.perf_counter() - publish_started)

    def run(
        self,
        workers: int = 1,
        on_report: Optional[Callable[[JobReport], None]] = None,
        pool: Optional[object] = None,
    ) -> CampaignResult:
        """Execute the campaign: the delta stage splices what a baseline
        answers, the executor runs the rest.

        ``on_report`` streams every final :class:`JobReport` — spliced from
        a delta baseline or executed — to the caller the moment it is
        known, before the rest of the campaign finishes (the resident
        service answers queries from these before the slowest job lands).
        ``pool`` lends an already-running ``ProcessPoolExecutor``
        (service-owned, reused across requests); a borrowed pool is never
        shut down here.  Either way the aggregated result is bit-identical
        to the default barrier run.

        Every stage runs under a span named after it, so the ``campaign``
        span of a traced run has no unattributed remainder.
        """
        if workers < 1:
            raise ValueError(f"'workers' must be >= 1, not {workers}")
        tracer = get_tracer()
        with tracer.span(
            "campaign", source=self.source.describe(), workers=workers
        ) as campaign_span:
            started = time.perf_counter()
            with tracer.span("validate"):
                validation_problems = self.validate()
            store_degraded_before = (
                self._store.degraded_operations if self._store is not None else 0
            )
            with tracer.span("jobs"):
                pending = self.jobs(memo_scope=os.urandom(8).hex())
            delta = DeltaReducer(
                self.source,
                self.network,
                enabled=self.settings.delta,
                baseline=self._baseline,
                store=self._store,
            )
            final_reports: List[JobReport] = []

            def deliver(report: JobReport) -> None:
                """Account one final report the moment it is known."""
                if report.spans:
                    # Worker-recorded spans: remap their ids into this
                    # process's trace and hang their roots off the campaign
                    # span.  Telemetry only — the report's answer is final
                    # before this line and untouched after it.
                    tracer.absorb(report.spans, parent_id=campaign_span.span_id)
                record_job_report(report)
                final_reports.append(report)
                if on_report is not None:
                    on_report(report)

            with tracer.span("delta.partition", jobs=len(pending)):
                pending, spliced = delta.partition(pending)
                # Spliced reports are final: stream them before anything
                # slower runs (aggregation is order-independent, so this
                # cannot move any answer).
                for report in spliced:
                    deliver(report)
            with tracer.span("execute", jobs=len(pending)):
                mode = run_jobs(pending, workers, pool, deliver)
            with tracer.span("aggregate", jobs=len(final_reports)):
                result = CampaignResult.aggregate(
                    self.source.describe(),
                    self.facts.kinds,
                    final_reports,
                    validation_problems=validation_problems,
                    execution_mode=mode,
                    workers=workers,
                    wall_clock_seconds=time.perf_counter() - started,
                )
            if self._store is not None:
                self._publish(result)
            delta.finish(result)
            if self._store is not None:
                # Driver-side store failures (failed quarantine moves,
                # baseline writes, ...) during this run join the job-side
                # tier failures already absorbed from the reports.
                result.stats.solver_stats.record_degraded_operation(
                    self._store.degraded_operations - store_degraded_before
                )
            # One registry publication per finished campaign: every series
            # the roll-up's counters name but the per-report outcomes.
            record_campaign_stats(result.stats)
            return result
