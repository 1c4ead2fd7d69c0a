"""Verification campaigns: fan one network out across many injection ports.

The engine answers questions about one injection port at a time; the claims
that matter operationally are network-wide.  A :class:`VerificationCampaign`
takes a network *source*, a set of injection points and packet templates,
turns them into one :class:`~repro.core.jobs.CampaignJob` per injection
point and pushes them through a **staged pipeline**:

``validate → jobs → [delta, symmetry] partition → execute → aggregate →
store publish → reducer finish (counters, baseline record)``

* the *job reducers* (:class:`~repro.core.delta.DeltaReducer`,
  :class:`~repro.core.symmetry.SymmetryReducer`) are the work-avoidance
  stages: each takes jobs off the run list and later supplies their reports;
* the *executor* (:func:`repro.core.executor.run_jobs`) runs what is left —
  in-process or on a process pool — and is the only stage that knows how;
* the aggregation folds the per-job reports into the query objects of
  :mod:`repro.core.queries`.  It is order-independent, so a campaign run on
  ``--workers N``, with or without either reducer, produces bit-identical
  query results to a plain sequential run.

This module keeps the orchestration (:class:`VerificationCampaign`,
:class:`CampaignResult`) and re-exports the names of the stages' modules
(:mod:`~repro.core.sources`, :mod:`~repro.core.jobs`,
:mod:`~repro.core.executor`, :mod:`~repro.core.symmetry`,
:mod:`~repro.core.delta`) that users import from here.
"""

from __future__ import annotations

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
from repro.core.jobs import (
    CAMPAIGN_QUERIES,
    DEFAULT_INVARIANT_FIELDS,
    PACKET_TEMPLATES,
    QUERY_INVARIANTS,
    QUERY_LOOPS,
    QUERY_REACHABILITY,
    CampaignJob,
    JobReport,
    PortFacts,
    Runtime,
    clear_runtime_cache,
    execute_job,
    execution_counters,
    reset_execution_counters,
    runtime_for,
    semantic_projection,
)
from repro.core.queries import (
    CampaignStats,
    InvariantReport,
    LoopFinding,
    LoopReport,
    ReachabilityMatrix,
)
from repro.core.sources import (
    NetworkSource,
    default_injection_ports,
    free_input_ports,
)
from repro.core.symmetry import SymmetryAuditError, SymmetryReducer
from repro.network.topology import Network
from repro.obs import (
    get_registry,
    get_tracer,
    record_campaign_stats,
    record_job_report,
)
from repro.solver.verdict_cache import CacheConflictError, resolve_verdict
from repro.store.sharding import DEFAULT_PUBLISH_BATCH, DEFAULT_SHARD_COUNT

__all__ = [
    "CAMPAIGN_QUERIES",
    "DEFAULT_INVARIANT_FIELDS",
    "PACKET_TEMPLATES",
    "QUERY_INVARIANTS",
    "QUERY_LOOPS",
    "QUERY_REACHABILITY",
    "CampaignJob",
    "CampaignResult",
    "JobReport",
    "NetworkSource",
    "PortFacts",
    "SymmetryAuditError",
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
    #: sources only) — what ``--save-baseline`` writes and the store keeps.
    baseline_payload: Optional[Dict[str, object]] = field(
        default=None, repr=False
    )

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
        for job in sorted(jobs, key=lambda j: (j.element, j.port)):
            result.jobs.append(job)
            result.stats.absorb(job)
            # Merge the job's fresh verdicts into the campaign-level cache
            # under the one verdict-combination policy (resolve_verdict):
            # definite verdicts supersede "unknown"s, so the merged map is
            # order-independent; a definite-vs-definite conflict would mean
            # canonicalization is unsound and must fail loudly.
            for fingerprint, verdict in job.verdict_cache_entries:
                known = result.verdict_cache.get(fingerprint)
                action = resolve_verdict(known, verdict)
                if action == "conflict":
                    raise CacheConflictError(
                        f"jobs disagree on fingerprint {fingerprint[:12]}…: "
                        f"{known!r} vs {verdict!r}"
                    )
                if action == "replace":
                    result.verdict_cache[fingerprint] = verdict
            if job.error is not None:
                continue
            source_key = job.source_key
            if QUERY_REACHABILITY in result.queries:
                result.reachability.add_source(source_key)
                for destination, count in job.delivered_to.items():
                    result.reachability.record(source_key, destination, count)
            if QUERY_LOOPS in result.queries:
                result.loop_report.add_source(source_key)
                for loop in job.loops:
                    result.loop_report.record(
                        LoopFinding(
                            source=source_key,
                            detected_at=str(loop.get("detected_at", "?")),
                            reason=str(loop.get("reason", "")),
                            trace=tuple(loop.get("trace", ())),
                        )
                    )
            if QUERY_INVARIANTS in result.queries:
                result.invariant_report.record_drops(source_key, job.drop_reasons)
                for field_name, cell in job.invariants.items():
                    result.invariant_report.record_field(
                        source_key,
                        field_name,
                        checked=cell.get("checked", 0),
                        held=cell.get("held", 0),
                        skipped=cell.get("skipped", 0),
                    )
        result.stats.wall_clock_seconds = wall_clock_seconds
        result.stats.verdict_cache_entries = len(result.verdict_cache)
        return result

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
        if QUERY_REACHABILITY in self.queries:
            payload["reachability"] = self.reachability.to_dict()
        if QUERY_LOOPS in self.queries:
            payload["loops"] = self.loop_report.to_dict()
        if QUERY_INVARIANTS in self.queries:
            payload["invariants"] = self.invariant_report.to_dict()
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
        packet: str = "tcp",
        field_values: Optional[Dict[str, int]] = None,
        queries: Sequence[str] = CAMPAIGN_QUERIES,
        invariant_fields: Sequence[str] = DEFAULT_INVARIANT_FIELDS,
        visibility_fields: Sequence[str] = (),
        witness_fields: Sequence[Tuple[str, int]] = (),
        record_examples: bool = False,
        max_hops: int = 128,
        max_paths: int = 1_000_000,
        strategy: str = "dfs",
        shared_cache: bool = True,
        store: Optional[object] = None,
        cache_shards: int = DEFAULT_SHARD_COUNT,
        publish_batch: int = DEFAULT_PUBLISH_BATCH,
        validation: Optional[Sequence[str]] = None,
        symmetry: bool = True,
        symmetry_audit: bool = False,
        symmetry_audit_seed: int = 0,
        delta: bool = True,
        baseline: Optional[object] = None,
    ) -> None:
        if isinstance(source, Network):
            source = NetworkSource.from_network(source)
        elif isinstance(source, str):
            source = NetworkSource.from_directory(source)
        self.source = source
        unknown = set(queries) - set(CAMPAIGN_QUERIES)
        if unknown:
            known = ", ".join(CAMPAIGN_QUERIES)
            raise ValueError(f"unknown queries {sorted(unknown)}; known: {known}")
        # ``shared_cache`` switches the whole cross-job verdict-cache stack:
        # the per-worker persistent cache, the process-shared tier used on
        # pools, *and* the persistent store — off, jobs are a truly isolated
        # baseline.  ``store`` (a :class:`repro.store.VerificationStore`) is
        # the durable warm-start path: workers merge its shards once per
        # store state and the campaign publishes its fresh verdicts back
        # after aggregation.
        self._store = store if shared_cache else None
        self._shared_tier_shards = cache_shards if shared_cache else 0
        self._publish_batch = publish_batch
        # Job-level symmetry reduction: execute one engine job per
        # equivalence class of (network, injection port, config) up to
        # renaming, instantiate the rest.  ``symmetry_audit`` re-executes
        # one random member per class (seeded, so CI runs are pinned) and
        # raises SymmetryAuditError unless the instantiated report is
        # bit-identical to the direct run.
        self._symmetry = symmetry
        self._symmetry_audit = symmetry_audit
        self._symmetry_audit_seed = symmetry_audit_seed
        # Delta verification: splice a previous run's answers for injection
        # ports the directory diff provably did not touch, and execute only
        # the rest.  ``baseline`` is an explicit CampaignBaseline (or its
        # payload dict, e.g. a ``--save-baseline`` file); with ``delta``
        # left on, directory campaigns also auto-detect a baseline from the
        # store.  Like every other tier this changes who answers, never the
        # answer — anything unprovable falls back to executing the job.
        self._delta = delta
        if baseline is not None and not isinstance(baseline, CampaignBaseline):
            baseline = CampaignBaseline.from_payload(baseline)
        self._baseline: Optional[CampaignBaseline] = baseline
        self._job_template = CampaignJob(
            source=source,
            element="",
            port="",
            packet=packet,
            field_values=tuple(sorted((field_values or {}).items())),
            queries=tuple(queries),
            invariant_fields=tuple(invariant_fields),
            visibility_fields=tuple(visibility_fields),
            witness_fields=tuple(witness_fields),
            record_examples=record_examples,
            max_hops=max_hops,
            max_paths=max_paths,
            strategy=strategy,
            use_verdict_cache=shared_cache,
        )
        self._injections: List[Tuple[str, str]] = []
        self._injection_facts: Dict[Tuple[str, str], PortFacts] = {}
        # The runtime-cache entry this campaign resolved, pinned for the
        # campaign's lifetime so every stage sees one build even if the
        # LRU evicts the entry in between.
        self._runtime: Optional[Runtime] = None
        # ``validation`` hoists Network.validate() out of the campaign: a
        # NetworkModel validates its network exactly once and hands the
        # findings to every campaign (and the CLI) it spawns, instead of each
        # construction site silently re-validating the same network.
        self._validation: Optional[List[str]] = (
            list(validation) if validation is not None else None
        )

    # -- injection points ---------------------------------------------------------

    def add_injection(
        self,
        element: str,
        port: str = "in0",
        facts: Optional[PortFacts] = None,
    ) -> "VerificationCampaign":
        """Add one injection point.  ``facts`` narrows the fact channels the
        port's job collects to a subset of the campaign's globals (the API
        planner's per-port narrowing); omitted, the job collects the full
        template."""
        if facts is not None:
            unknown = set(facts.queries) - set(self._job_template.queries)
            if unknown:
                raise ValueError(
                    f"per-port facts ask for {sorted(unknown)} which the "
                    f"campaign does not aggregate {self._job_template.queries}"
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
        """Structural problems of the network, computed once per campaign."""
        if self._validation is None:
            self._validation = self.network().validate()
        return self._validation

    def jobs(self) -> List[CampaignJob]:
        if not self._injections:
            self.add_default_injections()
        template = self._job_template
        if self._store is not None:
            # Jobs reference the store by directory + content token; each
            # worker process merges the disk shards locally, exactly once
            # per store state (see execute_job).
            template = replace(
                template,
                store_dir=self._store.directory,
                store_token=self._store.content_token(),
                store_shards=self._store.shard_count,
            )
        jobs = []
        for element, port in sorted(set(self._injections)):
            job = replace(template, element=element, port=port)
            facts = self._injection_facts.get((element, port))
            if facts is not None:
                job = replace(
                    job,
                    queries=tuple(facts.queries),
                    invariant_fields=tuple(facts.invariant_fields),
                    visibility_fields=tuple(facts.visibility_fields),
                    witness_fields=tuple(facts.witness_fields),
                    record_examples=facts.record_examples,
                )
            jobs.append(job)
        return jobs

    def _reducers(self) -> list:
        """The work-avoidance stages, outermost first.  A fixed list: delta
        answers whole ports from the baseline, symmetry collapses what is
        left — so an edited zone re-executes once, not once per member."""
        return [
            DeltaReducer(
                self.source,
                self.network,
                enabled=self._delta,
                baseline=self._baseline,
                store=self._store,
            ),
            SymmetryReducer(
                self.network,
                enabled=self._symmetry,
                audit=self._symmetry_audit,
                audit_seed=self._symmetry_audit_seed,
            ),
        ]

    def _publish(self, result: CampaignResult) -> None:
        """Persist every fresh verdict this campaign derived.  A
        definite-vs-definite conflict with the store proves either unsound
        canonicalization or a corrupted segment that slipped past the
        integrity checks — but the finished result in hand was computed
        from live solves and is correct regardless, so the store's
        never-crash-a-campaign contract applies: warn loudly and skip the
        publish instead of discarding the run."""
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
                "compact it), or canonicalization is unsound",
                RuntimeWarning,
                stacklevel=2,
            )
            result.stats.store_entries_published = 0
            return
        get_registry().histogram(
            "repro_store_publish_seconds",
            "Wall-clock seconds per campaign store publish.",
        ).observe(time.perf_counter() - publish_started)

    def run(
        self,
        workers: int = 1,
        on_report: Optional[Callable[[JobReport], None]] = None,
        pool: Optional[object] = None,
    ) -> CampaignResult:
        """Execute the campaign: a fold over the reducer list in front of
        one executor.

        Each **reducer** has the same shape.  ``partition(jobs) -> (jobs
        still to run, reports ready now)`` takes work off the run list;
        ``expand(finished report) -> derived reports`` supplies, from a
        report of a job it let through, the reports of jobs it held back;
        ``finish(result)`` writes the stage's counters once the result is
        aggregated.  Reducers stack: a report that becomes final behind
        reducer *k* is offered to reducers *k-1 … 0* in turn.

        ``on_report`` streams every final :class:`JobReport` — spliced from
        a delta baseline, executed, or symmetry-instantiated — to the
        caller the moment it is known, before the rest of the campaign
        finishes (the resident service answers queries from these before
        the slowest job lands).  ``pool`` lends an already-running
        ``ProcessPoolExecutor`` (service-owned, reused across requests); a
        borrowed pool is never shut down here.  Either way the aggregated
        result is bit-identical to the default barrier run.

        Every stage runs under a span named after it, so the ``campaign``
        span of a traced run has no unattributed remainder.
        """
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
                pending = self.jobs()
            reducers = self._reducers()
            final_reports: List[JobReport] = []

            def deliver(report: JobReport, depth: int) -> None:
                """Account one final report — it answers a job that got
                past ``reducers[:depth]`` — and everything those reducers
                derive from it, the moment it is known."""
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
                for index in reversed(range(depth)):
                    for derived in reducers[index].expand(report):
                        deliver(derived, index)

            for depth, reducer in enumerate(reducers):
                with tracer.span(reducer.name + ".partition", jobs=len(pending)):
                    pending, ready = reducer.partition(pending)
                    # Reports a partition already produced are final:
                    # stream them before anything slower runs (aggregation
                    # is order-independent, so this cannot move any answer).
                    for report in ready:
                        deliver(report, depth)
            with tracer.span("execute", jobs=len(pending)):
                mode = run_jobs(
                    pending,
                    workers,
                    pool,
                    lambda report: deliver(report, len(reducers)),
                    shared_tier_shards=self._shared_tier_shards,
                    publish_batch=self._publish_batch,
                )
            with tracer.span("aggregate", jobs=len(final_reports)):
                result = CampaignResult.aggregate(
                    self.source.describe(),
                    self._job_template.queries,
                    final_reports,
                    validation_problems=validation_problems,
                    execution_mode=mode,
                    workers=workers,
                    wall_clock_seconds=time.perf_counter() - started,
                )
            if self._store is not None:
                self._publish(result)
            for reducer in reducers:
                reducer.finish(result)
            if self._store is not None:
                # Driver-side store failures (failed quarantine moves,
                # baseline writes, ...) during this run join the job-side
                # tier failures already absorbed from the reports.
                result.stats.solver_stats.record_degraded_operation(
                    self._store.degraded_operations - store_degraded_before
                )
            # One registry publication per finished campaign: the roll-up
            # counters that have no per-report home (symmetry skips, store
            # traffic, degraded operations) land in repro.obs.metrics here.
            record_campaign_stats(result.stats)
            return result
