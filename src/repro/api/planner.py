"""The plan compiler: many declarative queries, one campaign execution.

:func:`compile_plan` inspects a batch of :mod:`repro.api.queries` objects
and computes the **minimal set of injection jobs** they jointly need: the
union of every query's injection ports (two queries over the same port share
one symbolic execution) and the union of the per-job facts the workers must
collect (reachability/loop/invariant aggregation, header-visibility checks,
witness sampling, example traces).

:func:`execute_plan` runs that job set through the
:class:`~repro.core.campaign.VerificationCampaign` pipeline — process-pool
workers, the verdict-cache tiers, the state memo and delta splicing are all
inherited — and demultiplexes one
:class:`~repro.api.queries.QueryResult` per query out of the shared per-job
reports, each the moment the jobs in its own port scope have reported.  Answers are bit-identical to running each
query through its own dedicated campaign: the demultiplexer re-aggregates
the *same* job reports with the *same* order-independent aggregation code.

A plan-cache hit is demultiplexed the same way: the store keeps a finished
run's job reports (in the delta baseline's stored form) and its
:data:`~repro.core.facts.RUN_FIELDS`, never a rendered answer, so the live
queries evaluate a hit exactly as they evaluate a fresh run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import get_tracer
from repro.obs.metrics import PLAN_CACHE, STREAM_FIRST_RESULT_SECONDS

from repro.api.model import NetworkModel
from repro.api.queries import Query, QueryResult
from repro.core.campaign import (
    CampaignResult,
    Facts,
    JobReport,
    RunSettings,
    VerificationCampaign,
)
from repro.core.delta import parse_reports, report_from_payload
from repro.core.facts import RUN_FIELDS, schema_digest
from repro.core.queries import AGGREGATIONS, CampaignStats, port_key


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


#: ``plan.max_hops``, ``plan.kinds``, …: which declared object of a plan
#: each flat read-only view comes from.
_PLAN_VIEWS = {
    spec.name: part
    for part, declared in (("settings", RunSettings), ("facts", Facts))
    for spec in fields(declared)
}


@dataclass(frozen=True)
class Plan:
    """A compiled query batch: which jobs to run, which facts to collect.

    ``port_facts`` holds, per injection port, the union of the fact
    requirements of exactly the queries that need that port — so a port
    only pays for collection channels some query will read — and its keys
    are ``injections``: the deduplicated union of every query's ports, the
    exact set of engine jobs the batch costs (``plan.job_count``).
    ``facts`` is the union over the whole batch (the kinds the campaign
    aggregates); ``settings`` the run description it was compiled under.
    """

    model: NetworkModel
    queries: Tuple[Query, ...]
    facts: Facts
    port_facts: Tuple[Tuple[Tuple[str, str], Facts], ...]
    settings: RunSettings

    def __getattr__(self, name: str):
        if name in _PLAN_VIEWS:
            return getattr(getattr(self, _PLAN_VIEWS[name]), name)
        raise AttributeError(name)

    @property
    def injections(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(port for port, _ in self.port_facts)

    @property
    def job_count(self) -> int:
        return len(self.port_facts)

    def fingerprint(self) -> str:
        """Stable plan identity: independent of the order queries were
        given in (the same batch always compiles to the same plan) and —
        like the model fingerprint it pairs with in the plan-cache key —
        of *where* a snapshot directory lives, so byte-identical checkouts
        share plan identities.  Of the settings only the identity fields
        take part: tier switches never move an answer, so e.g. spliced
        and direct runs share one plan-cache identity."""
        payload = (
            self.model.fingerprint() or self.model.describe(),
            tuple(sorted(query.describe() for query in self.queries)),
            self.facts,
            self.port_facts,
            self.settings.identity(),
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "network": self.model.describe(),
            "queries": [query.describe() for query in self.queries],
            "injections": [port_key(*port) for port in self.injections],
            **self.facts.to_dict(),
            "port_facts": {
                port_key(*port): facts.to_dict() for port, facts in self.port_facts
            },
            "jobs": self.job_count,
            "fingerprint": self.fingerprint(),
        }


def compile_plan(
    model: NetworkModel, queries: Sequence[Query], **settings: object
) -> Plan:
    """Compile a batch of queries into the minimal shared job set, to run
    under ``settings`` (:class:`~repro.core.settings.RunSettings` fields)."""
    if isinstance(queries, Query):
        queries = (queries,)
    queries = tuple(queries)
    with get_tracer().span("plan.compile", queries=len(queries)):
        if not queries:
            raise ValueError("compile_plan needs at least one query")
        for query in queries:
            if not isinstance(query, Query):
                raise TypeError(f"not a query: {query!r}")

        default_ports: Tuple[Tuple[str, str], ...] = ()
        if any(query.needs_default_injections() for query in queries):
            default_ports = tuple(model.injection_ports())
        # Each port's facts are the union over the queries that *need that
        # port*; the batch's are the union over all of them.
        facts = nothing = Facts()
        per_port: Dict[Tuple[str, str], Facts] = {}
        for query in queries:
            needed = query.requirements()
            facts = facts.merge(needed)
            scope = set(query.injections())
            if query.needs_default_injections():
                scope.update(default_ports)
            for port in scope:
                per_port[port] = per_port.get(port, nothing).merge(needed)
        return Plan(
            model=model,
            queries=queries,
            facts=facts,
            port_facts=tuple(sorted(per_port.items())),
            settings=RunSettings(**settings),
        )


# ---------------------------------------------------------------------------
# Execution and demultiplexing
# ---------------------------------------------------------------------------


class PlanContext:
    """What a query's ``evaluate`` sees: the job reports of the shared
    campaign plus scope-resolution and re-aggregation helpers.

    ``subreport`` folds a query's aggregation backend out of the job reports
    in its scope **with the campaign's own fold**, so a demuxed answer is
    bit-identical to a dedicated legacy campaign over the same ports.

    Constructed either over a finished :class:`CampaignResult` or — for the
    incremental demux — over the live ``reports`` mapping (``source_key`` →
    :class:`JobReport`) the campaign is still filling: a query only ever
    reads the jobs in its own scope, so evaluating it the moment that scope
    is fully reported is bit-identical to evaluating it after the
    barrier."""

    def __init__(
        self,
        plan: Plan,
        campaign: Optional[CampaignResult] = None,
        *,
        reports: Optional[Mapping[str, JobReport]] = None,
    ) -> None:
        self.plan = plan
        if campaign is not None:
            reports = {job.source_key: job for job in campaign.jobs}
        self._jobs = reports if reports is not None else {}
        self._default_keys = tuple(
            sorted(port_key(*port) for port in plan.model.injection_ports())
        )

    def default_scope(self) -> Tuple[str, ...]:
        return self._default_keys

    def resolve_scope(self, query: Query) -> Tuple[str, ...]:
        keys = set()
        if query.needs_default_injections():
            keys.update(self._default_keys)
        keys.update(port_key(*port) for port in query.injections())
        return tuple(sorted(keys))

    def jobs_for(self, scope: Iterable[str]) -> List[JobReport]:
        return [
            self._jobs[key] for key in sorted(set(scope)) if key in self._jobs
        ]

    def incomplete_ports(self, scope: Iterable[str]) -> List[str]:
        """The ports in ``scope`` whose job explored only part of their
        behaviour (cut short, or failed): absence of a finding there proves
        nothing, so no verdict over the scope may rest on it."""
        return [
            job.source_key
            for job in self.jobs_for(scope)
            if job.truncated or job.error is not None
        ]

    def subreport(self, kind: str, scope: Iterable[str], **fold_options):
        """One aggregation kind folded over the jobs in ``scope`` by the
        campaign's own fold (``AGGREGATIONS[kind].from_jobs``)."""
        jobs = sorted(self.jobs_for(scope), key=lambda j: (j.element, j.port))
        return AGGREGATIONS[kind].from_jobs(jobs, **fold_options)


@dataclass
class PlanResult:
    """The executed plan: per-query answers plus the run that computed them.

    ``run`` is that run as rendered (the :data:`~repro.core.facts.RUN_FIELDS`
    keys): the shared campaign's, or — on a plan-cache hit, which has
    ``from_cache`` True and no ``campaign`` — the stored one.  Either way
    the answers were evaluated here, by the live queries, over the job
    reports of that run (:meth:`from_cached`).
    """

    plan: Plan
    campaign: Optional[CampaignResult]
    results: Tuple[QueryResult, ...]
    run: Dict[str, object]
    from_cache: bool = False

    @classmethod
    def of_campaign(
        cls, plan: Plan, campaign: CampaignResult, results: Sequence[QueryResult]
    ) -> "PlanResult":
        run = {name: getattr(campaign, name) for name in RUN_FIELDS}
        run["stats"] = campaign.stats.to_dict()
        return cls(plan, campaign, tuple(results), run)

    @classmethod
    def from_cached(
        cls, plan: Plan, reports: Mapping[str, JobReport], run: Dict[str, object]
    ) -> Optional["PlanResult"]:
        """The plan's answers demultiplexed from a stored run's job
        reports, in the caller's query order; ``None`` when the reports
        are not exactly the plan's jobs."""
        if set(reports) != {port_key(*port) for port in plan.injections}:
            return None
        ctx = PlanContext(plan, reports=reports)
        results = tuple(query.evaluate(ctx) for query in plan.queries)
        return cls(plan, None, results, run, from_cache=True)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, key) -> QueryResult:
        if isinstance(key, int):
            return self.results[key]
        if isinstance(key, Query):
            key = key.describe()
        for result in self.results:
            if result.query == key:
                return result
        raise KeyError(key)

    @property
    def stats(self) -> CampaignStats:
        """The solver roll-up of the run that computed the answers (on a
        plan-cache hit rehydrated from the stored run, not the lookup)."""
        if self.campaign is not None:
            return self.campaign.stats
        return CampaignStats.from_dict(self.run["stats"])

    @property
    def job_errors(self):
        return self.campaign.job_errors if self.campaign is not None else []

    def fingerprint(self) -> str:
        payload = (
            self.plan.fingerprint(),
            tuple(sorted(result.fingerprint for result in self.results)),
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "network": self.plan.model.describe(),
            "plan": self.plan.to_dict(),
            "queries": [result.to_dict() for result in self.results],
            "validation_problems": self.plan.model.validate(),
            **self.run,
            "fingerprint": self.fingerprint(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def plan_record(result: PlanResult) -> Dict[str, object]:
    """A fresh result as a store record body: its job reports as the run's
    baseline encoded them (each reason text stated once in a trailing
    ``reasons`` table), the run that computed them, and its ``schema`` (the
    inverse of :func:`plan_from_record`)."""
    entries, reasons = result.campaign.baseline.encoded()
    reports = {key: entry["report"] for key, entry in entries.items()}
    return {"schema": schema_digest(), **result.run, "reports": reports,
            "reasons": reasons.texts}


def plan_from_record(
    body: Mapping[str, object]
) -> Tuple[Dict[str, JobReport], Dict[str, object]]:
    """The job reports and the run a :func:`plan_record` body holds.
    ``ValueError`` (or ``LookupError``, ``TypeError``) on a body of another
    schema, a report that does not decode or a run field missing."""
    payloads, reasons = parse_reports("plan", body)
    reports = {
        key: report_from_payload(payload, "plan", reasons)
        for key, payload in payloads.items()
    }
    return reports, {name: body[name] for name in RUN_FIELDS}


def execute_plan(
    plan: Plan,
    *,
    workers: int = 1,
    store: Optional[object] = None,
    baseline: Optional[object] = None,
    pool: Optional[object] = None,
    on_result: Optional[Callable[[int, QueryResult, int, int], None]] = None,
    **switches: object,
) -> PlanResult:
    """Run a compiled plan on the campaign pipeline and demultiplex the
    per-query answers.

    With a :class:`repro.store.VerificationStore` as ``store``, a finished
    run's job reports are stored on ``(model fingerprint, plan
    fingerprint)``: a repeated identical batch over an unchanged network is
    demultiplexed from them without running a single engine job, and the
    campaign that does run warm-starts from (and publishes back to) the
    store's verdict records.

    ``baseline`` hands the campaign an explicit delta baseline (a
    :class:`repro.core.delta.CampaignBaseline`, or its payload dict, which
    the campaign refuses with ``ValueError`` if it does not parse); with
    ``delta`` left on, directory models also auto-detect the store's
    recorded baseline, so an edited directory on a plan-cache miss only
    re-executes the injection ports the edit could have touched (see
    :mod:`repro.core.delta`).  ``switches`` (``delta=``, ``state_memo=``, …)
    override the plan's tier switches for this execution; none is part of
    the plan fingerprint.

    Demultiplexing is **incremental**: each query's :class:`QueryResult` is
    computed — and handed to ``on_result`` when one is given — the moment
    the jobs in *its* port scope have all reported, instead of after the
    whole campaign's barrier.  ``on_result(index, result, jobs_reported,
    jobs_total)`` receives the query's position in ``plan.queries``, its
    finished result, and how many of the plan's jobs had reported when it
    was emitted (a streamed answer has ``jobs_reported < jobs_total``
    whenever other jobs were still outstanding — the resident service
    forwards these so clients see answers before the slowest job lands).
    ``pool`` lends the campaign an already-running process pool (see
    :meth:`~repro.core.campaign.VerificationCampaign.run`).

    Invariant: a query only ever aggregates the jobs in its own scope, so
    nothing it reads changes after its scope completes — a streamed result
    is bit-identical to one evaluated after the barrier.  Plan-cache hits
    emit every result immediately.
    """
    if workers < 1:
        raise ValueError(f"'workers' must be >= 1, not {workers}")
    started = time.perf_counter()
    settings = plan.settings.switched(**switches)
    # The whole persistence stack — plan cache included — is gated on the
    # shared_cache switch: a --no-shared-cache run is the isolated
    # baseline and must neither read nor feed any cache tier.
    use_store = store is not None and settings.shared_cache
    model_fingerprint = plan.model.fingerprint() if use_store else None
    plan_fingerprint = plan.fingerprint() if model_fingerprint else None
    jobs_total = plan.job_count
    if model_fingerprint and plan_fingerprint:
        stored = store.get_plan(model_fingerprint, plan_fingerprint)
        if stored is not None:
            restored = PlanResult.from_cached(plan, *stored)
            if restored is not None:
                PLAN_CACHE.get().inc(result="hit")
                STREAM_FIRST_RESULT_SECONDS.get().observe(time.perf_counter() - started)
                if on_result is not None:
                    for index, cached_result in enumerate(restored.results):
                        on_result(index, cached_result, jobs_total, jobs_total)
                return restored
        PLAN_CACHE.get().inc(result="miss")
    campaign = VerificationCampaign(
        plan.model.source,
        store=store,
        baseline=baseline,
        **vars(settings),
        **vars(plan.facts),
    )
    for port, facts in plan.port_facts:
        campaign.add_injection(*port, facts=facts)
    reports: Dict[str, JobReport] = {}
    live = PlanContext(plan, reports=reports)
    pending: List[Tuple[int, frozenset]] = [
        (index, frozenset(live.resolve_scope(query)))
        for index, query in enumerate(plan.queries)
    ]
    streamed: Dict[int, QueryResult] = {}

    def on_report(report: JobReport) -> None:
        reports[report.source_key] = report
        for item in [item for item in pending if item[1] <= reports.keys()]:
            pending.remove(item)
            index, _ = item
            result = plan.queries[index].evaluate(live)
            if not streamed:
                # Time-to-first-streamed-result: the latency a resident-
                # service client actually feels, as opposed to the plan's
                # barrier wall (repro.serve forwards answers from here).
                STREAM_FIRST_RESULT_SECONDS.get().observe(
                    time.perf_counter() - started
                )
            streamed[index] = result
            if on_result is not None:
                on_result(index, result, len(reports), jobs_total)

    result = campaign.run(workers=workers, on_report=on_report, pool=pool)
    for index, query in enumerate(plan.queries):
        if index not in streamed:
            # A scope referencing ports outside the plan (defensive: compile
            # and demux disagreeing) still gets its barrier-time answer.
            streamed[index] = query.evaluate(live)
            if on_result is not None:
                on_result(index, streamed[index], len(result.jobs), jobs_total)
    plan_result = PlanResult.of_campaign(
        plan, result, [streamed[index] for index in range(len(plan.queries))]
    )
    if model_fingerprint and plan_fingerprint and not result.job_errors:
        store.put_plan(model_fingerprint, plan_fingerprint, plan_record(plan_result))
    return plan_result
