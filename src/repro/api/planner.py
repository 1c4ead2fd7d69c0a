"""The plan compiler: many declarative queries, one campaign execution.

:func:`compile_plan` inspects a batch of :mod:`repro.api.queries` objects
and computes the **minimal set of injection jobs** they jointly need: the
union of every query's injection ports (two queries over the same port share
one symbolic execution) and the union of the per-job facts the workers must
collect (reachability/loop/invariant aggregation, header-visibility checks,
witness sampling, example traces).

:func:`execute_plan` runs that job set through the
:class:`~repro.core.campaign.VerificationCampaign` pipeline — process-pool
workers, the verdict-cache tiers, delta splicing and symmetry reduction are
all inherited — and demultiplexes one
:class:`~repro.api.queries.QueryResult` per query out of the shared per-job
reports, each the moment the jobs in its own port scope have reported.  Answers are bit-identical to running each
query through its own dedicated campaign: the demultiplexer re-aggregates
the *same* job reports with the *same* order-independent aggregation code.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import get_registry, get_tracer

from repro.api.model import NetworkModel
from repro.api.queries import Query, QueryResult, Requirements
from repro.core.campaign import (
    CAMPAIGN_QUERIES,
    CampaignResult,
    JobReport,
    PortFacts,
    VerificationCampaign,
)
from repro.core.queries import CampaignStats, port_key


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """A compiled query batch: which jobs to run, which facts to collect.

    ``injections`` is the deduplicated union of every query's ports — the
    exact set of engine jobs the batch costs (``plan.job_count``).
    ``port_facts`` narrows each job to the union of the fact requirements
    of exactly the queries that need that port (not the whole batch), so a
    port only pays for collection channels some query will read.
    """

    model: NetworkModel
    queries: Tuple[Query, ...]
    injections: Tuple[Tuple[str, str], ...]
    kinds: Tuple[str, ...]
    invariant_fields: Tuple[str, ...]
    visibility_fields: Tuple[str, ...]
    witness_fields: Tuple[Tuple[str, int], ...]
    record_examples: bool
    port_facts: Tuple[Tuple[Tuple[str, str], PortFacts], ...] = ()
    packet: str = "tcp"
    field_values: Tuple[Tuple[str, int], ...] = ()
    max_hops: int = 128
    max_paths: int = 1_000_000
    strategy: str = "dfs"
    shared_cache: bool = True
    #: Job-level symmetry reduction (repro.network.view): the campaign
    #: executes one engine job per renaming-equivalence class of the plan's
    #: injections and instantiates the rest, so ``execution_counters()``
    #: count class representatives, not ports.  Deliberately *excluded* from
    #: the plan fingerprint: symmetry changes which tier answers, never the
    #: answer, so symmetric and direct runs share one plan-cache identity.
    symmetry: bool = True

    @property
    def job_count(self) -> int:
        return len(self.injections)

    def fingerprint(self) -> str:
        """Stable plan identity: independent of the order queries were
        given in (the same batch always compiles to the same plan) and —
        like the model fingerprint it pairs with in the plan-cache key —
        of *where* a snapshot directory lives, so byte-identical checkouts
        share plan identities."""
        payload = (
            self.model.fingerprint() or self.model.describe(),
            tuple(sorted(query.describe() for query in self.queries)),
            self.injections,
            self.kinds,
            self.invariant_fields,
            self.visibility_fields,
            self.witness_fields,
            self.record_examples,
            self.port_facts,
            self.packet,
            self.field_values,
            self.max_hops,
            self.max_paths,
            self.strategy,
            self.shared_cache,
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "network": self.model.describe(),
            "queries": [query.describe() for query in self.queries],
            "injections": [port_key(*port) for port in self.injections],
            "kinds": list(self.kinds),
            "invariant_fields": list(self.invariant_fields),
            "visibility_fields": list(self.visibility_fields),
            "witness_fields": [list(pair) for pair in self.witness_fields],
            "record_examples": self.record_examples,
            "port_facts": {
                port_key(*port): {
                    "kinds": list(facts.queries),
                    "invariant_fields": list(facts.invariant_fields),
                    "visibility_fields": list(facts.visibility_fields),
                    "witness_fields": [list(p) for p in facts.witness_fields],
                    "record_examples": facts.record_examples,
                }
                for port, facts in self.port_facts
            },
            "jobs": self.job_count,
            "symmetry": self.symmetry,
            "fingerprint": self.fingerprint(),
        }


def compile_plan(
    model: NetworkModel,
    queries: Sequence[Query],
    *,
    packet: str = "tcp",
    field_values: Optional[Mapping[str, int]] = None,
    max_hops: int = 128,
    max_paths: int = 1_000_000,
    strategy: str = "dfs",
    shared_cache: bool = True,
    narrow_facts: bool = True,
    symmetry: bool = True,
) -> Plan:
    """Compile a batch of queries into the minimal shared job set.

    ``narrow_facts`` (on by default) computes each port's fact requirements
    as the union over the queries that *need that port*; off, every job
    collects the whole batch's union (the pre-narrowing behaviour, kept as
    the comparison baseline for tests and benchmarks).
    """
    if isinstance(queries, Query):
        queries = (queries,)
    queries = tuple(queries)
    with get_tracer().span("plan.compile", queries=len(queries)):
        if not queries:
            raise ValueError("compile_plan needs at least one query")
        for query in queries:
            if not isinstance(query, Query):
                raise TypeError(f"not a query: {query!r}")

        requirements = Requirements()
        ports = set()
        needs_defaults = False
        for query in queries:
            requirements = requirements.merge(query.requirements())
            ports.update(query.injections())
            needs_defaults = needs_defaults or query.needs_default_injections()
        default_ports: Tuple[Tuple[str, str], ...] = ()
        if needs_defaults:
            default_ports = tuple(model.injection_ports())
            ports.update(default_ports)

        def _collapse_witness_budgets(
            witness_fields: Iterable[Tuple[str, int]]
        ) -> Tuple[Tuple[str, int], ...]:
            # The same field requested with different sample budgets
            # collapses to one collection pass at the largest budget.
            budget: Dict[str, int] = {}
            for name, samples in witness_fields:
                budget[name] = max(budget.get(name, 0), samples)
            return tuple(sorted(budget.items()))

        port_facts: Tuple[Tuple[Tuple[str, str], PortFacts], ...] = ()
        if narrow_facts:
            per_port: Dict[Tuple[str, str], Requirements] = {}
            for query in queries:
                scope = set(query.injections())
                if query.needs_default_injections():
                    scope.update(default_ports)
                query_requirements = query.requirements()
                for port in scope:
                    per_port[port] = per_port.get(port, Requirements()).merge(
                        query_requirements
                    )
            port_facts = tuple(
                (
                    port,
                    PortFacts(
                        queries=tuple(
                            k for k in CAMPAIGN_QUERIES if k in reqs.kinds
                        ),
                        invariant_fields=tuple(sorted(reqs.invariant_fields)),
                        visibility_fields=tuple(sorted(reqs.visibility_fields)),
                        witness_fields=_collapse_witness_budgets(reqs.witness_fields),
                        record_examples=reqs.record_examples,
                    ),
                )
                for port, reqs in sorted(per_port.items())
            )

        return Plan(
            model=model,
            queries=queries,
            injections=tuple(sorted(ports)),
            kinds=tuple(k for k in CAMPAIGN_QUERIES if k in requirements.kinds),
            invariant_fields=tuple(sorted(requirements.invariant_fields)),
            visibility_fields=tuple(sorted(requirements.visibility_fields)),
            witness_fields=_collapse_witness_budgets(requirements.witness_fields),
            record_examples=requirements.record_examples,
            port_facts=port_facts,
            packet=packet,
            field_values=tuple(sorted((field_values or {}).items())),
            max_hops=max_hops,
            max_paths=max_paths,
            strategy=strategy,
            shared_cache=shared_cache,
            symmetry=symmetry,
        )


# ---------------------------------------------------------------------------
# Execution and demultiplexing
# ---------------------------------------------------------------------------


class PlanContext:
    """What a query's ``evaluate`` sees: the shared campaign result plus
    scope-resolution and re-aggregation helpers.

    ``subreport`` rebuilds a query's aggregation backend from the filtered
    job reports **with the campaign's own aggregation code**, so a demuxed
    answer is bit-identical to a dedicated legacy campaign over the same
    ports.

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
        source: Optional[str] = None,
        reports: Optional[Mapping[str, JobReport]] = None,
    ) -> None:
        self.plan = plan
        self.campaign = campaign
        if campaign is not None:
            self._source = campaign.source
            self._jobs = {job.source_key: job for job in campaign.jobs}
        else:
            self._source = source if source is not None else plan.model.describe()
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

    def subreport(
        self,
        kind: str,
        scope: Iterable[str],
        invariant_fields: Optional[Sequence[str]] = None,
    ):
        jobs = self.jobs_for(scope)
        if invariant_fields is not None:
            wanted = set(invariant_fields)
            jobs = [
                replace(
                    job,
                    invariants={
                        name: dict(cell)
                        for name, cell in job.invariants.items()
                        if name in wanted
                    },
                )
                for job in jobs
            ]
        sub = CampaignResult.aggregate(self._source, (kind,), jobs)
        return {
            "reachability": sub.reachability,
            "loops": sub.loop_report,
            "invariants": sub.invariant_report,
        }[kind]


@dataclass
class PlanResult:
    """The executed plan: per-query answers plus the shared campaign run.

    A result restored from the persistent plan cache
    (:meth:`from_cached`) has ``from_cache`` True and no ``campaign`` —
    the answers, fingerprints and serialised report are the ones the
    original execution produced, verbatim.
    """

    plan: Plan
    campaign: Optional[CampaignResult]
    results: Tuple[QueryResult, ...]
    from_cache: bool = False
    cached_payload: Optional[Dict[str, object]] = None

    @classmethod
    def from_cached(
        cls, plan: Plan, payload: Dict[str, object]
    ) -> Optional["PlanResult"]:
        """Rebuild a result from a stored payload, or ``None`` when the
        payload cannot serve this plan.

        ``Plan.fingerprint()`` is deliberately order-independent, so the
        stored payload may hold the answers in a *different* batch order
        than this caller used — results are re-matched to ``plan.queries``
        by their canonical query text so positional access
        (``result[0]``, iteration) stays aligned with the caller's batch.
        """
        by_text: Dict[str, List[Dict[str, object]]] = {}
        for entry in payload.get("queries", ()):
            by_text.setdefault(str(entry.get("query", "")), []).append(entry)
        ordered = []
        for query in plan.queries:
            bucket = by_text.get(query.describe())
            if not bucket:
                return None  # treat as a cache miss, never misattribute
            ordered.append(QueryResult.from_cached(bucket.pop(0)))
        if any(bucket for bucket in by_text.values()):
            return None  # leftover answers: not this batch
        return cls(
            plan=plan,
            campaign=None,
            results=tuple(ordered),
            from_cache=True,
            cached_payload=dict(payload),
        )

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
    def stats(self):
        """The shared campaign's solver roll-up.  On a plan-cache hit the
        original execution's stats are rehydrated from the stored payload,
        so ``result.stats.<counter>`` keeps working whichever tier
        answered (the counters describe the run that *computed* the
        answers, not the cache lookup)."""
        if self.campaign is not None:
            return self.campaign.stats
        stored = (self.cached_payload or {}).get("stats")
        if isinstance(stored, dict):
            return CampaignStats.from_dict(stored)
        return None

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
        if self.cached_payload is not None:
            # The serialised report the original execution produced —
            # returned verbatim so cached and fresh reports are comparable
            # bit for bit.
            return dict(self.cached_payload)
        return {
            "network": self.campaign.source,
            "plan": self.plan.to_dict(),
            "queries": [result.to_dict() for result in self.results],
            "validation_problems": list(self.campaign.validation_problems),
            "execution_mode": self.campaign.execution_mode,
            "workers": self.campaign.workers,
            "stats": self.campaign.stats.to_dict(),
            "fingerprint": self.fingerprint(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def _plan_cache_counter():
    return get_registry().counter(
        "repro_plan_cache_total",
        "Plan-result cache lookups against the store, by result.",
    )


def _first_result_histogram():
    return get_registry().histogram(
        "repro_stream_first_result_seconds",
        "Seconds from plan execution start to the first streamed result.",
    )


def _campaign_for(
    plan: Plan,
    *,
    store: Optional[object] = None,
    cache_shards: Optional[int] = None,
    baseline: Optional[object] = None,
    delta: bool = True,
) -> VerificationCampaign:
    """One fully-injected campaign for a compiled plan."""
    campaign_kwargs = {}
    if cache_shards is not None:
        campaign_kwargs["cache_shards"] = cache_shards
    campaign = VerificationCampaign(
        plan.model.source,
        packet=plan.packet,
        field_values=dict(plan.field_values),
        queries=plan.kinds,
        invariant_fields=plan.invariant_fields,
        visibility_fields=plan.visibility_fields,
        witness_fields=plan.witness_fields,
        record_examples=plan.record_examples,
        max_hops=plan.max_hops,
        max_paths=plan.max_paths,
        strategy=plan.strategy,
        shared_cache=plan.shared_cache,
        symmetry=plan.symmetry,
        store=store,
        delta=delta,
        baseline=baseline,
        validation=plan.model.validate(),
        **campaign_kwargs,
    )
    facts = dict(plan.port_facts)
    for element, port in plan.injections:
        campaign.add_injection(element, port, facts=facts.get((element, port)))
    return campaign


def execute_plan(
    plan: Plan,
    *,
    workers: int = 1,
    store: Optional[object] = None,
    cache_shards: Optional[int] = None,
    baseline: Optional[object] = None,
    delta: bool = True,
    pool: Optional[object] = None,
    on_result: Optional[Callable[[int, QueryResult, int, int], None]] = None,
) -> PlanResult:
    """Run a compiled plan on the campaign pipeline and demultiplex the
    per-query answers.

    With a :class:`repro.store.VerificationStore` as ``store``, finished
    answers are cached on ``(model fingerprint, plan fingerprint)``: a
    repeated identical batch over an unchanged network returns the stored
    :class:`PlanResult` without running a single engine job, and the
    campaign that does run warm-starts from (and publishes back to) the
    store's verdict shards.

    ``baseline`` hands the campaign an explicit delta baseline (a
    :class:`repro.core.delta.CampaignBaseline` or its payload dict); with
    ``delta`` left on, directory models also auto-detect the store's
    recorded baseline, so an edited directory on a plan-cache miss only
    re-executes the injection ports the edit could have touched (see
    :mod:`repro.core.delta`).  Neither knob is part of the plan
    fingerprint: like symmetry, delta changes which tier answers, never
    the answer.

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
    started = time.perf_counter()
    # The whole persistence stack — plan cache included — is gated on the
    # plan's shared_cache flag: a --no-shared-cache run is the isolated
    # baseline and must neither read nor feed any cache tier.
    use_store = store is not None and plan.shared_cache
    model_fingerprint = plan.model.fingerprint() if use_store else None
    plan_fingerprint = plan.fingerprint() if model_fingerprint else None
    jobs_total = plan.job_count
    if model_fingerprint and plan_fingerprint:
        cached = store.get_plan(model_fingerprint, plan_fingerprint)
        if cached is not None:
            restored = PlanResult.from_cached(plan, cached)
            if restored is not None:
                _plan_cache_counter().inc(result="hit")
                _first_result_histogram().observe(time.perf_counter() - started)
                if on_result is not None:
                    for index, cached_result in enumerate(restored.results):
                        on_result(index, cached_result, jobs_total, jobs_total)
                return restored
        _plan_cache_counter().inc(result="miss")
    campaign = _campaign_for(
        plan,
        store=store,
        cache_shards=cache_shards,
        baseline=baseline,
        delta=delta,
    )
    reports: Dict[str, JobReport] = {}
    live = PlanContext(plan, source=campaign.source.describe(), reports=reports)
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
                _first_result_histogram().observe(
                    time.perf_counter() - started
                )
            streamed[index] = result
            if on_result is not None:
                on_result(index, result, len(reports), jobs_total)

    result = campaign.run(workers=workers, on_report=on_report, pool=pool)
    ctx = PlanContext(plan, result)
    results: List[QueryResult] = []
    for index, query in enumerate(plan.queries):
        if index in streamed:
            results.append(streamed[index])
            continue
        # A scope referencing ports outside the plan (defensive: compile
        # and demux disagreeing) still gets its barrier-time answer.
        late = query.evaluate(ctx)
        results.append(late)
        if on_result is not None:
            on_result(index, late, len(result.jobs), jobs_total)
    plan_result = PlanResult(
        plan=plan, campaign=result, results=tuple(results)
    )
    if model_fingerprint and plan_fingerprint and not result.job_errors:
        store.put_plan(model_fingerprint, plan_fingerprint, plan_result.to_dict())
    return plan_result


#: The resident service's name for the same executor: it always passes
#: ``on_result`` (and its own ``pool``).
execute_plan_streaming = execute_plan
