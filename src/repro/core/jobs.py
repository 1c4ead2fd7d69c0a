"""Campaign jobs: the picklable unit of work, its report, and the
per-process runtime that executes it.

A :class:`CampaignJob` says "inject this packet template at this port of
that network source and collect these facts"; :func:`execute_job` runs it in
whatever process it lands in and digests the outcome into a
:class:`JobReport` — *an answer plus one* :class:`SolverStats` *delta*.
Only plain data crosses the process boundary — no states, no solver terms —
so queries that need solver work (invariants, visibility, witnesses) run
in the worker, where the states still exist.  What a job explores is a
:class:`~repro.core.settings.RunSettings`, what it collects a
:class:`~repro.core.facts.Facts`, and its report's answer fields are the
rows of :data:`~repro.core.facts.REPORT_FIELDS`.

The per-process **runtime cache** is the one holder of built networks: the
session API, the campaign driver and every job resolve their network (and
its registered injection ports, solver and verdict cache) through
:func:`runtime_for`, so a source is parsed and modelled once per process.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core.engine import ExecutionSettings, SymbolicExecutor
from repro.core.facts import REPORT_FIELDS, SEMANTIC_FIELDS, FactFold, Facts, collect_facts
from repro.core.memo import StateMemo
from repro.core.queries import port_key
from repro.core.settings import PACKET_TEMPLATES, RunSettings
from repro.core.sources import NetworkSource
from repro.network.topology import Network
from repro.obs import Tracer, get_tracer, set_tracer
from repro.sefl.fields import standard_fields
from repro.solver.result import SolverStats, expose_solver_counters
from repro.solver.solver import Solver
from repro.solver.verdict_cache import VerdictCache

_LOG = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Jobs and per-job reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignJob:
    """One unit of campaign work: inject one packet template at one port.

    Everything in here must pickle: the network is referenced by recipe, the
    packet by template name, header overrides by field *name*.
    """

    source: NetworkSource
    element: str
    port: str
    settings: RunSettings = RunSettings()
    facts: Facts = Facts()
    #: Persistent verdict store (repro.store): each worker process opens the
    #: store directory and merges its verdicts into the worker cache once
    #: per ``store_token`` (the store's content identity), so warm starts
    #: ship nothing through job pickles.
    store_dir: Optional[str] = None
    store_token: str = ""
    #: Optional process-shared verdict tier: the proxy of the campaign's one
    #: ``multiprocessing.Manager`` dict (repro.core.executor), consulted on
    #: local cache misses when the campaign runs on a process pool.
    shared_tier: Optional[object] = field(default=None, compare=False, repr=False)
    #: Record spans inside the (pool) worker and ship them back through
    #: ``JobReport.spans``.  Telemetry only — deliberately absent from
    #: ``job_config_digest``, baselines and every report projection, so
    #: tracing can never move an answer.
    trace: bool = False
    #: The content identity of the driver's build (directory sources).  A
    #: process that rebuilds ``source`` from disk — a pool worker, or the
    #: driver after an LRU eviction — does so under the driver's stat key,
    #: which cannot see an edit made since; a job that finds itself on
    #: different bytes reports an error instead of an answer.  Part of no
    #: digest: it names what was built, not what is asked.
    built: Optional[str] = None
    #: The campaign run whose jobs share a state memo in each process
    #: (``Runtime.memo_for``); empty: none.  Part of no digest.
    memo_scope: str = field(default="", compare=False)

    @property
    def source_key(self) -> str:
        return port_key(self.element, self.port)


def job_config_digest(job: CampaignJob) -> str:
    """Digest of everything behaviour-relevant in a job except its injection
    point: a baseline report may only be spliced when the settings' identity
    fields and the fact channels agree exactly.  Tier switches and store
    wiring are deliberately absent — they change which tier answers, never
    the answer."""
    from repro.network.view import config_digest

    return config_digest((job.settings.identity(), job.facts))


@expose_solver_counters
@dataclass
class JobReport:
    """Picklable digest of one job: the answer (per-query facts) plus the
    one :class:`SolverStats` delta it cost.  Reports derived without engine
    work (delta-spliced) carry a zero delta, so the
    aggregated stats say exactly what ran."""

    element: str
    port: str
    packet: str
    status_counts: Dict[str, int] = field(default_factory=dict)
    delivered_to: Dict[str, int] = field(default_factory=dict)
    loops: List[Dict[str, object]] = field(default_factory=list)
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    invariants: Dict[str, Dict[str, int]] = field(default_factory=dict)
    visibility: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)
    witnesses: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    delivered_examples: Dict[str, List[str]] = field(default_factory=dict)
    truncated: bool = False
    error: Optional[str] = None
    worker_pid: int = 0
    elapsed_seconds: float = 0.0
    #: ``report.solver_calls`` etc. read through to this delta.
    solver_stats: SolverStats = field(default_factory=SolverStats)
    #: (fingerprint, verdict) pairs this job added to its worker's verdict
    #: cache — merged into the campaign-level cache by the aggregation.
    verdict_cache_entries: Tuple[Tuple[str, str], ...] = ()
    #: Set when delta verification spliced this report from a stored
    #: baseline instead of executing it ("store" or "file").
    delta_spliced_from: str = ""
    #: Span payloads recorded inside a pool worker (see repro.obs.trace),
    #: carried back for the driver to re-parent under its campaign span.
    #: Pure telemetry: excluded from ``to_dict``, ``semantic_projection``
    #: and delta baselines, so traced and untraced runs stay bit-identical.
    spans: Tuple[Dict[str, object], ...] = ()

    @property
    def source_key(self) -> str:
        return port_key(self.element, self.port)

    @property
    def path_count(self) -> int:
        return sum(self.status_counts.values())

    @property
    def outcome(self) -> str:
        """How this report came to be, one of
        :data:`~repro.core.queries.OUTCOMES`.  A splice carries semantic
        fields only, so it never holds an error."""
        if self.error is not None:
            return "error"
        if self.delta_spliced_from:
            return "delta_spliced"
        return "executed"

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"injected_at": self.source_key}
        for spec in REPORT_FIELDS:
            value = getattr(self, spec.name)
            if value or not spec.optional:
                payload[spec.name] = spec.rebuild(value, ordered=True)
        if self.delta_spliced_from:
            payload["delta"] = {"spliced_from": self.delta_spliced_from}
        payload.update({
            "error": self.error,
            "worker_pid": self.worker_pid,
            "stats": {
                "elapsed_seconds": self.elapsed_seconds,
                **self.solver_stats.reported(),
                "verdict_cache_entries": len(self.verdict_cache_entries),
            },
        })
        return payload


def semantic_projection(report: JobReport) -> Dict[str, object]:
    """The tier-independent content of a job report: what the answer *is*,
    stripped of who computed it.  Two reports with equal projections are
    interchangeable for every query aggregation — the equality the fuzz
    suites assert."""
    projection = {name: getattr(report, name) for name in SEMANTIC_FIELDS}
    for spec in REPORT_FIELDS:
        if spec.order is not None:
            projection[spec.name] = sorted(map(spec.order, projection[spec.name]))
    projection["error"] = report.error
    return projection


# ---------------------------------------------------------------------------
# The per-process runtime cache
# ---------------------------------------------------------------------------


@dataclass
class Runtime:
    """The one record of a build — everything one process keeps per network
    source: the built network, the injection ports its builder registered
    (``None`` when the source kind defines none), the facts of the build
    every holder would otherwise recompute (its content identity, its
    validation findings), and the solver + verdict cache that stay warm
    across the jobs a worker receives."""

    network: Network
    registered_injections: Optional[List[Tuple[str, str]]]
    solver: Solver = field(default_factory=Solver)
    verdict_cache: VerdictCache = field(default_factory=VerdictCache)
    #: What the jobs' fact checks run on: no report reads its counters.
    fact_solver: Solver = field(default_factory=Solver)
    #: The last campaign run served here, and its state memos by ``Facts``.
    memo_scope: str = ""
    state_memos: Dict[Facts, StateMemo] = field(default_factory=dict)

    def memo_for(self, job: CampaignJob) -> Optional[StateMemo]:
        """``job``'s memo: none, its own (no shared cache), or its run's for
        its facts (a summary's fact delta is of one ``Facts``)."""
        if not (job.settings.state_memo and job.memo_scope):
            return None
        if not job.settings.shared_cache:
            return StateMemo()
        if job.memo_scope != self.memo_scope:
            self.memo_scope, self.state_memos = job.memo_scope, {}
        memo = self.state_memos.get(job.facts)
        if memo is None:
            memo = self.state_memos[job.facts] = StateMemo()
        return memo

    @property
    def content_digest(self) -> Optional[str]:
        """Identity of the exact bytes a directory build parsed, from the
        manifest the build attached to its network (``None`` for networks
        that did not come from a directory)."""
        manifest = getattr(self.network, "source_manifest", None)
        return manifest["content_digest"] if manifest else None

    @cached_property
    def validation(self) -> List[str]:
        """``Network.validate()`` findings, computed once per build."""
        return self.network.validate()


# Bounded LRU: long-lived processes running campaigns over many networks
# must not retain them all.
_RUNTIME_CACHE: Dict[Tuple, Runtime] = {}
_RUNTIME_CACHE_LIMIT = 8


def clear_runtime_cache() -> None:
    """Drop every cached :class:`Runtime` in this process."""
    _RUNTIME_CACHE.clear()


def runtime_for(source: NetworkSource) -> Runtime:
    """The process's runtime for ``source``, building the network on first
    use.  This is the only call site of ``source.build_full()``."""
    key = source.cache_key()
    runtime = _RUNTIME_CACHE.pop(key, None)
    if runtime is None:
        runtime = Runtime(*source.build_full())
    _RUNTIME_CACHE[key] = runtime  # (re)insert at the end: LRU recency
    while len(_RUNTIME_CACHE) > _RUNTIME_CACHE_LIMIT:
        _RUNTIME_CACHE.pop(next(iter(_RUNTIME_CACHE)))
    return runtime


# In-process counters of symbolic-execution runs and of the fact channels
# (query kinds, invariant/visibility fields, witness samplers, example
# recorders) those runs collected, so tests (and the API planner's
# acceptance checks) can assert both how many engine jobs a batch of
# queries cost and how much per-job collection work the planner's per-port
# narrowing saved.  Per-process: pool workers count their own runs.
_EXECUTION_COUNTERS = {"engine_runs": 0, "fact_channels": 0}


def execution_counters() -> Dict[str, int]:
    """Snapshot of this process's campaign execution counters."""
    return dict(_EXECUTION_COUNTERS)


def reset_execution_counters() -> None:
    for key in _EXECUTION_COUNTERS:
        _EXECUTION_COUNTERS[key] = 0


# ---------------------------------------------------------------------------
# Executing one job
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def packet_program(settings: RunSettings):
    """The injection program ``settings`` ask for: one (immutable) object
    per settings, so a run's jobs inject the very same program."""
    template = PACKET_TEMPLATES[settings.packet]
    if not settings.field_values:
        return template()
    fields = standard_fields()
    overrides = {fields[name]: value for name, value in settings.field_values}
    return template(overrides)


def execute_job(job: CampaignJob) -> JobReport:
    """Run one campaign job in this process and digest the result.

    This is the process-pool entry point; it must stay a module-level
    function so it pickles by reference.

    Tracing: ``job.trace`` (set only on pool submissions) installs a fresh
    local tracer for the duration of the job and ships its spans back in
    ``report.spans`` — the picklable channel the driver re-parents from.
    It must not consult the process-global tracer: forked workers inherit
    the driver's *enabled* tracer, whose forked copy can never deliver
    spans back.  In-process execution (``job.trace`` unset) records
    straight into the caller's tracer and nests naturally under the open
    campaign span.
    """
    tracer = get_tracer()
    local: Optional[Tracer] = None
    previous = None
    if job.trace:
        local = Tracer()
        previous = set_tracer(local)
        tracer = local
    try:
        with tracer.span(
            "job", element=job.element, port=job.port, packet=job.settings.packet
        ):
            report = _execute_job_impl(job)
    finally:
        if local is not None:
            set_tracer(previous)
    if local is not None:
        report.spans = tuple(local.export())
    return report


def _warm_from_store(job: CampaignJob, cache: VerdictCache, solver: Solver) -> None:
    """Warm-from-disk: each worker opens the store once per store state and
    merges its verdicts locally — no entries travel in job pickles.  Live
    verdicts outrank stored ones (strict=False): a corrupted-but-well-formed
    record entry must degrade the cache, never crash the job."""
    try:
        from repro.store import VerificationStore

        store = VerificationStore(job.store_dir)
        loaded = cache.merge(store.load(), strict=False)
    except Exception as exc:
        # An unreadable store only loses the warm start; the job still
        # solves everything live.  Count the degrade (it rolls up into
        # CampaignStats.degraded_operations) and say so — a silently cold
        # cache looks like a perf regression.
        loaded = 0
        solver.stats.record_degraded_operation()
        _LOG.warning(
            "verdict store %s unusable, job %s:%s runs cold: %s",
            job.store_dir, job.element, job.port, exc,
        )
    cache.applied_tokens.add(job.store_token)
    solver.stats.record_merged_entries(loaded)


def _execute_job_impl(job: CampaignJob) -> JobReport:
    settings, facts = job.settings, job.facts
    report = JobReport(
        element=job.element,
        port=job.port,
        packet=settings.packet,
        worker_pid=os.getpid(),
    )
    try:
        runtime = runtime_for(job.source)
        if job.built is not None and runtime.content_digest != job.built:
            raise RuntimeError(
                f"snapshot changed under the campaign: {job.source.describe()} "
                "no longer holds the bytes the campaign's driver built"
            )
        solver = runtime.solver
        before = solver.stats.snapshot()
        # ``shared_cache`` off isolates the job from the worker's cache (the
        # campaign then wires in neither store nor shared tier).
        cache = runtime.verdict_cache if settings.shared_cache else VerdictCache()
        if (
            job.store_dir
            and job.store_token
            and job.store_token not in cache.applied_tokens
        ):
            _warm_from_store(job, cache, solver)
        cache.begin_collection()
        executor = SymbolicExecutor(
            runtime.network,
            solver=solver,
            settings=ExecutionSettings(
                max_hops=settings.max_hops,
                max_paths=settings.max_paths,
                strategy=settings.strategy,
            ),
            verdict_cache=cache,
            shared_cache=job.shared_tier,
            state_memo=runtime.memo_for(job),
        )
        _EXECUTION_COUNTERS["engine_runs"] += 1
        _EXECUTION_COUNTERS["fact_channels"] += facts.channels
        # Each path is folded into the facts as it ends: the job keeps no
        # path record, and a dead egress port costs one count.
        fold = FactFold(facts, runtime.fact_solver)
        result = executor.inject(packet_program(settings), job.element, job.port, fold=fold)
    except Exception as exc:  # surface, never kill the whole campaign
        report.error = f"{type(exc).__name__}: {exc}"
        return report

    report.status_counts = result.summary_counts()
    report.truncated = result.truncated
    report.elapsed_seconds = result.elapsed_seconds
    # The job's solver delta: store warm-up plus the engine run.  The fold's
    # per-path checks are query work, not exploration cost: they ran on the
    # runtime's fact solver.
    report.solver_stats = solver.stats.since(before)
    report.verdict_cache_entries = tuple(sorted(cache.fresh_entries().items()))
    collect_facts(result, fold, report)
    return report
