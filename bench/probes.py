"""Per-layer measurements of the traced pass.

Two kinds of numbers come out of here:

* **read off the traced operation** — durations of the benchmark's spans
  around the public entry points (build, validate, compile, execute) and of
  the ``repro.obs`` spans nested under them (``campaign``, ``job``,
  ``store.publish``), plus the counters of the public ``CampaignStats``;
* **replays** — a layer the operation runs but no span covers (symmetry
  canonicalisation, aggregation, demultiplexing, manifest diffing, store
  I/O) is called again on its own, through its public functions, inside one
  benchmark span.  Replays run after the timed region and never feed an
  end-to-end metric.

``src/repro`` modules behind each replay: ``network.view``
(:func:`probe_symmetry`), ``core.engine`` + ``solver`` (:func:`probe_engine`,
:func:`probe_solver`), ``core.campaign`` + ``api.planner``
(:func:`probe_campaign`), ``core.delta`` (:func:`probe_delta`), ``store``
(:func:`probe_store`), ``parsers`` + ``models.router`` (:func:`probe_router`).
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.api.planner import PlanContext, compile_plan, execute_plan
from repro.core.campaign import PACKET_TEMPLATES, CampaignResult
from repro.core.delta import (
    CampaignBaseline,
    ElementManifest,
    affected_injections,
    diff_manifests,
)
from repro.core.engine import ExecutionSettings, SymbolicExecutor
from repro.network.view import CampaignSymmetryView, collect_constants, config_digest
from repro.solver import Solver
from repro.solver.canonical import canonical_fingerprint
from repro.solver.verdict_cache import VerdictCache

#: Constraint sets kept per engine job for the solver replays, how many the
#: replays visit at most, and when a replay stops starting new sets.
SETS_PER_JOB = 2
REPLAY_SETS = 16
REPLAY_BUDGET_S = 1.5


# ---------------------------------------------------------------------------
# Read off the traced operation
# ---------------------------------------------------------------------------


def span_layers(rec, op_id: int) -> Dict[str, float]:
    """Time metrics of one traced operation, from its spans."""
    selfs = rec.self_times(op_id)
    campaigns = rec.of_op(op_id, "campaign")
    run_s = sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in campaigns)
    overhead_s = sum(selfs[s["id"]] / 1e9 for s in campaigns)
    busy: Dict[int, float] = {}
    for job in rec.of_op(op_id, "job"):
        busy[job["pid"]] = (
            busy.get(job["pid"], 0.0) + (job["end_ns"] - job["start_ns"]) / 1e9
        )
    busy_max = max(busy.values(), default=0.0)
    return {
        "parsers.build_s": rec.seconds(op_id, "parsers.build"),
        "network.validate_s": rec.seconds(op_id, "network.validate"),
        "api.compile_s": rec.seconds(op_id, "api.compile"),
        "api.model_fingerprint_s": rec.seconds(op_id, "api.model_fingerprint"),
        "cli.report_s": rec.seconds(op_id, "cli.report"),
        "store.publish_s": rec.seconds(op_id, "store.publish"),
        "core.campaign.run_s": run_s,
        # Time inside the campaign during which no child span (a job in any
        # process, a symmetry class, a delta splice, a store publish) ran.
        "core.campaign.overhead_s": overhead_s,
        "core.campaign.worker_busy_max_s": busy_max,
        "core.campaign.pool_overhead_s": run_s - busy_max if campaigns else 0.0,
        "obs.campaign_span_coverage": 1.0 - overhead_s / run_s if run_s else 0.0,
        # The operation's own self time: wall inside no layer span at all.
        "obs.unattributed_s": sum(
            selfs[s["id"]] / 1e9 for s in rec.of_op(op_id, "op")
        ),
    }


def stats_layers(stats: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Counter metrics from ``CampaignStats.to_dict()`` payloads (one per
    campaign the operation ran; scenario operations run several)."""
    total: Dict[str, float] = {}
    for payload in stats:
        for key, value in payload.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
    lookups = (
        total.get("solver_fast_paths", 0)
        + total.get("solver_cache_hits", 0)
        + total.get("solver_cache_misses", 0)
    )
    jobs = total.get("jobs", 0)
    return {
        "solver.check_s": total.get("solver_time_seconds", 0.0),
        "solver.calls": total.get("solver_calls", 0),
        "solver.fast_paths": total.get("solver_fast_paths", 0),
        "solver.cache_hits": total.get("solver_cache_hits", 0),
        "solver.cache_misses": total.get("solver_cache_misses", 0),
        "solver.shared_round_trips": total.get("solver_shared_round_trips", 0),
        "solver.fast_path_ratio": (
            total.get("solver_fast_paths", 0) / lookups if lookups else 0.0
        ),
        "network.view.classes": total.get("symmetry_classes", 0),
        "network.view.jobs_skipped": total.get("jobs_skipped_by_symmetry", 0),
        "core.campaign.executed_jobs": total.get("executed_jobs", 0),
        "core.campaign.jobs_spliced": total.get("jobs_spliced_by_delta", 0),
        "core.delta.spliced_ratio": (
            total.get("jobs_spliced_by_delta", 0) / jobs if jobs else 0.0
        ),
        "store.degraded_operations": total.get("degraded_operations", 0),
    }


def symmetry_payoff(layers: Dict[str, float], campaigns: int) -> Dict[str, float]:
    """Useful outcome of the symmetry layer against its cost, per campaign:
    engine seconds the skipped jobs would have taken (at the replay's mean
    job time) over the seconds spent encoding and canonicalising."""
    cost = layers.get("network.view.build_s", 0.0) + layers.get(
        "network.view.job_form_s", 0.0
    )
    if not cost:
        return {}
    mean_job_s = layers["core.engine.inject_s"] / layers["api.plan_jobs"]
    saved = layers["network.view.jobs_skipped"] / campaigns * mean_job_s
    return {
        "network.view.saved_engine_s": saved,
        "network.view.payoff": saved / cost,
    }


def median_layers(per_op: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Median of every metric over the traced operations of one run."""
    return {
        name: statistics.median(layers[name] for layers in per_op)
        for name in per_op[0]
    }


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def clocked(rec, name: str, call, **attrs) -> Tuple[object, float]:
    """Run ``call`` inside one span of ``rec``; returns ``(its result,
    seconds)``."""
    started = time.perf_counter()
    with rec.span(name, **attrs):
        value = call()
    return value, time.perf_counter() - started


def probe_router(rec, fib_text: str) -> Dict[str, float]:
    """``models.router``: build the router model from the parsed FIB alone
    (parsing excluded)."""
    from repro.models.router import build_router
    from repro.parsers.routing_table import parse_routing_table

    fib = parse_routing_table(fib_text)
    _, seconds = clocked(
        rec, "models.router_build", lambda: build_router("core", fib), rules=len(fib)
    )
    return {"models.router_build_s": seconds}


def directory_input(directory: str) -> Tuple[int, int]:
    """``(bytes, rules)`` a directory build parses: every device file next
    to ``topology.txt``, rules being its non-empty non-comment lines."""
    size = rules = 0
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        size += len(data)
        if entry != "topology.txt":
            rules += sum(
                1
                for line in data.splitlines()
                if line.strip() and not line.lstrip().startswith(b"#")
            )
    return size, rules


def probe_symmetry(rec, network, plan) -> Dict[str, float]:
    """``network.view``: encode the network once, then canonicalise every
    injection port of the plan — what ``_symmetry_partition`` does inside
    the campaign, where no span covers it."""
    pinned = collect_constants(PACKET_TEMPLATES[plan.packet]())
    view, build_s = clocked(
        rec, "network.view.build", lambda: CampaignSymmetryView(network, pinned)
    )
    digest = config_digest(("bench", plan.packet))
    form_s = sum(
        clocked(
            rec,
            "network.view.job_form",
            lambda: view.job_form(element, port, digest),
            port=f"{element}:{port}",
        )[1]
        for element, port in plan.injections
    )
    return {
        "network.view.build_s": build_s,
        "network.view.job_form_s": form_s,
        "network.view.job_form_ms_per_job": 1e3 * form_s / len(plan.injections),
    }


def probe_engine(rec, network, plan) -> Tuple[Dict[str, float], List[list]]:
    """``core.engine``: inject the plan's packet at every injection port
    directly, with one shared solver and verdict cache, as a campaign worker
    does.  Also returns a sample of delivered paths' constraint sets for
    :func:`probe_solver`."""
    solver, cache = Solver(), VerdictCache()
    settings = ExecutionSettings(
        max_hops=plan.max_hops, max_paths=plan.max_paths, strategy=plan.strategy
    )
    template = PACKET_TEMPLATES[plan.packet]
    overrides = dict(plan.field_values)
    job_s: List[float] = []
    paths = 0
    constraint_sets: List[list] = []
    for element, port in plan.injections:
        executor = SymbolicExecutor(
            network, solver=solver, settings=settings, verdict_cache=cache
        )
        program = template(overrides) if overrides else template()
        result, seconds = clocked(
            rec,
            "core.engine.inject",
            lambda: executor.inject(program, element, port),
            port=f"{element}:{port}",
        )
        job_s.append(seconds)
        paths += len(result.paths)
        constraint_sets.extend(
            list(path.state.constraints)
            for path in result.delivered()[:SETS_PER_JOB]
        )
    step = max(1, len(constraint_sets) // REPLAY_SETS)
    return (
        {
            "core.engine.inject_s": sum(job_s),
            "core.engine.paths": paths,
            "core.engine.paths_per_s": paths / sum(job_s),
            "core.engine.job_ms_p50": 1e3 * statistics.median(job_s),
            "core.engine.job_ms_max": 1e3 * max(job_s),
        },
        constraint_sets[::step][:REPLAY_SETS],
    )


def probe_solver(rec, constraint_sets: Sequence[list]) -> Dict[str, float]:
    """``solver``: canonical fingerprint (the tier-3 cache key) and a
    from-scratch ``Solver.check`` over delivered paths' constraint sets."""

    def replay(name: str, call) -> float:
        spent: List[float] = []
        for constraints in constraint_sets:
            spent.append(
                clocked(
                    rec, name, lambda: call(constraints), conjuncts=len(constraints)
                )[1]
            )
            if sum(spent) > REPLAY_BUDGET_S:
                break
        return 1e6 * statistics.mean(spent) if spent else 0.0

    return {
        "solver.canonical.fingerprint_us": replay(
            "solver.canonical.fingerprint", canonical_fingerprint
        ),
        "solver.replay_check_us": replay("solver.replay_check", Solver().check),
    }


def probe_campaign(rec, plan, campaign: CampaignResult) -> Dict[str, float]:
    """``core.campaign`` aggregation and report pickling, ``api.planner``
    demultiplexing — over the finished campaign's own job reports."""

    def demux() -> None:
        ctx = PlanContext(plan, campaign)
        for query in plan.queries:
            query.evaluate(ctx)

    _, aggregate_s = clocked(
        rec,
        "core.campaign.aggregate",
        lambda: CampaignResult.aggregate(campaign.source, plan.kinds, campaign.jobs),
        jobs=len(campaign.jobs),
    )
    _, demux_s = clocked(rec, "api.demux", demux, queries=len(plan.queries))
    payload = campaign.baseline_payload
    return {
        "core.campaign.aggregate_s": aggregate_s,
        "core.campaign.report_pickle_bytes": sum(
            len(pickle.dumps(job)) for job in campaign.jobs
        ),
        "api.demux_s": demux_s,
        "core.delta.baseline_bytes": len(json.dumps(payload)) if payload else 0,
    }


def probe_delta(rec, old: ElementManifest, network, injections) -> Dict[str, float]:
    """``core.delta``: diff two build manifests and close the touched
    elements over the link graph."""

    def diff() -> None:
        touched = diff_manifests(old, ElementManifest.of_network(network))
        affected_injections(network, injections, touched.touched_elements)

    return {"core.delta.diff_s": clocked(rec, "core.delta.diff", diff)[1]}


def probe_store(rec, store, directory: str, queries, plan_payload) -> Dict[str, float]:
    """``store``: every disk operation a store-backed query performs, once
    each, against the store the operations just used."""
    from repro.api.model import NetworkModel

    metrics: Dict[str, float] = {}
    _, metrics["store.load_s"] = clocked(
        rec, "store.load", lambda: store.load(refresh=True)
    )
    baseline, metrics["store.get_baseline_s"] = clocked(
        rec, "store.get_baseline", lambda: store.get_baseline(directory)
    )
    _, metrics["store.put_baseline_s"] = clocked(
        rec, "store.put_baseline", lambda: store.put_baseline(directory, baseline)
    )
    model = NetworkModel.from_directory(directory)
    fingerprint = model.fingerprint()
    _, metrics["store.put_plan_s"] = clocked(
        rec,
        "store.put_plan",
        lambda: store.put_plan(fingerprint, "bench-probe", plan_payload),
    )
    # An identical re-ask: the directory is unchanged since the last
    # operation, so the plan cache must answer.
    plan = compile_plan(model, queries)
    cached, metrics["store.get_plan_hit_s"] = clocked(
        rec, "store.get_plan_hit", lambda: execute_plan(plan, store=store)
    )
    if not cached.from_cache:
        raise AssertionError("identical re-ask was not answered by the plan cache")
    described = store.describe()
    metrics["store.segments"] = described["segments"]
    metrics["store.entries"] = described["verdicts"]
    metrics["store.bytes_on_disk"] = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(store.directory)
        for name in names
    )
    return metrics


def stored_manifest(store, directory: str) -> ElementManifest:
    """The build manifest of the run the store recorded last for
    ``directory``."""
    return CampaignBaseline.from_payload(store.get_baseline(directory)).manifest
