"""API-planner benchmark: N separate campaign runs vs one planned batch.

The session API's pitch is that a batch of queries compiles onto ONE shared
execution plan: ``ForAllPairs(Reach)``, ``Loop()`` and ``Invariant(...)``
over the same network need each injection port exactly once, where the
legacy workflow ran one full campaign per query kind.  This benchmark runs
both workflows from cold (runtime caches cleared, as separate CLI
invocations would be) on the department and stanford+ACL workloads and
asserts the planned batch does strictly less work: one third of the engine
jobs, fewer full solves, less wall-clock time — with every query answer
bit-identical to its dedicated legacy campaign.

Each comparison lands in ``BENCH_api.json`` (see conftest).
"""

import time

from repro.api import ForAllPairs, Invariant, Loop, NetworkModel, Reach
from repro.core.campaign import (
    DEFAULT_INVARIANT_FIELDS,
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
)

from conftest import FULL_SCALE, scaled

DEPARTMENT_OPTIONS = dict(
    access_switches=scaled(4, 15),
    hosts_per_switch=scaled(2, 8),
    mac_entries=scaled(300, 6000),
    extra_routes=scaled(20, 400),
)
STANFORD_ACL_OPTIONS = dict(
    zones=scaled(4, 16),
    internal_prefixes_per_zone=scaled(30, 200),
    service_acl_rules=scaled(4, 10),
)

KINDS = ("reachability", "loops", "invariants")


def _separate_campaigns(workload, options, workers):
    """The legacy workflow: one dedicated, cold campaign per query kind."""
    source = NetworkSource.from_workload(workload, **options)
    results = {}
    started = time.perf_counter()
    for kind in KINDS:
        clear_runtime_cache()
        results[kind] = VerificationCampaign(
            source,
            queries=(kind,),
            invariant_fields=DEFAULT_INVARIANT_FIELDS,
        ).run(workers=workers)
    return results, time.perf_counter() - started


def _planned_batch(workload, options, workers):
    """The session-API workflow: the same three questions, one plan."""
    clear_runtime_cache()
    model = NetworkModel.from_workload(workload, **options)
    started = time.perf_counter()
    result = model.query(
        ForAllPairs(Reach),
        Loop(),
        Invariant(*DEFAULT_INVARIANT_FIELDS),
        workers=workers,
    )
    return result, time.perf_counter() - started


#: Both workflows are timed this many times and compared on their fastest
#: run: with the canonicaliser no longer dominating either side the whole
#: comparison is tens of milliseconds, and one scheduling hiccup on a shared
#: host must not decide it.
REPEATS = 3


def _fastest(workflow, *args):
    return min((workflow(*args) for _ in range(REPEATS)), key=lambda run: run[1])


def _compare(label, workload, options, workers, bench_report, bench_records):
    separate, separate_wall = _fastest(_separate_campaigns, workload, options, workers)
    planned, planned_wall = _fastest(_planned_batch, workload, options, workers)

    separate_jobs = sum(r.stats.jobs for r in separate.values())
    separate_solves = sum(r.stats.solver_cache_misses for r in separate.values())
    separate_calls = sum(r.stats.solver_calls for r in separate.values())

    # Every query answer bit-identical to its dedicated legacy campaign.
    assert (
        planned[0].backend.fingerprint()
        == separate["reachability"].reachability.fingerprint()
    )
    assert planned[1].backend.fingerprint() == separate["loops"].loop_report.fingerprint()
    assert (
        planned[2].backend.fingerprint()
        == separate["invariants"].invariant_report.fingerprint()
    )

    # The planned batch executes each injection port exactly once; the
    # legacy workflow ran it once per query kind.
    assert planned.stats.jobs * len(KINDS) == separate_jobs
    # Sharing the injections must also shrink the solver bill: fewer full
    # solves (the dominant cost) and less wall-clock time.
    assert planned.stats.solver_cache_misses < separate_solves
    assert planned_wall < separate_wall

    bench_report.append(
        f"API plan | {label} x{workers}: {planned.stats.jobs} jobs vs "
        f"{separate_jobs} separate, full solves "
        f"{planned.stats.solver_cache_misses} vs {separate_solves}, "
        f"wall {planned_wall:.2f}s vs {separate_wall:.2f}s"
    )
    bench_records("api").append(
        {
            "workload": f"{label}-x{workers}",
            "scale": "full" if FULL_SCALE else "small",
            "workers": workers,
            "queries": 3,
            "planned_jobs": planned.stats.jobs,
            "separate_jobs": separate_jobs,
            "planned_full_solves": planned.stats.solver_cache_misses,
            "separate_full_solves": separate_solves,
            "planned_solver_calls": planned.stats.solver_calls,
            "separate_solver_calls": separate_calls,
            "planned_wall_seconds": round(planned_wall, 6),
            "separate_wall_seconds": round(separate_wall, 6),
            "wall_speedup": round(separate_wall / max(planned_wall, 1e-9), 3),
        }
    )


def test_department_batch_beats_separate_campaigns(bench_report, bench_records):
    _compare(
        "department", "department", DEPARTMENT_OPTIONS, 1,
        bench_report, bench_records,
    )


def test_stanford_acl_batch_beats_separate_campaigns(bench_report, bench_records):
    _compare(
        "stanford-acl", "stanford", STANFORD_ACL_OPTIONS, 1,
        bench_report, bench_records,
    )


def test_stanford_acl_batch_beats_separate_campaigns_workers2(
    bench_report, bench_records
):
    _compare(
        "stanford-acl", "stanford", STANFORD_ACL_OPTIONS, 2,
        bench_report, bench_records,
    )
