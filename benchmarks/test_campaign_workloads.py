"""Campaign benchmarks: network-wide analyses over the evaluation workloads.

The paper's per-port analyses (Tables 2/3, §8.5) answer one question at a
time; the campaign layer sweeps every interesting injection port of the
department, Split-TCP and Stanford-like workloads, checks that a process
pool changes nothing but the wall clock, and reports the aggregated solver
roll-ups.

The Stanford all-pairs sweep also carries the cross-job verdict-cache
acceptance check: with a campus-wide zone ACL in place (identical rules at
every zone edge, so the per-rule solver work is alpha-equivalent across
jobs), the campaign must perform measurably fewer full solves with the
shared canonical cache than with per-job isolated caches, while every query
fingerprint stays bit-identical with the cache on/off and workers 1/2.
Each run's wall time, solver-call counts and cache hit rate are appended to
``BENCH_campaign.json`` (see conftest) so the perf trajectory accumulates.
"""

import pytest

from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
)
from repro.store import VerificationStore

from conftest import campaign_record, scaled

DEPARTMENT_OPTIONS = dict(
    access_switches=scaled(4, 15),
    hosts_per_switch=scaled(2, 8),
    mac_entries=scaled(300, 6000),
    extra_routes=scaled(20, 400),
)
STANFORD_OPTIONS = dict(
    zones=scaled(4, 16),
    internal_prefixes_per_zone=scaled(30, 200),
)
STANFORD_ACL_OPTIONS = dict(
    service_acl_rules=scaled(4, 10), **STANFORD_OPTIONS
)


def _run(source, workers, shared_cache=True, store=None):
    campaign = VerificationCampaign(
        source, shared_cache=shared_cache, store=store
    )
    return campaign.run(workers=workers)


def _report_row(bench_report, label, result):
    stats = result.stats
    bench_report.append(
        f"Campaign | {label}: {stats.jobs} jobs, {stats.paths} paths, "
        f"{result.reachability.pair_count()} reachable pairs, "
        f"loop_free={result.loop_report.loop_free}, "
        f"solver calls={stats.solver_calls} "
        f"(fast={stats.solver_fast_paths}, hits={stats.solver_cache_hits}, "
        f"shared={stats.solver_shared_cache_hits}, "
        f"misses={stats.solver_cache_misses}), "
        f"wall {stats.wall_clock_seconds:.2f}s ({result.execution_mode})"
    )


def test_department_campaign_parallel_equals_sequential(
    benchmark, bench_report, bench_records
):
    source = NetworkSource.from_workload("department", **DEPARTMENT_OPTIONS)
    sequential = _run(source, workers=1)
    parallel = benchmark.pedantic(_run, args=(source, 2), rounds=1, iterations=1)
    _report_row(bench_report, "department seq", sequential)
    _report_row(bench_report, "department x2 ", parallel)
    bench_records("campaign").append(campaign_record("department-seq", sequential))
    bench_records("campaign").append(campaign_record("department-x2", parallel))
    assert sequential.reachability == parallel.reachability
    assert (
        sequential.invariant_report.fingerprint()
        == parallel.invariant_report.fingerprint()
    )
    # §8.5's finding, network-wide: the management plane is reachable both
    # from the Internet and from the cluster.
    for vantage in ("m1:in-internet", "cluster:in-node"):
        assert sequential.reachability.reachable(
            vantage, "switch-management:reached"
        )


def test_stanford_campaign_all_pairs(benchmark, bench_report, bench_records):
    source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
    result = benchmark.pedantic(_run, args=(source, 2), rounds=1, iterations=1)
    _report_row(bench_report, "stanford all-pairs", result)
    bench_records("campaign").append(campaign_record("stanford-all-pairs", result))
    zones = STANFORD_OPTIONS["zones"]
    # Every zone reaches every other zone's hosts port: a full off-diagonal
    # reachability matrix.
    for src in range(zones):
        for dst in range(zones):
            if src == dst:
                continue
            assert result.reachability.reachable(
                f"zr{src}:in-hosts", f"zr{dst}:hosts"
            ), (src, dst)
    assert result.loop_report.loop_free


def test_stanford_shared_cache_cuts_full_solves(
    tmp_path, bench_report, bench_records
):
    """The verdict-cache acceptance criterion on the all-pairs sweep."""
    source = NetworkSource.from_workload("stanford", **STANFORD_ACL_OPTIONS)
    store = VerificationStore(str(tmp_path / "store"))

    def fresh_run(workers, shared_cache, store=None):
        clear_runtime_cache()  # measure cache tiers, not leftover workers
        return _run(source, workers=workers, shared_cache=shared_cache, store=store)

    isolated = fresh_run(workers=1, shared_cache=False)
    shared_seq = fresh_run(workers=1, shared_cache=True, store=store)
    shared_x2 = fresh_run(workers=2, shared_cache=True)
    warm = fresh_run(workers=1, shared_cache=True, store=store)

    _report_row(bench_report, "stanford+acl isolated", isolated)
    _report_row(bench_report, "stanford+acl shared  ", shared_seq)
    _report_row(bench_report, "stanford+acl shared x2", shared_x2)
    _report_row(bench_report, "stanford+acl warm    ", warm)
    bench_records("campaign").extend(
        [
            campaign_record("stanford-acl-isolated", isolated),
            campaign_record("stanford-acl-shared", shared_seq),
            campaign_record("stanford-acl-shared-x2", shared_x2),
            campaign_record("stanford-acl-warm", warm),
        ]
    )

    # Measurably fewer full solves with the shared cache than without: the
    # isolated baseline pays every zone's ACL solves, the shared cache pays
    # one zone's worth (zones x rules vs ~rules misses).
    assert isolated.stats.solver_cache_misses > 0
    assert (
        shared_seq.stats.solver_cache_misses
        <= isolated.stats.solver_cache_misses // 2
    )
    assert shared_seq.stats.solver_cache_hits > 0
    # Warm-started campaigns re-solve nothing at all.
    assert warm.stats.solver_cache_misses == 0

    # ... while query fingerprints stay bit-identical with the cache on/off
    # and workers 1/2.
    runs = [isolated, shared_seq, shared_x2, warm]
    expected_reach = isolated.reachability.fingerprint()
    expected_loops = isolated.loop_report.fingerprint()
    for result in runs:
        assert result.reachability.fingerprint() == expected_reach
        assert result.loop_report.fingerprint() == expected_loops


def test_enterprise_campaign_round_trip(bench_report, bench_records):
    source = NetworkSource.from_workload("enterprise", mirror_at_exit=True)
    result = _run(source, workers=1)
    _report_row(bench_report, "enterprise mirror", result)
    bench_records("campaign").append(campaign_record("enterprise-mirror", result))
    # With the exit mirror, client traffic must come back to the client.
    assert result.reachability.reachable("AP:in0", "R1:to-client")
