"""Observability-overhead benchmark: the same pinned campaign with the
default no-op tracer vs a recording one.

The tracing layer's contract (repro.obs) is that the no-op path is the
default code path — an untraced run must not pay for the instrumentation
hooks — and that enabling tracing only adds bounded bookkeeping per span
(one perf_counter read pair plus a dict append).  This benchmark pins one
campaign workload, runs it untraced and traced (workers 1 and 2, so the
cross-process ship-back channel is on the measured path), asserts the
answers are bit-identical, and records both walls plus the span volume in
``BENCH_obs.json`` so the overhead trajectory is versioned alongside the
perf numbers it must not distort.
"""

import time

from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
)
from repro.obs import NullTracer, Tracer, set_tracer

from conftest import FULL_SCALE, scaled

STANFORD_OPTIONS = dict(
    zones=scaled(6, 16),
    internal_prefixes_per_zone=scaled(8, 60),
    service_acl_rules=scaled(3, 8),
)


def _fingerprints(result):
    return (
        result.reachability.fingerprint(),
        result.loop_report.fingerprint(),
        result.invariant_report.fingerprint(),
    )


def _timed_run(*, traced, workers):
    clear_runtime_cache()
    tracer = Tracer() if traced else NullTracer()
    previous = set_tracer(tracer)
    try:
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        campaign = VerificationCampaign(source)
        started = time.perf_counter()
        result = campaign.run(workers=workers)
        wall = time.perf_counter() - started
    finally:
        set_tracer(previous)
    assert not result.job_errors
    return result, wall, len(tracer.export())


def test_tracing_overhead(bench_report, bench_records):
    records = []
    for workers in (1, 2):
        off_result, off_wall, off_spans = _timed_run(
            traced=False, workers=workers
        )
        on_result, on_wall, on_spans = _timed_run(traced=True, workers=workers)
        assert off_spans == 0
        assert on_spans > 0
        # The standing invariant, extended: tracing changes which telemetry
        # is emitted, never the answer.
        assert _fingerprints(on_result) == _fingerprints(off_result)
        overhead = (on_wall - off_wall) / off_wall if off_wall else 0.0
        records.append(
            {
                "workload": f"stanford-obs-workers{workers}",
                "scale": "full" if FULL_SCALE else "small",
                "workers": workers,
                "jobs": on_result.stats.jobs,
                "untraced_wall_seconds": round(off_wall, 6),
                "traced_wall_seconds": round(on_wall, 6),
                "overhead_fraction": round(overhead, 4),
                "spans": on_spans,
            }
        )
        bench_report.append(
            f"obs overhead (workers={workers}): untraced {off_wall:.3f}s, "
            f"traced {on_wall:.3f}s ({overhead:+.1%}), {on_spans} spans"
        )
    bench_records("obs").extend(records)
