"""Clocks, resource readings and the metric tables of the benchmark.

Metric *names* live here once; ``BENCHMARK.json`` lists the same names and
``run.py`` refuses to run when the two disagree.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the share
#: of the parent's median by which a later change may worsen the metric.
#: ``failed_share`` of the issue is the ``failed``/``attempted`` pair of the
#: result line (a metric that is always 0 has no relative bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Per-layer metrics: name -> unit.  A layer a workload bypasses reports 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.report_s": "s",
    "parsers.build_s": "s",
    "parsers.bytes_in": "bytes",
    "parsers.rules_per_s": "1/s",
    "models.router_build_s": "s",
    "network.validate_s": "s",
    "api.compile_s": "s",
    "api.demux_s": "s",
    "api.model_fingerprint_s": "s",
    "api.plan_jobs": "count",
    "network.view.build_s": "s",
    "network.view.job_form_s": "s",
    "network.view.job_form_ms_per_job": "ms",
    "network.view.classes": "count",
    "network.view.jobs_skipped": "count",
    "network.view.saved_engine_s": "s",
    "network.view.payoff": "ratio",
    "solver.canonical.fingerprint_us": "us",
    "solver.replay_check_us": "us",
    "solver.check_s": "s",
    "solver.calls": "count",
    "solver.fast_paths": "count",
    "solver.cache_hits": "count",
    "solver.cache_misses": "count",
    "solver.shared_round_trips": "count",
    "solver.fast_path_ratio": "ratio",
    "core.engine.inject_s": "s",
    "core.engine.paths": "count",
    "core.engine.paths_per_s": "1/s",
    "core.engine.job_ms_p50": "ms",
    "core.engine.job_ms_max": "ms",
    "core.campaign.run_s": "s",
    "core.campaign.overhead_s": "s",
    "core.campaign.aggregate_s": "s",
    "core.campaign.report_pickle_bytes": "bytes",
    "core.campaign.engine_runs": "count",
    "core.campaign.executed_jobs": "count",
    "core.campaign.jobs_spliced": "count",
    "core.campaign.worker_busy_max_s": "s",
    "core.campaign.pool_overhead_s": "s",
    "core.campaign.pool_speedup": "ratio",
    "core.delta.diff_s": "s",
    "core.delta.spliced_ratio": "ratio",
    "core.delta.baseline_bytes": "bytes",
    "store.load_s": "s",
    "store.publish_s": "s",
    "store.get_plan_hit_s": "s",
    "store.put_plan_s": "s",
    "store.put_baseline_s": "s",
    "store.get_baseline_s": "s",
    "store.segments": "count",
    "store.bytes_on_disk": "bytes",
    "store.entries": "count",
    "store.degraded_operations": "count",
    "scenarios.generate_s": "s",
    "scenarios.step_wall_p50_s": "s",
    "scenarios.step_wall_max_s": "s",
    "scenarios.executed_jobs": "count",
    "scenarios.spliced_jobs": "count",
    "scenarios.reduce_s": "s",
    "scenarios.clusters": "count",
    "serve.request_p50_s": "s",
    "serve.request_p95_s": "s",
    "serve.first_result_p50_s": "s",
    "serve.first_result_p95_s": "s",
    "serve.requests_per_s": "1/s",
    "serve.batch_window_share": "ratio",
    "serve.merged_ratio": "ratio",
    "serve.plans_executed": "count",
    "serve.model_builds": "count",
    "serve.overloaded": "count",
    "serve.errors": "count",
    "obs.trace_overhead_ratio": "ratio",
    "obs.spans": "count",
    "obs.campaign_span_coverage": "ratio",
    "obs.unattributed_s": "s",
}

#: A timed pass sets up in two groups, before and after its operations.  A
#: group is at least this many set-ups ...
SETUP_GROUP_MIN = 2
#: ... and more, up to this many, while the group took less than this many
#: seconds (cheap set-ups are the noisiest).
SETUP_GROUP_MAX = 4
SETUP_GROUP_S = 2.0


def undisturbed(values: Sequence[float]) -> float:
    """The time of a repeated, deterministic piece of work on this machine
    when nothing else disturbs it: the fastest repeat.  The shared host only
    ever *adds* time, in bursts of 5-20 s that slow everything by 20-40 %;
    a median moves with the share of the run the bursts happen to cover
    (README, "Noise"), the fastest repeat only when they cover all of it."""
    return min(values)


def cpu_seconds() -> float:
    """User+system CPU seconds of this process plus every child it has
    waited for (pool workers, Manager, CLI subprocesses)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of a *live* process, from ``/proc`` (the
    resident server, which is not waited for until the run ends)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name (field 2) may contain spaces; fields after the
        # closing parenthesis are positional.
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Highest peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(call: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``call``; returns ``(result, wall seconds, cpu seconds)``."""
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    result = call()
    wall = time.perf_counter() - started
    return result, wall, cpu_seconds() - cpu_before


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``; a single value is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def format_metrics(
    metrics: Dict[str, float], units: Dict[str, str], notes: Dict[str, str]
) -> List[str]:
    """One printable line per metric: name, value, unit, optional note."""
    lines = []
    for name, value in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    return lines
