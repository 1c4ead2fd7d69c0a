"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation and asserts its shape (the module docstrings name the table or
section; README.md summarises what each layer's benchmark pins).  The
default workload sizes are scaled down from the paper's (which used a Scala
engine + native Z3 on dedicated hardware) so that the whole suite completes
in minutes on a laptop; set ``SYMNET_BENCH_SCALE=full`` to run the larger
versions.

These are single-shot smoke records.  Performance numbers that can be
compared across commits come from ``bench/`` (see ``bench/README.md``).
"""

import collections
import json
import os

import pytest

FULL_SCALE = os.environ.get("SYMNET_BENCH_SCALE", "").lower() == "full"

#: Where the machine-readable ``BENCH_<family>.json`` records land: one
#: directory, git-ignored by default so running the suite leaves the tree
#: clean.  Overridable so CI can archive per-run files.
BENCH_DIR = os.environ.get(
    "SYMNET_BENCH_DIR",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "out"),
)


def scaled(small, full):
    """Pick a workload size depending on the requested scale."""
    return full if FULL_SCALE else small


def campaign_record(label: str, result) -> dict:
    """Digest one CampaignResult into a flat, JSON-able benchmark record
    (wall time, solver work, verdict-cache effectiveness)."""
    stats = result.stats
    return {
        "workload": label,
        "scale": "full" if FULL_SCALE else "small",
        "jobs": stats.jobs,
        "paths": stats.paths,
        "workers": result.workers,
        "execution_mode": result.execution_mode,
        "wall_clock_seconds": round(stats.wall_clock_seconds, 6),
        "solver_calls": stats.solver_calls,
        "solver_time_seconds": round(stats.solver_time_seconds, 6),
        "solver_fast_paths": stats.solver_fast_paths,
        "solver_cache_hits": stats.solver_cache_hits,
        "solver_cache_misses": stats.solver_cache_misses,
        "solver_shared_cache_hits": stats.solver_shared_cache_hits,
        "cache_hit_rate": round(stats.cache_hit_rate, 4),
        "verdict_cache_entries": stats.verdict_cache_entries,
        "solver_shared_round_trips": stats.solver_shared_round_trips,
        "solver_shared_publish_batches": stats.solver_shared_publish_batches,
        "solver_shared_publish_entries": stats.solver_shared_publish_entries,
        "store_entries_loaded": stats.store_entries_loaded,
        "store_entries_published": stats.store_entries_published,
        "symmetry_classes": stats.symmetry_classes,
        "jobs_skipped_by_symmetry": stats.jobs_skipped_by_symmetry,
    }


def _merge_bench_records(path: str, records) -> None:
    """Merge benchmark records into a JSON file, keyed by (workload, scale):
    re-running a benchmark updates its row, while rows from other
    scales/sessions survive — so the perf trajectory accumulates instead of
    each run clobbering the last."""
    merged = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for record in json.load(handle).get("records", []):
                merged[(record.get("workload"), record.get("scale"))] = record
    except (OSError, ValueError):
        pass  # first run, or an unreadable file we simply regenerate
    for record in records:
        merged[(record["workload"], record["scale"])] = record
    ordered = [merged[key] for key in sorted(merged, key=repr)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"records": ordered}, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def bench_records():
    """``bench_records(family)`` is the session-wide record list of one
    benchmark family ("campaign", "api", "store", "symmetry", "delta",
    "serve", "scenario", "obs"); at the end of the session every non-empty
    family is merged into ``BENCH_<family>.json`` under :data:`BENCH_DIR`."""
    families = collections.defaultdict(list)
    yield families.__getitem__
    for family, records in families.items():
        if records:
            os.makedirs(BENCH_DIR, exist_ok=True)
            _merge_bench_records(
                os.path.join(BENCH_DIR, f"BENCH_{family}.json"), records
            )


@pytest.fixture(scope="session")
def bench_report():
    """Collect human-readable result rows and print them at the end of the
    session, mirroring the tables in the paper."""
    rows = []
    yield rows
    if rows:
        print("\n" + "=" * 72)
        print("Reproduced evaluation rows (paper table/figure -> measured)")
        print("=" * 72)
        for row in rows:
            print(row)
