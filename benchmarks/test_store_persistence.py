"""Persistent-store benchmark: cold vs warm-from-disk, single dict vs shards.

The ROADMAP's verdict-cache sharding item, measured on the full-shape
``zones=16`` stanford+ACL sweep (every zone edge applies the same campus
ACL, so the per-rule solver work is alpha-equivalent across all 16 zones —
the store's best and most realistic case):

* **cold vs warm-from-disk** — a campaign run against an empty store pays
  the full solver bill and publishes its verdicts; rerunning against the
  populated store must perform **0 full solves** (every verdict merges from
  the disk shards, nothing travels in job pickles) and publish nothing new;
* **plan-result cache** — repeating an identical query batch through the
  session API must cost **0 engine jobs** and return bit-identical answers;
* **single dict vs 8 shards** — the PR 3 shared tier (one Manager dict,
  one proxy round-trip per publish) against the sharded tier with batched
  publishes, compared on proxy round-trips under ``--workers 2``.

Every run's wall time, solver work and store/tier traffic is merged into
``BENCH_store.json`` (see conftest) so the perf trajectory accumulates.
"""

from repro.api import Invariant, Loop, NetworkModel
from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
)
from repro.store import VerificationStore

from conftest import campaign_record, scaled

#: The full-shape backbone: 16 zones even at small scale (the sweep is the
#: point), with table sizes scaled to keep small runs in CI budgets.
STANFORD_STORE_OPTIONS = dict(
    zones=16,
    internal_prefixes_per_zone=scaled(12, 200),
    service_acl_rules=scaled(4, 10),
)


def _source():
    return NetworkSource.from_workload("stanford", **STANFORD_STORE_OPTIONS)


def _run(store=None, *, workers=1, cache_shards=None, publish_batch=None):
    clear_runtime_cache()
    kwargs = {}
    if cache_shards is not None:
        kwargs["cache_shards"] = cache_shards
    if publish_batch is not None:
        kwargs["publish_batch"] = publish_batch
    campaign = VerificationCampaign(_source(), store=store, **kwargs)
    return campaign.run(workers=workers)


def _fingerprints(result):
    return (
        result.reachability.fingerprint(),
        result.loop_report.fingerprint(),
        result.invariant_report.fingerprint(),
    )


def test_cold_vs_warm_from_disk(tmp_path, bench_report, bench_records):
    store_dir = str(tmp_path / "store")

    cold = _run(VerificationStore(store_dir))
    warm = _run(VerificationStore(store_dir))

    assert not cold.job_errors and not warm.job_errors
    assert _fingerprints(warm) == _fingerprints(cold)
    # The acceptance criterion: the cold run paid full solves and persisted
    # them; the warm-from-disk rerun performs 0 full solves and publishes
    # nothing new.
    assert cold.stats.solver_cache_misses > 0
    assert cold.stats.store_entries_published == cold.stats.solver_cache_misses
    assert warm.stats.solver_cache_misses == 0
    assert warm.stats.store_entries_published == 0
    assert warm.stats.store_entries_loaded == cold.stats.store_entries_published

    for label, result in (("stanford16-store-cold", cold), ("stanford16-store-warm", warm)):
        record = campaign_record(label, result)
        bench_records("campaign").append(record)
        bench_records("store").append(record)
    bench_report.append(
        f"Store | stanford zones=16 cold: {cold.stats.solver_cache_misses} full "
        f"solves, wall {cold.stats.wall_clock_seconds:.2f}s -> warm-from-disk: "
        f"{warm.stats.solver_cache_misses} full solves, wall "
        f"{warm.stats.wall_clock_seconds:.2f}s "
        f"({warm.stats.store_entries_loaded} verdicts from disk)"
    )


def test_plan_result_cache_skips_execution(tmp_path, bench_report, bench_records):
    store_dir = str(tmp_path / "plan-store")
    queries = (Loop(), Invariant("IpSrc"))

    clear_runtime_cache()
    reset_execution_counters()
    model = NetworkModel.from_workload("stanford", **STANFORD_STORE_OPTIONS)
    fresh = model.query(*queries, store=VerificationStore(store_dir))
    fresh_runs = execution_counters()["engine_runs"]

    reset_execution_counters()
    model = NetworkModel.from_workload("stanford", **STANFORD_STORE_OPTIONS)
    cached = model.query(*queries, store=VerificationStore(store_dir))
    cached_runs = execution_counters()["engine_runs"]

    assert fresh_runs > 0
    assert cached_runs == 0 and cached.from_cache
    assert cached.fingerprint() == fresh.fingerprint()
    assert cached.to_dict() == fresh.to_dict()

    bench_records("store").append(
        {
            "workload": "stanford16-plan-cache",
            "scale": campaign_record("x", fresh.campaign)["scale"],
            "jobs": fresh.campaign.stats.jobs,
            "engine_runs_fresh": fresh_runs,
            "engine_runs_cached": cached_runs,
            "wall_clock_seconds": round(
                fresh.campaign.stats.wall_clock_seconds, 6
            ),
            "workers": 1,
            "execution_mode": "plan-cache",
        }
    )
    bench_report.append(
        f"Store | stanford zones=16 plan cache: {fresh_runs} engine runs fresh "
        f"-> {cached_runs} on the repeated identical batch"
    )


def test_sharded_tier_vs_single_dict(bench_report, bench_records):
    """The PR 3 tier (1 shard, publish-per-solve) vs the sharded tier
    (8 shards, batched publishes) on a --workers 2 pool, compared on proxy
    round-trips; fingerprints must not move."""
    single = _run(workers=2, cache_shards=1, publish_batch=1)
    sharded = _run(workers=2, cache_shards=8)

    assert not single.job_errors and not sharded.job_errors
    assert _fingerprints(single) == _fingerprints(sharded)
    # Per-run invariants (cross-run solve counts vary with pool timing):
    # publish-per-solve means one round-trip per entry, batching means at
    # most one per entry and usually fewer.
    assert (
        single.stats.solver_shared_publish_batches
        == single.stats.solver_shared_publish_entries
    )
    assert (
        sharded.stats.solver_shared_publish_batches
        <= sharded.stats.solver_shared_publish_entries
    )

    for label, result in (
        ("stanford16-tier-1shard", single),
        ("stanford16-tier-8shards", sharded),
    ):
        record = campaign_record(label, result)
        bench_records("campaign").append(record)
        bench_records("store").append(record)
    bench_report.append(
        f"Store | stanford zones=16 shared tier x2 workers: single dict "
        f"{single.stats.solver_shared_round_trips} round-trips "
        f"({single.stats.solver_shared_publish_batches} publishes) vs 8 shards "
        f"{sharded.stats.solver_shared_round_trips} round-trips "
        f"({sharded.stats.solver_shared_publish_batches} batched publishes)"
    )
