"""Campaign-level regression tests for the cross-job verdict cache.

The claims under test, per the verdict-cache design (see README):

* full-solve counts are monotonically non-increasing as caching tiers are
  added (isolated -> shared -> warm-started);
* the merge path works end to end: jobs report their fresh verdict entries,
  the aggregation merges them into ``CampaignResult.verdict_cache``, the
  campaign publishes that map to its ``VerificationStore``, and a later
  campaign warm-started from the store stops re-solving.

That the cache never moves an answer — cold or warm, shared or isolated,
sequential or process pool — is one coordinate of the configuration lattice
(``tests/test_config_lattice.py``).
"""

from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
)
from repro.store import VerificationStore

STANFORD_OPTIONS = dict(
    zones=3, internal_prefixes_per_zone=12, service_acl_rules=3
)


def _run(source: NetworkSource, *, shared: bool = True, store=None):
    # Each run starts from a cold per-process runtime so the measured effect
    # comes from the verdict-cache plumbing, not leftover worker state.
    clear_runtime_cache()
    return VerificationCampaign(source, shared_cache=shared, store=store).run()


def test_store_round_trip_needs_no_full_solves(tmp_path):
    source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
    store = VerificationStore(str(tmp_path / "store"))

    isolated = _run(source, shared=False)
    cold = _run(source, shared=True, store=store)  # publishes its verdicts
    warm = _run(source, shared=True, store=store)
    assert not any(r.job_errors for r in (isolated, cold, warm))

    # Full-solve counts never increase as caching tiers are added.
    assert cold.stats.solver_cache_misses <= isolated.stats.solver_cache_misses
    assert warm.stats.solver_cache_misses <= cold.stats.solver_cache_misses

    # The merge path: the cold run reports its entries, the store holds
    # exactly those, the warm run imported them (solver_cache_merged counts
    # per-worker merges) and needed no solves.
    assert cold.stats.verdict_cache_entries > 0
    assert store.load() == cold.verdict_cache
    assert warm.stats.solver_cache_merged > 0
    assert warm.stats.solver_cache_misses == 0


def test_shared_cache_cuts_cross_job_solves_on_symmetric_zones():
    """The headline effect: symmetric stanford zones re-solve each other's
    alpha-equivalent ACL constraint sets unless the cache is shared."""
    source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
    isolated = _run(source, shared=False)
    shared = _run(source, shared=True)
    assert isolated.stats.solver_cache_misses > 0
    assert shared.stats.solver_cache_misses < isolated.stats.solver_cache_misses
    assert shared.stats.solver_cache_hits > 0
    assert (
        shared.reachability.fingerprint() == isolated.reachability.fingerprint()
    )


def test_job_reports_carry_cache_statistics():
    source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
    result = _run(source, shared=True)
    payload = result.to_dict()
    assert payload["verdict_cache"]["entries"] == len(result.verdict_cache)
    stats = payload["stats"]
    for key in (
        "solver_shared_cache_hits",
        "solver_cache_merged",
        "cache_hit_rate",
        "verdict_cache_entries",
    ):
        assert key in stats
    for job in payload["jobs"]:
        assert "verdict_cache_entries" in job["stats"]
        assert "solver_shared_cache_hits" in job["stats"]


def _count_fingerprints(monkeypatch, source, **options):
    """Run a cold one-worker campaign, counting the canonical fingerprints
    the solver computes; returns ``(result, calls, distinct exact sets)``."""
    import repro.solver.incremental as incremental

    real = incremental.canonical_fingerprint
    seen = []

    def counting(conjuncts):
        seen.append(frozenset(conjuncts))
        return real(conjuncts)

    monkeypatch.setattr(incremental, "canonical_fingerprint", counting)
    try:
        result = _run(source, **options)
    finally:
        monkeypatch.setattr(incremental, "canonical_fingerprint", real)
    assert not result.job_errors
    return result, len(seen), len(set(seen))


def test_each_exact_conjunct_set_is_fingerprinted_once_per_worker(monkeypatch):
    """The exact-set key memo lives on the worker's VerdictCache, so a set
    every ACL job re-derives under the same symbol names is canonicalised
    once per process; ``shared_cache=False`` (a fresh cache per job) keeps it
    per job, and where the key comes from never moves a counter."""
    from repro.solver.incremental import IncrementalSolver

    source = NetworkSource.from_workload(
        "stanford", zones=4, service_acl_rules=4
    )
    shared, calls, distinct = _count_fingerprints(monkeypatch, source)
    assert calls == distinct > 0

    # A fresh exact-set memo for every job's solver.
    built = IncrementalSolver.__init__

    def per_job_memo(self, *args, **kwargs):
        built(self, *args, **kwargs)
        self.cache._exact.clear()

    with monkeypatch.context() as patch:
        patch.setattr(IncrementalSolver, "__init__", per_job_memo)
        per_job, per_job_calls, _ = _count_fingerprints(monkeypatch, source)
    assert per_job_calls > calls  # every ACL job re-fingerprinted its sets

    isolated, isolated_calls, _ = _count_fingerprints(
        monkeypatch, source, shared=False
    )
    assert isolated_calls == per_job_calls  # the memo never crosses jobs

    for name in ("solver_cache_hits", "solver_cache_misses", "solver_fast_paths"):
        assert getattr(shared.stats, name) == getattr(per_job.stats, name), name
    assert shared.reachability.fingerprint() == per_job.reachability.fingerprint()
