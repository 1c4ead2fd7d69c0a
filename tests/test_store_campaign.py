"""Campaign- and API-level tests for the persistent verification store.

The acceptance criteria under test:

* a warm-from-disk rerun performs **0 full solves** (every verdict comes
  from the merged disk shards) on one worker or two, and nothing new is
  published back;
* a repeated identical query batch hits the **plan-result cache**: zero
  engine jobs, answers and fingerprints verbatim;
* plan-cache entries are invalidated when the network source's content
  changes (a directory model's fingerprint is the content digest of the
  bytes it built), plus the explicit ``invalidate_plans`` path.

That the store never moves an answer — off, cold or warm, any worker count —
is one coordinate of the configuration lattice
(``tests/test_config_lattice.py``).
"""

import glob
import json
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import (
    All,
    ForAllPairs,
    Invariant,
    Loop,
    NetworkModel,
    Reach,
    compile_plan,
    execute_plan,
)
from repro.core import facts, queries as core_queries
from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
)
from repro.core.delta import CampaignBaseline
from repro.core.queries import CampaignStats
from repro.store import VerificationStore
from repro.store.records import write_record
from repro.scenarios import generate_scenario
from repro.workloads.export import (
    export_department_style_directory,
    export_stanford_directory,
)

STANFORD_OPTIONS = dict(
    zones=3, internal_prefixes_per_zone=12, service_acl_rules=3
)

#: The verdicts a cold campaign over ``STANFORD_OPTIONS`` files, under the
#: keys the alpha-renaming canonicaliser gave them before the verdict key
#: became SHA-256 of the exact conjunct set.
RENAMING_ERA_VERDICTS = {
    "4612ce5d6ed702a6a02a935fa9f8fbbcdc1800dd0aba508abd26da6dfe76402a": "sat",
    "91b837b40bbb9e26b2c42e19567df0c668c1eb5a4bba306175927d287fc03c75": "sat",
    "d0f34cfca5069df7f275b9fada00ca1386f9bd43e3b95fd611de0e049d0f48f1": "sat",
}


def _fingerprints(result):
    return (
        result.reachability.fingerprint(),
        result.loop_report.fingerprint(),
        result.invariant_report.fingerprint(),
    )


def _run(source, *, store=None, workers=1, shared=True):
    clear_runtime_cache()
    return VerificationCampaign(source, shared_cache=shared, store=store).run(
        workers=workers
    )


@contextmanager
def _another_schema(monkeypatch, *replacements):
    """Run the body with ``(owner, name, value)`` replacements in place — a
    declaration or the salt changed — yielding the schema digest they give."""
    with monkeypatch.context() as patch:
        for owner, name, value in replacements:
            patch.setattr(owner, name, value, raising=False)
        facts.schema_digest.cache_clear()
        try:
            yield facts.schema_digest()
        finally:
            facts.schema_digest.cache_clear()


#: A stats counter this code does not declare (``to_dict`` walks the
#: declared names): a plan stored while it was declared renders its key.
RETIRED_COUNTER = (
    (CampaignStats, "retired_jobs", 0),
    (core_queries, "_DECLARED", core_queries._DECLARED + ("retired_jobs",)),
)
OTHER_SALT = ((facts, "SCHEMA_SALT", facts.SCHEMA_SALT + 1),)


def _refusal(kind, stale):
    """The quarantine reason of a ``kind`` record of schema ``stale``."""
    running = facts.schema_digest()
    return f"undecodable {kind} body: {kind} schema {stale} is not {running}"


# ---------------------------------------------------------------------------
# Verdict-shard persistence on campaigns
# ---------------------------------------------------------------------------


class TestCampaignPersistence:
    def test_warm_runs_answer_from_the_disk_shards(self, tmp_path):
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        store_dir = str(tmp_path / "store")

        cold = _run(source, store=VerificationStore(store_dir))
        warm = _run(source, store=VerificationStore(store_dir))
        pooled_warm = _run(source, store=VerificationStore(store_dir), workers=2)
        assert not any(run.job_errors for run in (cold, warm, pooled_warm))

        # The cold run derived verdicts and published every one of them ...
        assert cold.stats.store_entries_published > 0
        assert cold.stats.store_entries_published == cold.stats.solver_cache_misses
        assert cold.stats.store_entries_loaded == 0
        # ... and every warm run answered from the disk shards: zero full
        # solves, nothing new to publish, entries merged per worker.
        for run in (warm, pooled_warm):
            assert run.stats.solver_cache_misses == 0
            assert run.stats.store_entries_published == 0
            assert run.stats.store_entries_loaded == cold.stats.store_entries_published
            assert run.stats.solver_cache_merged > 0

    def test_disabled_shared_cache_ignores_the_store(self, tmp_path):
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        store = VerificationStore(str(tmp_path / "store"))
        baseline = _run(source, store=store, shared=False)
        assert baseline.stats.store_entries_published == 0
        assert store.verdict_count() == 0
        # And the isolated baseline still matches a stored run bit for bit.
        stored = _run(source, store=store)
        assert _fingerprints(baseline) == _fingerprints(stored)

    def test_two_stores_do_not_cross_contaminate(self, tmp_path):
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        _run(source, store=VerificationStore(str(tmp_path / "a")))
        other = VerificationStore(str(tmp_path / "b"))
        assert other.verdict_count() == 0
        fresh = _run(source, store=other)
        assert fresh.stats.store_entries_published > 0

    def test_quarantined_store_still_yields_identical_answers(self, tmp_path):
        """Corrupting a verdict record on disk degrades the warm start, never the
        verdicts: the campaign re-solves what the store lost."""
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        store_dir = str(tmp_path / "store")
        cold = _run(source, store=VerificationStore(store_dir))

        poisoned = VerificationStore(store_dir)
        segments = poisoned._records("verdicts")
        raw = bytearray(open(segments[0], "rb").read())
        raw[-2] ^= 0xFF
        open(segments[0], "wb").write(bytes(raw))

        degraded = _run(source, store=VerificationStore(store_dir))
        assert _fingerprints(degraded) == _fingerprints(cold)
        assert not degraded.job_errors
        # The lost verdicts were re-derived and published again.
        assert degraded.stats.solver_cache_misses > 0
        assert degraded.stats.store_entries_published > 0
        healed = _run(source, store=VerificationStore(store_dir))
        assert healed.stats.solver_cache_misses == 0

    def test_publish_conflict_warns_but_keeps_the_campaign(
        self, tmp_path, monkeypatch
    ):
        """A store whose contents conflict with the campaign's live solves
        at publish time (corrupted-but-well-formed records, a concurrent
        writer with an unsound build) must cost only the publish: the
        finished result survives with a RuntimeWarning, it is not
        discarded by the raise."""
        from repro.solver.verdict_cache import CacheConflictError

        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        store = VerificationStore(str(tmp_path / "store"))
        reference = _fingerprints(_run(source))

        def conflicting_publish(entries):
            raise CacheConflictError("store has 'sat', incoming 'unsat'")

        monkeypatch.setattr(store, "publish", conflicting_publish)
        clear_runtime_cache()
        with pytest.warns(RuntimeWarning, match="conflicts") as caught:
            degraded = VerificationCampaign(source, store=store).run()
        assert _fingerprints(degraded) == reference
        assert not degraded.job_errors
        assert degraded.stats.store_entries_published == 0
        # The refused publish is a degraded operation, counted once.
        assert degraded.stats.degraded_operations == 1
        assert store.degraded_operations == 1
        assert "canonicali" not in str(caught[0].message)

    def test_renaming_era_records_open_but_never_answer(self, tmp_path):
        """A store written while verdicts were keyed by alpha-renaming still
        opens — nothing quarantined — but its records are never served: the
        exact key's scheme tag keeps every new key apart from them.  The run
        solves live, answers alike and publishes the exact keys, and the
        next run makes no full solve."""
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        reference = _run(source)
        store_dir = str(tmp_path / "store")
        old = VerificationStore(store_dir)
        name = "00000000000000000001-renaming"
        write_record(
            os.path.join(old.directory, "verdicts", name + ".rec"),
            "verdicts",
            name,
            RENAMING_ERA_VERDICTS,
        )
        opened = VerificationStore(store_dir)
        assert opened.load() == RENAMING_ERA_VERDICTS
        assert opened.quarantined == []

        upgraded = _run(source, store=VerificationStore(store_dir))
        assert not upgraded.job_errors
        assert _fingerprints(upgraded) == _fingerprints(reference)
        assert upgraded.stats.store_entries_loaded == len(RENAMING_ERA_VERDICTS)
        # Never served: every set the reference solved is solved live.
        misses = reference.stats.solver_cache_misses
        assert upgraded.stats.solver_cache_misses == misses > 0
        assert not set(upgraded.verdict_cache) & set(RENAMING_ERA_VERDICTS)
        assert upgraded.stats.store_entries_published == misses

        warm = _run(source, store=VerificationStore(store_dir))
        assert _fingerprints(warm) == _fingerprints(reference)
        assert warm.stats.solver_cache_misses == 0
        assert warm.stats.store_entries_published == 0
        reopened = VerificationStore(store_dir)
        assert reopened.verdict_count() == len(RENAMING_ERA_VERDICTS) + misses
        assert reopened.quarantined == []

    def test_campaign_json_reports_store_counters(self, tmp_path):
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        result = _run(source, store=VerificationStore(str(tmp_path / "store")))
        stats = result.to_dict()["stats"]
        for key in (
            "store_entries_loaded",
            "store_entries_published",
            "solver_shared_round_trips",
        ):
            assert key in stats


# ---------------------------------------------------------------------------
# The plan-result cache
# ---------------------------------------------------------------------------


class TestPlanResultCache:
    def _model(self):
        return NetworkModel.from_workload("stanford", **STANFORD_OPTIONS)

    def test_repeat_batch_costs_zero_engine_jobs(self, tmp_path):
        store = VerificationStore(str(tmp_path / "store"))
        queries = (Loop(), Invariant("IpSrc"), Reach("zr0:in-hosts", "zr1"))

        clear_runtime_cache()
        reset_execution_counters()
        fresh = self._model().query(*queries, store=store)
        assert not fresh.from_cache
        assert execution_counters()["engine_runs"] > 0

        reset_execution_counters()
        cached = self._model().query(*queries, store=VerificationStore(str(tmp_path / "store")))
        assert cached.from_cache
        assert execution_counters()["engine_runs"] == 0
        # Answers, fingerprints and the serialised report are verbatim.
        assert cached.fingerprint() == fresh.fingerprint()
        assert [r.fingerprint for r in cached] == [r.fingerprint for r in fresh]
        assert [r.holds for r in cached] == [r.holds for r in fresh]
        assert cached.to_dict() == fresh.to_dict()
        assert cached["loop()"].holds == fresh["loop()"].holds
        assert cached.job_errors == []

    def test_permuted_batch_hits_with_correctly_matched_answers(self, tmp_path):
        """Plan fingerprints are order-independent, so a permuted batch
        hits the same cache entry — and every positional answer must still
        belong to the caller's query at that position."""
        store = VerificationStore(str(tmp_path / "store"))
        queries = [Loop(), Invariant("IpSrc"), Reach("zr0:in-hosts", "zr1")]
        clear_runtime_cache()
        fresh = self._model().query(*queries, store=store)

        reset_execution_counters()
        permuted = self._model().query(
            *reversed(queries), store=VerificationStore(str(tmp_path / "store"))
        )
        assert permuted.from_cache
        assert execution_counters()["engine_runs"] == 0
        for query in queries:
            assert permuted[query.describe()].fingerprint == fresh[
                query.describe()
            ].fingerprint
        # Positional access follows the caller's (reversed) order.
        assert permuted[0].query == queries[-1].describe()
        assert permuted[2].query == queries[0].describe()

    def test_tampered_plan_record_is_quarantined_never_served(self, tmp_path):
        """A plan record whose body changed but still parses (one job
        report's ``truncated`` flipped) is refused by its checksum and
        quarantined: the batch is answered by a fresh run, never from the
        tampered copy."""
        store_dir = str(tmp_path / "store")
        queries = (Loop(), Invariant("IpSrc"), Reach("zr0:in-hosts", "zr1"))
        clear_runtime_cache()
        fresh = self._model().query(*queries, store=VerificationStore(store_dir))
        (path,) = glob.glob(os.path.join(store_dir, "plans", "*", "*"))
        with open(path, "rb") as handle:
            raw = handle.read()
        flip = {b"true": b"false", b"false": b"true"}
        tampered = re.sub(
            rb'("truncated":\s*)(true|false)',
            lambda match: match.group(1) + flip[match.group(2)],
            raw,
            count=1,
        )
        assert tampered != raw
        with open(path, "wb") as handle:
            handle.write(tampered)
        clear_runtime_cache()
        store = VerificationStore(store_dir)
        rerun = self._model().query(*queries, store=store)
        assert not rerun.from_cache
        assert [p for p, _ in store.quarantined] == [path]
        assert [(r.holds, r.value, r.fingerprint) for r in rerun] == [
            (r.holds, r.value, r.fingerprint) for r in fresh
        ]

    def test_cache_hit_rehydrates_stats(self, tmp_path):
        store = VerificationStore(str(tmp_path / "store"))
        clear_runtime_cache()
        fresh = self._model().query(Loop(), store=store)
        cached = self._model().query(
            Loop(), store=VerificationStore(str(tmp_path / "store"))
        )
        assert cached.from_cache
        assert cached.stats is not None
        assert cached.stats.jobs == fresh.stats.jobs
        assert cached.stats.cache_hit_rate == fresh.stats.cache_hit_rate

    def test_different_batch_misses_the_plan_cache(self, tmp_path):
        store = VerificationStore(str(tmp_path / "store"))
        self._model().query(Loop(), store=store)
        reset_execution_counters()
        clear_runtime_cache()
        other = self._model().query(Loop(), Invariant("IpSrc"), store=store)
        assert not other.from_cache
        assert execution_counters()["engine_runs"] > 0

    def test_a_plan_filed_under_the_previous_scheme_is_a_counted_miss(
        self, tmp_path, monkeypatch
    ):
        """A plan stored while the code declared a counter it has since
        retired sits at the very key the plan asks for (the schema is no
        part of it), and is refused with no manual bump: one miss the
        plan-cache counter records, one quarantine entry naming both
        digests, and fresh answers — never a rendering of the retired key."""
        from repro.obs.metrics import PLAN_CACHE

        store_dir = str(tmp_path / "store")
        clear_runtime_cache()
        with _another_schema(monkeypatch, *RETIRED_COUNTER) as stale:
            primed = self._model().query(Loop(), store=VerificationStore(store_dir))
            hit = self._model().query(Loop(), store=VerificationStore(store_dir))
            assert hit.from_cache and "retired_jobs" in hit.to_dict()["stats"]
        (path,) = glob.glob(os.path.join(store_dir, "plans", "*", "*.rec"))
        misses = PLAN_CACHE.get().value(result="miss")
        store = VerificationStore(store_dir)
        rerun = self._model().query(Loop(), store=store)
        assert not rerun.from_cache and "retired_jobs" not in rerun.to_dict()["stats"]
        assert PLAN_CACHE.get().value(result="miss") == misses + 1
        assert store.quarantined == [(path, _refusal("plan", stale))]
        assert [(r.holds, r.value, r.fingerprint) for r in rerun] == [
            (r.holds, r.value, r.fingerprint) for r in primed
        ]
        again = VerificationStore(store_dir)
        assert self._model().query(Loop(), store=again).from_cache
        assert again.quarantined == []

    def test_cached_plans_survive_compaction_and_clear(self, tmp_path):
        store = VerificationStore(str(tmp_path / "store"))
        self._model().query(Loop(), store=store)
        store.compact()
        cached = self._model().query(Loop(), store=VerificationStore(str(tmp_path / "store")))
        assert cached.from_cache
        VerificationStore(str(tmp_path / "store")).invalidate_plans()
        clear_runtime_cache()
        fresh = self._model().query(Loop(), store=VerificationStore(str(tmp_path / "store")))
        assert not fresh.from_cache

    def test_directory_content_change_invalidates_cached_plans(self, tmp_path):
        snapshot = tmp_path / "net"
        snapshot.mkdir()
        (snapshot / "topology.txt").write_text("device sw switch sw.mac\n")
        (snapshot / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        store = VerificationStore(str(tmp_path / "store"))
        first = NetworkModel.from_directory(str(snapshot)).query(
            Loop(), store=store
        )
        assert not first.from_cache
        hit = NetworkModel.from_directory(str(snapshot)).query(
            Loop(), store=store
        )
        assert hit.from_cache
        # Grow the MAC table: size changes, so the model fingerprint does.
        with open(snapshot / "sw.mac", "a") as handle:
            handle.write(" 303    0011.2233.4466    DYNAMIC     out0\n")
        clear_runtime_cache()
        changed = NetworkModel.from_directory(str(snapshot)).query(
            Loop(), store=store
        )
        assert not changed.from_cache

    def test_isolated_runs_never_touch_the_plan_cache(self, tmp_path):
        """shared_cache=False is the isolated baseline: it must neither be
        answered from the plan cache nor feed it — even with a store that
        already holds this exact batch."""
        store = VerificationStore(str(tmp_path / "store"))
        self._model().query(Loop(), store=store)
        assert store.plan_count() == 1

        clear_runtime_cache()
        reset_execution_counters()
        isolated = self._model().query(
            Loop(), store=VerificationStore(str(tmp_path / "store")),
            shared_cache=False,
        )
        assert not isolated.from_cache
        assert execution_counters()["engine_runs"] > 0
        # The shared and isolated plans also key differently, so neither
        # can ever shadow the other.
        model = self._model()
        shared_plan = compile_plan(model, [Loop()])
        isolated_plan = compile_plan(model, [Loop()], shared_cache=False)
        assert shared_plan.fingerprint() != isolated_plan.fingerprint()

    def test_byte_identical_snapshots_share_one_plan_identity(self, tmp_path):
        """The model fingerprint is a *content* identity: the same snapshot
        bytes at two different paths (copied checkout, CI workspace) must
        share plan-cache entries in a shared store."""
        store = VerificationStore(str(tmp_path / "store"))
        contents = {
            "topology.txt": "device sw switch sw.mac\n",
            "sw.mac": (
                "Vlan    Mac Address       Type        Ports\n"
                " 302    0011.2233.4455    DYNAMIC     out0\n"
            ),
        }
        for name in ("checkout-a", "checkout-b"):
            directory = tmp_path / name
            directory.mkdir()
            for file_name, text in contents.items():
                (directory / file_name).write_text(text)
        clear_runtime_cache()
        first = NetworkModel.from_directory(str(tmp_path / "checkout-a"))
        first.query(Loop(), store=store)
        clear_runtime_cache()
        second = NetworkModel.from_directory(str(tmp_path / "checkout-b"))
        assert second.fingerprint() == first.fingerprint()
        assert second.query(Loop(), store=store).from_cache

    def test_stale_model_cannot_poison_the_plan_cache(self, tmp_path):
        """A long-lived model keeps executing the snapshot it built — so
        its cache key must be the *built* content's identity, frozen at
        build time.  Otherwise an in-place edit plus a re-query on the old
        model would file stale answers under the fresh content's key, and
        a brand-new process over the edited directory would be served
        wrong verification answers."""
        snapshot = tmp_path / "net"
        snapshot.mkdir()
        (snapshot / "topology.txt").write_text("device sw switch sw.mac\n")
        (snapshot / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out0\n"
        )
        store = VerificationStore(str(tmp_path / "store"))
        clear_runtime_cache()
        stale_model = NetworkModel.from_directory(str(snapshot))
        stale_model.query(Loop(), store=store)
        pre_edit_fingerprint = stale_model.fingerprint()

        # Edit in place; the old model must keep its frozen identity ...
        (snapshot / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out1\n"
        )
        stale_model.query(Loop(), store=store)
        assert stale_model.fingerprint() == pre_edit_fingerprint
        # ... so a fresh process (fresh model) over the edited directory
        # misses the plan cache and executes the real, edited network.
        clear_runtime_cache()
        fresh = NetworkModel.from_directory(str(snapshot))
        assert fresh.fingerprint() != pre_edit_fingerprint
        answer = fresh.query(Loop(), store=store)
        assert not answer.from_cache

        # A model created before an edit but built after it executes the
        # edited bytes, and its identity is exactly theirs — read off the
        # build, not guessed from a stat — so it files its answers where a
        # later process over the same bytes finds them.
        clear_runtime_cache()
        late = NetworkModel.from_directory(str(snapshot))
        (snapshot / "sw.mac").write_text(
            "Vlan    Mac Address       Type        Ports\n"
            " 302    0011.2233.4455    DYNAMIC     out2\n"
        )
        assert late.fingerprint() not in (pre_edit_fingerprint, fresh.fingerprint())
        assert not late.query(Loop(), store=store).from_cache
        clear_runtime_cache()
        after = NetworkModel.from_directory(str(snapshot))
        assert after.fingerprint() == late.fingerprint()
        assert after.query(Loop(), store=store).from_cache
        # And it still cannot be served the pre-edit answers, nor serve its
        # own to a model over them.
        assert stale_model.fingerprint() == pre_edit_fingerprint

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="relies on workers forked before the driver's build",
    )
    def test_worker_that_built_different_bytes_says_so(self, tmp_path):
        """Pool workers rebuild a directory from disk under the *driver's*
        stat key, which cannot see an edit made since the driver looked.
        A worker that finds itself on other bytes than the driver built must
        report an error, not an answer — or the edited network's answers
        would be filed under the old content's plan key and baseline."""
        directory = tmp_path / "net"
        directory.mkdir()
        export_department_style_directory(str(directory))
        store = VerificationStore(str(tmp_path / "store"))
        clear_runtime_cache()
        with ProcessPoolExecutor(max_workers=2) as pool:
            # Fork the workers now, before anything is built: their runtime
            # caches are empty, so each will build from disk.
            pool.submit(os.getpid).result()
            model = NetworkModel.from_directory(str(directory))
            plan = compile_plan(model, [Loop()])
            built = model.fingerprint()
            (directory / "edge.acl").write_text("block 22\n")
            result = execute_plan(plan, workers=2, store=store, pool=pool)
        assert result.campaign.execution_mode == "process-pool"
        assert len(result.job_errors) == plan.job_count
        assert all(
            "snapshot changed under the campaign" in error
            for _, error in result.job_errors
        )
        assert model.fingerprint() == built
        assert store.plan_count() == 0
        baseline = CampaignBaseline.from_payload(store.get_baseline(str(directory)))
        assert baseline is not None and baseline.reports == {}
        # A model made after the edit answers, and only it is filed.
        clear_runtime_cache()
        edited = NetworkModel.from_directory(str(directory))
        assert edited.fingerprint() != built
        assert not edited.query(Loop(), store=store).job_errors
        assert store.plan_count() == 1

    def test_in_process_networks_never_hit_the_plan_cache(self, tmp_path):
        from repro.network.element import NetworkElement
        from repro.network.topology import Network
        from repro.sefl import Forward

        network = Network("tiny")
        element = NetworkElement("a", ["in0"], ["out0"])
        element.set_input_program("in0", Forward("out0"))
        network.add_element(element)
        model = NetworkModel.from_network(network)
        assert model.fingerprint() is None
        store = VerificationStore(str(tmp_path / "store"))
        first = model.query(Loop(), store=store)
        second = model.query(Loop(), store=store)
        assert not first.from_cache and not second.from_cache

    def test_failed_jobs_are_not_cached(self, tmp_path, monkeypatch):
        import repro.core.executor as executor_module

        store = VerificationStore(str(tmp_path / "store"))
        original = executor_module.execute_job

        def failing(job):
            report = original(job)
            report.error = "synthetic failure"
            return report

        monkeypatch.setattr(executor_module, "execute_job", failing)
        clear_runtime_cache()
        broken = self._model().query(Loop(), store=store)
        assert broken.job_errors
        monkeypatch.setattr(executor_module, "execute_job", original)
        clear_runtime_cache()
        retried = self._model().query(Loop(), store=store)
        assert not retried.from_cache  # the failed run must not have stuck


# ---------------------------------------------------------------------------
# Reasons stated once: record bodies, and the text rendered back at the edge
# ---------------------------------------------------------------------------

REASON_QUERIES = (
    ForAllPairs(Reach), Loop(), Invariant("IpSrc"), All(Loop(), Invariant("IpDst")),
)


def _stanford_directory(directory, zones):
    os.makedirs(directory)
    export_stanford_directory(
        str(directory), zones=zones, internal_prefixes_per_zone=4,
        service_acl_rules=3,
    )


def _looping_department_directory(directory):
    """A department export two scenario steps in: the second injects a
    forwarding loop, so loop findings carry reasons too."""
    os.makedirs(directory)
    export_department_style_directory(
        str(directory), switches=2, macs_per_port=2, seed=5
    )
    scenario = generate_scenario(str(directory), steps=6, seed=5, inject_violation=True)
    for step in scenario.steps[:2]:
        for name, text in step.writes:
            (directory / name).write_text(text, encoding="utf-8", newline="\n")


def _downgrade(path):
    """Relabel a record as version 1, checksum intact: a record an older
    writer could have left behind."""
    header, _, body = Path(path).read_bytes().partition(b"\n")
    fields = dict(json.loads(header), version=1)
    with open(path, "wb") as handle:
        handle.write(
            json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
            + b"\n" + body
        )


class TestReasonTableRecords:
    @pytest.mark.parametrize("network", ["stanford-8", "department-loop"])
    def test_a_cache_hit_renders_the_fresh_report_byte_for_byte(
        self, tmp_path, network
    ):
        directory = tmp_path / "net"
        if network == "stanford-8":
            _stanford_directory(directory, zones=8)
        else:
            _looping_department_directory(directory)
        store_dir = str(tmp_path / "store")
        clear_runtime_cache()
        fresh = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(store_dir)
        )
        hit = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(store_dir)
        )
        assert hit.from_cache and not fresh.from_cache
        assert hit.to_json() == fresh.to_json()
        assert [json.dumps(r.to_dict()) for r in hit] == [
            json.dumps(r.to_dict()) for r in fresh
        ]
        if network == "department-loop":
            assert fresh["loop()"].holds is False
            assert fresh["loop()"].value["findings"][0]["reason"]

    def test_stored_records_state_each_reason_once(self, tmp_path):
        directory = tmp_path / "net"
        _stanford_directory(directory, zones=4)
        store_dir = tmp_path / "store"
        clear_runtime_cache()
        NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(str(store_dir))
        )
        records = glob.glob(str(store_dir / "plans" / "*" / "*.rec")) + glob.glob(
            str(store_dir / "baselines" / "*.rec")
        )
        assert len(records) == 2
        for path in records:
            raw = Path(path).read_bytes()
            reasons = json.loads(raw.partition(b"\n")[2])["reasons"]
            assert reasons and len(set(reasons)) == len(reasons)
            for reason in reasons:
                assert raw.count(json.dumps(reason).encode()) == 1, (path, reason)

    def test_a_version_1_record_is_quarantined_once_and_answered_in_full(
        self, tmp_path
    ):
        """Old plan and baseline records are refused as an unknown version —
        one miss, a full run, nothing spliced — never reinterpreted."""
        directory = tmp_path / "net"
        _stanford_directory(directory, zones=3)
        store_dir = tmp_path / "store"
        clear_runtime_cache()
        fresh = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(str(store_dir))
        )
        old = sorted(
            glob.glob(str(store_dir / "plans" / "*" / "*.rec"))
            + glob.glob(str(store_dir / "baselines" / "*.rec"))
        )
        for path in old:
            _downgrade(path)
        store = VerificationStore(str(store_dir))
        rerun = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=store
        )
        assert not rerun.from_cache
        assert rerun.stats.jobs_spliced_by_delta == 0
        assert rerun.stats.executed_jobs == rerun.stats.jobs
        assert sorted(path for path, _ in store.quarantined) == old
        assert all("version 1" in reason for _, reason in store.quarantined)
        assert [(r.holds, r.value, r.fingerprint) for r in rerun] == [
            (r.holds, r.value, r.fingerprint) for r in fresh
        ]
        again = VerificationStore(str(store_dir))
        assert NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=again
        ).from_cache
        assert again.quarantined == []


class TestSchemaChange:
    """A stored answer names the schema it was rendered under; one of
    another schema is refused and counted, whatever the kind."""

    def test_a_baseline_of_another_schema_is_quarantined_and_rerun_in_full(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "net"
        _stanford_directory(directory, zones=3)
        store_dir = str(tmp_path / "store")
        with _another_schema(monkeypatch, *RETIRED_COUNTER) as stale:
            primed = _run(str(directory), store=VerificationStore(store_dir))
        (path,) = glob.glob(os.path.join(store_dir, "baselines", "*.rec"))
        store = VerificationStore(store_dir)
        rerun = _run(str(directory), store=store)
        assert rerun.stats.jobs_spliced_by_delta == 0
        assert rerun.stats.executed_jobs == rerun.stats.jobs > 0
        assert store.quarantined == [(path, _refusal("baseline", stale))]
        assert _fingerprints(rerun) == _fingerprints(primed)
        again = VerificationStore(store_dir)
        assert _run(str(directory), store=again).stats.jobs_spliced_by_delta == (
            rerun.stats.jobs
        )
        assert again.quarantined == []

    def test_a_hit_renders_a_fresh_run_byte_for_byte_across_a_schema_change(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "net"
        _looping_department_directory(directory)
        store_dir = str(tmp_path / "store")
        clear_runtime_cache()
        with _another_schema(monkeypatch, *OTHER_SALT):
            NetworkModel.from_directory(str(directory)).query(
                *REASON_QUERIES, store=VerificationStore(store_dir)
            )
        fresh = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(store_dir)
        )
        hit = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(store_dir)
        )
        assert hit.from_cache and not fresh.from_cache
        assert hit.to_json() == fresh.to_json()


# ---------------------------------------------------------------------------
# A plan record holds job reports; a hit is demultiplexed like a fresh run
# ---------------------------------------------------------------------------


def _resign(path, mutate):
    """Change a record's body and sign it again: checksum intact, so only
    the body's decoding can refuse it."""
    header, _, body = Path(path).read_bytes().partition(b"\n")
    header = json.loads(header)
    write_record(path, header["kind"], header["key"], mutate(json.loads(body)))


def _drop_one_field(body):
    del next(iter(body["reports"].values()))["delivered_to"]
    return body


def _reason_outside_the_table(body):
    report = next(r for r in body["reports"].values() if r["drop_reasons"])
    report["drop_reasons"] = {str(len(body["reasons"])): 1}
    return body


PLAN_MUTATIONS = {
    "reports-not-a-mapping": lambda body: dict(body, reports=list(body["reports"])),
    "report-missing-a-field": _drop_one_field,
    "reason-id-outside-the-table": _reason_outside_the_table,
    "another-schema": lambda body: dict(body, schema="retired"),
    # What the previous form stored: the rendered report, no job reports.
    "a-rendered-report": lambda body: {"network": "net", "queries": [],
                                       "schema": body["schema"], "reasons": []},
}


class TestPlanRecords:
    QUERIES = (Loop(), Invariant("IpSrc"), ForAllPairs(Reach))

    def _directory(self, tmp_path, name="net"):
        directory = tmp_path / name
        directory.mkdir()
        export_stanford_directory(
            str(directory), zones=4, internal_prefixes_per_zone=4,
            service_acl_rules=2,
        )
        return directory

    def test_a_copied_directory_is_answered_under_its_own_name(self, tmp_path):
        """The model fingerprint is a content identity, so a byte-identical
        copy shares the primed plan — but what the hit renders about the
        network is the copy's, not the directory that primed it."""
        import shutil

        original = self._directory(tmp_path, "a")
        copy = tmp_path / "b"
        shutil.copytree(original, copy)
        store_dir = str(tmp_path / "store")
        clear_runtime_cache()
        primed = NetworkModel.from_directory(str(original)).query(
            Loop(), store=VerificationStore(store_dir)
        )
        hit = NetworkModel.from_directory(str(copy)).query(
            Loop(), store=VerificationStore(store_dir)
        )
        assert hit.from_cache and not primed.from_cache
        assert [(r.holds, r.value, r.fingerprint) for r in hit] == [
            (r.holds, r.value, r.fingerprint) for r in primed
        ]
        payload = hit.to_dict()
        assert payload["network"] == payload["plan"]["network"] == str(copy)
        renamed = hit.to_json().replace(
            json.dumps(payload["network"]), json.dumps(primed.to_dict()["network"])
        )
        assert renamed == primed.to_json()

    def test_a_key_added_to_a_rendering_reaches_a_hit(self, tmp_path, monkeypatch):
        """Nothing rendered is stored: a key the code adds to a plan's,
        a result's or an answer's ``to_dict`` is in a hit's report exactly
        as in a fresh run's, with no schema change."""
        from repro.api.planner import Plan, PlanResult
        from repro.api.queries import QueryResult

        directory = self._directory(tmp_path)
        store_dir = str(tmp_path / "store")
        clear_runtime_cache()
        NetworkModel.from_directory(str(directory)).query(
            *self.QUERIES, store=VerificationStore(store_dir)
        )
        for owner in (PlanResult, Plan, QueryResult):
            render = owner.to_dict
            monkeypatch.setattr(
                owner, "to_dict",
                lambda self, render=render: dict(render(self), added=type(self).__name__),
            )
        hit = NetworkModel.from_directory(str(directory)).query(
            *self.QUERIES, store=VerificationStore(store_dir)
        )
        fresh = NetworkModel.from_directory(str(directory)).query(*self.QUERIES)
        assert hit.from_cache and not fresh.from_cache
        for result in (hit, fresh):
            payload = result.to_dict()
            assert payload["added"] == "PlanResult"
            assert payload["plan"]["added"] == "Plan"
            assert [answer["added"] for answer in payload["queries"]] == [
                "QueryResult"
            ] * len(self.QUERIES)
        assert list(hit.to_dict()) == list(fresh.to_dict())

    @pytest.mark.parametrize("mutation", sorted(PLAN_MUTATIONS))
    def test_a_record_that_does_not_decode_is_one_quarantined_miss(
        self, tmp_path, mutation
    ):
        """A signed plan record whose body the planner cannot decode —
        whatever part is wrong — is quarantined beside a ``.reason`` and
        counted as one plan-cache miss; the batch is answered in full."""
        from repro.obs.metrics import PLAN_CACHE

        directory = self._directory(tmp_path)
        store_dir = str(tmp_path / "store")
        clear_runtime_cache()
        primed = NetworkModel.from_directory(str(directory)).query(
            *self.QUERIES, store=VerificationStore(store_dir)
        )
        (path,) = glob.glob(os.path.join(store_dir, "plans", "*", "*.rec"))
        _resign(path, PLAN_MUTATIONS[mutation])
        misses = PLAN_CACHE.get().value(result="miss")
        hits = PLAN_CACHE.get().value(result="hit")
        store = VerificationStore(store_dir)
        rerun = NetworkModel.from_directory(str(directory)).query(
            *self.QUERIES, store=store
        )
        assert not rerun.from_cache
        assert PLAN_CACHE.get().value(result="miss") == misses + 1
        assert PLAN_CACHE.get().value(result="hit") == hits
        ((quarantined, why),) = store.quarantined
        assert quarantined == path and why.startswith("undecodable plan body")
        reasons = glob.glob(os.path.join(store_dir, "quarantine", "*.reason"))
        assert [json.load(open(name))["record"] for name in reasons] == [path]
        assert [(r.holds, r.value, r.fingerprint) for r in rerun] == [
            (r.holds, r.value, r.fingerprint) for r in primed
        ]


class TestOnePipelinePass:
    """A run encodes each report once, for its plan record and its
    baseline alike."""

    def test_each_report_is_encoded_once_per_run(self, tmp_path, monkeypatch):
        from repro.api import planner
        from repro.core import delta

        directory = tmp_path / "net"
        _stanford_directory(directory, zones=4)
        encoded = []
        encode = delta.encode_report

        def spy(payload, reasons):
            encoded.append(f"{payload['element']}:{payload['port']}")
            return encode(payload, reasons)

        monkeypatch.setattr(delta, "encode_report", spy)
        monkeypatch.setattr(planner, "encode_report", spy, raising=False)
        store_dir = tmp_path / "store"
        clear_runtime_cache()
        result = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(str(store_dir)), delta=True
        )
        assert glob.glob(str(store_dir / "plans" / "*" / "*.rec"))
        assert glob.glob(str(store_dir / "baselines" / "*.rec"))
        jobs = sorted(job.source_key for job in result.campaign.jobs)
        assert len(jobs) == result.plan.job_count > 1
        assert sorted(encoded) == jobs

    def test_a_plan_record_holds_the_baselines_encoded_entries(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "net"
        _stanford_directory(directory, zones=4)
        bodies = []
        put_plan = VerificationStore.put_plan

        def spy(store, model, plan, body):
            bodies.append(body)
            return put_plan(store, model, plan, body)

        monkeypatch.setattr(VerificationStore, "put_plan", spy)
        clear_runtime_cache()
        result = NetworkModel.from_directory(str(directory)).query(
            *REASON_QUERIES, store=VerificationStore(str(tmp_path / "store"))
        )
        ((body,),) = [bodies]
        entries, reasons = result.campaign.baseline.encoded()
        assert list(body["reports"]) == list(entries)
        for key, report in body["reports"].items():
            assert report is entries[key]["report"]
        assert body["reasons"] is reasons.texts
        assert body["reasons"] == result.campaign.baseline_payload["reasons"]

    def test_a_workload_run_records_an_unwritable_baseline_and_hits(
        self, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        model = NetworkModel.from_workload("stanford", **STANFORD_OPTIONS)
        clear_runtime_cache()
        fresh = model.query(*REASON_QUERIES, store=VerificationStore(store_dir))
        baseline = fresh.campaign.baseline
        assert baseline is not None and baseline.manifest is None
        assert set(baseline.reports) == {job.source_key for job in fresh.campaign.jobs}
        assert fresh.campaign.baseline_payload is None
        assert not os.listdir(os.path.join(store_dir, "baselines"))
        hit = NetworkModel.from_workload("stanford", **STANFORD_OPTIONS).query(
            *REASON_QUERIES, store=VerificationStore(store_dir)
        )
        assert hit.from_cache and not fresh.from_cache
        assert hit.to_json() == fresh.to_json()
