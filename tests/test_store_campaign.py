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
from repro.core.campaign import (
    NetworkSource,
    VerificationCampaign,
    clear_runtime_cache,
    execution_counters,
    reset_execution_counters,
)
from repro.core.delta import CampaignBaseline
from repro.store import VerificationStore
from repro.scenarios import generate_scenario
from repro.workloads.export import (
    export_department_style_directory,
    export_stanford_directory,
)

STANFORD_OPTIONS = dict(
    zones=3, internal_prefixes_per_zone=12, service_acl_rules=3
)


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
        with pytest.warns(RuntimeWarning, match="conflicts"):
            degraded = VerificationCampaign(source, store=store).run()
        assert _fingerprints(degraded) == reference
        assert not degraded.job_errors
        assert degraded.stats.store_entries_published == 0

    def test_campaign_json_reports_store_counters(self, tmp_path):
        source = NetworkSource.from_workload("stanford", **STANFORD_OPTIONS)
        result = _run(source, store=VerificationStore(str(tmp_path / "store")))
        stats = result.to_dict()["stats"]
        for key in (
            "store_entries_loaded",
            "store_entries_published",
            "solver_shared_round_trips",
            "solver_shared_publish_batches",
            "solver_shared_publish_entries",
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
        """A plan record whose body changed but still parses (one answer
        flipped) is refused by its checksum and quarantined: the batch is
        answered by a fresh run, never from the tampered copy."""
        store_dir = str(tmp_path / "store")
        queries = (Loop(), Invariant("IpSrc"), Reach("zr0:in-hosts", "zr1"))
        clear_runtime_cache()
        fresh = self._model().query(*queries, store=VerificationStore(store_dir))
        (path,) = glob.glob(os.path.join(store_dir, "plans", "*", "*"))
        with open(path, "rb") as handle:
            raw = handle.read()
        flip = {b"true": b"false", b"false": b"true"}
        tampered = re.sub(
            rb'("holds":\s*)(true|false)',
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
