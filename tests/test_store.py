"""Mutation/fuzz suite for the persistent store's disk layer.

The claims under test, per the store's trust model (disk is evidence, never
truth):

* round-trip fidelity: what :meth:`VerificationStore.publish` writes,
  :meth:`VerificationStore.load` returns — across publish batches,
  compaction and concurrent writers — with exact verdict parity against an
  in-memory :class:`VerdictCache` fed the same entries;
* **quarantine, not crash**: truncated records, bit flips anywhere in a
  file, splices, records of the wrong version, kind or key, foreign/garbage
  files and torn tmp files from a crash mid-flush never raise out of a
  read — the poisoned record is moved to ``quarantine/`` and every *other*
  record survives.  Verdicts, plans and baselines share that one policy;
* conflicting verdict records (definite verdict vs definite verdict for
  one fingerprint) are refused wholesale via the verdict cache's own
  conflict-refusing policy, and a re-keyed entry that dodges every
  structural check is still caught by ``VerdictCache.verify_entry``'s
  re-solve.

A verdict record is what ``describe()`` counts as a *segment*.  Fuzz loops
are seed-pinned via ``REPRO_CACHE_SEED`` (the cache suites' convention) so
CI runs are reproducible.
"""

import hashlib
import json
import os
import random
import threading

import pytest

from repro.solver.ast import Const, Ge, Le, Var
from repro.solver.canonical import canonical_fingerprint
from repro.solver.verdict_cache import CacheCorruptionError, VerdictCache
from repro.store import (
    RecordError,
    ShardedTier,
    StoreError,
    VerificationStore,
    read_record,
    shard_index,
    write_record,
)
from repro.store.records import RECORD_VERSION

SEED = int(os.environ.get("REPRO_CACHE_SEED", "20260728"))


def fake_fingerprint(rng: random.Random) -> str:
    return hashlib.sha256(str(rng.random()).encode()).hexdigest()


def random_entries(rng: random.Random, count: int) -> dict:
    return {
        fake_fingerprint(rng): rng.choice(("sat", "unsat"))
        for _ in range(count)
    }


def all_segments(store: VerificationStore):
    return store._records("verdicts")


def plant_verdicts(store: VerificationStore, name: str, entries: dict) -> str:
    """Write a well-formed verdict record under ``name`` (sorting after
    every record a publish writes when ``name`` starts with nines)."""
    path = os.path.join(store.directory, "verdicts", name + ".rec")
    write_record(path, "verdicts", name, entries)
    return path


def forge(path: str, body: object, **header) -> None:
    """A record with a correct checksum but a chosen header field — what
    a future (or foreign) writer could leave behind."""
    data = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    fields = {
        "checksum": hashlib.sha256(data).hexdigest(),
        "key": "",
        "kind": "verdicts",
        "magic": "symnet-store-record",
        "version": RECORD_VERSION,
        **header,
    }
    head = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as handle:
        handle.write(head + b"\n" + data)


# ---------------------------------------------------------------------------
# Round-trip fidelity
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("rounds", [1, 3, 8])
    def test_publish_load_parity_with_in_memory_cache(self, tmp_path, rounds):
        rng = random.Random(SEED + rounds)
        store = VerificationStore(str(tmp_path))
        reference = VerdictCache()
        for _ in range(rounds):
            entries = random_entries(rng, rng.randint(1, 40))
            reference.merge(entries)
            store.publish(entries)
        reopened = VerificationStore(str(tmp_path))
        assert reopened.load() == reference.snapshot()
        assert not reopened.quarantined
        assert len(all_segments(reopened)) == rounds  # one record per publish

    def test_publish_writes_only_the_diff(self, tmp_path):
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 30)
        assert store.publish(entries) == 30
        assert store.publish(entries) == 0  # idempotent, no new record
        assert len(all_segments(store)) == 1
        more = random_entries(rng, 5)
        assert store.publish({**entries, **more}) == 5
        newest = all_segments(store)[-1]
        assert read_record(newest, "verdicts", os.path.basename(newest)[:-4]) == more

    def test_unknown_verdicts_are_never_persisted(self, tmp_path):
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        fingerprint = fake_fingerprint(rng)
        assert store.publish({fingerprint: "unknown"}) == 0
        assert store.load() == {}
        assert all_segments(store) == []

    def test_content_token_tracks_publishes(self, tmp_path):
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        empty_token = store.content_token()
        store.publish(random_entries(rng, 8))
        cold_token = store.content_token()
        assert cold_token != empty_token
        assert VerificationStore(str(tmp_path)).content_token() == cold_token
        store.publish(random_entries(rng, 1))
        assert store.content_token() != cold_token

    def test_compaction_preserves_every_verdict(self, tmp_path):
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        expected = {}
        for _ in range(6):
            entries = random_entries(rng, 20)
            expected.update(entries)
            store.publish(entries)
        before = len(all_segments(store))
        outcome = store.compact()
        assert outcome["entries"] == len(expected)
        assert outcome["segments_before"] == before == 6
        assert outcome["segments_after"] == 1
        assert len(all_segments(store)) == 1
        assert VerificationStore(str(tmp_path)).load() == expected

    def test_compaction_races_with_a_concurrent_publisher(self, tmp_path, monkeypatch):
        """A record published while a compaction runs (after the listing,
        before the deletions) must survive: compact only deletes the files
        it folded into the replacement."""
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        original_entries = random_entries(rng, 12)
        store.publish(original_entries)
        racing_entries = random_entries(rng, 4)
        original_merge = VerificationStore._merge_records
        raced = []

        def merge_then_race(self, paths):
            merged = original_merge(self, paths)
            if not raced:
                # Another process publishes between the listing and the
                # deletions (once — the publisher's own load must recurse
                # into the real implementation unmolested).
                raced.append(True)
                VerificationStore(str(tmp_path)).publish(racing_entries)
            return merged

        monkeypatch.setattr(VerificationStore, "_merge_records", merge_then_race)
        store.compact()
        monkeypatch.undo()
        final = VerificationStore(str(tmp_path)).load()
        assert final == {**original_entries, **racing_entries}

    @pytest.mark.parametrize("value", [0, -4, "abc", None, True, 2.5])
    def test_tampered_store_metadata_is_rejected_cleanly(self, tmp_path, value):
        """STORE.json is untrusted disk input: a format that is not this
        store's must fail as a clean StoreError at open time, never as an
        untyped crash at the end of a finished campaign."""
        VerificationStore(str(tmp_path))
        meta_path = os.path.join(str(tmp_path), "STORE.json")
        with open(meta_path, "w") as handle:
            json.dump({"format": value}, handle)
        with pytest.raises(StoreError, match="store format"):
            VerificationStore(str(tmp_path))

    def test_format_1_directory_is_refused(self, tmp_path):
        """A store written by the sharded segment layout is refused by
        name, both formats in the message: a store is a cache, so the user
        points the run at a fresh directory."""
        shard = tmp_path / "shards" / "00"
        shard.mkdir(parents=True)
        (shard / "segment-00000000-abcdef00.seg").write_text(
            '{"magic": "symnet-verdict-segment", "version": 1, "shard": 0}\n'
        )
        (tmp_path / "STORE.json").write_text('{"format": 1, "shards": 8}')
        with pytest.raises(StoreError, match="store format 1 is not 2"):
            VerificationStore(str(tmp_path))
        assert not (tmp_path / "verdicts").exists()  # nothing scaffolded

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        """Writers in parallel threads (distinct store handles, same
        directory — the multi-process publish shape) must never clobber or
        corrupt each other: record names are collision-free and every
        write is tmp-file + atomic rename."""
        rng = random.Random(SEED)
        batches = [random_entries(rng, 25) for _ in range(8)]
        errors = []

        def publish(batch):
            try:
                VerificationStore(str(tmp_path)).publish(batch)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(b,)) for b in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        merged = {}
        for batch in batches:
            merged.update(batch)
        final = VerificationStore(str(tmp_path))
        assert final.load() == merged
        assert not final.quarantined


# ---------------------------------------------------------------------------
# Record-level integrity
# ---------------------------------------------------------------------------


class TestSegmentFormat:
    def test_segment_round_trip(self, tmp_path):
        rng = random.Random(SEED)
        entries = random_entries(rng, 10)
        path = str(tmp_path / "r.rec")
        write_record(path, "verdicts", "r", entries)
        assert read_record(path, "verdicts", "r") == entries
        header, body = open(path, "rb").read().split(b"\n")
        assert json.loads(header)["version"] == RECORD_VERSION == 2
        # The body keeps the writer's key order.
        assert body == json.dumps(entries, separators=(",", ":")).encode()

    def test_wrong_kind_or_key_is_rejected(self, tmp_path):
        rng = random.Random(SEED)
        path = str(tmp_path / "r.rec")
        write_record(path, "verdicts", "r", random_entries(rng, 3))
        with pytest.raises(RecordError, match="read as 'plan'"):
            read_record(path, "plan", "r")
        with pytest.raises(RecordError, match="answers 'r', not 'other'"):
            read_record(path, "verdicts", "other")

    def test_unknown_version_is_rejected(self, tmp_path):
        path = str(tmp_path / "r.rec")
        for version in (1, RECORD_VERSION + 1):
            forge(path, {}, key="r", version=version)
            with pytest.raises(RecordError, match=f"version {version}"):
                read_record(path, "verdicts", "r")

    def test_writer_validates_its_input(self, tmp_path):
        store = VerificationStore(str(tmp_path))
        with pytest.raises(ValueError, match="fingerprint"):
            store.publish({"not-hex": "sat"})
        with pytest.raises(ValueError, match="verdict"):
            store.publish({"ab" * 32: "maybe"})
        assert all_segments(store) == []

    @pytest.mark.parametrize("case", range(40))
    def test_fuzzed_corruption_never_parses(self, tmp_path, case):
        """Seed-pinned fuzz: truncate at a random offset, flip a random
        byte, or splice random bytes — every mutation must raise
        RecordError (never return a body, never crash harder)."""
        rng = random.Random(SEED * 1000 + case)
        path = str(tmp_path / "r.rec")
        write_record(path, "verdicts", "r", random_entries(rng, rng.randint(1, 12)))
        raw = bytearray(open(path, "rb").read())
        mutation = rng.choice(("truncate", "flip", "splice"))
        if mutation == "truncate":
            raw = raw[: rng.randrange(1, len(raw))]
        elif mutation == "flip":
            index = rng.randrange(len(raw))
            raw[index] ^= 1 << rng.randrange(8)
        else:
            index = rng.randrange(len(raw))
            raw[index:index] = bytes(
                rng.randrange(256) for _ in range(rng.randint(1, 9))
            )
        open(path, "wb").write(bytes(raw))
        with pytest.raises(RecordError):
            read_record(path, "verdicts", "r")

    def test_whitespace_in_the_header_is_refused(self, tmp_path):
        """JSON tolerates whitespace between tokens; the header must not,
        or a splice of spaces would pass every field check."""
        path = str(tmp_path / "r.rec")
        write_record(path, "verdicts", "r", {})
        raw = open(path, "rb").read()
        open(path, "wb").write(raw.replace(b'","key"', b'", "key"', 1))
        with pytest.raises(RecordError, match="canonical"):
            read_record(path, "verdicts", "r")


# ---------------------------------------------------------------------------
# Quarantine, not crash
# ---------------------------------------------------------------------------


def _corrupt(path: str, rng: random.Random) -> None:
    raw = bytearray(open(path, "rb").read())
    raw[rng.randrange(len(raw))] ^= 0xFF
    open(path, "wb").write(bytes(raw))


def _quarantine_names(store: VerificationStore):
    return sorted(os.listdir(os.path.join(store.directory, "quarantine")))


class TestQuarantine:
    @pytest.mark.parametrize("case", range(15))
    def test_one_bad_segment_never_poisons_the_rest(self, tmp_path, case):
        rng = random.Random(SEED * 77 + case)
        store = VerificationStore(str(tmp_path))
        batches = [random_entries(rng, rng.randint(3, 15)) for _ in range(4)]
        for batch in batches:
            store.publish(batch)
        victim = rng.choice(all_segments(store))
        victim_entries = read_record(
            victim, "verdicts", os.path.basename(victim)[:-4]
        )
        _corrupt(victim, rng)
        survivor = VerificationStore(str(tmp_path))
        loaded = survivor.load()
        # Exactly the victim was quarantined; every entry of every other
        # record survived, none of the victim's entries were trusted.
        assert [path for path, _ in survivor.quarantined] == [victim]
        assert not os.path.exists(victim)
        expected = {}
        for batch in batches:
            expected.update(batch)
        assert set(loaded) == set(expected) - set(victim_entries)
        assert all(
            loaded[fingerprint] == expected[fingerprint] for fingerprint in loaded
        )
        # The move left the record and its reason side by side.
        names = _quarantine_names(survivor)
        assert len(names) == 2 and names[1] == names[0] + ".reason"
        # A second load (and a compaction) of the survivor is clean.
        assert VerificationStore(str(tmp_path)).load() == loaded
        VerificationStore(str(tmp_path)).compact()

    def test_truncated_segment_is_quarantined(self, tmp_path):
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        store.publish(random_entries(rng, 10))
        (path,) = all_segments(store)
        raw = open(path, "rb").read()
        header_length = raw.index(b"\n") + 1
        open(path, "wb").write(raw[: header_length + (len(raw) - header_length) // 2])
        survivor = VerificationStore(str(tmp_path))
        assert survivor.load() == {}
        assert survivor.quarantined and "checksum" in survivor.quarantined[0][1]

    def test_crash_mid_flush_leaves_no_torn_segment(self, tmp_path):
        """The atomic-write contract: a crash between tmp-file write and
        rename leaves a dot-prefixed tmp file, which the loader must ignore
        entirely (and the integrity of real records is unaffected)."""
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 12)
        store.publish(entries)
        torn = os.path.join(store.directory, "verdicts", ".tmp-crashed.rec")
        with open(torn, "wb") as handle:
            handle.write(b'{"checksum":"00","key":"')  # torn
        survivor = VerificationStore(str(tmp_path))
        assert survivor.load() == entries
        assert not survivor.quarantined

    def test_transient_read_error_skips_without_quarantine(
        self, tmp_path, monkeypatch
    ):
        """Failing to *read* a record (permissions hiccup, transient NFS
        error) proves nothing about its content: the load must skip it —
        not destroy a perfectly valid file by quarantining it."""
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 6)
        store.publish(entries)
        (victim,) = all_segments(store)

        import repro.store.store as store_module

        original = store_module.read_record

        def flaky_read(path, kind, key):
            if path == victim:
                raise OSError("transient I/O error")
            return original(path, kind, key)

        monkeypatch.setattr(store_module, "read_record", flaky_read)
        degraded = VerificationStore(str(tmp_path))
        assert degraded.load() == {}
        assert not degraded.quarantined
        monkeypatch.undo()
        assert os.path.exists(victim)  # the file survived ...
        assert VerificationStore(str(tmp_path)).load() == entries  # ... intact

    def test_garbage_file_is_quarantined_not_fatal(self, tmp_path):
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 5)
        store.publish(entries)
        rogue = os.path.join(store.directory, "verdicts", "99999999-rogue.rec")
        open(rogue, "wb").write(b"\x00\x01\x02 not a record at all")
        nested = os.path.join(store.directory, "verdicts", "99999999-nested.rec")
        open(nested, "wb").write(b"[" * 100_000 + b"\n{}")  # RecursionError bait
        survivor = VerificationStore(str(tmp_path))
        assert survivor.load() == entries
        assert sorted(path for path, _ in survivor.quarantined) == [nested, rogue]

    def test_unknown_version_kind_or_key_is_quarantined(self, tmp_path):
        """A record from a future format version, a plan record dropped
        among the verdicts, and a verdict record renamed away from its key
        are each moved aside; the honest record beside them loads."""
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 5)
        store.publish(entries)
        verdicts = os.path.join(store.directory, "verdicts")
        future = os.path.join(verdicts, "9-future.rec")
        forge(future, random_entries(rng, 2), key="9-future", version=RECORD_VERSION + 1)
        plan = os.path.join(verdicts, "9-plan.rec")
        write_record(plan, "plan", "9-plan", random_entries(rng, 2))
        renamed = plant_verdicts(store, "9-original", random_entries(rng, 2))
        os.replace(renamed, os.path.join(verdicts, "9-renamed.rec"))
        survivor = VerificationStore(str(tmp_path))
        assert survivor.load() == entries
        reasons = sorted(reason for _, reason in survivor.quarantined)
        assert len(reasons) == 3
        assert any(f"version {RECORD_VERSION + 1}" in reason for reason in reasons)
        assert any("read as 'verdicts'" in reason for reason in reasons)
        assert any("answers '9-original'" in reason for reason in reasons)
        assert os.listdir(verdicts) == [os.path.basename(all_segments(store)[0])]

    def test_conflicting_segment_is_refused_wholesale(self, tmp_path):
        """A record that disagrees with an earlier one on a definite
        verdict is quarantined in full — including its non-conflicting
        entries, which can no longer be vouched for."""
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 6)
        store.publish(entries)
        victim = sorted(entries)[0]
        flipped = {
            victim: "unsat" if entries[victim] == "sat" else "sat",
            fake_fingerprint(rng): "sat",  # innocent bystander, also refused
        }
        plant_verdicts(store, "99999999999999999999-evil", flipped)
        survivor = VerificationStore(str(tmp_path))
        loaded = survivor.load()
        assert loaded == entries
        assert survivor.quarantined
        assert "maps to" in survivor.quarantined[0][1]

    def test_rekeyed_entry_is_caught_by_verify_entry(self, tmp_path):
        """A re-keyed entry (verdict stored under the wrong fingerprint)
        that passes every structural check is still caught by the verdict
        cache's own re-solve hook when the conjuncts are in hand — the
        store changes where entries live, not the soundness net."""
        x = Var("x", 16)
        sat_set = [Ge(x, Const(10)), Le(x, Const(20))]  # satisfiable
        unsat_set = [Ge(x, Const(30)), Le(x, Const(20))]  # empty domain
        sat_fingerprint = canonical_fingerprint(sat_set)
        unsat_fingerprint = canonical_fingerprint(unsat_set)
        store = VerificationStore(str(tmp_path))
        # The attacker swaps the verdicts and rewrites the checksummed
        # record from scratch: structurally flawless, semantically wrong.
        plant_verdicts(
            store, "0-evil", {sat_fingerprint: "unsat", unsat_fingerprint: "sat"}
        )
        loaded = VerificationStore(str(tmp_path)).load()
        cache = VerdictCache()
        cache.merge(loaded)
        with pytest.raises(CacheCorruptionError, match="verdict mismatch"):
            cache.verify_entry(sat_fingerprint, sat_set)


# ---------------------------------------------------------------------------
# Plan and baseline records
# ---------------------------------------------------------------------------


def _rewrite_body(path: str, mutate) -> None:
    """Change a record's body so it still parses — and keep its header."""
    header, _, body = open(path, "rb").read().partition(b"\n")
    value = mutate(json.loads(body))
    open(path, "wb").write(
        header + b"\n" + json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    )


class TestPlanFiles:
    def test_put_get_invalidate(self, tmp_path):
        store = VerificationStore(str(tmp_path))
        store.put_plan("model-a", "plan-1", {"queries": [1]})
        store.put_plan("model-a", "plan-2", {"queries": [2]})
        store.put_plan("model-b", "plan-1", {"queries": [3]})
        assert store.plan_count() == 3
        assert store.get_plan("model-a", "plan-2") == {"queries": [2]}
        assert store.get_plan("model-a", "missing") is None
        assert not store.quarantined  # a miss is not a conviction
        assert store.invalidate_plans("model-a") == 2
        assert store.get_plan("model-a", "plan-1") is None
        assert store.get_plan("model-b", "plan-1") == {"queries": [3]}
        assert store.invalidate_plans() == 1
        assert store.plan_count() == 0

    def test_corrupt_plan_file_is_a_miss(self, tmp_path):
        store = VerificationStore(str(tmp_path))
        store.put_plan("model-a", "plan-1", {"queries": []})
        path = store._plan_path("model-a", "plan-1")
        open(path, "w").write("{ not json")
        assert store.get_plan("model-a", "plan-1") is None
        assert not os.path.exists(path)  # quarantined, not retried forever
        assert [p for p, _ in store.quarantined] == [path]

    def test_mismatched_plan_record_is_a_miss(self, tmp_path):
        store = VerificationStore(str(tmp_path))
        path = store._plan_path("model-a", "plan-1")
        os.makedirs(os.path.dirname(path))
        write_record(path, "plan", "model-b/plan-1", {"queries": []})
        assert store.get_plan("model-a", "plan-1") is None
        assert "answers 'model-b/plan-1'" in store.quarantined[0][1]

    def test_tampered_plan_body_is_quarantined(self, tmp_path):
        store = VerificationStore(str(tmp_path))
        store.put_plan("model-a", "bench-probe", {"paths": 7})
        path = store._plan_path("model-a", "bench-probe")
        _rewrite_body(path, lambda payload: dict(payload, paths=8))
        assert store.get_plan("model-a", "bench-probe") is None
        assert "checksum" in store.quarantined[0][1]
        reason = os.path.join(
            store.directory, "quarantine", _quarantine_names(store)[1]
        )
        assert json.load(open(reason))["record"] == path


class TestBaselineFiles:
    def test_put_get_round_trip(self, tmp_path):
        store = VerificationStore(str(tmp_path / "store"))
        store.put_baseline(str(tmp_path / "net"), {"format": 1, "reports": {}})
        assert store.get_baseline(str(tmp_path / "net")) == {
            "format": 1, "reports": {},
        }
        assert store.get_baseline(str(tmp_path / "other")) is None
        assert store.describe()["baselines"] == 1

    def test_tampered_baseline_body_is_quarantined(self, tmp_path):
        store = VerificationStore(str(tmp_path / "store"))
        directory = str(tmp_path / "net")
        store.put_baseline(directory, {"format": 1, "reports": {"a:in0": 1}})
        path = store._baseline_path(directory)
        _rewrite_body(path, lambda payload: dict(payload, reports={"a:in0": 2}))
        assert store.get_baseline(directory) is None
        assert not os.path.exists(path)
        assert len(store.describe()["quarantined"]) == 1


# ---------------------------------------------------------------------------
# The sharded tier client
# ---------------------------------------------------------------------------


class TestShardedTier:
    def test_shard_index_is_stable_and_in_range(self):
        rng = random.Random(SEED)
        for _ in range(200):
            fingerprint = fake_fingerprint(rng)
            for shards in (1, 2, 8, 13):
                index = shard_index(fingerprint, shards)
                assert 0 <= index < shards
                assert index == shard_index(fingerprint, shards)

    def test_shard_index_covers_large_shard_counts(self):
        """The prefix must be wide enough that shard counts beyond 256
        are actually used (a 2-hex-digit prefix would cap at 256)."""
        rng = random.Random(SEED)
        for shards in (300, 512):
            seen = {
                shard_index(fake_fingerprint(rng), shards) for _ in range(4000)
            }
            assert max(seen) >= 256
            # Uniformity, loosely: a large majority of shards get traffic.
            assert len(seen) > shards * 0.9

    def test_batched_publish_and_flush(self):
        rng = random.Random(SEED)
        tier = ShardedTier([{} for _ in range(4)], batch_size=5)
        entries = random_entries(rng, 23)
        for fingerprint, verdict in entries.items():
            tier[fingerprint] = verdict
        tier.flush()
        assert tier.pending() == 0
        assert len(tier) == len(entries)
        assert tier.published_entries == len(entries)
        # Batching means far fewer update round-trips than entries.
        assert tier.publish_batches < len(entries)
        for fingerprint, verdict in entries.items():
            assert tier.get(fingerprint) == verdict

    def test_batch_size_one_publishes_immediately(self):
        tier = ShardedTier([{}], batch_size=1)
        tier["ab" * 32] = "sat"
        assert tier.pending() == 0
        assert tier.publish_batches == 1

    def test_pickling_ships_shards_not_buffers(self):
        import pickle

        tier = ShardedTier([{} for _ in range(2)], batch_size=7)
        tier["ab" * 32] = "sat"  # buffered, below batch size
        clone = pickle.loads(pickle.dumps(tier))
        assert clone.batch_size == 7
        assert clone.pending() == 0
        assert clone.round_trips == 0

    def test_dead_proxy_degrades_instead_of_raising(self):
        """Regression: a Manager proxy dying mid-run used to clear the
        write buffer before the failed ``update`` (losing the verdicts)
        and let the exception escape through ``flush()`` into the engine.
        A dead proxy must degrade the tier — buffered verdicts keep
        serving local hits, nothing raises, the run survives."""

        class DeadProxy(dict):
            def update(self, *args, **kwargs):
                raise ConnectionRefusedError("manager is gone")

            def get(self, key, default=None):
                raise ConnectionRefusedError("manager is gone")

        from repro.solver.result import SolverStats

        stats = SolverStats()
        tier = ShardedTier([DeadProxy()], batch_size=100)
        tier.bind_stats(stats)
        tier["ab" * 32] = "sat"
        tier["cd" * 32] = "unsat"
        tier.flush()  # must not raise
        assert tier.degraded
        # The verdicts this process computed were NOT lost: they stay
        # buffered and keep answering local lookups.
        assert tier.pending() == 2
        assert tier.get("ab" * 32) == "sat"
        assert tier.get("cd" * 32) == "unsat"
        # A degraded tier never touches the proxies again (a miss is a
        # miss, not another exception), and later publishes stay local.
        assert tier.get("ef" * 32) is None
        tier["12" * 32] = "sat"
        tier.flush()
        assert tier.get("12" * 32) == "sat"
        assert stats.degraded_operations == 1

    def test_dead_proxy_on_lookup_degrades(self):
        class DeadProxy(dict):
            def get(self, key, default=None):
                raise EOFError("manager is gone")

        tier = ShardedTier([DeadProxy()], batch_size=4)
        assert tier.get("ab" * 32) is None  # must not raise
        assert tier.degraded

    def test_counters_flow_into_bound_solver_stats(self):
        from repro.solver.result import SolverStats

        stats = SolverStats()
        tier = ShardedTier([{} for _ in range(2)], batch_size=2)
        tier.bind_stats(stats)
        tier["ab" * 32] = "sat"
        tier["cd" * 32] = "unsat"
        tier.flush()
        tier.get("ef" * 32)
        assert stats.shared_publish_entries == 2
        assert stats.shared_publish_batches >= 1
        assert stats.shared_round_trips >= 2


# ---------------------------------------------------------------------------
# Read-through load cache
# ---------------------------------------------------------------------------


class TestLoadCache:
    def _counting_read(self, monkeypatch):
        import repro.store.store as store_module

        calls = {"n": 0}
        original = store_module.read_record

        def counted(path, kind, key):
            calls["n"] += 1
            return original(path, kind, key)

        monkeypatch.setattr(store_module, "read_record", counted)
        return calls

    def test_second_open_serves_from_cache(self, tmp_path, monkeypatch):
        from repro.store import clear_load_cache

        clear_load_cache()
        rng = random.Random(SEED)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 12)
        store.publish(entries)

        calls = self._counting_read(monkeypatch)
        first = VerificationStore(str(tmp_path)).load()
        assert first == entries
        assert calls["n"] > 0
        after_first = calls["n"]
        second = VerificationStore(str(tmp_path)).load()
        assert second == entries
        assert calls["n"] == after_first  # served from the process cache

    def test_publish_invalidates_by_content_token(self, tmp_path, monkeypatch):
        from repro.store import clear_load_cache

        clear_load_cache()
        rng = random.Random(SEED + 1)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 6)
        store.publish(entries)
        assert VerificationStore(str(tmp_path)).load() == entries

        more = random_entries(rng, 3)
        VerificationStore(str(tmp_path)).publish(more)
        merged = VerificationStore(str(tmp_path)).load()
        assert merged == {**entries, **more}

    def test_quarantining_load_is_not_cached(self, tmp_path, monkeypatch):
        from repro.store import clear_load_cache

        clear_load_cache()
        rng = random.Random(SEED + 2)
        store = VerificationStore(str(tmp_path))
        store.publish(random_entries(rng, 8))
        (victim,) = all_segments(store)
        _corrupt(victim, rng)

        poisoned = VerificationStore(str(tmp_path))
        assert poisoned.load() == {}
        assert poisoned.quarantined

        calls = self._counting_read(monkeypatch)
        clean = VerificationStore(str(tmp_path))
        assert clean.load() == {}  # re-read the (now empty) directory
        assert not clean.quarantined

    def test_cache_is_bounded(self, tmp_path):
        import repro.store.store as store_module
        from repro.store import clear_load_cache

        clear_load_cache()
        rng = random.Random(SEED + 3)
        for index in range(store_module._LOAD_CACHE_LIMIT + 3):
            directory = str(tmp_path / f"store{index}")
            store = VerificationStore(directory)
            store.publish(random_entries(rng, 2))
            VerificationStore(directory).load()
        assert len(store_module._LOAD_CACHE) <= store_module._LOAD_CACHE_LIMIT

    def test_refresh_bypasses_cache(self, tmp_path, monkeypatch):
        from repro.store import clear_load_cache

        clear_load_cache()
        rng = random.Random(SEED + 4)
        store = VerificationStore(str(tmp_path))
        entries = random_entries(rng, 5)
        store.publish(entries)
        VerificationStore(str(tmp_path)).load()

        calls = self._counting_read(monkeypatch)
        fresh = VerificationStore(str(tmp_path))
        assert fresh.load(refresh=True) == entries
        assert calls["n"] > 0  # refresh went to disk despite the cache
