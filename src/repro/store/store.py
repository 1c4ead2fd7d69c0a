"""The persistent verification store: one directory of checksummed records.

A :class:`VerificationStore` owns a directory of cross-run verification
state::

    <store-dir>/
      STORE.json                         # {"format": 2}
      verdicts/<time>-<rand>.rec         # verdict batches, one per publish
      plans/<model-fp>/<plan-key>.rec    # finished plans' job reports
      baselines/<sha256(dir)>.rec        # per-directory delta baselines
      quarantine/                        # refused records + .reason files

Three kinds of state live here, all in one file format
(:mod:`repro.store.records`):

* **verdicts** — canonical-fingerprint → verdict entries, the same data a
  :class:`~repro.solver.verdict_cache.VerdictCache` holds in memory.
  Campaigns *load* the store once per worker process (instead of pickling
  warm entries into every job) and *publish* the fresh verdicts they
  derived as one new record.  ``describe()`` calls these records
  *segments*.
* **plan results** — the job reports and run statistics of a finished
  :class:`~repro.api.planner.PlanResult`, keyed on ``(NetworkModel
  fingerprint, plan key)``, so a repeated identical query batch is
  answered — its queries evaluated afresh over those reports — without
  running a single engine job.  The reports are stored as a delta
  baseline stores them (:mod:`repro.core.delta`).
* **delta baselines** — the last campaign over a snapshot directory,
  keyed on the directory's absolute path (:mod:`repro.core.delta`).

Trust model: disk contents are *evidence, never truth*, with one policy
for every kind.  Each record is checksummed and fully validated before any
of it is used (:func:`~repro.store.records.read_record`), loaded verdicts
are folded in with the verdict cache's own conflict-refusing policy
(:func:`~repro.solver.verdict_cache.resolve_verdict`), and a record that
fails either check is moved to ``quarantine/`` beside a ``.reason`` file
and ignored — the store degrades to a smaller cache, it never crashes a
campaign and never serves data it cannot vouch for — a plan or baseline of
another schema included.  Caching (including
this store) changes *which tier answers*, never the answer; the mutation
suite in ``tests/test_store.py`` corrupts records deliberately to prove it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import uuid
import warnings
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.solver.verdict_cache import (
    CacheConflictError,
    VerdictCache,
    resolve_verdict,
)
from repro.store.records import (
    RECORD_SUFFIX,
    RecordError,
    atomic_write_bytes,
    read_record,
    write_record,
)

STORE_FORMAT = 2
_META_NAME = "STORE.json"
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")


class StoreError(RuntimeError):
    """The store directory is unusable (bad metadata, wrong format)."""


# Read-through cache in front of ``VerificationStore.load()``, keyed by
# (directory, content token): campaign workers construct a fresh store
# instance per job, and without this every one of them re-read and
# re-validated every verdict record on disk.  The content token changes
# whenever any record does, so a publish (from this or another process)
# naturally invalidates — stale entries just age out of the LRU.
_LOAD_CACHE: "OrderedDict[Tuple[str, str], Dict[str, str]]" = OrderedDict()
_LOAD_CACHE_LIMIT = 8


def clear_load_cache() -> None:
    """Drop this process's cached store loads (tests, memory pressure)."""
    _LOAD_CACHE.clear()


def _write_json(path: str, payload: Dict[str, object]) -> None:
    atomic_write_bytes(path, (json.dumps(payload, sort_keys=True) + "\n").encode())


def _is_verdict_map(body: object) -> bool:
    return isinstance(body, dict) and all(
        isinstance(fingerprint, str)
        and _FINGERPRINT_RE.match(fingerprint)
        and verdict in ("sat", "unsat")
        for fingerprint, verdict in body.items()
    )


def _is_payload(body: object) -> bool:
    return isinstance(body, dict)


def _stem(path: str) -> str:
    return os.path.basename(path)[: -len(RECORD_SUFFIX)]


class VerificationStore:
    """Disk-backed verdicts, plan results and delta baselines (module docs)."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        meta_path = os.path.join(self.directory, _META_NAME)
        if os.path.exists(meta_path):
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable store metadata {meta_path}: {exc}")
            if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
                found = meta.get("format") if isinstance(meta, dict) else None
                raise StoreError(f"store format {found!r} is not {STORE_FORMAT}")
        else:
            _write_json(meta_path, {"format": STORE_FORMAT})
        for name in ("verdicts", "plans", "baselines", "quarantine"):
            os.makedirs(os.path.join(self.directory, name), exist_ok=True)
        self._verdicts: Optional[Dict[str, str]] = None
        #: (record path, reason) pairs this instance quarantined.
        self.quarantined: List[Tuple[str, str]] = []
        #: Records skipped on read errors since the last load began.
        self._transient_skips = 0
        #: Best-effort operations that failed on this instance (quarantine
        #: moves, baseline writes, plan removals).  None of them affect
        #: answers, but a long-lived service must see them: the campaign
        #: driver folds the delta into ``CampaignStats.degraded_operations``.
        self.degraded_operations = 0

    # -- one read path, one distrust policy ----------------------------------

    def _path(self, *parts: str) -> str:
        return os.path.join(self.directory, *parts)

    def _read(
        self,
        path: str,
        kind: str,
        key: str,
        valid: Callable[[object], bool],
        decode: Optional[Callable[[object], object]] = None,
    ) -> Optional[object]:
        """The body of one record (``decode``d, when given), or ``None``.  A
        record that fails a check or does not decode is quarantined; one
        that cannot be *read* (missing, a permissions hiccup) proves nothing
        about its content and is left alone."""
        try:
            body = read_record(path, kind, key)
            if not valid(body):
                raise RecordError(f"malformed {kind} body")
            if decode is None:
                return body
            try:
                return decode(body)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise RecordError(f"undecodable {kind} body: {exc}")
        except RecordError as exc:
            self._quarantine(path, str(exc))
        except OSError:
            self._transient_skips += 1
        return None

    def _quarantine(self, path: str, reason: str) -> None:
        self.quarantined.append((path, reason))
        target = self._path(
            "quarantine", f"{os.path.basename(path)}.{uuid.uuid4().hex[:8]}"
        )
        try:
            os.replace(path, target)
            _write_json(target + ".reason", {"record": path, "reason": reason})
        except OSError as exc:
            # The record is already ignored for *this* read, but a failed
            # move means every future read re-reads and re-convicts it —
            # warn instead of hiding the creeping cost.
            self.degraded_operations += 1
            warnings.warn(
                f"could not move bad record {path} to quarantine ({exc}); "
                "it stays in place and will be re-checked on every read",
                RuntimeWarning,
                stacklevel=3,
            )

    def _records(self, *parts: str) -> List[str]:
        directory = self._path(*parts)
        try:
            names = sorted(
                name
                for name in os.listdir(directory)
                if name.endswith(RECORD_SUFFIX) and not name.startswith(".")
            )
        except OSError:
            # Provably best-effort: an unlistable directory holds no
            # loadable records by definition.
            return []
        return [os.path.join(directory, name) for name in names]

    # -- verdicts ------------------------------------------------------------

    def load(self, refresh: bool = False) -> Dict[str, str]:
        """Every trustworthy verdict in the store.

        Each record is validated, then probed entry-by-entry against
        everything already accepted under the verdict cache's one
        combination policy (:func:`resolve_verdict`): a definite-vs-definite
        disagreement convicts the *record* — it is quarantined wholesale,
        never half-trusted.  The surviving map is cached on the instance.
        """
        if self._verdicts is not None and not refresh:
            return dict(self._verdicts)
        cache_key = (self.directory, self.content_token())
        if not refresh:
            cached = _LOAD_CACHE.get(cache_key)
            if cached is not None:
                _LOAD_CACHE.move_to_end(cache_key)
                self._verdicts = dict(cached)
                return dict(self._verdicts)
        quarantined = len(self.quarantined)
        self._verdicts = self._merge_records(self._records("verdicts"))
        if len(self.quarantined) == quarantined and not self._transient_skips:
            # A load that quarantined records changed the directory out
            # from under its own key, and one that skipped an unreadable
            # record saw less than the key describes; only clean, complete
            # loads are reusable.
            _LOAD_CACHE[cache_key] = dict(self._verdicts)
            _LOAD_CACHE.move_to_end(cache_key)
            while len(_LOAD_CACHE) > _LOAD_CACHE_LIMIT:
                _LOAD_CACHE.popitem(last=False)
        return dict(self._verdicts)

    def _merge_records(self, paths: List[str]) -> Dict[str, str]:
        """Validate-and-merge exactly the listed verdict records
        (quarantining failures), returning the surviving verdict map."""
        accepted = VerdictCache(max_entries=2**31)
        self._transient_skips = 0
        for path in paths:
            entries = self._read(path, "verdicts", _stem(path), _is_verdict_map)
            if entries is None:
                continue
            # Probe the whole record against everything accepted so far,
            # then commit: a conflicting record is refused wholesale.
            staged = {}
            for fingerprint in sorted(entries):
                action = resolve_verdict(
                    accepted.get(fingerprint), entries[fingerprint]
                )
                if action == "conflict":
                    self._quarantine(
                        path,
                        f"fingerprint {fingerprint[:12]}… maps to "
                        f"{accepted.get(fingerprint)!r} elsewhere, "
                        f"{entries[fingerprint]!r} here",
                    )
                    break
                if action == "replace":
                    staged[fingerprint] = entries[fingerprint]
            else:
                for fingerprint, verdict in staged.items():
                    accepted.put(fingerprint, verdict, fresh=False)
        return accepted.snapshot()

    def _write_verdicts(self, entries: Mapping[str, str]) -> None:
        """One new verdict record.  The time prefix keeps load order
        deterministic (sorted by name ≈ publish order); the random suffix
        keeps concurrent writers from clobbering each other."""
        if not _is_verdict_map(entries):
            raise ValueError(
                "not a map of canonical fingerprint to sat/unsat verdict"
            )
        name = f"{time.time_ns():020d}-{uuid.uuid4().hex[:8]}"
        write_record(
            self._path("verdicts", name + RECORD_SUFFIX), "verdicts", name,
            dict(entries),
        )

    def verdict_count(self) -> int:
        return len(self.load())

    def content_token(self) -> str:
        """Identity of the store's current verdict records.  Campaign jobs
        carry this token so each worker process merges the store into its
        verdict cache exactly once per store state, and a later publish
        changes the token."""
        stats = []
        for path in self._records("verdicts"):
            try:
                stat = os.stat(path)
            except OSError:
                # Provably best-effort: the record vanished between listing
                # and stat (concurrent compaction) — the token correctly
                # describes the files that remain.
                continue
            stats.append((os.path.basename(path), stat.st_size, stat.st_mtime_ns))
        return "store:" + hashlib.sha256(repr(stats).encode()).hexdigest()

    def publish(self, entries: Mapping[str, str]) -> int:
        """Persist every entry the store does not already hold, as one new
        record.  Returns how many entries were written.  "unknown" verdicts
        are never persisted: they are budget-dependent incompleteness,
        worthless on a later run that might solve the set definitively."""
        known = self.load()
        fresh: Dict[str, str] = {}
        for fingerprint in sorted(entries):
            verdict = entries[fingerprint]
            if verdict == "unknown":
                continue
            action = resolve_verdict(known.get(fingerprint), verdict)
            if action == "conflict":
                raise CacheConflictError(
                    f"publish conflicts with store on {fingerprint[:12]}…: "
                    f"store has {known[fingerprint]!r}, incoming {verdict!r}"
                )
            if action == "replace":
                fresh[fingerprint] = verdict
        if fresh:
            self._write_verdicts(fresh)
            self._verdicts = None  # next load() sees the new record
        return len(fresh)

    def compact(self) -> Dict[str, int]:
        """Fold every verdict record into one, dropping duplicates (and
        quarantining anything untrustworthy on the way in).

        Race-safe against concurrent publishers: the record list is
        snapshotted once, the replacement is built from — and the deletions
        limited to — exactly those files, so a record published while the
        compaction runs is neither folded in nor deleted."""
        listed = self._records("verdicts")
        merged = self._merge_records(listed)
        if merged:
            self._write_verdicts(merged)
        for path in listed:
            try:
                os.unlink(path)
            except OSError:
                # Provably best-effort: the record was quarantined, or
                # deleted by a concurrent compactor; its entries are in a
                # replacement record either way.
                pass
        self._verdicts = None
        return {
            "entries": len(merged),
            "segments_before": len(listed),
            "segments_after": 1 if merged else 0,
        }

    # -- plan-result cache ---------------------------------------------------

    def _plan_path(self, model_fingerprint: str, plan_key: str) -> str:
        return self._path("plans", model_fingerprint, plan_key + RECORD_SUFFIX)

    def get_plan(self, model_fingerprint: str, plan_key: str) -> Optional[tuple]:
        """The job reports and run a finished plan's record holds
        (:func:`~repro.api.planner.plan_from_record`), or ``None``; one
        that does not decode is quarantined."""
        from repro.api.planner import plan_from_record

        return self._read(
            self._plan_path(model_fingerprint, plan_key),
            "plan",
            f"{model_fingerprint}/{plan_key}",
            _is_payload,
            plan_from_record,
        )

    def put_plan(
        self, model_fingerprint: str, plan_key: str, payload: Mapping[str, object]
    ) -> None:
        """Record ``payload`` (a :func:`~repro.api.planner.plan_record`
        body) as the plan's record."""
        path = self._plan_path(model_fingerprint, plan_key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_record(path, "plan", f"{model_fingerprint}/{plan_key}", dict(payload))

    def invalidate_plans(self, model_fingerprint: Optional[str] = None) -> int:
        """Drop cached plan results — all of them, or one model's.  This is
        the explicit invalidation path for network sources whose content the
        model fingerprint cannot see change (workload builders edited in
        place, regenerated snapshot directories restored with old mtimes)."""
        removed = 0
        try:
            model_dirs = sorted(os.listdir(self._path("plans")))
        except OSError:
            return 0
        for name in model_dirs:
            if model_fingerprint is not None and name != model_fingerprint:
                continue
            model_dir = self._path("plans", name)
            if not os.path.isdir(model_dir):
                continue
            for entry in sorted(os.listdir(model_dir)):
                try:
                    os.unlink(os.path.join(model_dir, entry))
                    removed += 1
                except OSError as exc:
                    # A plan record that survives an explicit invalidation
                    # keeps getting *served* — silently reporting it
                    # removed would defeat the caller's whole intent.
                    self.degraded_operations += 1
                    warnings.warn(
                        f"could not remove cached plan "
                        f"{os.path.join(model_dir, entry)} ({exc}); it will "
                        "still be served until removed",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            try:
                os.rmdir(model_dir)
            except OSError:
                # Provably best-effort: the directory is only cosmetic —
                # non-empty (concurrent put_plan) or already gone, either
                # way lookups behave identically.
                pass
        return removed

    def plan_count(self) -> int:
        try:
            names = os.listdir(self._path("plans"))
        except OSError:
            return 0
        return sum(len(self._records("plans", name)) for name in names)

    # -- delta baselines -----------------------------------------------------

    def _baseline_path(self, directory: str) -> str:
        name = hashlib.sha256(os.path.abspath(directory).encode()).hexdigest()
        return self._path("baselines", name + RECORD_SUFFIX)

    def get_baseline(self, directory: str) -> Optional[Dict[str, object]]:
        """The recorded delta baseline for one snapshot directory (element
        manifest + per-port job reports), or ``None``; one that
        ``CampaignBaseline.parse`` refuses is quarantined."""
        from repro.core.delta import CampaignBaseline

        return self._read(
            self._baseline_path(directory),
            "baseline",
            os.path.abspath(directory),
            _is_payload,
            lambda body: CampaignBaseline.parse(body) and body,
        )

    def put_baseline(self, directory: str, payload: Mapping[str, object]) -> None:
        """Record a campaign's baseline payload for its directory, replacing
        any previous one (the payload already merges spliced-forward ports,
        so chains of edits keep a complete baseline)."""
        try:
            write_record(
                self._baseline_path(directory),
                "baseline",
                os.path.abspath(directory),
                dict(payload),
            )
        except OSError as exc:
            # Best-effort — losing a baseline only costs a full rerun — but
            # a resident service leaning on delta verification should see
            # that its baselines stopped persisting.
            self.degraded_operations += 1
            warnings.warn(
                f"could not persist delta baseline for {directory} ({exc}); "
                "the next campaign over it runs full",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- inspection ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """JSON-able summary for ``repro.cli store inspect``."""
        from repro.core.facts import schema_digest

        verdicts = self.load(refresh=True)
        try:
            quarantine_files = [
                name
                for name in sorted(os.listdir(self._path("quarantine")))
                if not name.endswith(".reason")
            ]
        except OSError:
            quarantine_files = []
        return {
            "directory": self.directory,
            "format": STORE_FORMAT,
            "schema": schema_digest(),
            "verdicts": len(verdicts),
            "segments": len(self._records("verdicts")),
            "plans": self.plan_count(),
            "baselines": len(self._records("baselines")),
            "quarantined": quarantine_files,
            "content_token": self.content_token(),
        }
