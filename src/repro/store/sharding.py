"""Prefix-sharded cross-process verdict tier with batched publishes.

PR 3's shared tier was a single ``multiprocessing.Manager`` dict: every miss
is one proxy round-trip, every publish another, and all of them serialise on
one writer lock.  :class:`ShardedTier` partitions the canonical fingerprint
space by hex prefix across N Manager dicts and buffers publishes per shard,
flushing a whole batch in one ``dict.update`` round-trip — so W workers
publishing into N shards contend N-ways instead of queueing on one proxy,
and the proxy traffic drops by the batch factor.

The tier duck-types the plain-dict protocol the
:class:`~repro.solver.incremental.IncrementalSolver` already speaks
(``get``/``__setitem__``) plus ``flush()`` (called by the engine at the end
of every injection so buffered verdicts are never lost) and
``bind_stats()`` (so batch/flush/round-trip counters land in the job's
:class:`~repro.solver.result.SolverStats` and surface in campaign reports).

Pickling ships only the shard proxies and the configuration; each worker
process gets its own empty write buffer and its own counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Fingerprint-space shards of a campaign's shared tier.
DEFAULT_SHARD_COUNT = 8
#: Per-shard publish batch size of a campaign's shared tier.
#: Deliberately small: a buffer that outlives the handful of full solves a
#: typical injection performs would defer every publish to the
#: end-of-injection flush and cost concurrent workers their live hits —
#: the batch should absorb bursts, not whole jobs.
DEFAULT_PUBLISH_BATCH = 4


def shard_index(fingerprint: str, shards: int) -> int:
    """Which shard owns a canonical fingerprint.  Prefix-partitioned: the
    first eight hex digits (32 bits) of SHA-256 output spread uniformly
    over any practical shard count, and the mapping depends only on
    (fingerprint, shard count) — every process agrees."""
    if shards <= 1:
        return 0
    return int(fingerprint[:8], 16) % shards


class ShardedTier:
    """N dict shards + a per-process write buffer with batched publishes."""

    def __init__(
        self,
        shards: Sequence,
        batch_size: int = DEFAULT_PUBLISH_BATCH,
    ) -> None:
        if not shards:
            raise ValueError("ShardedTier needs at least one shard")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.shards = tuple(shards)
        self.batch_size = batch_size
        self._buffers: List[Dict[str, str]] = [{} for _ in self.shards]
        self._stats = None
        # Set when a shard proxy died mid-run (Manager gone).  A degraded
        # tier never touches the proxies again: buffered verdicts stay in
        # the per-process buffers and keep serving local hits, mirroring
        # how IncrementalSolver degrades to its local tiers.
        self._degraded = False
        # Local mirrors of the stats counters, so the tier is observable
        # even when no SolverStats was bound (unit tests, ad-hoc use).
        self.round_trips = 0
        self.publish_batches = 0
        self.published_entries = 0

    # -- pickling: proxies travel, buffers and counters stay home -------------

    def __getstate__(self):
        return {"shards": self.shards, "batch_size": self.batch_size}

    def __setstate__(self, state):
        self.__init__(state["shards"], batch_size=state["batch_size"])

    # -- stats plumbing --------------------------------------------------------

    def bind_stats(self, stats) -> None:
        """Route counters into a :class:`SolverStats` (the incremental
        solver binds its own stats when handed a tier)."""
        self._stats = stats

    def _count_round_trip(self) -> None:
        self.round_trips += 1
        if self._stats is not None:
            self._stats.record_shared_round_trip()

    def _count_publish(self, entries: int) -> None:
        self.publish_batches += 1
        self.published_entries += entries
        if self._stats is not None:
            self._stats.record_shared_publish(entries)

    def _degrade(self) -> None:
        self._degraded = True
        if self._stats is not None:
            self._stats.record_degraded_operation()

    @property
    def degraded(self) -> bool:
        """True once a dead shard proxy switched the tier to local-only."""
        return self._degraded

    # -- the dict-like protocol ------------------------------------------------

    def get(self, fingerprint: str) -> Optional[str]:
        """Cross-process lookup: exactly one proxy round-trip, against the
        single shard that owns the fingerprint."""
        index = shard_index(fingerprint, len(self.shards))
        buffered = self._buffers[index].get(fingerprint)
        if buffered is not None:
            return buffered
        if self._degraded:
            return None
        self._count_round_trip()
        try:
            return self.shards[index].get(fingerprint)
        except Exception:
            self._degrade()
            return None

    def __setitem__(self, fingerprint: str, verdict: str) -> None:
        """Buffer a publish; the owning shard is flushed (one ``update``
        round-trip for the whole batch) when its buffer reaches
        ``batch_size``."""
        index = shard_index(fingerprint, len(self.shards))
        buffer = self._buffers[index]
        buffer[fingerprint] = verdict
        if len(buffer) >= self.batch_size:
            self._flush_shard(index)

    def _flush_shard(self, index: int) -> None:
        buffer = self._buffers[index]
        if not buffer or self._degraded:
            return
        # Publish from a copy and only clear on success: if the Manager
        # proxy died, the verdicts must stay buffered (they keep serving
        # this process's hits) and the tier degrades instead of raising —
        # a resident service cannot afford a flush that loses verdicts or
        # kills the job.
        batch = dict(buffer)
        self._count_round_trip()
        try:
            self.shards[index].update(batch)
        except Exception:
            self._degrade()
            return
        buffer.clear()
        self._count_publish(len(batch))

    def flush(self) -> None:
        """Publish every buffered entry (end of an engine injection; also
        safe to call at any time).  Never raises: a dead proxy degrades
        the tier and keeps the entries buffered."""
        for index in range(len(self.shards)):
            self._flush_shard(index)

    def pending(self) -> int:
        """Entries buffered but not yet published (for tests)."""
        return sum(len(buffer) for buffer in self._buffers)

    def snapshot(self) -> Dict[str, str]:
        """Merged contents of every shard (one round-trip per shard)."""
        merged: Dict[str, str] = {}
        for shard in self.shards:
            self._count_round_trip()
            merged.update(dict(shard))
        return merged

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)
