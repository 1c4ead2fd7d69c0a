"""Explore each shared state once per campaign: the engine's state memo.

The injections of one campaign converge on the same routers with the same
constraints.  The engine explores depth-first, so a subtree is complete when
the worklist shrinks back to its root's depth: the engine records it once and
replays it where a later step reaches the same state: the same terminations
in the same order, and the same facts.

A state is keyed by element, in-port, the digest of its future
(:mod:`repro.core.state`) and the symbol counter; a hit is confirmed by exact
equality of the futures.  Nothing is stored for a subtree that lived on an
``unknown`` verdict, was cut off, truncated, or stepped at a port its path
had visited (a loop check read the history — so no summary holds a loop
ending), and a summary is replayed only where exploring could not differ
(:meth:`Recorder._fits`) — though, like a cached verdict, it may be definite
where a smaller case-split budget would not be.  The engine queues a
fork's plain-variable egress child unbuilt; a memo looks it up off its
parent (:meth:`Recorder.replay`) when it is popped, and only a miss
(:meth:`Recorder.explore`) builds it.

A summary keeps no path: its tallies, and the **fact delta** of its subtree
(:class:`~repro.core.facts.FactFold`) — the root step's delivered paths
folded in order, then its children's deltas in exploration order, each
child's example traces behind the ports leading to it.  A replay tallies the
one and folds the other.  Deltas are of one job's ``Facts``: a memo serves
the jobs of one run that collect the same facts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.facts import FactFold
from repro.core.state import ExecutionState, PathStatusValues

#: How many summaries one memo keeps (the oldest are dropped first).
MEMO_ENTRIES = 8192
#: A subtree is recorded once its root state has been explored this many
#: times outside any recording: a state few jobs reach costs no recording.
RECORD_AFTER = 2


class StateMemo:
    """The subtree summaries of one campaign run's jobs of one ``Facts``, by
    state key (a run gets a fresh memo: programs may be replaced between
    runs)."""

    def __init__(self) -> None:
        #: key -> (the entering state's future, its summary).
        self.entries: Dict[tuple, Tuple[ExecutionState, "Summary"]] = {}
        #: How often each key was explored outside any recording.
        self.explored: Dict[tuple, int] = {}
        #: (program id, symbol counter) -> (program, the states it built, for
        #: later jobs to clone: their slots then compare by identity, draws).
        self.packets: Dict[tuple, tuple] = {}
        #: The facts every delta here folds (set by the first recorder).
        self.facts = None


class Summary:
    """A stored subtree (module docstring)."""

    __slots__ = ("port", "tallies", "terminations", "footprint", "depth", "draws", "delta")

    def __init__(self, frame: "_Frame", draws: int, delta: FactFold) -> None:
        self.port, self.draws, self.delta = frame.port, draws, delta
        tallies: Dict[Tuple[str, str], int] = {}
        for status, reason, ending in frame.own:
            assert status != PathStatusValues.LOOP, "a loop check read the entering path"
            tallies[status, reason] = tallies.get((status, reason), 0) + 1
            if ending is not None:
                delta.add(ending, frame.start)
        footprint = {self.port}
        self.depth = 1
        for edge, child in frame.children:
            for key, count in child.tallies:
                tallies[key] = tallies.get(key, 0) + count
            footprint |= child.footprint
            self.depth = max(self.depth, 1 + child.depth)
            delta.merge(child.delta, edge)
        #: Terminations by (status, reason), in first-termination order.
        self.tallies = tuple(tallies.items())
        self.terminations = sum(tallies.values())
        self.footprint = frozenset(footprint)  # the in-ports stepped at


class _Frame:
    """A subtree being explored, and what it produced so far."""

    __slots__ = ("key", "port", "future", "depth", "start", "symbols", "edge", "own", "children")

    def __init__(self, key, port, state, depth, symbols, edge) -> None:
        self.key, self.port, self.depth, self.symbols, self.edge = key, port, depth, symbols, edge
        self.future = state.future()
        self.start = len(state.port_trace)
        #: (status, reason, delivered ending or None) per termination of the
        #: root step.
        self.own: list = []
        #: (the ports leading to the child, its summary), in exploration order.
        self.children: List[Tuple[list, Summary]] = []


class Recorder:
    """One ``inject``'s lookups, recordings and replays, step by step, for a
    run that folds its facts into ``fold``."""

    def __init__(self, memo: StateMemo, executor, result, fold: FactFold) -> None:
        if memo.facts is None:
            memo.facts = fold.facts
        elif memo.facts != fold.facts:
            raise ValueError("a state memo serves the jobs of one Facts")
        self.memo, self.result, self.fold, settings = memo, result, fold, executor.settings
        self.stats, self.symbols = executor.solver.stats, executor.symbols
        self.max_hops, self.max_paths = settings.max_hops, settings.max_paths
        self.frames: List[_Frame] = []
        self.poisoned = 0  # frames[:poisoned] store nothing
        self.own: Optional[list] = None
        self.key: Optional[tuple] = None  # the last lookup's

    def replay(self, state: ExecutionState, element: str, in_port: str, pending: int,
               swap: Optional[tuple] = None, port: Optional[str] = None) -> bool:
        """Close the subtrees the worklist has shrunk out of, and replay the
        subtree of ``state`` stepping into ``element:in_port`` if the memo
        holds it (True).  Given ``swap``, ``(var, domain)``, and the egress
        ``port``, it is the subtree of ``state``'s child that left by
        ``port`` with ``var`` narrowed to ``domain``, not built: the child's
        future is ``state``'s with that one domain replaced, and its
        snapshots and hop count are ``state``'s."""
        frames = self.frames
        if frames:
            self.close(pending)
        self.own = None
        key = self.key = (element, in_port, state.digest(swap), self.symbols.count)
        found = self.memo.entries.get(key)
        if found is None or not (
            found[0].same_future(state, swap) and self._fits(found[1], state)
        ):
            return False
        summary = found[1]
        self.stats.state_memo_hits += 1
        trace = state.port_trace
        if port is not None:
            trace = trace.clone()
            trace.append(port)
        if frames:
            frames[-1].children.append((trace.since(frames[-1].start), summary))
        self.result.tally(summary.tallies)
        self.fold.merge(summary.delta, trace)
        self.symbols.advance(summary.draws)
        return True

    def explore(self, state: ExecutionState, pending: int) -> None:
        """Count the miss :meth:`replay` just had for ``state`` (built, if
        it was not), and record its subtree if it is due."""
        memo, frames, key = self.memo, self.frames, self.key
        self.stats.state_memo_misses += 1
        if not frames:
            explored = memo.explored.get(key, 0)
            if explored < RECORD_AFTER:
                if len(memo.explored) >= MEMO_ENTRIES:
                    memo.explored.clear()
                memo.explored[key] = explored + 1
                return
        edge = state.port_trace.since(frames[-1].start) if frames else None
        port = f"{key[0]}:{key[1]}"
        frames.append(_Frame(key, port, state, pending, key[3], edge))
        self.own = frames[-1].own
        if port in state.port_snapshots or state.hop_count >= self.max_hops:
            self.poison()  # a loop check reads the history, or a cut-off

    def _fits(self, summary: Summary, state: ExecutionState) -> bool:
        """Exploring ``summary``'s subtree from ``state`` could not differ:
        no loop check inside meets a snapshot of the entering path, no path
        runs out of hops, and the path budget has room for every ending."""
        return (
            summary.footprint.isdisjoint(state.port_snapshots)
            and state.hop_count + summary.depth <= self.max_hops
            and self.result.terminations + summary.terminations < self.max_paths
        )

    def poison(self) -> None:
        """Store none of the subtrees open now."""
        self.poisoned = len(self.frames)

    def close(self, pending: int) -> None:
        """Store the subtrees the worklist has shrunk out of."""
        frames = self.frames
        while frames and frames[-1].depth > pending:
            frame = frames.pop()
            if len(frames) < self.poisoned:
                self.poisoned = len(frames)
                continue
            fold = self.fold
            summary = Summary(
                frame, self.symbols.count - frame.symbols, FactFold(fold.facts, fold.solver)
            )
            entries = self.memo.entries
            if frame.key not in entries and len(entries) >= MEMO_ENTRIES:
                del entries[next(iter(entries))]  # the oldest
            entries[frame.key] = (frame.future, summary)
            if frames:
                frames[-1].children.append((frame.edge, summary))
