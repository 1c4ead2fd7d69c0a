"""Explore each shared state once per campaign: the engine's state memo.

The injections of one campaign converge on the same routers with the same
constraints.  Under depth-first exploration a subtree is complete when the
frontier shrinks back to its root's depth, so the engine records it once and
replays it where a later step reaches the same state: the same terminations
and records in the same order.

A state is keyed by element, in-port, the digest of its future
(:mod:`repro.core.state`), the symbol counter and whether failed paths are
recorded; a hit is confirmed by exact equality of the futures.  Nothing is
stored for a subtree that lived on an ``unknown`` verdict, was cut off,
truncated, or stepped at a port its path had visited (a loop check read the
history), and a summary is replayed only where exploring could not differ
(:meth:`Recorder._fits`) — though, like a cached verdict, it may be definite
where a smaller case-split budget would not be.  A summary is one step's
tallies and kept records, then the summaries of the states it queued, in
exploration order, each behind the suffix leading to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.paths import PathRecord
from repro.core.state import ExecutionState, next_path_id
from repro.solver.form import PathCondition

#: How many summaries one memo keeps (the oldest are dropped first).
MEMO_ENTRIES = 8192
#: A subtree is recorded once its root state has been explored this many
#: times outside any recording: a state few jobs reach costs no recording.
RECORD_AFTER = 2


class StateMemo:
    """The subtree summaries of one campaign run, by state key (a run gets
    a fresh memo: programs may be replaced between runs)."""

    def __init__(self) -> None:
        #: key -> (the entering state's future, its summary).
        self.entries: Dict[tuple, Tuple[ExecutionState, "Summary"]] = {}
        #: How often each key was explored outside any recording.
        self.explored: Dict[tuple, int] = {}
        #: (program id, symbol counter) -> (program, the states it built, for
        #: later jobs to clone: their slots then compare by identity, draws).
        self.packets: Dict[tuple, tuple] = {}


def _suffix(state: ExecutionState, lengths: Tuple[int, int, int]) -> tuple:
    """What a path's three logs gained since they were ``lengths`` long."""
    return (
        state.port_trace.since(lengths[0]),
        state.instruction_trace.since(lengths[1]),
        state.condition.formulas.since(lengths[2]),
    )


class Summary:
    """A stored subtree (module docstring)."""

    __slots__ = (
        "port", "element", "records", "children", "tallies", "terminations",
        "kept", "footprint", "depth", "draws",
    )

    def __init__(self, frame: "_Frame", draws: int) -> None:
        self.port, self.element, self.draws = frame.port, frame.key[0], draws
        #: (status, reason, last port, suffix, future) per record kept.
        self.records = tuple(
            (record.status, record.stop_reason, record.last_port,
             _suffix(record.state, frame.lengths), record.state.future())
            for _, _, record in frame.own if record is not None
        )
        self.children = tuple(frame.children)
        tallies: Dict[Tuple[str, str], int] = {}
        for status, reason, _ in frame.own:
            tallies[status, reason] = tallies.get((status, reason), 0) + 1
        footprint = {self.port}
        self.kept, self.depth = len(self.records), 1
        for _, child in self.children:
            for key, count in child.tallies:
                tallies[key] = tallies.get(key, 0) + count
            footprint |= child.footprint
            self.kept += child.kept
            self.depth = max(self.depth, 1 + child.depth)
        #: Terminations by (status, reason), in first-termination order.
        self.tallies = tuple(tallies.items())
        self.terminations = sum(tallies.values())
        self.footprint = frozenset(footprint)  # the in-ports stepped at


class _Frame:
    """A subtree being explored, and what it produced so far."""

    __slots__ = ("key", "port", "future", "depth", "lengths", "symbols", "edge", "own", "children")

    def __init__(self, key, port, state, depth, symbols, edge) -> None:
        self.key, self.port, self.depth, self.symbols, self.edge = key, port, depth, symbols, edge
        self.future = state.future()
        self.lengths = (
            len(state.port_trace), len(state.instruction_trace), len(state.condition.formulas)
        )
        #: (status, reason, record or None) per termination of the root step.
        self.own: list = []
        self.children: List[Tuple[tuple, Summary]] = []


class Recorder:
    """One ``inject``'s lookups, recordings and replays, step by step."""

    def __init__(self, memo: StateMemo, executor, result) -> None:
        self.memo, self.result, settings = memo, result, executor.settings
        self.stats, self.symbols = executor.solver.stats, executor.symbols
        self.max_hops, self.max_paths = settings.max_hops, settings.max_paths
        self.keep_failed = settings.record_failed_paths
        self.frames: List[_Frame] = []
        self.poisoned = 0  # frames[:poisoned] store nothing
        self.own: Optional[list] = None

    def enter(self, state: ExecutionState, element: str, in_port: str, pending: int) -> bool:
        """Before ``state`` steps into ``element:in_port`` with ``pending``
        items left on the frontier: replay its subtree (True), or explore
        it (False)."""
        frames, memo, stats = self.frames, self.memo, self.stats
        if frames:
            self.close(pending)
        self.own = None
        symbols = self.symbols.count
        key = (element, in_port, state.digest(), symbols, self.keep_failed)
        found = memo.entries.get(key)
        if found is not None and found[0].same_future(state) and self._fits(found[1], state):
            summary, result = found[1], self.result
            stats.state_memo_hits += 1
            if frames:  # before the replay spends ``state``
                frames[-1].children.append((_suffix(state, frames[-1].lengths), summary))
            result.tally(summary.tallies)
            if summary.kept:
                _replay(result.paths, summary, state, (), summary.kept == 1)
            self.symbols.advance(summary.draws)
            return True
        stats.state_memo_misses += 1
        if not frames:
            explored = memo.explored.get(key, 0)
            if explored < RECORD_AFTER:
                if len(memo.explored) >= MEMO_ENTRIES:
                    memo.explored.clear()
                memo.explored[key] = explored + 1
                return False
        edge = _suffix(state, frames[-1].lengths) if frames else None
        port = f"{element}:{in_port}"
        frames.append(_Frame(key, port, state, pending, symbols, edge))
        self.own = frames[-1].own
        if port in state.port_snapshots or state.hop_count >= self.max_hops:
            self.poison()  # a loop check reads the history, or a cut-off
        return False

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
        """Store the subtrees the frontier has shrunk out of."""
        frames = self.frames
        while frames and frames[-1].depth > pending:
            frame = frames.pop()
            if len(frames) < self.poisoned:
                self.poisoned = len(frames)
                continue
            summary, entries = Summary(frame, self.symbols.count - frame.symbols), self.memo.entries
            if frame.key not in entries and len(entries) >= MEMO_ENTRIES:
                del entries[next(iter(entries))]  # the oldest
            entries[frame.key] = (frame.future, summary)
            if frames:
                frames[-1].children.append((frame.edge, summary))


def _replay(paths: list, summary: Summary, base: ExecutionState, chain: tuple,
            spend: bool) -> None:
    """Append the records ``summary`` kept, in exploration order, rebuilt
    from ``base`` and ``chain`` (into ``base``, spent, if ``spend``)."""
    for kept in summary.records:
        state = _rebuilt(base, chain + (kept[3],), summary.element, kept, spend)
        paths.append(PathRecord(state, kept[0], kept[1], kept[2]))
    for edge, child in summary.children:
        if child.kept:
            _replay(paths, child, base, chain + (edge,), spend)


def _rebuilt(base: ExecutionState, chain: tuple, element: str, kept: tuple, spend: bool):
    """The state exploration would have left: ``base``'s history extended
    by ``chain``'s suffixes, one step each, and the future the record ended
    with.  Its port snapshots are ``base``'s: loop detection is over."""
    logs = chain[0] if len(chain) == 1 else [sum(parts, []) for parts in zip(*chain)]
    end = kept[4]
    state = base if spend else ExecutionState.__new__(ExecutionState)
    state.header, state.metadata = end.header.clone(), end.metadata.clone()
    state.tags, state.tags_digest, solved = dict(end.tags), end.tags_digest, end.condition
    state.condition = PathCondition.of(
        base.condition.formulas.grown(logs[2]), dict(solved.domains),
        list(solved.residual), solved.unsat, solved.digest,
    )
    state.port_trace = base.port_trace.grown(logs[0])
    state.instruction_trace = base.instruction_trace.grown(logs[1])
    if not spend:
        state.port_snapshots, state.path_id = dict(base.port_snapshots), next_path_id()
    state.status, state.stop_reason = kept[0], kept[1]
    state.current_scope = element
    state.hop_count = base.hop_count + len(chain)
    return state
