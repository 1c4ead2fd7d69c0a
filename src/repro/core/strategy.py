"""Exploration strategies for the symbolic execution worklist.

The engine's frontier decides which pending ``(state, element, port)`` work
item to execute next:

* ``dfs`` — depth-first (LIFO), the historical default: follows one packet
  to a terminal before starting the next, keeping the frontier small;
* ``bfs`` — breadth-first (FIFO): explores hop-by-hop, useful for finding
  the shortest path to a property violation first;
* ``coverage`` — coverage-ordered: prefers the frontier item whose next
  input port has been entered least often so far, spreading exploration
  across the topology before deepening any one region (useful with a
  ``max_paths`` budget on very wide networks).

The terminal *set* of paths is strategy-independent (loop detection and
feasibility are per-path properties); only the order of discovery — and
therefore which paths survive a ``max_paths`` truncation — changes.

A frontier has ``push``, ``pop`` and ``__len__`` (which also makes an empty
one false); :data:`STRATEGIES` names the three, and a run picks one by name.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Tuple, Union

# (state, element name, input port) — typed loosely to avoid importing the
# engine's state class here.
WorkItem = Tuple[object, str, str]


class DepthFirstStrategy:
    """LIFO frontier — follow one packet to the end before backtracking."""

    name = "dfs"

    def __init__(self) -> None:
        self._stack: List[WorkItem] = []

    def push(self, item: WorkItem) -> None:
        self._stack.append(item)

    def pop(self) -> WorkItem:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class BreadthFirstStrategy:
    """FIFO frontier — expand all states at hop N before any at hop N+1."""

    name = "bfs"

    def __init__(self) -> None:
        self._queue: deque = deque()

    def push(self, item: WorkItem) -> None:
        self._queue.append(item)

    def pop(self) -> WorkItem:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class CoverageOrderedStrategy:
    """Prefer work items entering the least-visited input port.

    Visit counts are taken at push time (a cheap, deterministic
    approximation: re-prioritising queued items on every pop would cost a
    heap rebuild); ties break FIFO via a monotone sequence number.
    """

    name = "coverage"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, WorkItem]] = []
        self._visits: Dict[Tuple[str, str], int] = {}
        self._sequence = 0

    def push(self, item: WorkItem) -> None:
        key = (item[1], item[2])
        priority = self._visits.get(key, 0)
        heapq.heappush(self._heap, (priority, self._sequence, item))
        self._sequence += 1

    def pop(self) -> WorkItem:
        _, _, item = heapq.heappop(self._heap)
        key = (item[1], item[2])
        self._visits[key] = self._visits.get(key, 0) + 1
        return item

    def __len__(self) -> int:
        return len(self._heap)


#: The order in which pending execution states are expanded.
Frontier = Union[DepthFirstStrategy, BreadthFirstStrategy, CoverageOrderedStrategy]

STRATEGIES: Dict[str, Callable[[], Frontier]] = {
    DepthFirstStrategy.name: DepthFirstStrategy,
    BreadthFirstStrategy.name: BreadthFirstStrategy,
    CoverageOrderedStrategy.name: CoverageOrderedStrategy,
}


def make_strategy(strategy: str) -> Frontier:
    """Build a fresh frontier from a registered name."""
    try:
        factory = STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(
            f"unknown exploration strategy {strategy!r}; known: {known}"
        ) from None
    return factory()
