"""Execution path records and result containers.

The tool's output is "the list of explored paths in json format.  For every
path SymNet lists all variables and their constraints at the end of the
execution as well as all the instructions and ports this path has visited"
(§7.1).  :class:`PathRecord` captures one such path; :class:`ExecutionResult`
aggregates them and provides the query helpers used by the verification and
benchmark layers.

A record's ``state`` is the terminated :class:`ExecutionState` — for a failed
egress branch the engine decided before building anything, the state the
interpreter *would* have left behind, built when first asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.core.state import ExecutionState, PathStatusValues
from repro.network.ports import PortId
from repro.solver.result import SolverStats, expose_solver_counters


class PathStatus(PathStatusValues):
    """Terminal statuses of an execution path.

    * ``delivered`` — the packet reached an output port with no outgoing
      link (it left the modeled network);
    * ``dropped`` — an input-port program finished without forwarding;
    * ``failed`` — ``Fail`` was executed, a constraint was unsatisfiable, or
      a memory-safety violation occurred;
    * ``loop`` — the loop-detection algorithm proved the packet revisits a
      port with a subsuming state, or (``PathRecord.cut_off``) the path ran
      out of its ``max_hops`` budget before anything was proved;
    * ``alive`` — only seen transiently while the engine is still running.
    """


@dataclass
class PathRecord:
    """One explored execution path.  ``source`` is the terminated state, or
    a zero-argument recipe for it (a flyweight: an egress branch proved dead
    before any state existed); status, stop reason and last port never need
    it, :attr:`state` builds it once."""

    source: Union[ExecutionState, Callable[[], ExecutionState]]
    status: str
    stop_reason: str = ""
    last_port: Optional[PortId] = None
    #: Stopped by the hop budget — the run is ``truncated`` — rather than
    #: by the program or the loop detector.
    cut_off: bool = False

    @property
    def state(self) -> ExecutionState:
        if not isinstance(self.source, ExecutionState):
            self.source = self.source()
        return self.source

    @property
    def path_id(self) -> int:
        return self.state.path_id

    @property
    def ports_visited(self) -> List[str]:
        return list(self.state.port_trace)

    @property
    def constraints(self):
        return list(self.state.condition.formulas)

    def reached(self, element: str, port: Optional[str] = None) -> bool:
        """True if the path terminated at the given element (and port)."""
        if self.last_port is None:
            return False
        if self.last_port.element != element:
            return False
        return port is None or self.last_port.port == port

    def visited(self, element: str, port: Optional[str] = None) -> bool:
        """True if the path passed through the given element (and port)."""
        for visited in self.state.port_trace:
            name, _, p = visited.partition(":")
            if name == element and (port is None or p == port):
                return True
        return False

    def to_dict(self) -> Dict[str, object]:
        summary = self.state.summary()
        summary.update(
            {
                "status": self.status,
                "stop_reason": self.stop_reason,
                "last_port": str(self.last_port) if self.last_port else None,
                "instructions": [
                    instruction.description
                    for instruction in self.state.instruction_trace
                ],
            }
        )
        return summary


@expose_solver_counters
@dataclass
class ExecutionResult:
    """All paths produced by one symbolic execution run."""

    paths: List[PathRecord] = field(default_factory=list)
    injected_at: Optional[PortId] = None
    elapsed_seconds: float = 0.0
    #: Solver work this run cost (a :class:`SolverStats` delta, including
    #: degrade-path failures absorbed during the run); ``result.solver_calls``
    #: etc. read through to it.
    solver_stats: SolverStats = field(default_factory=SolverStats)
    #: True when a budget cut exploration short: ``max_paths`` stopped it
    #: with frontier states still pending, ``max_hops`` stopped a path, or a
    #: path lived on because the solver's case-split budget left a check
    #: "unknown" — the path list is not the (proved) full set.
    truncated: bool = False

    def add(self, record: PathRecord) -> None:
        self.paths.append(record)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    # -- queries -----------------------------------------------------------------

    def delivered(self) -> List[PathRecord]:
        return [p for p in self.paths if p.status == PathStatus.DELIVERED]

    def failed(self) -> List[PathRecord]:
        return [p for p in self.paths if p.status == PathStatus.FAILED]

    def dropped(self) -> List[PathRecord]:
        return [p for p in self.paths if p.status == PathStatus.DROPPED]

    def loops(self) -> List[PathRecord]:
        return [p for p in self.paths if p.status == PathStatus.LOOP]

    def reaching(self, element: str, port: Optional[str] = None) -> List[PathRecord]:
        """Delivered paths that terminated at the given element/port."""
        return [p for p in self.delivered() if p.reached(element, port)]

    def is_reachable(self, element: str, port: Optional[str] = None) -> bool:
        return bool(self.reaching(element, port))

    def visiting(self, element: str, port: Optional[str] = None) -> List[PathRecord]:
        """Delivered paths that passed through the given element/port at any
        hop (useful when the element's ports all have outgoing links, so no
        path can *terminate* there)."""
        return [p for p in self.delivered() if p.visited(element, port)]

    def is_visited(self, element: str, port: Optional[str] = None) -> bool:
        return bool(self.visiting(element, port))

    def filter(self, predicate: Callable[[PathRecord], bool]) -> List[PathRecord]:
        return [p for p in self.paths if predicate(p)]

    # -- reporting ----------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise all explored paths, mirroring the tool's json output."""
        payload = {
            "injected_at": str(self.injected_at) if self.injected_at else None,
            "elapsed_seconds": self.elapsed_seconds,
            "solver_calls": self.solver_calls,
            "solver_time_seconds": self.solver_time_seconds,
            "solver_fast_paths": self.solver_fast_paths,
            "solver_cache_hits": self.solver_cache_hits,
            "solver_cache_misses": self.solver_cache_misses,
            "truncated": self.truncated,
            "path_count": len(self.paths),
            "paths": [p.to_dict() for p in self.paths],
        }
        return json.dumps(payload, indent=indent)

    def summary_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.paths:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts
