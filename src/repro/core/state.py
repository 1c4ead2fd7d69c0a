"""Per-path execution state.

An :class:`ExecutionState` is "the packet": header memory, metadata map, the
tag table, the accumulated path constraints and bookkeeping (visited ports,
executed instructions, per-port snapshots for loop detection).  Instructions
never share mutable state between paths — ``clone`` produces an independent
copy whenever the engine forks.

Cloning is copy-on-write throughout: header/metadata stores share slot
stacks with the parent until mutated (see :mod:`repro.core.memory`), the
port/instruction traces and the path condition's formula log are
:class:`AppendLog` chains that share their prefix, and port snapshots —
frozen prefixes of that log — sit in immutable tuples shared by reference.

A state's **future** is what every later verdict and fan-out reads: the
path condition's solved form, the header and metadata stores (value
histories included) and the tags (plus, at a lookup, the symbol counter).
Its **history** — traces, formula log, port snapshots, hop count, path id,
status — only records and loop detection read.  The future's mutators keep
its digest current (:meth:`ExecutionState.digest`); two states with the same
future (:meth:`ExecutionState.same_future`) explore one subtree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import MemorySafetyError
from repro.core.memory import HeaderMemory, MetadataStore, MetaKey
from repro.core.values import term_to_string
from repro.sefl.fields import HeaderField, TagOffset, VariableLike
from repro.sefl.instructions import Instruction
from repro.solver.ast import Formula, Term
from repro.solver.form import AppendLog, PathCondition

#: Path ids: every state gets a fresh one, clones included.
_path_counter = itertools.count(1)


class PathStatusValues:
    ALIVE = "alive"
    FAILED = "failed"
    DELIVERED = "delivered"
    DROPPED = "dropped"
    LOOP = "loop"


@dataclass(slots=True)
class PortSnapshot:
    """Constraints recorded when the path previously visited a port.

    ``constraints`` is the full conjunction at snapshot time: a frozen
    prefix of the path's formula log, shared with it.  Because path
    constraints are append-only along one path, ``len(constraints)`` also
    tells the loop detector where the suffix of new constraints starts.
    """

    port: str
    constraints: AppendLog
    _constraint_set: Optional[frozenset] = field(
        default=None, repr=False, compare=False
    )

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def contains(self, formula: Formula) -> bool:
        """Structural membership of ``formula`` in the snapshot conjunction."""
        if self._constraint_set is None:
            self._constraint_set = frozenset(self.constraints)
        return formula in self._constraint_set


class ExecutionState:
    """The symbolic state of one execution path (one packet)."""

    __slots__ = (
        "header", "metadata", "tags", "tags_digest", "condition", "port_trace",
        "instruction_trace", "port_snapshots", "status", "stop_reason",
        "current_scope", "path_id", "hop_count",
    )

    def __init__(self) -> None:
        self.header = HeaderMemory()
        self.metadata = MetadataStore()
        self.tags: Dict[str, int] = {}
        #: XOR of one hash per tag, kept by the tag mutators.
        self.tags_digest = 0
        #: The path condition — the one holder of the path's constraints,
        #: as asserted and in solved form.  It belongs to no solver.
        self.condition = PathCondition()
        self.port_trace: AppendLog = AppendLog()
        self.instruction_trace: AppendLog = AppendLog()
        self.port_snapshots: Dict[str, Tuple[PortSnapshot, ...]] = {}
        self.status: str = PathStatusValues.ALIVE
        self.stop_reason: str = ""
        self.current_scope: Optional[str] = None
        self.path_id: int = next(_path_counter)
        self.hop_count: int = 0

    # -- lifecycle -------------------------------------------------------------

    def clone(self) -> "ExecutionState":
        """Create an independent copy (used by If / Fork).

        Copy-on-write: memory stores, traces, snapshots and the path
        condition all share structure with the parent until one side mutates.
        """
        copy = ExecutionState.__new__(ExecutionState)
        copy.header = self.header.clone()
        copy.metadata = self.metadata.clone()
        copy.tags = dict(self.tags)
        copy.tags_digest = self.tags_digest
        copy.condition = self.condition.clone()
        copy.port_trace = self.port_trace.clone()
        copy.instruction_trace = self.instruction_trace.clone()
        copy.port_snapshots = dict(self.port_snapshots)
        copy.status = self.status
        copy.stop_reason = self.stop_reason
        copy.current_scope = self.current_scope
        copy.path_id = next(_path_counter)
        copy.hop_count = self.hop_count
        return copy

    def fail(self, reason: str) -> None:
        self.status = PathStatusValues.FAILED
        self.stop_reason = reason

    @property
    def is_alive(self) -> bool:
        return self.status == PathStatusValues.ALIVE

    def digest(self, swap: Optional[tuple] = None) -> int:
        """Digest of the future (module docstring) — with ``swap``, ``(var,
        domain)``, of the future whose ``var`` is narrowed to ``domain``
        instead: equal futures have equal digests.  O(1): every part is kept
        up to date."""
        condition = self.condition
        return hash((
            condition.digest if swap is None else condition.digest_with(*swap),
            condition.unsat, self.header.digest, self.metadata.digest, self.tags_digest,
        ))

    def future(self) -> "ExecutionState":
        """A state holding a copy of this one's future, and no history."""
        copy, solved = ExecutionState(), self.condition
        copy.header, copy.metadata = self.header.clone(), self.metadata.clone()
        copy.tags, copy.tags_digest = dict(self.tags), self.tags_digest
        copy.condition = PathCondition.of(
            AppendLog(), dict(solved.domains), list(solved.residual), solved.unsat, solved.digest
        )
        return copy

    def same_future(self, other: "ExecutionState", swap: Optional[tuple] = None) -> bool:
        """Whether ``other``'s future — with ``swap`` as in :meth:`digest` —
        is exactly this state's."""
        mine, theirs = self.condition, other.condition
        domains = theirs.domains
        if swap is not None:
            domains = dict(domains)
            domains[swap[0]] = swap[1]
        return (
            mine.unsat == theirs.unsat and self.tags == other.tags
            and self.header.same_slots(other.header)
            and self.metadata.same_slots(other.metadata)
            and mine.residual == theirs.residual and mine.domains == domains
        )

    # -- tags -----------------------------------------------------------------

    def create_tag(self, name: str, value: int) -> None:
        if name in self.tags:
            self.tags_digest ^= hash((name, self.tags[name]))
        self.tags[name] = value
        self.tags_digest ^= hash((name, value))

    def destroy_tag(self, name: str) -> None:
        if name not in self.tags:
            raise MemorySafetyError(f"destroying unknown tag {name!r}")
        self.tags_digest ^= hash((name, self.tags.pop(name)))

    def tag_value(self, name: str) -> int:
        if name not in self.tags:
            raise MemorySafetyError(f"reference to unknown tag {name!r}")
        return self.tags[name]

    # -- variable resolution ---------------------------------------------------

    def resolve_address(self, variable: Union[int, TagOffset, HeaderField]) -> int:
        """Turn a header variable specification into an absolute bit address."""
        if isinstance(variable, bool):  # guard against bool being an int
            raise MemorySafetyError(f"invalid header address {variable!r}")
        if isinstance(variable, int):
            return variable
        if isinstance(variable, TagOffset):
            return self.tag_value(variable.tag) + variable.offset
        raise MemorySafetyError(f"invalid header address {variable!r}")

    @staticmethod
    def variable_width(variable: VariableLike) -> Optional[int]:
        if isinstance(variable, HeaderField):
            return variable.width
        return None

    def describe_variable(self, variable: VariableLike) -> str:
        if isinstance(variable, HeaderField):
            return variable.name
        if isinstance(variable, TagOffset):
            return repr(variable)
        return repr(variable)

    # -- header access ---------------------------------------------------------

    def allocate_header(self, variable: VariableLike, size: int) -> None:
        address = self.resolve_address(variable)  # type: ignore[arg-type]
        self.header.allocate(address, size)

    def deallocate_header(
        self, variable: VariableLike, size: Optional[int] = None
    ) -> None:
        address = self.resolve_address(variable)  # type: ignore[arg-type]
        self.header.deallocate(address, size)

    def read_header(self, variable: VariableLike) -> Term:
        address = self.resolve_address(variable)  # type: ignore[arg-type]
        return self.header.read(address, self.variable_width(variable))

    def write_header(self, variable: VariableLike, term: Term) -> None:
        address = self.resolve_address(variable)  # type: ignore[arg-type]
        self.header.write(address, term, self.variable_width(variable))

    # -- metadata access --------------------------------------------------------

    def allocate_metadata(
        self, name: str, size: Optional[int] = None, local: bool = False
    ) -> None:
        scope = self.current_scope if local else None
        key = MetadataStore.scoped_key(name, scope)
        self.metadata.allocate(key, size)

    def deallocate_metadata(self, name: str, size: Optional[int] = None) -> None:
        key = self._visible_metadata_key(name)
        self.metadata.deallocate(key, size)

    def _visible_metadata_key(self, name: str) -> MetaKey:
        key = self.metadata.resolve(name, self.current_scope)
        if key is None:
            raise MemorySafetyError(f"access to unallocated metadata {name!r}")
        return key

    def read_metadata(self, name: str) -> Term:
        return self.metadata.read(self._visible_metadata_key(name))

    def write_metadata(self, name: str, term: Term) -> None:
        self.metadata.write(self._visible_metadata_key(name), term)

    # -- unified variable access ------------------------------------------------

    def read_variable(self, variable: VariableLike) -> Term:
        if isinstance(variable, str):
            return self.read_metadata(variable)
        return self.read_header(variable)

    def write_variable(self, variable: VariableLike, term: Term) -> None:
        if isinstance(variable, str):
            self.write_metadata(variable, term)
        else:
            self.write_header(variable, term)

    def variable_history(self, variable: VariableLike) -> List[Term]:
        """Assignment history of the current allocation of ``variable``."""
        if isinstance(variable, str):
            return self.metadata.history(self._visible_metadata_key(variable))
        address = self.resolve_address(variable)  # type: ignore[arg-type]
        return self.header.history(address)

    # -- constraints -------------------------------------------------------------

    @property
    def constraints(self) -> Tuple[Formula, ...]:
        """The formulas asserted along the path, in order (read-only)."""
        return tuple(self.condition.formulas)

    def add_constraint(self, formula: Formula) -> None:
        self.condition.assume(formula)

    def constraint_count(self) -> int:
        return len(self.condition.formulas)

    # -- bookkeeping --------------------------------------------------------------

    def record_port(self, port_id: str) -> None:
        self.port_trace.append(port_id)

    def record_instruction(self, instruction: Instruction) -> None:
        """Recorded by reference; path reports render ``.description``."""
        self.instruction_trace.append(instruction)

    def snapshot_port(self, port_id: str) -> None:
        snapshot = PortSnapshot(port_id, self.condition.formulas.clone())
        # Snapshot tuples are immutable and rebound on append, so clones can
        # share the dict values by reference.
        existing = self.port_snapshots.get(port_id, ())
        self.port_snapshots[port_id] = existing + (snapshot,)

    def snapshots_for(self, port_id: str) -> Tuple[PortSnapshot, ...]:
        return self.port_snapshots.get(port_id, ())

    # -- reporting ----------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A JSON-friendly summary of the state (used in path reports)."""
        header_values = {}
        for address in self.header.addresses():
            term = self.header._top(address, None).current
            header_values[str(address)] = (
                term_to_string(term) if term is not None else None
            )
        metadata_values = {}
        for key in self.metadata.keys():
            term = self.metadata._top(key).current
            metadata_values[str(key)] = (
                term_to_string(term) if term is not None else None
            )
        return {
            "path_id": self.path_id,
            "status": self.status,
            "stop_reason": self.stop_reason,
            "tags": dict(self.tags),
            "headers": header_values,
            "metadata": metadata_values,
            "constraint_count": self.constraint_count(),
            "ports_visited": list(self.port_trace),
        }
