"""The SEFL instruction set (Figure 2 of the paper).

Instructions are plain syntax objects; the engine in
:mod:`repro.core.engine` gives them their symbolic semantics.  Every
instruction implicitly operates on the current execution state (packet) and
may fail the path, modify it, fork it or forward it to output ports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

from repro.sefl.expressions import Condition, Expression, OneOf
from repro.sefl.fields import HeaderField, TagOffset, VariableLike
from repro.solver.intervals import IntervalSet

# Visibility of metadata variables (paper: "global (default) or local to the
# current module").
GLOBAL = "global"
LOCAL = "local"

PortRef = Union[int, str]


class Instruction:
    """Base class for SEFL instructions."""

    __slots__ = ()

    #: ``(field, allowed)`` when executing the instruction is exactly "the
    #: field's value lies in this constant set" (see :attr:`Constrain.guard`).
    guard = None

    @cached_property
    def description(self) -> str:
        """How path traces name this instruction.  Rendered on first use and
        kept on the object: a ``Constrain`` over a core router's interval set
        is hundreds of kilobytes of text, and every path through it names it."""
        return self._describe()

    def _describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Allocate(Instruction):
    """Allocate a new value stack for ``variable``.

    * string variable — metadata entry; ``visibility`` selects whether the
      key is global or local to the current network element;
    * header address (int / tag offset / field) — a header field allocated at
      that bit address; ``size`` (bits) is then mandatory.
    """

    variable: VariableLike
    size: Optional[int] = None
    visibility: str = GLOBAL


@dataclass(frozen=True)
class Deallocate(Instruction):
    """Destroy the topmost stack of ``variable``.

    If ``size`` is given it is checked against the allocated size; a mismatch
    or a missing allocation fails the execution path (header memory safety).
    """

    variable: VariableLike
    size: Optional[int] = None


@dataclass(frozen=True)
class Assign(Instruction):
    """Symbolically evaluate ``expression`` and store it in ``variable``."""

    variable: VariableLike
    expression: Union[Expression, int, str, VariableLike]

    def _describe(self) -> str:
        return f"Assign({self.variable!r})"


@dataclass(frozen=True)
class CreateTag(Instruction):
    """Create tag ``name`` at the address ``value`` (must be concrete)."""

    name: str
    value: Union[Expression, int, VariableLike]


@dataclass(frozen=True)
class DestroyTag(Instruction):
    """Destroy tag ``name``."""

    name: str


@dataclass(frozen=True)
class Constrain(Instruction):
    """Require ``condition`` to hold; the path fails if it cannot:
    ``Constrain(Eq(TcpDst, 80))``."""

    condition: Condition

    def _describe(self) -> str:
        return f"Constrain({self.condition!r})"

    @cached_property
    def guard(self) -> Optional[Tuple[VariableLike, IntervalSet]]:
        """``(field, allowed)`` when the condition is one field-against-
        constant-set test, ``OneOf(field, values)`` — what the egress models
        put on every output port.  A fact of the instruction alone, so it is
        worked out once and kept beside ``description``."""
        condition = self.condition
        if isinstance(condition, OneOf) and isinstance(
            condition.expression, (str, HeaderField, TagOffset)
        ):
            return condition.expression, condition.values
        return None

    @cached_property
    def unsatisfiable_reason(self) -> str:
        """Stop reason of a path this constraint made infeasible."""
        return f"constraint unsatisfiable: {self.description}"


@dataclass(frozen=True)
class Fail(Instruction):
    """Stop the current path, recording ``message``."""

    message: str = "Fail"

    def _describe(self) -> str:
        return f"Fail({self.message!r})"


@dataclass(frozen=True)
class If(Instruction):
    """Fork the state: one branch assumes ``condition`` and runs ``then_branch``,
    the other assumes its negation and runs ``else_branch``."""

    condition: Union[Condition, "Constrain"]
    then_branch: Instruction
    else_branch: Instruction = field(default_factory=lambda: NoOp())


@dataclass(frozen=True)
class For(Instruction):
    """Iterate over a snapshot of metadata keys matching ``pattern`` (a
    regular expression) and run ``body(key)`` for each match.

    The loop is unfolded before execution (no branching), exactly as in the
    paper.  ``body`` is a callable so that the loop variable can be spliced
    into the generated instructions.
    """

    pattern: str
    body: Callable[[str], Instruction]

    @cached_property
    def compiled(self) -> "re.Pattern[str]":
        return re.compile(self.pattern)


@dataclass(frozen=True)
class Forward(Instruction):
    """Forward the packet to output port ``port``."""

    port: PortRef

    def _describe(self) -> str:
        return f"Forward({self.port!r})"


@dataclass(frozen=True)
class Fork(Instruction):
    """Duplicate the packet and forward one copy to each listed output port."""

    ports: Tuple[PortRef, ...]

    def __init__(self, *ports: PortRef) -> None:
        object.__setattr__(self, "ports", tuple(ports))

    def _describe(self) -> str:
        return f"Fork{self.ports!r}"


@dataclass(frozen=True)
class InstructionBlock(Instruction):
    """A compound instruction executing its children in order."""

    instructions: Tuple[Instruction, ...]

    def __init__(self, *instructions: Instruction) -> None:
        flat = []
        for instr in instructions:
            if isinstance(instr, (list, tuple)):
                flat.extend(instr)
            else:
                flat.append(instr)
        object.__setattr__(self, "instructions", tuple(flat))

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class NoOp(Instruction):
    """Does nothing."""
