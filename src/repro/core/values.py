"""Symbolic value management.

Values manipulated by the engine are terms of the constraint solver
(:mod:`repro.solver.ast`): concrete integers become :class:`Const`, fresh
symbolic values become :class:`Var`, and SEFL's ``+`` / ``-`` become
``Add`` / ``Sub``.  The :class:`SymbolFactory` hands out uniquely named
solver variables — the paper's "each value has a unique identifier".
"""

from __future__ import annotations

from typing import Optional

from repro.solver.ast import Add, Const, Sub, Term, Var


class SymbolFactory:
    """Produces uniquely named symbolic variables."""

    def __init__(self, prefix: str = "s") -> None:
        self._prefix = prefix
        self._counter = 0

    def fresh(self, label: str = "sym", width: int = 32) -> Var:
        """Create a fresh symbolic variable labelled for readability."""
        self._counter += 1
        safe_label = label.replace(" ", "_") or "sym"
        return Var(f"{self._prefix}{self._counter}_{safe_label}", width)

    @property
    def count(self) -> int:
        """Number of symbols created so far: the next name's number."""
        return self._counter

    def advance(self, count: int) -> None:
        """Skip ``count`` names, as if that many symbols had been drawn."""
        self._counter += count


def term_is_concrete(term: Term) -> bool:
    """True if ``term`` contains no symbolic variables."""
    if isinstance(term, Const):
        return True
    if isinstance(term, Var):
        return False
    if isinstance(term, (Add, Sub)):
        return term_is_concrete(term.left) and term_is_concrete(term.right)
    raise TypeError(f"not a term: {term!r}")


def concrete_value(term: Term) -> Optional[int]:
    """Evaluate ``term`` if it is fully concrete, else return ``None``."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return None
    if isinstance(term, Add):
        left = concrete_value(term.left)
        right = concrete_value(term.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(term, Sub):
        left = concrete_value(term.left)
        right = concrete_value(term.right)
        if left is None or right is None:
            return None
        return left - right
    raise TypeError(f"not a term: {term!r}")


def term_to_string(term: Term) -> str:
    """Human-readable rendering used in path reports."""
    if isinstance(term, Const):
        return str(term.value)
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Add):
        return f"({term_to_string(term.left)} + {term_to_string(term.right)})"
    if isinstance(term, Sub):
        return f"({term_to_string(term.left)} - {term_to_string(term.right)})"
    return repr(term)
