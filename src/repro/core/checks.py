"""Path-level verification checks built on top of symbolic execution (§6).

These are the primitive predicates every higher-level query bottoms out in.
They operate on a single :class:`~repro.core.paths.ExecutionResult` or
:class:`~repro.core.paths.PathRecord`; the network-wide, multi-injection
view lives in :mod:`repro.api` (the ``NetworkModel``/``Query`` session API),
which calls into this module from inside campaign workers.

* **Reachability** — inject a symbolic packet and inspect which paths reach a
  port, what constraints they carry and what the headers look like there.
* **Loop detection** — compare the state at a revisited port with the states
  recorded at previous visits; a loop exists when the new state covers every
  packet admitted by an old state.
* **Invariants** — a header field is invariant along a path when its final
  value provably equals the value it had when the packet was injected.
* **Header visibility** — whether the value currently readable at some point
  is the same symbol the source wrote (e.g. across an encrypted tunnel).
* **Header memory safety** — free, by construction: violations surface as
  failed paths whose ``stop_reason`` starts with ``"memory safety"``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.paths import ExecutionResult, PathRecord
from repro.core.values import concrete_value
from repro.sefl.fields import VariableLike
from repro.solver import ast as sa
from repro.solver.ast import Formula, Term
from repro.solver.solver import Solver


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def is_reachable(
    result: ExecutionResult, element: str, port: Optional[str] = None
) -> bool:
    return result.is_reachable(element, port)


def admitted_values(
    path: PathRecord,
    variable: VariableLike,
    solver: Optional[Solver] = None,
    samples: int = 1,
) -> List[int]:
    """Concrete example values the field can take on this path.

    Uses the solver to produce up to ``samples`` distinct witnesses; useful
    for answering "which packets are allowed here?".
    """
    solver = solver or Solver()
    term = path.state.read_variable(variable)
    constraints: List[Formula] = list(path.constraints)
    found: List[int] = []
    probe = solver  # readable alias
    for _ in range(samples):
        fresh = sa.Var(f"__probe_{len(found)}", 64)
        query = constraints + [sa.Eq(fresh, term)] + [
            sa.Ne(fresh, sa.Const(v)) for v in found
        ]
        model = probe.get_model(query)
        if model is None or fresh.name not in model:
            break
        found.append(model[fresh.name])
    return found


# ---------------------------------------------------------------------------
# State subsumption / loop detection
# ---------------------------------------------------------------------------


def state_subsumed(
    old_constraints: Sequence[Formula],
    new_constraints: Sequence[Formula],
    solver: Optional[Solver] = None,
) -> bool:
    """True when every packet admitted by the old state is admitted by the
    new one (Figure 5(d): the loop case).

    Implemented exactly as in the paper: ask the solver for a packet that
    satisfies the old constraints but not the new ones; if none exists, the
    new state covers the old state.
    """
    solver = solver or Solver()
    old_formula = sa.conjoin(list(old_constraints))
    new_formula = sa.conjoin(list(new_constraints))
    witness = solver.check(sa.And(old_formula, sa.Not(new_formula)))
    return witness.is_unsat


# ---------------------------------------------------------------------------
# Invariance and visibility
# ---------------------------------------------------------------------------


def _terms_equal_under(
    constraints: Sequence[Formula],
    left: Term,
    right: Term,
    solver: Optional[Solver] = None,
) -> bool:
    """True if ``left == right`` holds on every packet satisfying the path
    constraints."""
    if left == right:
        return True
    solver = solver or Solver()
    query = list(constraints) + [sa.Ne(left, right)]
    return solver.check(query).is_unsat


def field_invariant(
    path: PathRecord,
    variable: VariableLike,
    solver: Optional[Solver] = None,
) -> bool:
    """True when the field's value at the end of the path provably equals the
    value it was given when first assigned (§6, "Invariants")."""
    history = path.state.variable_history(variable)
    if len(history) <= 1:
        return True
    return _terms_equal_under(path.constraints, history[0], history[-1], solver)


def header_visible(
    path: PathRecord,
    variable: VariableLike,
    original: Term,
    solver: Optional[Solver] = None,
) -> bool:
    """True when the value currently readable at ``variable`` is provably the
    same as ``original`` (the symbol written by the source).

    This is the "header visibility" test of §6: it distinguishes a field that
    still carries the sender's symbol from one that was overwritten (e.g. by
    encryption or NAT) with a fresh symbol.
    """
    current = path.state.read_variable(variable)
    return _terms_equal_under(path.constraints, current, original, solver)


def field_concrete_value(path: PathRecord, variable: VariableLike) -> Optional[int]:
    """The concrete value of a field on this path, if it is fully concrete."""
    return concrete_value(path.state.read_variable(variable))


# ---------------------------------------------------------------------------
# Memory safety
# ---------------------------------------------------------------------------


def memory_safety_violations(result: ExecutionResult) -> List[PathRecord]:
    """Failed paths caused by header memory-safety violations."""
    return [
        record
        for record in result.failed()
        if record.stop_reason.startswith("memory safety")
    ]
