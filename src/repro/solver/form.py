"""The solved form of a path condition.

A path's constraints are normalised, classified and narrowed here and
nowhere else.  :class:`PathCondition` keeps the formulas *as asserted* in a
copy-on-write :class:`AppendLog` and, beside them, what they amount to:

* every asserted formula is NNF-normalised once and each of its conjuncts
  classified once (:func:`classify_atom`: one ``linearize`` per term);
* conjuncts that constrain a single variable against constants (ordinary
  comparisons, ``Member`` interval sets, single-variable disjunctions) are
  absorbed into a per-variable domain map — an emptied domain sets ``unsat``;
* everything else (difference atoms, atoms outside the fragment, mixed
  disjunctions) is kept in the *residual*.

``push()``/``pop()`` bracket speculative assertions with an undo log, so
probing a branch (``push(); assume(formula); check; pop()``) and a DPLL case
split cost O(size of the scope), not O(path length).

Everything downstream reads this one object: ``Solver.check`` builds a fresh
one and decides its residual, ``TheorySolver`` decides its domains and
difference atoms, ``IncrementalSolver.check`` answers from the unsat flag or
an empty residual before it pays for a solve, and an ``ExecutionState`` owns
exactly one.  It belongs to no solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.solver.ast import (
    And,
    Atom,
    BoolFalse,
    BoolTrue,
    Eq,
    Formula,
    Ge,
    Gt,
    Le,
    Lt,
    Member,
    Ne,
    Or,
    Var,
    linearize,
    split_conjuncts,
    to_nnf,
)
from repro.solver.intervals import IntervalSet

_COMPARISONS = (Eq, Ne, Lt, Le, Gt, Ge)
_ATOMS = _COMPARISONS + (Member,)


class AppendLog:
    """An append-only sequence with O(1) copy-on-write clones.

    Each log is a chain: an immutable view of ``_upto`` items of a parent
    log plus a private tail.  ``clone()`` freezes the current contents as the
    shared prefix of a new log; the original keeps appending to its own tail
    without affecting any clone (tails are append-only, and clones record
    how far into the parent's tail they may look).
    """

    __slots__ = ("_parent", "_upto", "_base_len", "_items")

    def __init__(
        self, parent: Optional["AppendLog"] = None, upto: int = 0
    ) -> None:
        self._parent = parent
        self._upto = upto
        self._base_len = (parent._base_len + upto) if parent is not None else 0
        self._items: list = []

    def append(self, item) -> None:
        self._items.append(item)

    def clone(self) -> "AppendLog":
        return AppendLog(self, len(self._items))

    def truncate(self, length: int) -> None:
        """Forget what was appended past ``length``.  Only for items no
        clone can see: appended to this log since its last ``clone()``."""
        del self._items[length - self._base_len:]

    def __len__(self) -> int:
        return self._base_len + len(self._items)

    def __iter__(self) -> Iterator:
        segments = []
        node: Optional[AppendLog] = self
        upto = len(self._items)
        while node is not None:
            segments.append((node._items, upto))
            upto = node._upto
            node = node._parent
        for items, limit in reversed(segments):
            for index in range(limit):
                yield items[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"AppendLog({list(self)!r})"


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class UnsupportedAtomError(Exception):
    """Raised when an atom falls outside the decidable fragment."""


@dataclass(slots=True)
class ClassifiedAtom:
    """An atom reduced to at most two variables with unit coefficients."""

    kind: str  # "const", "domain", "diff"
    op: str = ""
    constant: int = 0
    # for "const": the atom's truth value
    holds: bool = True
    # for "domain": var op constant, i.e. var takes a value in ``allowed``
    var: Optional[Var] = None
    allowed: Optional[IntervalSet] = None
    # for "diff": left - right op constant
    left: Optional[Var] = None
    right: Optional[Var] = None


def classify_atom(atom: Union[Atom, Member]) -> ClassifiedAtom:
    """Normalise a comparison or membership atom into the var-vs-const /
    var-vs-var fragment."""
    if isinstance(atom, Member):
        linear = linearize(atom.term)
        values: IntervalSet = atom.values  # type: ignore[assignment]
        if linear.is_constant():
            return ClassifiedAtom(
                kind="const", holds=(linear.constant in values) != atom.negated
            )
        if len(linear.coeffs) != 1 or linear.coeffs[0][1] != 1:
            raise UnsupportedAtomError(f"membership of a non-variable term {atom!r}")
        var = linear.coeffs[0][0]
        # term = var + constant in values  <=>  var in (values - constant)
        allowed = values.shift(-linear.constant) if linear.constant else values
        if atom.negated:
            allowed = allowed.complement(var.width)
        return ClassifiedAtom(kind="domain", var=var, allowed=allowed)

    lhs = linearize(atom.left)
    rhs = linearize(atom.right)
    # move everything to the left: lhs - rhs op 0
    coeffs: Dict[Var, int] = {}
    for var, coeff in lhs.coeffs:
        coeffs[var] = coeffs.get(var, 0) + coeff
    for var, coeff in rhs.coeffs:
        coeffs[var] = coeffs.get(var, 0) - coeff
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    constant = lhs.constant - rhs.constant
    op = atom.op

    if not coeffs:
        return ClassifiedAtom(
            kind="const", op=op, constant=constant, holds=_const_holds(op, constant)
        )

    if len(coeffs) == 1:
        (var, coeff), = coeffs.items()
        if coeff == 1:
            # var + constant op 0  ->  var op -constant
            constant = -constant
        elif coeff == -1:
            # -var + constant op 0  ->  constant op var  -> var flipped_op constant
            op = _flip(op)
        else:
            raise UnsupportedAtomError(f"non-unit coefficient in {atom!r}")
        return ClassifiedAtom(
            kind="domain", op=op, constant=constant, var=var,
            allowed=domain_for(op, constant, var.width),
        )

    if len(coeffs) == 2:
        items = sorted(coeffs.items(), key=lambda kv: kv[0].name)
        (v1, c1), (v2, c2) = items
        if c1 == 1 and c2 == -1:
            left, right = v1, v2
        elif c1 == -1 and c2 == 1:
            left, right = v2, v1
        else:
            raise UnsupportedAtomError(f"non-difference atom {atom!r}")
        # left - right + constant op 0  ->  left - right op -constant
        return ClassifiedAtom(
            kind="diff", op=op, left=left, right=right, constant=-constant
        )

    raise UnsupportedAtomError(f"atom mentions more than two variables: {atom!r}")


def _flip(op: str) -> str:
    return {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _const_holds(op: str, value: int) -> bool:
    if op == "==":
        return value == 0
    if op == "!=":
        return value != 0
    if op == "<":
        return value < 0
    if op == "<=":
        return value <= 0
    if op == ">":
        return value > 0
    if op == ">=":
        return value >= 0
    raise ValueError(op)


def domain_for(op: str, constant: int, width: int) -> IntervalSet:
    """Interval set of values of a ``width``-bit variable satisfying
    ``var op constant``."""
    full = IntervalSet.full(width)
    top = (1 << width) - 1
    if op == "==":
        if 0 <= constant <= top:
            return IntervalSet.point(constant)
        return IntervalSet.empty()
    if op == "!=":
        return full.remove_point(constant) if 0 <= constant <= top else full
    if op == "<":
        return IntervalSet.at_most(min(constant - 1, top))
    if op == "<=":
        return IntervalSet.at_most(min(constant, top))
    if op == ">":
        return IntervalSet.at_least(constant + 1, width)
    if op == ">=":
        return IntervalSet.at_least(constant, width)
    raise ValueError(op)


def _single_variable_domain(disjunction: Or) -> Optional[Tuple[Var, IntervalSet]]:
    """If every disjunct constrains the same single variable against
    constants, collapse the disjunction into one interval-set domain.

    This is the optimisation that makes the egress switch/router models
    cheap: a 480 000-way ``Or`` of MAC equalities becomes a single domain
    with 480 000 points instead of 480 000 case splits.
    """
    target: Optional[Var] = None
    allowed = IntervalSet.empty()
    for operand in disjunction.operands:
        if not isinstance(operand, _COMPARISONS):
            return None
        try:
            info = classify_atom(operand)
        except UnsupportedAtomError:
            return None
        if info.kind != "domain" or (target is not None and info.var != target):
            return None
        target = info.var
        allowed = allowed.union(info.allowed)
    if target is None:
        return None
    return target, allowed


# ---------------------------------------------------------------------------
# The form
# ---------------------------------------------------------------------------


class PathCondition:
    """One conjunction of constraints in solved form (see module docstring)."""

    __slots__ = ("formulas", "domains", "residual", "unsat", "_frames")

    def __init__(self) -> None:
        #: Every formula as asserted, in order.
        self.formulas = AppendLog()
        #: Narrowed per-variable domains; none is empty unless ``unsat``.
        self.domains: Dict[Var, IntervalSet] = {}
        #: What the domains do not capture, in assertion order: difference
        #: atoms (as :class:`ClassifiedAtom`), atoms outside the fragment
        #: and mixed disjunctions (as asserted).
        self.residual: list = []
        #: Propagation alone proved the conjunction unsatisfiable.
        self.unsat = False
        # One undo record per open push(): the log and residual lengths, the
        # unsat flag, and each touched variable's domain as it was (None:
        # it had none).
        self._frames: List[Tuple[int, int, bool, dict]] = []

    # -- lifecycle ------------------------------------------------------------

    def clone(self) -> "PathCondition":
        """Copy for a forked path: the formula log shares its prefix, and
        interval sets are immutable, so only two small containers are
        duplicated."""
        if self._frames:
            raise RuntimeError("cannot clone a path condition with open push() scopes")
        copy = type(self).__new__(type(self))
        copy.formulas = self.formulas.clone()
        copy.domains = dict(self.domains)
        copy.residual = list(self.residual)
        copy.unsat = self.unsat
        copy._frames = []
        return copy

    # -- scopes ---------------------------------------------------------------

    def push(self) -> None:
        """Open a speculative scope; ``pop()`` undoes everything asserted in it."""
        self._frames.append(
            (len(self.formulas), len(self.residual), self.unsat, {})
        )

    def pop(self) -> None:
        """Discard the most recent ``push()`` scope."""
        if not self._frames:
            raise RuntimeError("pop() without a matching push()")
        formula_len, residual_len, self.unsat, saved = self._frames.pop()
        self.formulas.truncate(formula_len)
        del self.residual[residual_len:]
        for var, previous in saved.items():
            if previous is None:
                del self.domains[var]
            else:
                self.domains[var] = previous

    @property
    def depth(self) -> int:
        return len(self._frames)

    # -- assertion ------------------------------------------------------------

    def assume(self, formula: Formula) -> None:
        """Assert ``formula``, propagating only its own atoms."""
        self.formulas.append(formula)
        stack = [to_nnf(formula)]
        while stack and not self.unsat:
            item = stack.pop()
            if isinstance(item, _ATOMS):
                try:
                    info = classify_atom(item)
                except UnsupportedAtomError:
                    # Kept as asserted: it cannot narrow anything, and who
                    # decides the residual must degrade "sat" to "unknown".
                    self.residual.append(item)
                    continue
                if info.kind == "domain":
                    self.narrow(info.var, info.allowed)
                elif info.kind == "diff":
                    self.residual.append(info)
                elif not info.holds:
                    self.unsat = True
            elif isinstance(item, And):
                # Reversed, so conjuncts are taken (and the residual kept)
                # in the order they were written.
                stack.extend(reversed(item.operands))
            elif isinstance(item, Or):
                collapsed = _single_variable_domain(item)
                if collapsed is None:
                    self.residual.append(item)
                else:
                    self.narrow(*collapsed)
            elif isinstance(item, BoolFalse):
                self.unsat = True
            elif not isinstance(item, BoolTrue):
                # to_nnf eliminates Not entirely, so anything else here is
                # not a formula node at all.
                raise TypeError(f"unexpected formula node: {item!r}")

    def assume_member(self, formula: Formula, var: Var, allowed: IntervalSet) -> None:
        """:meth:`assume` for a caller that already knows ``formula`` is the
        atom ``var ∈ allowed``: the log entry and the one ``narrow``."""
        self.formulas.append(formula)
        if not self.unsat:
            self.narrow(var, allowed)

    def narrow(self, var: Var, allowed: IntervalSet) -> None:
        """Intersect ``var``'s domain with ``allowed``; empty means unsat."""
        current = self.domains.get(var)
        if self._frames:
            self._frames[-1][3].setdefault(var, current)
        if current is None:
            current = IntervalSet.full(var.width)
        narrowed = current.intersection(allowed)
        self.domains[var] = narrowed
        if narrowed.is_empty():
            self.unsat = True

    # -- queries --------------------------------------------------------------

    def constraint_count(self) -> int:
        return len(self.formulas)

    def conjuncts(self) -> List[Formula]:
        """The NNF conjuncts of everything asserted: the set a full solve is
        fingerprinted, and its verdict memoised, under."""
        return [
            conjunct
            for formula in self.formulas
            for conjunct in split_conjuncts(formula)
            if not isinstance(conjunct, BoolTrue)
        ]
