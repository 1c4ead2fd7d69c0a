"""Term and formula abstract syntax for the constraint solver.

The fragment mirrors what SEFL expressions can produce (§5 of the paper:
"SymNet (via SEFL) only supports simple expressions — referencing,
subtraction, addition, negation"):

* terms are variables, constants and sums/differences of a variable and a
  constant (``x + 3``) or of two variables (``x - y``);
* atoms compare two terms;
* formulas are boolean combinations of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple, Union


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A solver variable: a symbolic value with a unique name and bit width."""

    name: str
    width: int = 32

    def __repr__(self) -> str:
        return f"Var({self.name!r}, w={self.width})"


@dataclass(frozen=True)
class Const:
    """An integer constant."""

    value: int

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(frozen=True)
class Add:
    """Sum of two terms."""

    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Sub:
    """Difference of two terms."""

    left: "Term"
    right: "Term"


Term = Union[Var, Const, Add, Sub]


# ---------------------------------------------------------------------------
# Linear normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearTerm:
    """A term normalised to ``sum(coeff_i * var_i) + constant``.

    The solver only decides the fragment where, after normalisation, an atom
    relates at most two variables with coefficients ``+1`` / ``-1``.  Atoms
    outside the fragment are still representable and are handled by the
    (sound but incomplete) fallback path in the theory solver.
    """

    coeffs: Tuple[Tuple[Var, int], ...]
    constant: int

    @property
    def variables(self) -> Tuple[Var, ...]:
        return tuple(v for v, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs


def _merge_coeffs(
    pairs: Iterable[Tuple[Var, int]]
) -> Tuple[Tuple[Var, int], ...]:
    acc: dict = {}
    for var, coeff in pairs:
        acc[var] = acc.get(var, 0) + coeff
    items = [(v, c) for v, c in acc.items() if c != 0]
    items.sort(key=lambda item: item[0].name)
    return tuple(items)


def linearize(term: Term) -> LinearTerm:
    """Normalise ``term`` to a linear combination of variables."""
    if isinstance(term, Var):
        return LinearTerm(((term, 1),), 0)
    if isinstance(term, Const):
        return LinearTerm((), term.value)
    if isinstance(term, Add):
        left = linearize(term.left)
        right = linearize(term.right)
        return LinearTerm(
            _merge_coeffs(left.coeffs + right.coeffs),
            left.constant + right.constant,
        )
    if isinstance(term, Sub):
        left = linearize(term.left)
        right = linearize(term.right)
        negated = tuple((v, -c) for v, c in right.coeffs)
        return LinearTerm(
            _merge_coeffs(left.coeffs + negated),
            left.constant - right.constant,
        )
    raise TypeError(f"not a term: {term!r}")


def term_variables(term: Term) -> FrozenSet[Var]:
    return frozenset(linearize(term).variables)


# ---------------------------------------------------------------------------
# Atoms and formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Comparison:
    left: Term
    right: Term

    op: str = ""

    def variables(self) -> FrozenSet[Var]:
        return term_variables(self.left) | term_variables(self.right)


@dataclass(frozen=True)
class Eq(_Comparison):
    op: str = "=="


@dataclass(frozen=True)
class Ne(_Comparison):
    op: str = "!="


@dataclass(frozen=True)
class Lt(_Comparison):
    op: str = "<"


@dataclass(frozen=True)
class Le(_Comparison):
    op: str = "<="


@dataclass(frozen=True)
class Gt(_Comparison):
    op: str = ">"


@dataclass(frozen=True)
class Ge(_Comparison):
    op: str = ">="


Atom = Union[Eq, Ne, Lt, Le, Gt, Ge]


@dataclass(frozen=True)
class Member:
    """Set-membership atom: ``term`` takes a value inside ``values``.

    ``values`` is an :class:`repro.solver.intervals.IntervalSet`.  Member is
    semantically the disjunction ``Or(term == v for v in values)`` but is
    decided directly against the variable's domain, which keeps constraints
    generated from MAC tables and FIBs (hundreds of thousands of allowed
    values) cheap — this is the "egress model" optimisation from §7 of the
    paper expressed at the solver level.
    """

    term: Term
    values: object  # IntervalSet; typed loosely to avoid an import cycle
    negated: bool = False

    def variables(self) -> FrozenSet[Var]:
        return term_variables(self.term)


@dataclass(frozen=True)
class And:
    operands: Tuple["Formula", ...]

    def __init__(self, *operands: "Formula") -> None:
        flat = []
        for op in operands:
            if isinstance(op, And):
                flat.extend(op.operands)
            else:
                flat.append(op)
        object.__setattr__(self, "operands", tuple(flat))


@dataclass(frozen=True)
class Or:
    operands: Tuple["Formula", ...]

    def __init__(self, *operands: "Formula") -> None:
        flat = []
        for op in operands:
            if isinstance(op, Or):
                flat.extend(op.operands)
            else:
                flat.append(op)
        object.__setattr__(self, "operands", tuple(flat))


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class BoolTrue:
    pass


@dataclass(frozen=True)
class BoolFalse:
    pass


TRUE = BoolTrue()
FALSE = BoolFalse()

Formula = Union[Eq, Ne, Lt, Le, Gt, Ge, Member, And, Or, Not, BoolTrue, BoolFalse]


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Build the conjunction of ``formulas`` (``TRUE`` if empty)."""
    items = [f for f in formulas if not isinstance(f, BoolTrue)]
    if any(isinstance(f, BoolFalse) for f in items):
        return FALSE
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(*items)


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Build the disjunction of ``formulas`` (``FALSE`` if empty)."""
    items = [f for f in formulas if not isinstance(f, BoolFalse)]
    if any(isinstance(f, BoolTrue) for f in items):
        return TRUE
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(*items)


def split_conjuncts(formula: Formula) -> "list":
    """NNF-normalise ``formula`` and flatten it into a top-level conjunct
    list (the shape the memoized/canonical solver tiers key on)."""
    nnf = to_nnf(formula)
    if isinstance(nnf, And):
        return list(nnf.operands)
    return [nnf]


def negate(formula: Formula) -> Formula:
    """Negate ``formula`` pushing the negation down to atoms (NNF step)."""
    if isinstance(formula, BoolTrue):
        return FALSE
    if isinstance(formula, BoolFalse):
        return TRUE
    if isinstance(formula, Not):
        return formula.operand
    if isinstance(formula, And):
        return Or(*(negate(op) for op in formula.operands))
    if isinstance(formula, Or):
        return And(*(negate(op) for op in formula.operands))
    if isinstance(formula, Member):
        return Member(formula.term, formula.values, negated=not formula.negated)
    if isinstance(formula, Eq):
        return Ne(formula.left, formula.right)
    if isinstance(formula, Ne):
        return Eq(formula.left, formula.right)
    if isinstance(formula, Lt):
        return Ge(formula.left, formula.right)
    if isinstance(formula, Le):
        return Gt(formula.left, formula.right)
    if isinstance(formula, Gt):
        return Le(formula.left, formula.right)
    if isinstance(formula, Ge):
        return Lt(formula.left, formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def to_nnf(formula: Formula) -> Formula:
    """Rewrite ``formula`` to negation normal form."""
    if isinstance(formula, Not):
        return to_nnf(negate(formula.operand))
    if isinstance(formula, And):
        return And(*(to_nnf(op) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(*(to_nnf(op) for op in formula.operands))
    return formula


def formula_variables(formula: Formula) -> FrozenSet[Var]:
    """Collect every variable mentioned in ``formula``."""
    if isinstance(formula, (BoolTrue, BoolFalse)):
        return frozenset()
    if isinstance(formula, Not):
        return formula_variables(formula.operand)
    if isinstance(formula, (And, Or)):
        result: FrozenSet[Var] = frozenset()
        for op in formula.operands:
            result |= formula_variables(op)
        return result
    if isinstance(formula, Member):
        return formula.variables()
    return formula.variables()
