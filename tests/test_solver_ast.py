"""Tests for the solver's term / formula syntax and normalisation."""

import pytest

from repro.solver.ast import (
    Add,
    And,
    BoolFalse,
    BoolTrue,
    Const,
    Eq,
    FALSE,
    Ge,
    Gt,
    Le,
    Lt,
    Member,
    Ne,
    Not,
    Or,
    Sub,
    TRUE,
    Var,
    conjoin,
    disjoin,
    formula_variables,
    linearize,
    negate,
    term_variables,
    to_nnf,
)
from repro.solver.intervals import IntervalSet

x = Var("x", 16)
y = Var("y", 16)
z = Var("z", 32)


class TestLinearize:
    def test_variable(self):
        linear = linearize(x)
        assert linear.coeffs == ((x, 1),)
        assert linear.constant == 0

    def test_constant(self):
        linear = linearize(Const(42))
        assert linear.is_constant()
        assert linear.constant == 42

    def test_addition_with_constant(self):
        linear = linearize(Add(x, Const(5)))
        assert linear.coeffs == ((x, 1),)
        assert linear.constant == 5

    def test_subtraction_of_variables(self):
        linear = linearize(Sub(x, y))
        assert dict(linear.coeffs) == {x: 1, y: -1}
        assert linear.constant == 0

    def test_cancellation(self):
        linear = linearize(Sub(Add(x, Const(3)), x))
        assert linear.is_constant()
        assert linear.constant == 3

    def test_nested_expression(self):
        linear = linearize(Add(Sub(x, y), Add(y, Const(7))))
        assert dict(linear.coeffs) == {x: 1}
        assert linear.constant == 7

    def test_term_variables(self):
        assert term_variables(Add(x, Sub(y, Const(1)))) == frozenset({x, y})

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            linearize("not a term")


class TestNegation:
    @pytest.mark.parametrize(
        "formula, expected_type",
        [
            (Eq(x, Const(1)), Ne),
            (Ne(x, Const(1)), Eq),
            (Lt(x, Const(1)), Ge),
            (Le(x, Const(1)), Gt),
            (Gt(x, Const(1)), Le),
            (Ge(x, Const(1)), Lt),
        ],
    )
    def test_atom_negation(self, formula, expected_type):
        assert isinstance(negate(formula), expected_type)

    def test_double_negation(self):
        formula = Eq(x, Const(1))
        assert negate(Not(formula)) == formula

    def test_de_morgan(self):
        formula = And(Eq(x, Const(1)), Eq(y, Const(2)))
        negated = negate(formula)
        assert isinstance(negated, Or)
        assert all(isinstance(op, Ne) for op in negated.operands)

    def test_member_negation_flips_flag(self):
        member = Member(x, IntervalSet.points([1, 2, 3]))
        negated = negate(member)
        assert isinstance(negated, Member)
        assert negated.negated is True
        assert negate(negated).negated is False

    def test_boolean_constants(self):
        assert isinstance(negate(TRUE), BoolFalse)
        assert isinstance(negate(FALSE), BoolTrue)


class TestNnf:
    def test_not_pushed_through_and(self):
        formula = Not(And(Eq(x, Const(1)), Lt(y, Const(5))))
        nnf = to_nnf(formula)
        assert isinstance(nnf, Or)
        assert isinstance(nnf.operands[0], Ne)
        assert isinstance(nnf.operands[1], Ge)

    def test_nested_structure_preserved(self):
        formula = And(Or(Eq(x, Const(1)), Eq(x, Const(2))), Not(Eq(y, Const(3))))
        nnf = to_nnf(formula)
        assert isinstance(nnf, And)
        assert isinstance(nnf.operands[1], Ne)


class TestCombinators:
    def test_and_flattens(self):
        formula = And(Eq(x, Const(1)), And(Eq(y, Const(2)), Eq(z, Const(3))))
        assert len(formula.operands) == 3

    def test_or_flattens(self):
        formula = Or(Eq(x, Const(1)), Or(Eq(y, Const(2)), Eq(z, Const(3))))
        assert len(formula.operands) == 3

    def test_conjoin_empty_is_true(self):
        assert isinstance(conjoin([]), BoolTrue)

    def test_conjoin_single(self):
        atom = Eq(x, Const(1))
        assert conjoin([atom]) == atom

    def test_conjoin_with_false_collapses(self):
        assert isinstance(conjoin([Eq(x, Const(1)), FALSE]), BoolFalse)

    def test_disjoin_empty_is_false(self):
        assert isinstance(disjoin([]), BoolFalse)

    def test_disjoin_with_true_collapses(self):
        assert isinstance(disjoin([Eq(x, Const(1)), TRUE]), BoolTrue)

    def test_formula_variables(self):
        formula = And(Eq(x, Const(1)), Or(Lt(y, z), Not(Eq(x, y))))
        assert formula_variables(formula) == frozenset({x, y, z})