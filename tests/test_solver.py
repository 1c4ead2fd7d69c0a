"""End-to-end tests of the Solver, including property-based checks against a
brute-force evaluator over small domains."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    Add,
    And,
    Const,
    Eq,
    Ge,
    Gt,
    IntervalSet,
    Le,
    Lt,
    Member,
    Ne,
    Not,
    Or,
    Solver,
    Sub,
    Var,
)

x = Var("x", 16)
y = Var("y", 16)


class TestSolverBasics:
    def setup_method(self):
        self.solver = Solver()

    def test_trivial_sat(self):
        assert self.solver.check(Eq(Const(1), Const(1))).is_sat

    def test_trivial_unsat(self):
        assert self.solver.check(Eq(Const(1), Const(2))).is_unsat

    def test_empty_constraint_list_is_sat(self):
        assert self.solver.check([]).is_sat

    def test_conjunction_list_argument(self):
        assert self.solver.check([Eq(x, Const(3)), Lt(x, Const(10))]).is_sat
        assert self.solver.check([Eq(x, Const(3)), Gt(x, Const(10))]).is_unsat

    def test_model_generation(self):
        model = self.solver.get_model([Eq(x, Const(80)), Eq(y, Add(x, Const(5)))])
        assert model == {"x": 80, "y": 85}

    def test_model_none_when_unsat(self):
        assert self.solver.get_model([Eq(x, Const(1)), Eq(x, Const(2))]) is None

    def test_is_satisfiable_conservative_on_unknown(self):
        # Unsupported fragment -> unknown -> treated as satisfiable.
        assert not self.solver.check([Eq(Add(x, y), Const(5))]).is_unsat

    def test_stats_recorded(self):
        solver = Solver()
        solver.check(Eq(x, Const(1)))
        solver.check(Eq(x, Const(2)))
        assert solver.stats.calls == 2
        assert solver.stats.sat == 2
        assert solver.stats.time_seconds >= 0


class TestDisjunctions:
    def setup_method(self):
        self.solver = Solver()

    def test_single_variable_disjunction_collapses(self):
        formula = Or(*[Eq(x, Const(v)) for v in range(100)])
        result = self.solver.check(And(formula, Eq(x, Const(50))))
        assert result.is_sat
        assert self.solver.stats.case_splits == 0

    def test_single_variable_disjunction_unsat(self):
        formula = Or(*[Eq(x, Const(v)) for v in range(100)])
        assert self.solver.check(And(formula, Eq(x, Const(500)))).is_unsat

    def test_negated_disjunction(self):
        formula = Not(Or(Eq(x, Const(1)), Eq(x, Const(2))))
        assert self.solver.check(And(formula, Eq(x, Const(1)))).is_unsat
        assert self.solver.check(And(formula, Eq(x, Const(3)))).is_sat

    def test_mixed_variable_disjunction_case_splits(self):
        formula = Or(Eq(x, Const(1)), Eq(y, Const(2)))
        assert self.solver.check(And(formula, Ne(x, Const(1)), Ne(y, Const(2)))).is_unsat
        assert self.solver.stats.case_splits > 0

    def test_nested_disjunctions(self):
        formula = And(
            Or(Eq(x, Const(1)), Eq(y, Const(5))),
            Or(Eq(x, Const(2)), Eq(y, Const(5))),
        )
        result = self.solver.check(And(formula, Ne(y, Const(5))))
        assert result.is_unsat  # x cannot be both 1 and 2

    def test_case_split_budget_returns_unknown(self):
        tight = Solver(max_case_splits=1)
        vars_ = [Var(f"v{i}", 8) for i in range(6)]
        formula = And(*[Or(Eq(v, Const(1)), Eq(v, Const(2))) for v in vars_])
        # force splits by making each disjunction mention two variables
        mixed = And(
            *[
                Or(Eq(vars_[i], Const(1)), Eq(vars_[i + 1], Const(2)))
                for i in range(5)
            ],
            *[Ne(v, Const(1)) for v in vars_],
            *[Ne(v, Const(2)) for v in vars_],
        )
        assert tight.check(mixed).verdict in ("unknown", "unsat")


class TestMember:
    def setup_method(self):
        self.solver = Solver()

    def test_member_sat_and_unsat(self):
        allowed = IntervalSet.points([5, 7, 9])
        assert self.solver.check([Member(x, allowed), Eq(x, Const(7))]).is_sat
        assert self.solver.check([Member(x, allowed), Eq(x, Const(8))]).is_unsat

    def test_negated_member(self):
        allowed = IntervalSet.points([5, 7, 9])
        assert self.solver.check(
            [Member(x, allowed, negated=True), Eq(x, Const(7))]
        ).is_unsat
        assert self.solver.check(
            [Member(x, allowed, negated=True), Eq(x, Const(8))]
        ).is_sat

    def test_member_with_offset_term(self):
        allowed = IntervalSet.points([10, 20])
        assert self.solver.check(
            [Member(Add(x, Const(5)), allowed), Eq(x, Const(15))]
        ).is_sat
        assert self.solver.check(
            [Member(Add(x, Const(5)), allowed), Eq(x, Const(16))]
        ).is_unsat

    def test_two_disjoint_members_unsat(self):
        assert self.solver.check(
            [Member(x, IntervalSet.points([1, 2])), Member(x, IntervalSet.points([3, 4]))]
        ).is_unsat

    def test_large_member_is_cheap(self):
        allowed = IntervalSet.points(range(0, 200_000, 2))
        result = self.solver.check([Member(x, allowed), Eq(x, Const(2))])
        assert result.is_sat
        assert self.solver.stats.case_splits == 0

    def test_model_from_member(self):
        model = self.solver.get_model([Member(x, IntervalSet.points([42]))])
        assert model == {"x": 42}


# ---------------------------------------------------------------------------
# Property-based: compare against brute force on tiny domains
# ---------------------------------------------------------------------------

_WIDTH = 3  # variables range over 0..7
_VARS = [Var("a", _WIDTH), Var("b", _WIDTH)]

_atom_strategy = st.builds(
    lambda op, var_index, const: (op, var_index, const),
    st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "diff<=", "diff=="]),
    st.integers(0, 1),
    st.integers(0, 7),
)


def _atom_to_formula(spec):
    op, var_index, const = spec
    var = _VARS[var_index]
    other = _VARS[1 - var_index]
    table = {
        "==": Eq(var, Const(const)),
        "!=": Ne(var, Const(const)),
        "<": Lt(var, Const(const)),
        "<=": Le(var, Const(const)),
        ">": Gt(var, Const(const)),
        ">=": Ge(var, Const(const)),
        "diff<=": Le(Sub(var, other), Const(const - 4)),
        "diff==": Eq(var, Add(other, Const(const - 4))),
    }
    return table[op]


def _atom_holds(spec, assignment):
    op, var_index, const = spec
    value = assignment[var_index]
    other = assignment[1 - var_index]
    if op == "==":
        return value == const
    if op == "!=":
        return value != const
    if op == "<":
        return value < const
    if op == "<=":
        return value <= const
    if op == ">":
        return value > const
    if op == ">=":
        return value >= const
    if op == "diff<=":
        return value - other <= const - 4
    if op == "diff==":
        return value == other + const - 4
    raise AssertionError(op)


@settings(max_examples=200, deadline=None)
@given(st.lists(_atom_strategy, min_size=1, max_size=5))
def test_solver_agrees_with_brute_force(atom_specs):
    formulas = [_atom_to_formula(spec) for spec in atom_specs]
    solver = Solver()
    result = solver.check(formulas)

    brute_force_sat = any(
        all(_atom_holds(spec, assignment) for spec in atom_specs)
        for assignment in itertools.product(range(1 << _WIDTH), repeat=2)
    )
    if result.is_sat:
        assert brute_force_sat
    elif result.is_unsat:
        assert not brute_force_sat
    # "unknown" is always acceptable (conservative)


@settings(max_examples=100, deadline=None)
@given(st.lists(_atom_strategy, min_size=1, max_size=4))
def test_models_actually_satisfy_constraints(atom_specs):
    formulas = [_atom_to_formula(spec) for spec in atom_specs]
    solver = Solver()
    model = solver.get_model(formulas)
    if model is None:
        return
    assignment = {0: model.get("a", 0), 1: model.get("b", 0)}
    assert all(_atom_holds(spec, assignment) for spec in atom_specs)
