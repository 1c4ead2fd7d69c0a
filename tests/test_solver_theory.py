"""Tests for the theory layer: atom classification and conjunction solving."""

import pytest

from repro.solver.ast import Add, Const, Eq, Ge, Gt, Le, Lt, Ne, Sub, Var
from repro.solver.intervals import IntervalSet
from repro.solver.form import UnsupportedAtomError, classify_atom, domain_for
from repro.solver.theory import TheorySolver

x = Var("x", 8)
y = Var("y", 8)
z = Var("z", 8)


class TestClassifyAtom:
    def test_var_vs_const(self):
        info = classify_atom(Eq(x, Const(5)))
        assert info.kind == "domain"
        assert info.var == x
        assert info.constant == 5
        assert info.op == "=="

    def test_const_vs_var_flips_operator(self):
        info = classify_atom(Lt(Const(5), x))
        assert info.kind == "domain"
        assert info.op == ">"
        assert info.constant == 5

    def test_var_plus_offset(self):
        info = classify_atom(Eq(Add(x, Const(3)), Const(10)))
        assert info.kind == "domain"
        assert info.constant == 7

    def test_difference_atom(self):
        info = classify_atom(Le(Sub(x, y), Const(4)))
        assert info.kind == "diff"
        assert info.left == x
        assert info.right == y
        assert info.constant == 4

    def test_var_vs_var(self):
        info = classify_atom(Eq(x, y))
        assert info.kind == "diff"
        assert info.constant == 0

    def test_constant_comparison(self):
        info = classify_atom(Lt(Const(1), Const(2)))
        assert info.kind == "const"

    def test_same_var_both_sides_reduces_to_const(self):
        info = classify_atom(Eq(x, Add(x, Const(1))))
        assert info.kind == "const"

    def test_three_variables_unsupported(self):
        with pytest.raises(UnsupportedAtomError):
            classify_atom(Eq(Add(x, y), z))


class TestDomainFor:
    def test_equality(self):
        assert domain_for("==", 7, 8) == IntervalSet.point(7)

    def test_equality_out_of_range(self):
        assert domain_for("==", 300, 8).is_empty()

    def test_disequality(self):
        domain = domain_for("!=", 7, 8)
        assert 7 not in domain
        assert domain.size() == 255

    def test_orderings(self):
        assert domain_for("<", 10, 8).max() == 9
        assert domain_for("<=", 10, 8).max() == 10
        assert domain_for(">", 250, 8).min() == 251
        assert domain_for(">=", 250, 8).min() == 250

    def test_impossible_bounds(self):
        assert domain_for("<", 0, 8).is_empty()
        assert domain_for(">", 255, 8).is_empty()


class TestTheorySolver:
    def setup_method(self):
        self.solver = TheorySolver()

    def test_simple_sat(self):
        verdict, _ = self.solver.check([Eq(x, Const(5))])
        assert verdict == "sat"

    def test_contradictory_domains(self):
        verdict, _ = self.solver.check([Eq(x, Const(5)), Eq(x, Const(6))])
        assert verdict == "unsat"

    def test_equality_chain_propagates(self):
        verdict, _ = self.solver.check(
            [Eq(x, y), Eq(y, z), Eq(x, Const(5)), Eq(z, Const(6))]
        )
        assert verdict == "unsat"

    def test_equality_with_offsets(self):
        verdict, model = self.solver.check(
            [Eq(x, Add(y, Const(3))), Eq(y, Const(10))], want_model=True
        )
        assert verdict == "sat"
        assert model[x] == 13

    def test_difference_bounds_conflict(self):
        verdict, _ = self.solver.check([Lt(x, y), Lt(y, x)])
        assert verdict == "unsat"

    def test_difference_bounds_chain(self):
        verdict, _ = self.solver.check([Lt(x, y), Lt(y, z), Eq(z, Const(1))])
        assert verdict == "unsat"  # would need x < y < 1 with x, y >= 0... x=0? y must be <1 and >x>=0 -> impossible

    def test_difference_bounds_feasible_chain(self):
        verdict, model = self.solver.check(
            [Lt(x, y), Lt(y, z), Eq(z, Const(4))], want_model=True
        )
        assert verdict == "sat"
        assert model[x] < model[y] < model[z] == 4

    def test_disequality_pruning(self):
        verdict, _ = self.solver.check(
            [Ge(x, Const(3)), Le(x, Const(4)), Ne(x, Const(3)), Ne(x, Const(4))]
        )
        assert verdict == "unsat"

    def test_disequality_between_variables(self):
        verdict, _ = self.solver.check([Eq(x, y), Ne(x, y)])
        assert verdict == "unsat"

    def test_model_respects_disequalities(self):
        verdict, model = self.solver.check(
            [Le(x, Const(1)), Le(y, Const(1)), Ne(x, y)], want_model=True
        )
        assert verdict == "sat"
        assert model[x] != model[y]

    def test_extra_domains_narrow(self):
        verdict, _ = self.solver.check(
            [Eq(x, Const(5))], extra_domains={x: IntervalSet.points([1, 2, 3])}
        )
        assert verdict == "unsat"

    def test_width_respected_in_model(self):
        verdict, model = self.solver.check([Ge(x, Const(200))], want_model=True)
        assert verdict == "sat"
        assert 200 <= model[x] <= 255

    def test_unsupported_atoms_yield_unknown_not_sat(self):
        verdict, _ = self.solver.check([Eq(Add(x, y), z)])
        assert verdict in ("unknown", "unsat")
        assert verdict != "sat"
