"""The one path condition against brute force, and the state's view of it.

``PathCondition`` (``repro.solver.form``) is where a path's constraints are
normalised, classified and narrowed; ``Solver.check`` builds a fresh one, the
incremental tiers read one that grew formula by formula with speculative
``push``/``pop`` scopes in between, and every ``ExecutionState`` owns one.
The fuzz loop below holds all three routes to a verdict against each other
and against exhaustive enumeration over three 3-bit variables; the rest pins
what a state promises about the formulas it holds.

Seed-pinned (override with ``REPRO_DIFF_SEED``); a failure prints the case.
"""

import dataclasses
import os
import random

import pytest

from repro import Network, NetworkElement, SymbolicExecutor, models
from repro.core.state import ExecutionState
from repro.sefl import (
    Constrain, Eq as SEq, Forward, If, InstructionBlock, Not as SNot, TcpDst, TcpSrc,
)
from repro.solver import IncrementalSolver, PathCondition, Solver
from repro.solver.ast import (
    Add, And, Const, Eq, Ge, Gt, Le, Lt, Member, Ne, Not, Or, Sub, Var,
)
from repro.solver.intervals import IntervalSet

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))
CASES = 2000

WIDTH = 3
VARS = [Var(name, WIDTH) for name in "abc"]
#: Every assignment of the three variables, and each variable's value in it.
ASSIGNMENTS = [
    (a, b, c) for a in range(8) for b in range(8) for c in range(8)
]
VALUES = {var: [row[i] for row in ASSIGNMENTS] for i, var in enumerate(VARS)}
EVERYWHERE = (1 << len(ASSIGNMENTS)) - 1
COMPARISONS = {
    Eq: int.__eq__, Ne: int.__ne__, Lt: int.__lt__,
    Le: int.__le__, Gt: int.__gt__, Ge: int.__ge__,
}


# -- random formulas ----------------------------------------------------------


def random_term(rng):
    var = rng.choice(VARS)
    shape = rng.randrange(20)
    if shape < 9:
        return var
    if shape < 13:
        return Const(rng.randrange(-2, 10))
    if shape < 15:
        return Add(var, Const(rng.randrange(1, 4)))
    if shape < 17:
        return Sub(var, Const(rng.randrange(1, 4)))
    if shape < 19:
        return Sub(var, rng.choice(VARS))
    return Add(var, rng.choice(VARS))  # outside the fragment, mostly


def random_formula(rng, depth):
    shape = rng.randrange(10)
    if depth == 0 or shape < 4:
        if rng.randrange(4) == 0:
            values = IntervalSet.points(rng.sample(range(-1, 10), rng.randrange(1, 5)))
            return Member(random_term(rng), values, negated=rng.random() < 0.3)
        return rng.choice(list(COMPARISONS))(random_term(rng), random_term(rng))
    if shape < 9:
        operands = [random_formula(rng, depth - 1) for _ in range(rng.randrange(2, 4))]
        return (And if shape < 6 else Or)(*operands)
    return Not(random_formula(rng, depth - 1))


# -- exhaustive truth ---------------------------------------------------------


def term_values(term):
    """The term's value under each of ``ASSIGNMENTS`` (plain integers: the
    solver's arithmetic does not wrap)."""
    if isinstance(term, Var):
        return VALUES[term]
    if isinstance(term, Const):
        return [term.value] * len(ASSIGNMENTS)
    left, right = term_values(term.left), term_values(term.right)
    sign = 1 if isinstance(term, Add) else -1
    return [x + sign * y for x, y in zip(left, right)]


def models_of(formula):
    """Bit ``i`` is set iff ``ASSIGNMENTS[i]`` satisfies ``formula``."""
    if isinstance(formula, And):
        mask = EVERYWHERE
        for operand in formula.operands:
            mask &= models_of(operand)
        return mask
    if isinstance(formula, Or):
        mask = 0
        for operand in formula.operands:
            mask |= models_of(operand)
        return mask
    if isinstance(formula, Not):
        return EVERYWHERE & ~models_of(formula.operand)
    if isinstance(formula, Member):
        bits = [
            (value in formula.values) != formula.negated
            for value in term_values(formula.term)
        ]
    else:
        holds = COMPARISONS[type(formula)]
        bits = [
            holds(x, y)
            for x, y in zip(term_values(formula.left), term_values(formula.right))
        ]
    return sum(1 << index for index, bit in enumerate(bits) if bit)


def assert_sound(verdict, satisfiable, what):
    """"unknown" is always allowed; "sat" and "unsat" must be right."""
    assert verdict in ("sat", "unsat", "unknown"), what
    if verdict != "unknown":
        assert (verdict == "sat") == satisfiable, what


# -- (a) one form, three routes, one oracle -----------------------------------


def _solved(form):
    return form.domains, form.residual, form.unsat, form.digest


def test_fresh_incremental_and_cloned_forms_agree_with_brute_force():
    rng = random.Random(SEED)
    definite = 0
    for case in range(CASES):
        formulas = [random_formula(rng, 2) for _ in range(rng.randrange(1, 5))]
        masks = [models_of(formula) for formula in formulas]
        what = (SEED, case, formulas)

        solver = IncrementalSolver()
        context, compiled = PathCondition(), PathCondition()
        fork_at = rng.randrange(len(formulas))
        prefix = EVERYWHERE
        for index, formula in enumerate(formulas):
            if index == fork_at:
                fork = context.clone()
            if rng.random() < 0.5:
                junk = random_formula(rng, 1)
                context.push()
                context.assume(junk)
                probe = solver.check(context).verdict
                context.pop()
                assert_sound(probe, bool(prefix & models_of(junk)), (what, junk))
                steps = PathCondition.compile(junk)
                assert solver.probe(context, junk, steps).verdict == probe, (what, junk)
            context.assume(formula)
            # Assuming is applying the compiled steps: the same solved form.
            compiled.apply(formula, PathCondition.compile(formula))
            assert _solved(compiled) == _solved(context), (what, index)
            prefix &= masks[index]
            assert_sound(solver.check(context).verdict, bool(prefix), (what, index))
        for formula in formulas[fork_at:]:
            fork.assume(formula)

        fresh = Solver().check(formulas).verdict
        assert solver.check(context).verdict == fresh, what
        assert solver.check(fork).verdict == fresh, what
        assert_sound(fresh, bool(prefix), what)
        # Popped scopes leave nothing behind, in the log or the solved form.
        assert list(context.formulas) == formulas == list(fork.formulas), what
        assert context.depth == 0 and context.constraint_count() == len(formulas)
        definite += fresh != "unknown"
    # The generator must not drown the comparison in "unknown"s.
    assert definite > CASES * 0.8, definite


def test_preclassified_probe_is_the_scoped_check():
    """``IncrementalSolver.probe_member`` handed ``var ∈ allowed`` already
    classified answers, counts and leaves the form exactly as ``push /
    assume(Member) / check / pop`` does — on satisfiable, residual-carrying
    and unsat forms — and hands back the domain that assume leaves."""
    rng = random.Random(SEED)
    solver = IncrementalSolver()
    stats = solver.stats
    tiers = {"fast": 0, "solved": 0, "unsat_form": 0}
    for case in range(CASES):
        context = PathCondition()
        prefix = EVERYWHERE
        for _ in range(rng.randrange(0, 4)):
            formula = random_formula(rng, 1)
            context.assume(formula)
            prefix &= models_of(formula)
        values = IntervalSet.points(rng.sample(range(-1, 10), rng.randrange(1, 5)))
        guard = Member(rng.choice(VARS), values)
        what = (SEED, case, list(context.formulas), guard)
        solved_form = (dict(context.domains), list(context.residual), context.unsat)

        before = stats.snapshot()
        probed, narrowed = solver.probe_member(context, guard.term, values)
        probed = probed.verdict
        by_probe = stats.since(before)
        assert list(context.formulas) == what[2] and context.depth == 0, what
        assert (dict(context.domains), list(context.residual), context.unsat) == solved_form

        before = stats.snapshot()
        context.push()
        context.assume(guard)
        assumed = context.domains.get(guard.term)
        scoped = solver.check(context).verdict
        context.pop()
        by_scope = stats.since(before)
        # The domain handed back is the one assuming the atom leaves.
        assert narrowed == (None if solved_form[2] else assumed), what

        assert probed == scoped == solver.probe(context, guard).verdict, what
        assert_sound(probed, bool(prefix & models_of(guard)), what)
        assert by_probe.fast_paths == by_scope.fast_paths, what
        # Tier 3 looks the same conjunct set up: a miss first, then the hit.
        lookups = by_probe.cache_hits + by_probe.cache_misses
        assert lookups == by_scope.cache_hits + by_scope.cache_misses == 1 - by_probe.fast_paths
        tiers["fast" if by_probe.fast_paths else "solved"] += 1
        tiers["unsat_form"] += context.unsat
    assert min(tiers.values()) > CASES // 20, tiers


def test_fast_path_verdicts_are_read_only():
    """Tiers 1 and 2 hand every caller the same result object, so writing
    to one must fail rather than change every later fast-path verdict."""
    solver = IncrementalSolver()
    context = PathCondition()
    sat = solver.check(context)
    unsat, _ = solver.probe_member(context, VARS[0], IntervalSet.empty())
    assert (sat.verdict, unsat.verdict) == ("sat", "unsat")
    assert solver.stats.fast_paths == 2
    for result in (sat, unsat):
        for name, value in (("verdict", "unknown"), ("model", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, value)
    assert solver.check(context) is sat and sat.verdict == "sat"


# -- (b) the state's view -----------------------------------------------------

A, B, C = VARS


class TestStateView:
    def test_clone_and_parent_grow_apart(self):
        state = ExecutionState()
        state.add_constraint(Ge(A, Const(1)))
        clone = state.clone()
        state.add_constraint(Le(A, Const(5)))
        clone.add_constraint(Eq(B, Const(2)))
        clone.add_constraint(Ne(C, Const(0)))
        assert state.constraints == (Ge(A, Const(1)), Le(A, Const(5)))
        assert clone.constraints == (
            Ge(A, Const(1)), Eq(B, Const(2)), Ne(C, Const(0)),
        )
        assert (state.constraint_count(), clone.constraint_count()) == (2, 3)
        # ...and so do the solved forms: only the clone pinned b.
        assert B not in state.condition.domains
        assert clone.condition.domains[B] == IntervalSet.point(2)

    def test_snapshot_is_a_prefix_of_the_log_whatever_grows_later(self):
        state = ExecutionState()
        first, second = Ge(A, Const(1)), Lt(Sub(A, B), Const(3))
        state.add_constraint(first)
        state.add_constraint(second)
        state.snapshot_port("a:in0")
        clone = state.clone()
        state.add_constraint(Eq(C, Const(7)))
        clone.add_constraint(Eq(C, Const(6)))
        for owner in (state, clone):
            (snapshot,) = owner.snapshots_for("a:in0")
            assert snapshot.constraint_count == 2
            assert list(snapshot.constraints) == [first, second]
            assert snapshot.contains(first) and snapshot.contains(second)
            assert not snapshot.contains(Eq(C, Const(7)))
            assert not snapshot.contains(Eq(C, Const(6)))

    def test_constraints_is_a_read_only_view(self):
        state = ExecutionState()
        state.add_constraint(Ge(A, Const(1)))
        view = state.constraints
        state.add_constraint(Le(A, Const(5)))
        assert view == (Ge(A, Const(1)),)  # a view never grows under a reader
        assert not hasattr(view, "append")

    def test_recorded_path_keeps_the_asserted_sequence_in_order(self):
        """``PathRecord.constraints`` is what the program asserted — not its
        NNF, not the solved form — in the order it asserted it."""
        network = Network()
        element = NetworkElement("box", ["in0"], ["out0", "out1"])
        element.set_input_program(
            "in0",
            InstructionBlock(
                Constrain(SNot(SEq(TcpSrc, 1000))),
                If(SEq(TcpDst, 80), Forward("out0"), Forward("out1")),
            ),
        )
        network.add_element(element)
        result = SymbolicExecutor(network).inject(
            models.symbolic_tcp_packet(), "box", "in0"
        )
        (then_path,) = result.reaching("box", "out0")
        (else_path,) = result.reaching("box", "out1")
        src = then_path.state.read_header(TcpSrc)
        dst = then_path.state.read_header(TcpDst)
        asserted = Not(Eq(src, Const(1000)))  # as written, not Ne(src, 1000)
        assert then_path.constraints == [asserted, Eq(dst, Const(80))]
        assert else_path.constraints == [asserted, Ne(dst, Const(80))]
        assert else_path.constraints == list(else_path.state.constraints)
