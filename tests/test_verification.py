"""Tests for the verification queries of §6: reachability helpers, invariants,
header visibility, subsumption and memory-safety reporting."""

import pytest

from repro import Network, NetworkElement, SymbolicExecutor, models
from repro.core import checks as V
from repro.sefl import (
    Assign,
    Constrain,
    Eq,
    Forward,
    If,
    InstructionBlock,
    IpDst,
    IpSrc,
    Le,
    SymbolicValue,
    TcpDst,
    TcpPayload,
    ip_to_number,
)
from repro.solver.ast import Const, Eq as SEq, Ne as SNe, Var
from repro.solver.solver import Solver


def run_single(program, packet=None):
    network = Network()
    element = NetworkElement("box", ["in0"], ["out0", "out1"])
    element.set_input_program("in0", program)
    network.add_element(element)
    executor = SymbolicExecutor(network)
    return executor.inject(packet or models.symbolic_tcp_packet(), "box", "in0")


def _unsatisfiable(result):
    """Failed paths caused by unsatisfiable constraints (filtered packets)."""
    return [
        record
        for record in result.failed()
        if record.stop_reason.startswith("constraint unsatisfiable")
    ]


class TestReachability:
    def test_reachable_paths_and_helpers(self):
        result = run_single(If(Eq(TcpDst, 80), Forward("out0"), Forward("out1")))
        assert V.is_reachable(result, "box", "out0")
        assert V.is_reachable(result, "box", "out1")
        assert not V.is_reachable(result, "box", "out7")
        assert len(result.reaching("box")) == 2

    def test_admitted_values_reflect_constraints(self):
        result = run_single(
            InstructionBlock(Constrain(Eq(TcpDst, 8080)), Forward("out0"))
        )
        path = result.reaching("box", "out0")[0]
        values = V.admitted_values(path, TcpDst, samples=3)
        assert values == [8080]

    def test_admitted_values_multiple_samples(self):
        result = run_single(
            InstructionBlock(Constrain(Le(TcpDst, 2)), Forward("out0"))
        )
        path = result.reaching("box", "out0")[0]
        values = V.admitted_values(path, TcpDst, samples=5)
        assert set(values) <= {0, 1, 2}
        assert len(values) == 3


class TestInvariantsAndVisibility:
    def test_invariant_when_untouched(self):
        result = run_single(Forward("out0"))
        path = result.delivered()[0]
        assert V.field_invariant(path, IpDst)

    def test_not_invariant_after_rewrite(self):
        result = run_single(
            InstructionBlock(Assign(IpDst, ip_to_number("1.2.3.4")), Forward("out0"))
        )
        path = result.delivered()[0]
        assert not V.field_invariant(path, IpDst)

    def test_invariant_after_rewrite_back(self):
        program = InstructionBlock(
            Assign(IpDst, ip_to_number("1.2.3.4")),
            Assign(IpDst, IpSrc),
            Assign(IpSrc, IpDst),  # both now hold the original IpSrc symbol
            Forward("out0"),
        )
        result = run_single(program)
        path = result.delivered()[0]
        assert V.header_visible(path, IpSrc, path.state.read_variable(IpDst))

    def test_invariant_forced_by_constraints(self):
        # The field is overwritten with a fresh symbol, but a constraint pins
        # the fresh symbol to the original value: semantically invariant.
        program = InstructionBlock(
            Assign("copy", SymbolicValue("copy", 16)),
            Forward("out0"),
        )
        # Simpler: constrain TcpDst == 80 at entry and reassign to 80.
        program = InstructionBlock(
            Constrain(Eq(TcpDst, 80)),
            Assign(TcpDst, 80),
            Forward("out0"),
        )
        result = run_single(program)
        path = result.delivered()[0]
        assert V.field_invariant(path, TcpDst)

    def test_header_visibility_distinguishes_masking(self):
        result = run_single(
            InstructionBlock(
                Assign(TcpPayload, SymbolicValue("cipher", 32)), Forward("out0")
            )
        )
        path = result.delivered()[0]
        original = path.state.variable_history(TcpPayload)[0]
        assert not V.header_visible(path, TcpPayload, original)

    def test_header_visible_when_unchanged(self):
        result = run_single(Forward("out0"))
        path = result.delivered()[0]
        original = path.state.variable_history(TcpDst)[0]
        assert V.header_visible(path, TcpDst, original)

    def test_field_concrete_value(self):
        from repro.sefl import TcpSrc

        result = run_single(
            InstructionBlock(Assign(TcpDst, 443), Forward("out0"))
        )
        path = result.delivered()[0]
        assert V.field_concrete_value(path, TcpDst) == 443
        assert V.field_concrete_value(path, TcpSrc) is None


class TestSubsumption:
    def test_identical_states_subsume(self):
        x = Var("x", 16)
        constraints = [SEq(x, Const(5))]
        assert V.state_subsumed(constraints, constraints)

    def test_more_specific_new_state_is_not_a_loop(self):
        x = Var("x", 16)
        old = [SEq(x, Const(5))]  # old: x == 5
        new = [SEq(x, Const(5)), SNe(x, Const(6))]
        # new covers old (every x==5 packet satisfies new), so subsumed.
        assert V.state_subsumed(old, new)

    def test_disjoint_states_do_not_subsume(self):
        x = Var("x", 16)
        assert not V.state_subsumed([SEq(x, Const(5))], [SEq(x, Const(6))])

    def test_narrower_new_state_does_not_subsume(self):
        from repro.solver.ast import Le as SLe

        x = Var("x", 16)
        old = [SLe(x, Const(10))]
        new = [SEq(x, Const(3))]
        assert not V.state_subsumed(old, new)


class TestAdmittedValuesAdversarial:
    """Edge cases for the witness-enumeration helper."""

    def test_zero_samples_returns_nothing(self):
        result = run_single(Forward("out0"))
        path = result.delivered()[0]
        assert V.admitted_values(path, TcpDst, samples=0) == []

    def test_exhausted_domain_stops_early(self):
        # TcpDst pinned to {80, 443}: asking for 10 witnesses must yield
        # exactly the two admissible values, not loop or fabricate more.
        from repro.sefl import OneOf

        result = run_single(
            InstructionBlock(Constrain(OneOf(TcpDst, [80, 443])), Forward("out0"))
        )
        path = result.reaching("box", "out0")[0]
        values = V.admitted_values(path, TcpDst, samples=10)
        assert sorted(values) == [80, 443]

    def test_witnesses_are_distinct(self):
        result = run_single(Forward("out0"))
        path = result.delivered()[0]
        values = V.admitted_values(path, TcpDst, samples=4)
        assert len(values) == len(set(values)) == 4

    def test_contradictory_constraints_admit_nothing(self):
        # Build a path record whose constraints are unsatisfiable by hand:
        # delivered paths never carry them, but callers can ask anyway.
        result = run_single(Forward("out0"))
        path = result.delivered()[0]
        path.state.add_constraint(SEq(Var("z", 8), Const(1)))
        path.state.add_constraint(SEq(Var("z", 8), Const(2)))
        assert V.admitted_values(path, TcpDst, samples=3) == []

    def test_rewritten_field_samples_current_value(self):
        # After Assign(TcpDst, 7) the only admitted value is 7 even though
        # the injected symbol ranged over the full 16-bit space.
        result = run_single(
            InstructionBlock(Assign(TcpDst, 7), Forward("out0"))
        )
        path = result.delivered()[0]
        assert V.admitted_values(path, TcpDst, samples=3) == [7]


class TestSubsumptionAdversarial:
    def test_empty_old_state_is_subsumed_by_empty_new(self):
        assert V.state_subsumed([], [])

    def test_unconstrained_old_not_subsumed_by_constrained_new(self):
        x = Var("x", 16)
        # Old admits everything; new only x==5: not a loop.
        assert not V.state_subsumed([], [SEq(x, Const(5))])

    def test_constrained_old_subsumed_by_unconstrained_new(self):
        x = Var("x", 16)
        assert V.state_subsumed([SEq(x, Const(5))], [])

    def test_unsatisfiable_old_state_is_vacuously_subsumed(self):
        # An old state admitting no packets is covered by anything — the
        # "loop" is vacuous but the implication holds, exactly as §6 defines.
        x = Var("x", 16)
        contradiction = [SEq(x, Const(1)), SEq(x, Const(2))]
        assert V.state_subsumed(contradiction, [SEq(x, Const(9))])

    def test_semantically_equal_but_syntactically_different(self):
        from repro.solver.ast import Le as SLe, Lt as SLt

        x = Var("x", 16)
        # x <= 4  vs  x < 5: same set, different syntax — must subsume both ways.
        assert V.state_subsumed([SLe(x, Const(4))], [SLt(x, Const(5))])
        assert V.state_subsumed([SLt(x, Const(5))], [SLe(x, Const(4))])


class TestHeaderVisibilityAdversarial:
    def test_not_visible_after_fresh_symbol_even_if_width_matches(self):
        result = run_single(
            InstructionBlock(
                Assign(TcpDst, SymbolicValue("rewrite", 16)), Forward("out0")
            )
        )
        path = result.delivered()[0]
        original = path.state.variable_history(TcpDst)[0]
        assert not V.header_visible(path, TcpDst, original)

    def test_visible_when_fresh_symbol_is_pinned_to_original(self):
        # Overwritten with a fresh symbol, but a constraint forces the fresh
        # symbol to equal the original: semantically still visible.
        from repro.sefl import Allocate

        program = InstructionBlock(
            Allocate("stash", 16),
            Assign("stash", SymbolicValue("stash", 16)),
            Constrain(Eq("stash", TcpDst)),
            Assign(TcpDst, "stash"),
            Forward("out0"),
        )
        result = run_single(program)
        path = result.delivered()[0]
        original = path.state.variable_history(TcpDst)[0]
        assert V.header_visible(path, TcpDst, original)

    def test_concrete_overwrite_visible_only_under_matching_constraint(self):
        # Without the constraint the original symbol may differ from 80.
        result = run_single(
            InstructionBlock(Assign(TcpDst, 80), Forward("out0"))
        )
        path = result.delivered()[0]
        original = path.state.variable_history(TcpDst)[0]
        assert not V.header_visible(path, TcpDst, original)
        # With the constraint pinning the original to 80 it is visible.
        result = run_single(
            InstructionBlock(
                Constrain(Eq(TcpDst, 80)), Assign(TcpDst, 80), Forward("out0")
            )
        )
        path = result.delivered()[0]
        original = path.state.variable_history(TcpDst)[0]
        assert V.header_visible(path, TcpDst, original)


class TestFailureClassification:
    def test_memory_safety_violations_reported(self):
        from repro.sefl import Tag

        result = run_single(
            InstructionBlock(Constrain(Eq(Tag("L3") + 999, 1)), Forward("out0"))
        )
        assert len(V.memory_safety_violations(result)) == 1
        assert not _unsatisfiable(result)

    def test_constraint_violations_reported(self):
        result = run_single(
            InstructionBlock(
                Constrain(Eq(TcpDst, 1)), Constrain(Eq(TcpDst, 2)), Forward("out0")
            )
        )
        assert len(_unsatisfiable(result)) == 1
        assert not V.memory_safety_violations(result)
