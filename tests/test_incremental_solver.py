"""Tests for the incremental solver: push/pop scopes, domain propagation,
result memoization, and the engine-level accounting around them."""

import pytest

from repro import ExecutionSettings, Network, NetworkElement, SymbolicExecutor, models
from repro.sefl import (
    Constrain,
    Eq as SEq,
    Forward,
    If,
    InstructionBlock,
    TcpDst,
    TcpSrc,
)
from repro.solver import IncrementalSolver, Solver
from repro.solver.ast import Add, Const, Eq, Ge, Le, Lt, Member, Ne, Or, Var
from repro.solver.intervals import IntervalSet

X = Var("x", 16)
Y = Var("y", 16)


class TestSolverContext:
    def test_domain_only_constraints_are_fast_paths(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Ge(X, Const(10)))
        ctx.assume(Le(X, Const(20)))
        assert ctx.check().is_sat
        ctx.assume(Eq(X, Const(15)))
        assert ctx.check().is_sat
        ctx.assume(Eq(X, Const(16)))
        assert ctx.check().is_unsat
        # Every query above was decided by propagation, not the base solver.
        assert inc.stats.calls == 0
        assert inc.stats.fast_paths == 3

    def test_push_pop_restores_domains_and_verdict(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Eq(X, Const(5)))
        assert ctx.check().is_sat

        ctx.push()
        ctx.assume(Ne(X, Const(5)))
        assert ctx.check().is_unsat
        ctx.pop()

        assert ctx.check().is_sat
        assert ctx.constraint_count() == 1

        ctx.push()
        ctx.assume(Lt(X, Const(100)))
        assert ctx.check().is_sat
        ctx.pop()
        assert ctx.constraint_count() == 1

    def test_nested_scopes(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Ge(X, Const(10)))
        ctx.push()
        ctx.assume(Le(X, Const(10)))  # x == 10
        ctx.push()
        ctx.assume(Ne(X, Const(10)))
        assert ctx.check().is_unsat
        ctx.pop()
        assert ctx.check().is_sat
        ctx.pop()
        assert ctx.check().is_sat
        assert ctx.depth == 0

    def test_pop_without_push_raises(self):
        ctx = IncrementalSolver().context()
        with pytest.raises(RuntimeError):
            ctx.pop()

    def test_clone_isolates_branches(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Ge(X, Const(10)))
        sibling = ctx.clone()
        ctx.assume(Lt(X, Const(5)))
        assert ctx.check().is_unsat
        assert sibling.check().is_sat
        sibling.assume(Le(X, Const(10)))
        assert sibling.check().is_sat

    def test_member_and_disjunction_absorbed_into_domains(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Member(X, IntervalSet.points([1, 5, 9])))
        ctx.assume(Or(Eq(X, Const(5)), Eq(X, Const(7))))
        assert ctx.check().is_sat
        ctx.assume(Ne(X, Const(5)))
        assert ctx.check().is_unsat
        assert inc.stats.calls == 0  # never left the propagation tier

    def test_residual_atoms_fall_back_to_base_solver(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Eq(X, Add(Y, Const(1))))  # difference atom: not domain-able
        ctx.assume(Eq(Y, Const(4)))
        result = ctx.check()
        assert result.is_sat
        assert inc.stats.calls == 1
        assert inc.stats.cache_misses == 1
        # Verdict parity with a from-scratch solve of the same conjunction.
        assert Solver().check([Eq(X, Add(Y, Const(1))), Eq(Y, Const(4))]).is_sat

    def test_agrees_with_base_solver_on_mixed_formulas(self):
        cases = [
            [Eq(X, Add(Y, Const(1))), Eq(Y, Const(4)), Eq(X, Const(5))],
            [Eq(X, Add(Y, Const(1))), Eq(Y, Const(4)), Eq(X, Const(6))],
            [Or(Eq(X, Add(Y, Const(1))), Eq(X, Y)), Eq(Y, Const(9))],
            [Ge(X, Const(10)), Le(X, Const(9))],
            # Member over a two-variable term (outside the single-variable
            # fragment) followed by domain constraints that contradict each
            # other: both tiers must report unsat, not unknown-vs-unsat.
            [
                Member(Add(X, Y), IntervalSet.points([7, 9])),
                Eq(X, Const(5)),
                Ge(X, Const(200)),
            ],
            # Same, but satisfiable remainder: both must report unknown
            # (the unsupported Member is dropped, so sat degrades).
            [Member(Add(X, Y), IntervalSet.points([7, 9])), Eq(X, Const(5))],
        ]
        for conjunction in cases:
            fresh = Solver().check(conjunction).verdict
            ctx = IncrementalSolver().context()
            for formula in conjunction:
                ctx.assume(formula)
            assert ctx.check().verdict == fresh, conjunction

    def test_engine_parity_with_unsupported_member_on_path(self):
        """Regression: a OneOf over a derived two-variable field used to make
        the base solver bail out 'unknown' while the incremental context kept
        propagating to 'unsat', so the two modes explored different paths."""
        from repro.sefl import Assign, Constrain, Ge as SGe, Minus, OneOf, IpTtl

        program = InstructionBlock(
            Assign(TcpDst, Minus(TcpSrc, IpTtl)),
            Constrain(OneOf(TcpDst, [7, 9])),
            Constrain(SEq(TcpSrc, 5)),
            Constrain(SGe(TcpSrc, 200)),
            Forward("out0"),
        )
        network = Network()
        element = NetworkElement("box", ["in0"], ["out0"])
        element.set_input_program("in0", program)
        network.add_element(element)

        def run(incremental):
            settings = ExecutionSettings(use_incremental_solver=incremental)
            return SymbolicExecutor(network, settings=settings).inject(
                models.symbolic_tcp_packet(), "box", "in0"
            )

        legacy, incremental = run(False), run(True)
        assert legacy.summary_counts() == incremental.summary_counts()
        assert incremental.summary_counts() == {"failed": 1}


class TestMemoizationCache:
    def test_cache_hit_on_canonically_equal_formulas(self):
        inc = IncrementalSolver()
        diff = Eq(X, Add(Y, Const(1)))  # keeps a residual -> full check
        bound = Ge(Y, Const(3))

        first = inc.context()
        first.assume(diff)
        first.assume(bound)
        assert first.check().is_sat
        assert inc.cache_info() == (0, 1, 1)

        # Same conjunction asserted in the opposite order: canonicalization
        # (order/duplicate-insensitive) must produce a cache hit.
        second = inc.context()
        second.assume(bound)
        second.assume(diff)
        second.assume(bound)  # duplicate conjunct, same canonical key
        assert second.check().is_sat
        assert inc.cache_info() == (1, 1, 1)
        assert inc.stats.calls == 1  # only one real solve happened

    def test_lru_eviction_bounds_the_cache(self):
        inc = IncrementalSolver(max_cache_entries=2)
        conjunctions = [
            [Eq(X, Add(Y, Const(offset)))] for offset in range(4)
        ]
        for conjunction in conjunctions:
            ctx = inc.context()
            for formula in conjunction:
                ctx.assume(formula)
            ctx.check()
        assert inc.cache_info()[2] == 2  # bounded, oldest entries evicted
        assert len(inc.cache._exact) == 2  # the exact-set key memo too
        # The most recent conjunction is still cached...
        ctx = inc.context()
        ctx.assume(conjunctions[-1][0])
        ctx.check()
        assert inc.stats.cache_hits == 1
        # ...and the evicted oldest one re-solves (a miss, still cached OK).
        ctx = inc.context()
        ctx.assume(conjunctions[0][0])
        ctx.check()
        assert inc.stats.cache_misses == 5

    def test_clear_cache(self):
        inc = IncrementalSolver()
        ctx = inc.context()
        ctx.assume(Eq(X, Add(Y, Const(1))))
        ctx.check()
        assert inc.cache_info()[2] == 1
        inc.clear_cache()
        assert inc.cache_info()[2] == 0


def _branching_network():
    """One element, two constraints and a symbolic If — a few solver queries
    per inject."""
    network = Network()
    element = NetworkElement("box", ["in0"], ["out0", "out1"])
    element.set_input_program(
        "in0",
        InstructionBlock(
            Constrain(SEq(TcpSrc, 1000)),
            If(SEq(TcpDst, 80), Forward("out0"), Forward("out1")),
        ),
    )
    network.add_element(element)
    return network


class TestEngineAccounting:
    def test_stats_survive_across_injects_and_deltas_are_correct(self):
        executor = SymbolicExecutor(_branching_network())
        first = executor.inject(models.symbolic_tcp_packet(), "box", "in0")
        stats_after_first = (
            executor.solver.stats.calls,
            executor.solver.stats.fast_paths,
            executor.solver.stats.cache_hits,
            executor.solver.stats.cache_misses,
        )
        second = executor.inject(models.symbolic_tcp_packet(), "box", "in0")

        # Global stats accumulate across injects...
        assert executor.solver.stats.fast_paths == (
            stats_after_first[1] + second.solver_fast_paths
        )
        assert executor.solver.stats.calls == (
            stats_after_first[0] + second.solver_calls
        )
        # ...while each result reports only its own delta.
        assert first.solver_fast_paths == stats_after_first[1]
        assert second.solver_fast_paths == first.solver_fast_paths
        assert second.solver_cache_hits >= 0
        assert (
            executor.solver.stats.cache_hits
            == first.solver_cache_hits + second.solver_cache_hits
        )
        assert (
            executor.solver.stats.cache_misses
            == first.solver_cache_misses + second.solver_cache_misses
        )

    def test_incremental_reduces_solver_calls_at_least_2x(self):
        """The acceptance bar: on a branching workload the incremental
        engine does at most half the full solver calls of the legacy one,
        while exploring the identical path set."""
        legacy_settings = ExecutionSettings(use_incremental_solver=False)
        legacy = SymbolicExecutor(
            _branching_network(), settings=legacy_settings
        ).inject(models.symbolic_tcp_packet(), "box", "in0")

        incremental = SymbolicExecutor(_branching_network()).inject(
            models.symbolic_tcp_packet(), "box", "in0"
        )

        def key(result):
            return sorted(
                (p.status, str(p.last_port), tuple(p.state.port_trace))
                for p in result.paths
            )

        assert key(legacy) == key(incremental)
        assert legacy.solver_calls >= 3
        assert incremental.solver_calls * 2 <= legacy.solver_calls

    def test_reused_state_is_bound_to_no_executor(self):
        """A state is bound to no solver: the same initial state serves an
        incremental executor and then a reference-mode one with no
        rebinding, and the reference run still takes no fast path."""
        from repro.core.state import ExecutionState
        from repro.solver.ast import Var

        state = ExecutionState()
        state.add_constraint(Ge(Var("carried", 8), Const(3)))

        def run(**settings):
            executor = SymbolicExecutor(
                _branching_network(), settings=ExecutionSettings(**settings)
            )
            result = executor.inject(
                models.symbolic_tcp_packet(), "box", "in0",
                initial_state=state.clone(),
            )
            # Every check went through (and was counted by) this executor.
            assert result.solver_stats == executor.solver.stats
            return result

        incremental = run()
        reference = run(use_incremental_solver=False)
        assert incremental.solver_fast_paths > 0
        assert reference.solver_fast_paths == 0
        assert reference.solver_calls >= 3
        assert reference.summary_counts() == incremental.summary_counts()
        for result in (incremental, reference):
            assert all(
                path.constraints[0] == state.constraints[0] for path in result.paths
            )

    def test_json_report_includes_solver_instrumentation(self):
        import json

        result = SymbolicExecutor(_branching_network()).inject(
            models.symbolic_tcp_packet(), "box", "in0"
        )
        payload = json.loads(result.to_json())
        assert payload["solver_fast_paths"] == result.solver_fast_paths
        assert payload["solver_cache_hits"] == result.solver_cache_hits
        assert payload["solver_cache_misses"] == result.solver_cache_misses
