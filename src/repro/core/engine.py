"""The SymNet symbolic execution engine.

The engine injects a symbolic packet into an input port of a network element
and propagates it through the topology, executing the SEFL program attached
to every port it crosses.  Each feasible combination of branch decisions
becomes one execution path; infeasible branches are discharged by the
constraint solver (the role Z3 plays in the paper).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import MemorySafetyError, ModelError
from repro.core.paths import ExecutionResult, PathRecord, PathStatus
from repro.core.settings import RunSettings
from repro.core.state import ExecutionState
from repro.core.strategy import ExplorationStrategy, make_strategy
from repro.core.values import SymbolFactory, concrete_value
from repro.network.element import NetworkElement
from repro.network.ports import PortId
from repro.network.topology import Network
from repro.sefl import expressions as sx
from repro.sefl import instructions as si
from repro.sefl.fields import HeaderField, TagOffset
from repro.solver import ast as sa
from repro.solver.ast import Const, Formula, Term
from repro.solver.form import PathCondition
from repro.solver.incremental import IncrementalSolver
from repro.solver.solver import Solver
from repro.solver.verdict_cache import VerdictCache


#: SEFL node type -> the solver node it translates to, operands left to right.
_ARITHMETIC = {sx.Plus: sa.Add, sx.Minus: sa.Sub}
_COMPARISONS = {
    sx.Eq: sa.Eq, sx.Ne: sa.Ne, sx.Lt: sa.Lt, sx.Le: sa.Le, sx.Gt: sa.Gt, sx.Ge: sa.Ge,
}


@dataclass
class ExecutionSettings:
    """Tunables for a symbolic execution run.  The budgets and the strategy
    default to what :class:`~repro.core.settings.RunSettings` declares."""

    max_hops: int = RunSettings.max_hops
    detect_loops: bool = True
    record_failed_paths: bool = True
    max_paths: int = RunSettings.max_paths
    #: Worklist discipline: a name registered in
    #: :data:`repro.core.strategy.STRATEGIES` ("dfs", "bfs", "coverage") or a
    #: zero-argument factory returning an ExplorationStrategy.
    strategy: Union[str, Callable[[], ExplorationStrategy]] = RunSettings.strategy
    #: Answer feasibility checks off the path condition's solved form
    #: (propagated domains + memoized full checks).  Off is the reference
    #: mode the differential tests compare against: no fast paths, every
    #: check re-solves the whole path conjunction from scratch.
    use_incremental_solver: bool = True


@dataclass
class _Outcome:
    """Intermediate result of executing a port program on one state."""

    state: ExecutionState
    forwards: List[str] = field(default_factory=list)
    done: bool = False


class SymbolicExecutor:
    """Symbolic execution of SEFL models over a :class:`Network`."""

    def __init__(
        self,
        network: Network,
        solver: Optional[Solver] = None,
        settings: Optional[ExecutionSettings] = None,
        symbols: Optional[SymbolFactory] = None,
        verdict_cache: Optional["VerdictCache"] = None,
        shared_cache: Optional[object] = None,
    ) -> None:
        self.network = network
        self.solver = solver if solver is not None else Solver()
        self.settings = settings if settings is not None else ExecutionSettings()
        self.symbols = symbols if symbols is not None else SymbolFactory()
        # Shares the base solver (and its stats); the verdict cache persists
        # across inject() calls so repeated analyses reuse verdicts.  Pass
        # ``verdict_cache`` to share one cache across executors (campaign
        # workers do, per-process) and ``shared_cache`` to add a
        # cross-process tier (a Manager dict; see solver/verdict_cache.py).
        self.incremental = IncrementalSolver(
            self.solver, verdict_cache=verdict_cache, shared_cache=shared_cache
        )
        # The one solver-mode choice: who answers "is this path condition
        # satisfiable?".  States are bound to neither.
        if self.settings.use_incremental_solver:
            self._check = self.incremental.check
        else:
            self._check = lambda form: self.solver.check(form.formulas)

    # ------------------------------------------------------------------ public

    def inject(
        self,
        packet_program: si.Instruction,
        element: str,
        port: str = "in0",
        initial_state: Optional[ExecutionState] = None,
    ) -> ExecutionResult:
        """Build a packet with ``packet_program`` and inject it at
        ``element:port``, returning every explored path."""
        start = time.perf_counter()
        stats = self.solver.stats
        before = stats.snapshot()

        result = ExecutionResult(injected_at=PortId(element, port))
        state = initial_state if initial_state is not None else ExecutionState(self.symbols)

        # The injection program runs outside any element; it must not forward.
        injected = self._run_program(packet_program, state, element=None)
        frontier = make_strategy(self.settings.strategy)
        for outcome in injected:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, None)
                continue
            if outcome.forwards:
                raise ModelError("packet construction programs must not forward")
            frontier.push((outcome.state, element, port))

        while frontier:
            if len(result.paths) >= self.settings.max_paths:
                result.truncated = True
                break
            current, element_name, in_port = frontier.pop()
            self._step(current, element_name, in_port, frontier, result)

        # Publish any verdicts still buffered in a batched shared tier
        # *before* the stats deltas are read, so the run's own report sees
        # its own flushes (and another worker never waits a whole extra job
        # for them).  A broken proxy only loses the shared tier.
        shared = self.incremental.shared
        if shared is not None and hasattr(shared, "flush"):
            # ShardedTier.flush never raises (it degrades itself and counts
            # the failure); the guard covers duck-typed tiers that do.
            try:
                shared.flush()
            except Exception:
                self.incremental.shared = None
                stats.record_degraded_operation()

        result.elapsed_seconds = time.perf_counter() - start
        result.solver_stats = stats.since(before)
        return result

    # ------------------------------------------------------------ propagation

    def _step(
        self,
        state: ExecutionState,
        element_name: str,
        in_port: str,
        frontier: ExplorationStrategy,
        result: ExecutionResult,
    ) -> None:
        element = self.network.element(element_name)
        port_id = PortId(element_name, in_port)
        state.current_scope = element_name
        state.record_port(str(port_id))
        state.hop_count += 1

        if state.hop_count > self.settings.max_hops:
            # A budget like max_paths, not a verdict: the path keeps the
            # "loop" status it always had, but nothing proved one.
            state.status = PathStatus.LOOP
            state.stop_reason = f"hop limit ({self.settings.max_hops}) exceeded"
            result.truncated = True
            self._record(result, state, port_id, cut_off=True)
            return

        if self.settings.detect_loops and self._detect_loop(state, str(port_id)):
            state.status = PathStatus.LOOP
            state.stop_reason = f"loop detected at {port_id}"
            self._record(result, state, port_id)
            return
        state.snapshot_port(str(port_id))

        outcomes = self._run_program(element.input_program(in_port), state, element)
        for outcome in outcomes:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, port_id)
                continue
            if not outcome.forwards:
                outcome.state.status = PathStatus.DROPPED
                outcome.state.stop_reason = (
                    outcome.state.stop_reason or f"no forward from {port_id}"
                )
                self._record(result, outcome.state, port_id)
                continue
            for index, out_port in enumerate(outcome.forwards):
                branch_state = (
                    outcome.state
                    if index == len(outcome.forwards) - 1
                    else outcome.state.clone()
                )
                self._emit(branch_state, element, out_port, frontier, result)

    def _emit(
        self,
        state: ExecutionState,
        element: NetworkElement,
        out_port: str,
        frontier: ExplorationStrategy,
        result: ExecutionResult,
    ) -> None:
        """Run the output-port program and follow the outgoing link."""
        out_id = PortId(element.name, out_port)
        state.record_port(str(out_id))
        outcomes = self._run_program(element.output_program(out_port), state, element)
        for outcome in outcomes:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, out_id)
                continue
            if outcome.forwards:
                raise ModelError(
                    f"output port program at {out_id} attempted to forward"
                )
            destination = self.network.link_from(element.name, out_port)
            if destination is None:
                outcome.state.status = PathStatus.DELIVERED
                outcome.state.stop_reason = f"delivered at {out_id} (no outgoing link)"
                self._record(result, outcome.state, out_id)
            elif not self.network.has_element(destination.element):
                # A dangling link (typo'd element in the topology file, kept
                # by the permissive parser so Network.validate() can report
                # it): terminate explicitly instead of crashing mid-run.
                outcome.state.status = PathStatus.DROPPED
                outcome.state.stop_reason = (
                    f"dangling link {out_id} -> {destination} (unknown element)"
                )
                self._record(result, outcome.state, out_id)
            else:
                frontier.push(
                    (outcome.state, destination.element, destination.port)
                )

    def _detect_loop(self, state: ExecutionState, port_key: str) -> bool:
        """Paper §6: a loop exists when the new state at a previously-visited
        port contains all values allowed by the old state (solve ``old ∧ ¬new``
        and look for a counterexample)."""
        snapshots = state.snapshots_for(port_key)
        if not snapshots:
            return False
        constraints = state.constraints
        new_formula = None
        for snapshot in snapshots:
            # Structural fast path.  Constraints are append-only along a
            # path, so the snapshot conjunction is a prefix of the current
            # one: new = old ∧ suffix.  If every suffix conjunct already
            # appears (structurally) in the old set, old implies new, hence
            # old ∧ ¬new is unsat — a loop — with no solver work.  The
            # common case (pure forwarding loops) has an empty suffix.
            suffix = constraints[snapshot.constraint_count:]
            if all(snapshot.contains(formula) for formula in suffix):
                return True
            if new_formula is None:
                new_formula = sa.conjoin(constraints)
            # Loop checks at symmetric ports differ only in symbol names, so
            # the canonical verdict cache shares them across paths — and, in
            # campaigns, across jobs.
            query = PathCondition()
            query.assume(
                sa.And(sa.conjoin(snapshot.constraints), sa.Not(new_formula))
            )
            if self._check(query).is_unsat:
                return True
        return False

    def _record(
        self,
        result: ExecutionResult,
        state: ExecutionState,
        port: Optional[PortId],
        cut_off: bool = False,
    ) -> None:
        """Append a terminated state to the result, honouring record settings."""
        if state.status == PathStatus.FAILED and not self.settings.record_failed_paths:
            return
        result.add(
            PathRecord(
                state=state,
                status=state.status,
                stop_reason=state.stop_reason,
                last_port=port,
                cut_off=cut_off,
            )
        )

    # -------------------------------------------------------------- execution

    def _run_program(
        self,
        program: si.Instruction,
        state: ExecutionState,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        """Execute ``program`` on ``state`` and return all resulting outcomes."""
        return self._execute(program, _Outcome(state), element)

    def _execute(
        self,
        instruction: si.Instruction,
        outcome: _Outcome,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        state = outcome.state
        if outcome.done or not state.is_alive:
            return [outcome]

        if isinstance(instruction, si.NoOp):
            return [outcome]

        if isinstance(instruction, si.InstructionBlock):
            pending = [outcome]
            for child in instruction.instructions:
                next_pending: List[_Outcome] = []
                for item in pending:
                    if item.done or not item.state.is_alive:
                        next_pending.append(item)
                    else:
                        next_pending.extend(self._execute(child, item, element))
                pending = next_pending
            return pending

        state.record_instruction(instruction)

        try:
            return self._execute_simple(instruction, outcome, element)
        except MemorySafetyError as exc:
            state.fail(f"memory safety violation: {exc}")
            outcome.done = True
            return [outcome]

    def _execute_simple(
        self,
        instruction: si.Instruction,
        outcome: _Outcome,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        state = outcome.state

        if isinstance(instruction, si.Allocate):
            variable = instruction.variable
            if isinstance(variable, str):
                state.allocate_metadata(
                    variable,
                    instruction.size,
                    local=instruction.visibility == si.LOCAL,
                )
            else:
                if instruction.size is None:
                    raise MemorySafetyError(
                        f"header allocation of {state.describe_variable(variable)} "
                        "requires an explicit size"
                    )
                state.allocate_header(variable, instruction.size)
            return [outcome]

        if isinstance(instruction, si.Deallocate):
            variable = instruction.variable
            if isinstance(variable, str):
                state.deallocate_metadata(variable, instruction.size)
            else:
                state.deallocate_header(variable, instruction.size)
            return [outcome]

        if isinstance(instruction, si.Assign):
            term = self._eval(instruction.expression, state)
            state.write_variable(instruction.variable, term)
            return [outcome]

        if isinstance(instruction, si.CreateTag):
            state.create_tag(instruction.name, self._eval_address(instruction.value, state))
            return [outcome]

        if isinstance(instruction, si.DestroyTag):
            state.destroy_tag(instruction.name)
            return [outcome]

        if isinstance(instruction, si.Constrain):
            state.add_constraint(self._condition(instruction.condition, state))
            if self._check(state.condition).is_unsat:
                state.fail(instruction.unsatisfiable_reason)
                outcome.done = True
            return [outcome]

        if isinstance(instruction, si.Fail):
            state.fail(instruction.message)
            outcome.done = True
            return [outcome]

        if isinstance(instruction, si.If):
            return self._execute_if(instruction, outcome, element)

        if isinstance(instruction, si.For):
            return self._execute_for(instruction, outcome, element)

        if isinstance(instruction, si.Forward):
            port = self._resolve_port(instruction.port, element)
            outcome.forwards = [port]
            outcome.done = True
            return [outcome]

        if isinstance(instruction, si.Fork):
            ports = [self._resolve_port(p, element) for p in instruction.ports]
            if not ports:
                # A Fork with no output ports must not silently vanish the
                # state: terminate it as an explicit drop.
                state.status = PathStatus.DROPPED
                state.stop_reason = "Fork with no output ports"
                outcome.done = True
                return [outcome]
            results: List[_Outcome] = []
            for index, port in enumerate(ports):
                branch_state = state if index == len(ports) - 1 else state.clone()
                results.append(_Outcome(branch_state, forwards=[port], done=True))
            return results

        raise ModelError(f"unknown instruction {instruction!r}")

    def _execute_if(
        self,
        instruction: si.If,
        outcome: _Outcome,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        state = outcome.state
        condition = instruction.condition
        if isinstance(condition, si.Constrain):
            condition = condition.condition
        formula = self._condition(condition, state)
        negated = sa.negate(formula)

        # Probe both branches *before* cloning so an infeasible side costs a
        # push/check/pop instead of a full state copy; a branch is entered
        # iff it is feasible.
        then_feasible = self._branch_feasible(state, formula)
        else_feasible = self._branch_feasible(state, negated)
        if not then_feasible and not else_feasible:
            # Both branches proved unsatisfiable (possible when an earlier
            # check returned "unknown"): terminate the path instead of
            # silently vanishing it — same defect class as the empty Fork.
            state.fail("constraint unsatisfiable: both If branches infeasible")
            return [_Outcome(state, done=True)]
        branches = []
        if then_feasible:
            branches.append((state, formula, instruction.then_branch))
        if else_feasible:
            else_state = state.clone() if then_feasible else state
            branches.append((else_state, negated, instruction.else_branch))
        results: List[_Outcome] = []
        for branch_state, assumed, body in branches:
            branch_state.add_constraint(assumed)
            results.extend(self._execute(body, _Outcome(branch_state), element))
        return results

    def _execute_for(
        self,
        instruction: si.For,
        outcome: _Outcome,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        state = outcome.state
        if not callable(instruction.body):
            raise ModelError("For body must be a callable taking the matched key")
        pattern = re.compile(instruction.pattern)
        names = [
            name
            for name in state.metadata.visible_names(state.current_scope)
            if pattern.fullmatch(name)
        ]
        pending = [outcome]
        for name in names:
            body = instruction.body(name)
            next_pending: List[_Outcome] = []
            for item in pending:
                if item.done or not item.state.is_alive:
                    next_pending.append(item)
                else:
                    next_pending.extend(self._execute(body, item, element))
            pending = next_pending
        return pending

    # ------------------------------------------------------------- constraints

    def _branch_feasible(self, state: ExecutionState, formula: Formula) -> bool:
        """Would adding ``formula`` keep the path feasible?  A speculative
        push/assume/check/pop scope on the state's own path condition."""
        form = state.condition
        form.push()
        try:
            form.assume(formula)
            return not self._check(form).is_unsat
        finally:
            form.pop()

    # -------------------------------------------------------------- evaluation

    def _eval(self, expression, state: ExecutionState) -> Term:
        """Evaluate a SEFL expression to a solver term."""
        if isinstance(expression, bool):
            raise ModelError(f"booleans are not SEFL values: {expression!r}")
        if isinstance(expression, int):
            return Const(expression)
        if isinstance(expression, str):
            return state.read_metadata(expression)
        if isinstance(expression, (HeaderField, TagOffset)):
            return state.read_header(expression)
        if isinstance(expression, sx.ConstantValue):
            return Const(expression.value)
        if isinstance(expression, sx.SymbolicValue):
            return self.symbols.fresh(expression.label, expression.width)
        if isinstance(expression, sx.Reference):
            return state.read_variable(expression.variable)
        build = _ARITHMETIC.get(type(expression))
        if build is not None:
            return build(self._eval(expression.left, state), self._eval(expression.right, state))
        raise ModelError(f"cannot evaluate expression {expression!r}")

    def _eval_address(self, value, state: ExecutionState) -> int:
        """Evaluate a CreateTag value to a concrete bit address."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, (HeaderField, TagOffset)):
            return state.resolve_address(value)
        term = self._eval(value, state)
        concrete = concrete_value(term)
        if concrete is None:
            raise MemorySafetyError(
                "tag values must evaluate to concrete integers"
            )
        return concrete

    def _condition(self, condition: sx.Condition, state: ExecutionState) -> Formula:
        """Translate a SEFL condition into a solver formula."""
        build = _COMPARISONS.get(type(condition))
        if build is not None:
            return build(self._eval(condition.left, state), self._eval(condition.right, state))
        if isinstance(condition, sx.OneOf):
            return sa.Member(self._eval(condition.expression, state), condition.values)
        if isinstance(condition, sx.And):
            return sa.conjoin([self._condition(op, state) for op in condition.operands])
        if isinstance(condition, sx.Or):
            return sa.disjoin([self._condition(op, state) for op in condition.operands])
        if isinstance(condition, sx.Not):
            return sa.Not(self._condition(condition.operand, state))
        raise ModelError(f"cannot translate condition {condition!r}")

    # ---------------------------------------------------------------- helpers

    @staticmethod
    def _resolve_port(port, element: Optional[NetworkElement]) -> str:
        if element is None:
            raise ModelError("Forward/Fork outside a network element")
        return element.resolve_output_port(port)
