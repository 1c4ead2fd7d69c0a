"""The SymNet symbolic execution engine.

The engine injects a symbolic packet into an input port of a network element
and propagates it through the topology, executing the SEFL program attached
to every port it crosses.  Each feasible combination of branch decisions
becomes one execution path; infeasible branches are discharged by the
constraint solver (the role Z3 plays in the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
from repro.solver.result import SolverResult
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
        # satisfiable?" and "would it still be with this formula added?".
        # States are bound to neither.
        if self.settings.use_incremental_solver:
            self._check = self.incremental.check
            self._probe = self.incremental.probe
        else:
            self._check = lambda form: self.solver.check(form.formulas)
            self._probe = self.solver.probe
        # A path survived on an "unknown" verdict during the current inject().
        self._incomplete = False

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
        self._incomplete = False
        state = initial_state if initial_state is not None else ExecutionState(self.symbols)

        # The injection program runs outside any element; it must not forward.
        injected = self._execute(packet_program, _Outcome(state), None)
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

        # The case-split budget is a budget like max_paths and max_hops.
        result.truncated = result.truncated or self._incomplete
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
        port_key = str(port_id)
        state.current_scope = element_name
        state.record_port(port_key)
        state.hop_count += 1

        if state.hop_count > self.settings.max_hops:
            # A budget like max_paths, not a verdict: the path keeps the
            # "loop" status it always had, but nothing proved one.
            state.status = PathStatus.LOOP
            state.stop_reason = f"hop limit ({self.settings.max_hops}) exceeded"
            result.truncated = True
            self._record(result, state, port_id, cut_off=True)
            return

        if self.settings.detect_loops and self._detect_loop(state, port_key):
            state.status = PathStatus.LOOP
            state.stop_reason = f"loop detected at {port_key}"
            self._record(result, state, port_id)
            return
        state.snapshot_port(port_key)

        outcomes = self._execute(element.input_program(in_port), _Outcome(state), element)
        for outcome in outcomes:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, port_id)
            elif not outcome.forwards:
                outcome.state.status = PathStatus.DROPPED
                outcome.state.stop_reason = (
                    outcome.state.stop_reason or f"no forward from {port_key}"
                )
                self._record(result, outcome.state, port_id)
            else:
                self._fan_out(outcome.state, element, outcome.forwards, frontier, result)

    def _fan_out(self, state: ExecutionState, element: NetworkElement, ports: Sequence[str],
                 frontier: ExplorationStrategy, result: ExecutionResult) -> None:
        """Which of ``ports`` can this packet leave by?  Decided off
        ``state.condition`` before any per-port state exists: a port whose
        program is one guard (``Constrain.guard``, the egress models) is
        probed, the atom already classified when the field holds a plain
        variable; any other program is left to :meth:`_emit`.  Ports are then
        served in order: a living one gets a clone (``state`` itself only when
        it is the last and no port died), a dead one a flyweight record that
        rebuilds its state on demand from ``state``, never mutated again."""
        plans = []
        living, died, last_field = 0, False, None
        for port in ports:
            program = element.output_program(port)
            formula, atom, alive = None, None, True  # not a guard: interpret it
            if program.guard is not None:
                field, allowed = program.guard
                try:
                    if field is not last_field:  # one read per run of ports
                        term = state.read_variable(field)
                        last_field, plain = field, type(term) is sa.Var
                except MemorySafetyError:
                    pass  # the interpreter words the failure
                else:
                    formula = sa.Member(term, allowed)
                    atom = (term, allowed) if plain else None
                    alive = self._branch_feasible(state, formula, atom)
            living += alive
            died = died or not alive
            plans.append((port, program, formula, atom, alive))

        for port, program, formula, atom, alive in plans:
            out_id = PortId(element.name, port)
            if not alive:
                if self.settings.record_failed_paths:
                    recipe = partial(_dead_branch, state, str(out_id), program, formula)
                    reason = program.unsatisfiable_reason
                    result.add(PathRecord(recipe, PathStatus.FAILED, reason, out_id))
                continue
            living -= 1
            branch = state.clone() if died or living else state
            if formula is None:
                self._emit(branch, element, port, frontier, result)
                continue
            branch.record_port(str(out_id))
            branch.record_instruction(program)
            if atom is None:
                branch.add_constraint(formula)
            else:
                branch.condition.assume_member(formula, *atom)
            self._follow(branch, element, port, out_id, frontier, result)

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
        outcomes = self._execute(element.output_program(out_port), _Outcome(state), element)
        for outcome in outcomes:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, out_id)
            elif outcome.forwards:
                raise ModelError(
                    f"output port program at {out_id} attempted to forward"
                )
            else:
                self._follow(outcome.state, element, out_port, out_id, frontier, result)

    def _follow(self, state: ExecutionState, element: NetworkElement, out_port: str,
                out_id: PortId, frontier: ExplorationStrategy, result: ExecutionResult) -> None:
        """The packet left by ``out_id``: deliver it or queue the next hop."""
        destination = self.network.link_from(element.name, out_port)
        if destination is None:
            state.status = PathStatus.DELIVERED
            state.stop_reason = f"delivered at {out_id} (no outgoing link)"
            self._record(result, state, out_id)
        elif not self.network.has_element(destination.element):
            # A dangling link (typo'd element in the topology file, kept
            # by the permissive parser so Network.validate() can report
            # it): terminate explicitly instead of crashing mid-run.
            state.status = PathStatus.DROPPED
            state.stop_reason = (
                f"dangling link {out_id} -> {destination} (unknown element)"
            )
            self._record(result, state, out_id)
        else:
            frontier.push((state, destination.element, destination.port))

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
            if not self._survives(self._check(query)):
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
        result.add(PathRecord(state, state.status, state.stop_reason, port, cut_off))

    # -------------------------------------------------------------- execution

    def _execute(
        self,
        instruction: si.Instruction,
        outcome: _Outcome,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        state = outcome.state
        if outcome.done or not state.is_alive:
            return [outcome]
        entry = _HANDLERS.get(type(instruction))
        if entry is None:
            entry = _resolve_handler(instruction)
        handler, traced = entry
        if not traced:
            return handler(self, instruction, outcome, element)
        state.record_instruction(instruction)
        try:
            return handler(self, instruction, outcome, element) or [outcome]
        except MemorySafetyError as exc:
            state.fail(f"memory safety violation: {exc}")
            outcome.done = True
            return [outcome]

    def _run_each(self, bodies: Iterable[si.Instruction], outcome: _Outcome, element):
        """Run ``bodies`` in order over every outcome still running."""
        pending = [outcome]
        for body in bodies:
            next_pending: List[_Outcome] = []
            for item in pending:
                if item.done or not item.state.is_alive:
                    next_pending.append(item)
                else:
                    next_pending.extend(self._execute(body, item, element))
            pending = next_pending
        return pending

    # One handler per instruction type: see ``_HANDLERS`` below the class.

    def _noop(self, instruction, outcome, element):
        return [outcome]

    def _block(self, instruction, outcome, element):
        return self._run_each(instruction.instructions, outcome, element)

    def _allocate(self, instruction, outcome, element):
        state, variable = outcome.state, instruction.variable
        if isinstance(variable, str):
            local = instruction.visibility == si.LOCAL
            state.allocate_metadata(variable, instruction.size, local=local)
        elif instruction.size is None:
            raise MemorySafetyError(
                f"header allocation of {state.describe_variable(variable)} "
                "requires an explicit size"
            )
        else:
            state.allocate_header(variable, instruction.size)

    def _deallocate(self, instruction, outcome, element):
        if isinstance(instruction.variable, str):
            outcome.state.deallocate_metadata(instruction.variable, instruction.size)
        else:
            outcome.state.deallocate_header(instruction.variable, instruction.size)

    def _assign(self, instruction, outcome, element):
        state = outcome.state
        state.write_variable(instruction.variable, self._eval(instruction.expression, state))

    def _create_tag(self, instruction, outcome, element):
        state = outcome.state
        state.create_tag(instruction.name, self._eval_address(instruction.value, state))

    def _destroy_tag(self, instruction, outcome, element):
        outcome.state.destroy_tag(instruction.name)

    def _constrain(self, instruction, outcome, element):
        state = outcome.state
        state.add_constraint(self._condition(instruction.condition, state))
        if not self._survives(self._check(state.condition)):
            state.fail(instruction.unsatisfiable_reason)
            outcome.done = True

    def _fail(self, instruction, outcome, element):
        outcome.state.fail(instruction.message)
        outcome.done = True

    def _forward(self, instruction, outcome, element):
        outcome.forwards = [self._resolve_port(instruction.port, element)]
        outcome.done = True

    def _fork(self, instruction, outcome, element):
        """Only names the ports: :meth:`_fan_out` decides who gets a state."""
        outcome.forwards = [self._resolve_port(p, element) for p in instruction.ports]
        outcome.done = True
        if not outcome.forwards:
            # A Fork with no output ports must not silently vanish the
            # state: terminate it as an explicit drop.
            outcome.state.status = PathStatus.DROPPED
            outcome.state.stop_reason = "Fork with no output ports"

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
        fullmatch = instruction.compiled.fullmatch
        names = [
            name
            for name in state.metadata.visible_names(state.current_scope)
            if fullmatch(name)
        ]
        return self._run_each(map(instruction.body, names), outcome, element)

    # ------------------------------------------------------------- constraints

    def _survives(self, verdict: SolverResult) -> bool:
        """The one place a verdict is consumed: a path lives unless proved
        unsatisfiable, and living on "unknown" (the solver's case-split
        budget ran out) makes the run incomplete."""
        if verdict.verdict == "unknown":
            self._incomplete = True
        return verdict.verdict != "unsat"

    def _branch_feasible(self, state: ExecutionState, formula: Formula, atom=None) -> bool:
        """Would adding ``formula`` keep the path feasible?  ``atom`` is its
        ``(var, allowed)`` classification when the caller already has it."""
        return self._survives(self._probe(state.condition, formula, atom))

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


def _dead_branch(parent: ExecutionState, port_key: str, guard: si.Constrain, formula: Formula):
    """The state of an egress branch its guard killed: what the interpreter
    would have built, from the fork's never-again-mutated parent."""
    state = parent.clone()
    state.record_port(port_key)
    state.record_instruction(guard)
    state.add_constraint(formula)
    state.fail(guard.unsatisfiable_reason)
    return state


#: ``handler(executor, instruction, outcome, element)``: the outcomes the
#: instruction branched into, or None for "the one it was given".
_Handler = Callable[
    [SymbolicExecutor, si.Instruction, _Outcome, Optional[NetworkElement]],
    Optional[List[_Outcome]],
]

#: Instruction type -> (handler, whether the instruction is traced and its
#: memory-safety errors fail the path).  Subclasses are added on first sight.
_HANDLERS: Dict[type, Tuple[_Handler, bool]] = {
    si.NoOp: (SymbolicExecutor._noop, False),
    si.InstructionBlock: (SymbolicExecutor._block, False),
    si.Allocate: (SymbolicExecutor._allocate, True),
    si.Deallocate: (SymbolicExecutor._deallocate, True),
    si.Assign: (SymbolicExecutor._assign, True),
    si.CreateTag: (SymbolicExecutor._create_tag, True),
    si.DestroyTag: (SymbolicExecutor._destroy_tag, True),
    si.Constrain: (SymbolicExecutor._constrain, True),
    si.Fail: (SymbolicExecutor._fail, True),
    si.If: (SymbolicExecutor._execute_if, True),
    si.For: (SymbolicExecutor._execute_for, True),
    si.Forward: (SymbolicExecutor._forward, True),
    si.Fork: (SymbolicExecutor._fork, True),
}


def _resolve_handler(instruction: si.Instruction) -> Tuple[_Handler, bool]:
    for base in type(instruction).__mro__:
        if base in _HANDLERS:
            entry = _HANDLERS[type(instruction)] = _HANDLERS[base]
            return entry
    raise ModelError(f"unknown instruction {instruction!r}")
