"""The SymNet symbolic execution engine.

The engine injects a symbolic packet into an input port of a network element
and propagates it through the topology, executing the SEFL program attached
to every port it crosses.  Each feasible combination of branch decisions
becomes one execution path; infeasible branches are discharged by the
constraint solver (the role Z3 plays in the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import MemorySafetyError, ModelError
from repro.core.facts import FactFold
from repro.core.memo import Recorder, StateMemo
from repro.core.paths import ExecutionResult, PathRecord, PathStatus
from repro.core.settings import BUDGETS, RunSettings, check_budget, check_choice
from repro.core.state import ExecutionState
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
    default to what :class:`~repro.core.settings.RunSettings` declares, and
    the executor refuses the values the declaration refuses."""

    max_hops: int = RunSettings.max_hops
    #: Keep the records of failed paths.  Off, a failed path is still
    #: counted (``summary_counts()``, ``max_paths``) but not listed.
    record_failed_paths: bool = True
    max_paths: int = RunSettings.max_paths
    #: Worklist discipline: "dfs", the only one.
    strategy: str = RunSettings.strategy
    #: Answer feasibility checks off the path condition's solved form
    #: (propagated domains + memoized full checks).  Off is the reference
    #: mode the differential tests compare against: no fast paths, every
    #: check re-solves the whole path conjunction from scratch.
    use_incremental_solver: bool = True


#: Pending hops: a depth-first stack, so one packet is followed to its end
#: before the next is started.  An item is a built state and where it enters,
#: ``(state, element, input port)``, or, in a run with a state memo, an egress
#: child not built yet, ``(parent, Egress, port program, var, narrowed domain,
#: whether it takes the parent)``: the memo may answer for it, and only a miss
#: builds it.  Which paths end never depends on the order; only which survive
#: ``max_paths``.
Worklist = List[tuple]


@dataclass(slots=True)
class _Outcome:
    """Intermediate result of executing a port program on one state.  It
    is finished once it names egress entries or its state has terminated."""

    state: ExecutionState
    #: The egress entries a ``Forward`` / ``Fork`` named, in order.
    forwards: Sequence["Egress"] = ()


class Egress:
    """Leaving ``element:port``, as far as the network decides it, worked
    out once per network: the port as a :class:`PortId` and as the string
    traces record, and where the packet goes — the next hop's element and
    input port, or, when there is none, the status and stop reason the path
    ends with.  The port's program is not part of it (a hop reads that off
    the element).  Entries live in :attr:`Network.egress_table
    <repro.network.topology.Network.egress_table>`, which the network's
    mutators empty."""

    __slots__ = (
        "port", "port_id", "key", "next_element", "next_port", "status", "reason",
    )

    def __init__(self, network: Network, element: NetworkElement, port: str) -> None:
        self.port = port
        self.port_id = PortId(element.name, port)
        self.key = str(self.port_id)
        destination = network.link_from(element.name, port)
        self.next_element = self.next_port = None
        if destination is None:
            self.status = PathStatus.DELIVERED
            self.reason = f"delivered at {self.key} (no outgoing link)"
        elif not network.has_element(destination.element):
            # A dangling link (typo'd element in the topology file, kept
            # by the permissive parser so Network.validate() can report
            # it): terminate explicitly instead of crashing mid-run.
            self.status = PathStatus.DROPPED
            self.reason = (
                f"dangling link {self.key} -> {destination} (unknown element)"
            )
        else:
            self.next_element, self.next_port = destination.element, destination.port
            self.status = self.reason = None


class SymbolicExecutor:
    """Symbolic execution of SEFL models over a :class:`Network`."""

    def __init__(
        self,
        network: Network,
        solver: Optional[Solver] = None,
        settings: Optional[ExecutionSettings] = None,
        verdict_cache: Optional["VerdictCache"] = None,
        shared_cache: Optional[object] = None,
        state_memo: Optional[StateMemo] = None,
    ) -> None:
        self.network = network
        self.solver = solver if solver is not None else Solver()
        self.settings = settings if settings is not None else ExecutionSettings()
        check_choice("strategy", self.settings.strategy)
        for name in BUDGETS:
            check_budget(name, getattr(self.settings, name))
        self.symbols = SymbolFactory()
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
            self._probe_member = self.incremental.probe_member
        else:
            self._check = lambda form: self.solver.check(form.formulas)
            self._probe = lambda form, formula, steps: self.solver.probe(form, formula)
            self._probe_member = lambda form, var, allowed: (
                self.solver.probe(form, sa.Member(var, allowed)), None
            )
        # A path survived on an "unknown" verdict during the current inject().
        self._incomplete = False
        # A campaign's state memo (repro.core.memo).
        self.memo = state_memo if self.settings.use_incremental_solver else None
        self._recorder: Optional[Recorder] = None  # the current inject()'s
        self._fold: Optional[FactFold] = None  # likewise

    # ------------------------------------------------------------------ public

    def inject(
        self,
        packet_program: si.Instruction,
        element: str,
        port: str = "in0",
        initial_state: Optional[ExecutionState] = None,
        fold: Optional[FactFold] = None,
    ) -> ExecutionResult:
        """Build a packet with ``packet_program`` and inject it at
        ``element:port``, returning every explored path: a tally of each, and
        a record of each but failed ones the settings do not record.  Given a
        ``fold`` (a campaign job's), each path is folded into it as it ends
        and no record is kept; only such a run uses the state memo."""
        start = time.perf_counter()
        stats = self.solver.stats
        before = stats.snapshot()

        result = ExecutionResult(injected_at=PortId(element, port))
        self._incomplete = False
        target = self.network.element(element)
        if not target.accepts_input(port):
            raise ModelError(f"element {element!r} has no input port {port!r}")
        state = initial_state if initial_state is not None else ExecutionState()
        self._fold = fold
        recorder = self._recorder = (
            Recorder(self.memo, self, result, fold)
            if self.memo is not None and fold is not None
            else None
        )

        # The injection program runs outside any element; it must not forward.
        injected = self._inject_packet(packet_program, state, initial_state is None)
        worklist: Worklist = []
        for outcome in injected:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, None)
                continue
            if outcome.forwards:
                raise ModelError("packet construction programs must not forward")
            worklist.append((outcome.state, element, port))

        while worklist:
            if result.terminations >= self.settings.max_paths:
                result.truncated = True
                break
            item = worklist.pop()
            if len(item) == 3:
                current, element_name, in_port = item
                if recorder is not None and recorder.enter(
                    current, element_name, in_port, len(worklist)
                ):
                    continue  # replayed from the memo
            else:
                current = self._build(item, len(worklist))
                if current is None:
                    continue  # replayed from the memo, never built
                element_name, in_port = item[1].next_element, item[1].next_port
            self._step(current, element_name, in_port, worklist, result)
        else:
            if recorder is not None:
                recorder.close(-1)  # every open subtree is complete
        self._recorder = self._fold = None

        # The case-split budget is a budget like max_paths and max_hops.
        result.truncated = result.truncated or self._incomplete
        result.elapsed_seconds = time.perf_counter() - start
        result.solver_stats = stats.since(before)
        return result

    def _inject_packet(self, program: si.Instruction, state: ExecutionState,
                       fresh: bool) -> List[_Outcome]:
        """Run the packet program on ``state``; under a memo, on a ``fresh``
        state, a run's jobs after its second clone what it built."""
        if self.memo is None or not fresh:
            return self._execute(program, _Outcome(state), None)
        symbols, key = self.symbols, (id(program), self.symbols.count)
        known = self.memo.packets.get(key)
        seen = known is not None and known[0] is program
        if seen and known[1]:
            symbols.advance(known[2])
            return [_Outcome(template.clone(), forwards) for template, forwards in known[1]]
        start = symbols.count
        outcomes = self._execute(program, _Outcome(state), None)
        templates = [(each.state.clone(), each.forwards) for each in outcomes] if seen else ()
        self.memo.packets[key] = (program, templates, symbols.count - start)
        return outcomes

    # ------------------------------------------------------------ propagation

    def _step(
        self,
        state: ExecutionState,
        element_name: str,
        in_port: str,
        worklist: Worklist,
        result: ExecutionResult,
    ) -> None:
        self.solver.stats.engine_steps += 1
        # str(PortId(...)); the PortId itself is built only for a path that ends here.
        port_key = f"{element_name}:{in_port}"
        element = self.network.element(element_name)
        state.current_scope = element_name
        state.record_port(port_key)
        state.hop_count += 1

        if state.hop_count > self.settings.max_hops:
            # A budget like max_paths, not a verdict: the path keeps the
            # "loop" status it always had, but nothing proved one.
            state.status = PathStatus.LOOP
            state.stop_reason = f"hop limit ({self.settings.max_hops}) exceeded"
            result.truncated = True
            self._record(result, state, PortId(element_name, in_port), cut_off=True)
            return

        if self._detect_loop(state, port_key):
            state.status = PathStatus.LOOP
            state.stop_reason = f"loop detected at {port_key}"
            self._record(result, state, PortId(element_name, in_port))
            return
        state.snapshot_port(port_key)

        outcomes = self._execute(element.input_program(in_port), _Outcome(state), element)
        for outcome in outcomes:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, PortId(element_name, in_port))
            elif not outcome.forwards:
                outcome.state.status = PathStatus.DROPPED
                outcome.state.stop_reason = (
                    outcome.state.stop_reason or f"no forward from {port_key}"
                )
                self._record(result, outcome.state, PortId(element_name, in_port))
            else:
                self._fan_out(outcome.state, element, outcome.forwards, worklist, result)

    def _fan_out(self, state: ExecutionState, element: NetworkElement,
                 exits: Sequence[Egress], worklist: Worklist,
                 result: ExecutionResult) -> None:
        """Which of ``exits`` can this packet leave by?  Decided off
        ``state.condition`` before any per-port state exists: a port whose
        program is one guard (``Constrain.guard``, the egress models) is
        probed, the atom already classified when the field holds a plain
        variable; any other program is left to :meth:`_emit`.  Ports are then
        served in order.  A living one gets a clone (``state`` itself when it
        is the last, unless a dead port's record may read it) and, for a
        plain variable, the domain the probe narrowed it to — except that in a
        run with a state memo a plain variable's port with a next hop is queued
        unbuilt (:data:`Worklist`): the first one queued, popped last of its
        siblings, takes ``state`` itself, and every other living port a clone.
        A dead port is counted, and recorded only if the run keeps records and the
        settings record failed paths — as a flyweight that rebuilds its state
        on demand from ``state``, never mutated again."""
        plans = []
        living, died, last_field = 0, False, None
        for egress in exits:
            program = element.output_program(egress.port)
            # ``term`` stays None unless the guard is probed: _emit interprets.
            term, narrowed, alive = None, None, True
            guard = program.guard
            if guard is not None:
                field, allowed = guard
                try:
                    if field is not last_field:  # one read per run of ports
                        value = state.read_variable(field)
                        last_field, plain = field, type(value) is sa.Var
                except MemorySafetyError:
                    pass  # the interpreter words the failure
                else:
                    term = value
                    if plain:
                        verdict, narrowed = self._probe_member(
                            state.condition, term, allowed
                        )
                        alive = self._survives(verdict)
                    else:
                        alive = self._branch_feasible(state, sa.Member(term, allowed))[0]
            living += alive
            died = died or not alive
            plans.append((egress, program, term, narrowed, alive))

        keep_failed = self._fold is None and self.settings.record_failed_paths
        # ``state`` is spoken for once a dead port's flyweight may read it
        # (only a run that records failed paths keeps any) or an unbuilt
        # child took it.
        taken = died and keep_failed
        defer = self._recorder is not None
        for egress, program, term, narrowed, alive in plans:
            if not alive:
                reason = program.unsatisfiable_reason
                if keep_failed:
                    formula = sa.Member(term, program.guard[1])
                    recipe = partial(_dead_branch, state, egress.key, program, formula)
                    result.paths.append(
                        PathRecord(recipe, PathStatus.FAILED, reason, egress.port_id)
                    )
                self._end(result, PathStatus.FAILED, reason)
                continue
            living -= 1
            if defer and narrowed is not None and egress.next_element is not None:
                worklist.append((state, egress, program, term, narrowed, not taken))
                taken = True
                continue
            branch = state.clone() if living or taken else state
            if term is None:
                self._emit(branch, element, egress, program, worklist, result)
                continue
            branch.record_port(egress.key)
            branch.record_instruction(program)
            allowed = program.guard[1]
            formula = sa.Member(term, allowed)
            if type(term) is sa.Var:
                branch.condition.assume_member(formula, term, allowed, narrowed)
            else:
                branch.add_constraint(formula)
            self._follow(branch, egress, worklist, result)

    def _build(self, item: tuple, pending: int) -> Optional[ExecutionState]:
        """An unbuilt child (:data:`Worklist`) popped with ``pending`` items
        left: None when the memo replays it, else the child built — as the
        fan-out would have built it — and entered in the memo."""
        parent, egress, program, var, narrowed, takes_parent = item
        recorder = self._recorder
        element, port = egress.next_element, egress.next_port
        if recorder.replay(parent, element, port, pending, (var, narrowed), egress.key):
            return None
        state = parent if takes_parent else parent.clone()
        state.record_port(egress.key)
        state.record_instruction(program)
        allowed = program.guard[1]
        state.condition.assume_member(sa.Member(var, allowed), var, allowed, narrowed)
        recorder.explore(state, pending)
        return state

    def _emit(
        self,
        state: ExecutionState,
        element: NetworkElement,
        egress: Egress,
        program: si.Instruction,
        worklist: Worklist,
        result: ExecutionResult,
    ) -> None:
        """Run the output-port program and follow the outgoing link."""
        state.record_port(egress.key)
        outcomes = self._execute(program, _Outcome(state), element)
        for outcome in outcomes:
            if not outcome.state.is_alive:
                self._record(result, outcome.state, egress.port_id)
            elif outcome.forwards:
                raise ModelError(
                    f"output port program at {egress.port_id} attempted to forward"
                )
            else:
                self._follow(outcome.state, egress, worklist, result)

    def _follow(self, state: ExecutionState, egress: Egress,
                worklist: Worklist, result: ExecutionResult) -> None:
        """The packet left by ``egress``: queue the next hop, or end the path
        the way the entry says (delivered, or a dangling link)."""
        if egress.next_element is None:
            state.status = egress.status
            state.stop_reason = egress.reason
            self._record(result, state, egress.port_id)
        else:
            worklist.append((state, egress.next_element, egress.next_port))

    def _exits(self, element: Optional[NetworkElement], ports) -> List[Egress]:
        """The egress entries of ``element``'s output ``ports`` (names, or
        indices into its port list), from the network's egress table, built
        on first use."""
        if element is None:
            raise ModelError("Forward/Fork outside a network element")
        table = self.network.egress_table
        name = element.name
        exits = []
        for port in ports:
            if type(port) is not str:
                port = element.resolve_output_port(port)
            entry = table.get((name, port))
            if entry is None:
                entry = table[name, port] = Egress(self.network, element, port)
            exits.append(entry)
        return exits

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
            # Loop checks repeat exact conjunct sets, so the verdict cache
            # shares them across paths — and, in campaigns, across jobs.
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
        """End a terminated state's path, and keep its record unless the
        run folds its facts or it is a failed path the settings do not
        record."""
        status, reason = state.status, state.stop_reason
        if self._fold is None and (
            status != PathStatus.FAILED or self.settings.record_failed_paths
        ):
            result.paths.append(PathRecord(state, status, reason, port, cut_off))
        self._end(result, status, reason, port, state, cut_off)

    def _end(self, result: ExecutionResult, status: str, reason: str,
             port: Optional[PortId] = None, state: Optional[ExecutionState] = None,
             cut_off: bool = False) -> None:
        """Tally a termination and hand it to the run's fold, and what the
        fold made of it to the recorder."""
        result.count(status, reason)
        fold = self._fold
        if fold is not None:
            recorder = self._recorder
            own = recorder.own if recorder is not None else None
            ending = fold.end(status, reason, port, state, cut_off, own is not None)
            if own is not None:
                own.append((status, reason, ending))

    # -------------------------------------------------------------- execution

    def _execute(
        self,
        instruction: si.Instruction,
        outcome: _Outcome,
        element: Optional[NetworkElement],
    ) -> List[_Outcome]:
        state = outcome.state
        if outcome.forwards or not state.is_alive:
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
            return [outcome]

    def _run_each(self, bodies: Iterable[si.Instruction], outcome: _Outcome, element):
        """Run ``bodies`` in order over every outcome still running."""
        pending = [outcome]
        for body in bodies:
            next_pending: List[_Outcome] = []
            for item in pending:
                if item.forwards or not item.state.is_alive:
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

    def _fail(self, instruction, outcome, element):
        outcome.state.fail(instruction.message)

    def _forward(self, instruction, outcome, element):
        outcome.forwards = self._exits(element, (instruction.port,))

    def _fork(self, instruction, outcome, element):
        """Only names the ports: :meth:`_fan_out` decides who gets a state."""
        outcome.forwards = self._exits(element, instruction.ports)
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
        # iff it is feasible, its assumption compiled once for both.
        then_feasible, then_steps = self._branch_feasible(state, formula)
        else_feasible, else_steps = self._branch_feasible(state, negated)
        if not then_feasible and not else_feasible:
            # Both branches proved unsatisfiable (possible when an earlier
            # check returned "unknown"): terminate the path instead of
            # silently vanishing it — same defect class as the empty Fork.
            state.fail("constraint unsatisfiable: both If branches infeasible")
            return [_Outcome(state)]
        branches = []
        if then_feasible:
            branches.append((state, formula, then_steps, instruction.then_branch))
        if else_feasible:
            else_state = state.clone() if then_feasible else state
            branches.append((else_state, negated, else_steps, instruction.else_branch))
        results: List[_Outcome] = []
        for branch_state, assumed, steps, body in branches:
            branch_state.condition.apply(assumed, steps)
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
            if self._recorder is not None:
                self._recorder.poison()
        return verdict.verdict != "unsat"

    def _branch_feasible(self, state: ExecutionState, formula: Formula):
        """Would adding ``formula`` keep the path feasible?  And its
        compiled steps (:meth:`PathCondition.compile`), for the branch that
        adds it."""
        steps = PathCondition.compile(formula)
        return self._survives(self._probe(state.condition, formula, steps)), steps

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
