"""Tests for max_paths truncation, plus property-based tests over random
instruction programs: the terminal path set must not depend on the order the
depth-first worklist expands a fork's branches in, nor on the solver mode,
nor on whether execution starts from a fresh or a cloned state — and the
engine's fan-out kernel (guards probed off the solved form, dead ports
recorded as flyweights) must explore exactly what the interpreter explores
when it is handed the same programs in a shape the kernel does not take.

The random cases are seed-pinned (override with ``REPRO_DIFF_SEED``, as the
differential suites do)."""

import os
import random

import pytest

from repro import (
    ExecutionSettings,
    ExecutionState,
    Network,
    NetworkElement,
    SymbolicExecutor,
    models,
)
from repro.sefl import (
    Assign,
    Constrain,
    Eq,
    Fail,
    Fork,
    Forward,
    Ge,
    If,
    InstructionBlock,
    IpDst,
    Le,
    NoOp,
    OneOf,
    Or,
    Plus,
    SymbolicValue,
    TcpDst,
)


def build_fork_heavy_network(depth=3, fanout=2):
    """A tree of fork elements: every level duplicates the packet to
    ``fanout`` children, and the leaves also branch on a symbolic If —
    2 * fanout**depth terminal paths."""
    network = Network()

    def add_level(name, level):
        if level == depth:
            leaf = NetworkElement(name, ["in0"], ["out0", "out1"])
            leaf.set_input_program(
                "in0", If(Eq(TcpDst, 80), Forward("out0"), Forward("out1"))
            )
            network.add_element(leaf)
            return
        outputs = [f"out{i}" for i in range(fanout)]
        node = NetworkElement(name, ["in0"], outputs)
        node.set_input_program("in0", Fork(*outputs))
        network.add_element(node)
        for index in range(fanout):
            child = f"{name}_{index}"
            add_level(child, level + 1)
            network.add_link((name, f"out{index}"), (child, "in0"))

    add_level("root", 0)
    return network


def path_set(result):
    """Order-insensitive fingerprint of the explored paths."""
    return sorted(
        (record.status, str(record.last_port), tuple(record.state.port_trace))
        for record in result.paths
    )


def run(network, **kwargs):
    executor = SymbolicExecutor(network, settings=ExecutionSettings(**kwargs))
    return executor.inject(models.symbolic_tcp_packet(), "root", "in0")


def reversed_forks(program):
    """``program`` with every ``Fork``'s ports in reverse order: the same
    paths, which the depth-first worklist then expands in the other order."""
    if isinstance(program, Fork):
        return Fork(*reversed(program.ports))
    if isinstance(program, If):
        return If(
            program.condition,
            reversed_forks(program.then_branch),
            reversed_forks(program.else_branch),
        )
    if isinstance(program, InstructionBlock):
        return InstructionBlock(*map(reversed_forks, program.instructions))
    return program


def reverse_forks(network):
    """Reverse the ports of every ``Fork`` on ``network``'s input ports."""
    for element in network:
        for port in element.input_ports:
            element.set_input_program(port, reversed_forks(element.input_program(port)))
    return network


class TestStrategyEquivalence:
    """Runs that differ only in how they explore explore the same paths."""

    def test_reversed_forks_explore_identical_path_sets(self):
        forward = run(build_fork_heavy_network(depth=3, fanout=2))
        backward = run(reverse_forks(build_fork_heavy_network(depth=3, fanout=2)))
        assert len(path_set(forward)) == 2 * 2**3  # 8 leaves x 2 If branches
        assert path_set(backward) == path_set(forward)

    def test_reversed_forks_change_the_discovery_order(self):
        """The property tests below are not vacuous: reversing the forks
        does reorder the depth-first worklist."""
        forward = run(build_fork_heavy_network(depth=3, fanout=2))
        backward = run(reverse_forks(build_fork_heavy_network(depth=3, fanout=2)))
        order = [tuple(p.state.port_trace) for p in forward.paths]
        assert [tuple(p.state.port_trace) for p in backward.paths] != order

    def test_incremental_and_legacy_solvers_agree(self):
        network = build_fork_heavy_network(depth=2, fanout=3)
        fast = run(network, use_incremental_solver=True)
        slow = run(network, use_incremental_solver=False)
        assert path_set(fast) == path_set(slow)


class TestTruncation:
    def build_fan(self):
        network = Network()
        fan = NetworkElement("root", ["in0"], ["out0", "out1", "out2"])
        fan.set_input_program("in0", Fork("out0", "out1", "out2"))
        network.add_element(fan)
        for index in range(3):
            sink = NetworkElement(f"sink{index}", ["in0"], ["out0"])
            sink.set_input_program("in0", Forward("out0"))
            network.add_element(sink)
            network.add_link(("root", f"out{index}"), (f"sink{index}", "in0"))
        return network

    def test_truncated_flag_set_when_budget_hits(self):
        result = run(self.build_fan(), max_paths=1)
        assert result.truncated
        assert 1 <= len(result.paths) < 3

    def test_truncated_flag_clear_on_full_exploration(self):
        result = run(self.build_fan())
        assert not result.truncated
        assert len(result.delivered()) == 3

    def test_truncated_is_reported_in_json(self):
        import json

        result = run(self.build_fan(), max_paths=1)
        assert json.loads(result.to_json())["truncated"] is True


# ---------------------------------------------------------------------------
# Property-based tests over random instruction programs
# ---------------------------------------------------------------------------

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))
#: Case numbers are the test ids, so they stay put when the seed moves; the
#: network of a case is drawn from ``SEED + case``.
PROPERTY_CASES = range(987123, 987123 + 200)

_FIELDS = (TcpDst, IpDst)
_PORTS = ("out0", "out1", "out2")
#: Span bounds at and beside the constants conditions and assignments use.
_BOUNDS = (0, 1, 22, 53, 80, 81, 443, 1234, 1235, 8080, 65535)


def random_condition(rng):
    field = rng.choice(_FIELDS)
    value = rng.choice((0, 1, 80, 443, 8080, 65535))
    kind = rng.randrange(4)
    if kind == 0:
        return Eq(field, value)
    if kind == 1:
        return Le(field, value)
    if kind == 2:
        return Ge(field, value)
    return Or(Eq(field, value), Eq(rng.choice(_FIELDS), rng.choice((22, 53))))


def random_terminal(rng, depth):
    """A program tail that either forwards, forks, or branches further."""
    kind = rng.choice("FKKKIIIN" if depth > 0 else "FKKKKN")
    if kind == "F":
        return Forward(rng.choice(_PORTS))
    if kind == "K":
        count = rng.randint(1, len(_PORTS))
        return Fork(*rng.sample(_PORTS, count))
    if kind == "I":
        return If(
            random_condition(rng),
            random_program(rng, depth - 1),
            random_program(rng, depth - 1),
        )
    return NoOp()  # no forward: the path ends as an explicit drop


def random_program(rng, depth=2):
    """0-3 effect instructions (assign/constrain) then a terminal."""
    instructions = []
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.5:
            target = rng.choice(_FIELDS)
            value = rng.choice(
                (0, 80, 1234, SymbolicValue("fresh", 16), Plus(target, 1))
            )
            instructions.append(Assign(target, value))
        else:
            instructions.append(Constrain(random_condition(rng)))
    instructions.append(random_terminal(rng, depth))
    return InstructionBlock(*instructions)


def random_output_program(rng):
    """What sits on an output port: mostly one guard (the shape the fan-out
    kernel probes instead of interpreting), sometimes a guard whose field
    cannot be read, sometimes anything else."""
    kind = rng.randrange(12)
    if kind >= 8:
        # Point sets on the constants the input program assigns and tests.
        points = rng.sample((0, 1, 80, 81, 443, 1234, 1235), rng.randint(1, 2))
        return Constrain(OneOf(rng.choice(_FIELDS), points))
    if kind < 4:
        spans = []
        for _ in range(rng.randint(1, 3)):
            lo = rng.choice(_BOUNDS)
            hi = lo if rng.random() < 0.6 else rng.choice(_BOUNDS)
            spans.append((min(lo, hi), max(lo, hi)))
        return Constrain(OneOf(rng.choice(_FIELDS), spans))
    if kind == 4:
        return Constrain(OneOf("never-allocated", [1, 2]))
    if kind == 5:
        return If(random_condition(rng), NoOp(), Fail("egress filter"))
    if kind == 6:
        return InstructionBlock(
            Constrain(random_condition(rng)),
            Assign(rng.choice(_FIELDS), SymbolicValue("egress", 16)),
        )
    if kind == 7:
        return Fail("port down")
    return NoOp()


def random_network(case, interpret_guards=False):
    """One root running a random program, a random program on each of its
    output ports, and sinks behind them.  ``interpret_guards`` wraps every
    guard in a one-element block: the same network to the interpreter
    (blocks are not traced), but no longer a guard, so no port is probed."""
    rng = random.Random(SEED + case)
    network = Network(f"property-{SEED}-{case}")
    root = NetworkElement("root", ["in0"], list(_PORTS))
    root.set_input_program("in0", random_program(rng, depth=3))
    network.add_element(root)
    for index, port in enumerate(_PORTS):
        program = random_output_program(rng)
        if interpret_guards and program.guard is not None:
            program = InstructionBlock(program)
        root.set_output_program(port, program)
        sink = NetworkElement(f"sink{index}", ["in0"], ["out0"])
        sink.set_input_program("in0", Forward("out0"))
        network.add_element(sink)
        network.add_link(("root", port), (f"sink{index}", "in0"))
    return network


def path_list(result):
    """Everything a path is, in discovery order, minus ``path_id``."""
    return [
        (
            record.status,
            record.stop_reason,
            str(record.last_port),
            record.ports_visited,
            record.constraints,
            [instruction.description for instruction in record.state.instruction_trace],
        )
        for record in result.paths
    ]


class TestRandomProgramProperties:
    """For arbitrary SEFL programs the engine must satisfy four invariants:
    the terminal path set does not depend on the exploration order, nor on
    the solver mode, nor on whether the initial state was cloned — and a
    port decided by the fan-out kernel is the port the interpreter builds."""

    @pytest.mark.parametrize("seed", PROPERTY_CASES)
    def test_fan_out_kernel_equals_the_interpreter(self, seed):
        """Path by path and in order: the oracle is the same network with
        every guard hidden from the kernel inside a block."""
        kernel = random_network(seed)
        oracle = random_network(seed, interpret_guards=True)
        for incremental in (True, False):
            context = f"seed={SEED}+{seed} incremental={incremental}"
            probed, interpreted = (
                run(network, use_incremental_solver=incremental)
                for network in (kernel, oracle)
            )
            assert path_list(probed) == path_list(interpreted), context
            assert probed.truncated == interpreted.truncated, context
            for counter in ("fast_paths", "cache_hits", "cache_misses", "calls"):
                assert getattr(probed, f"solver_{counter}") == getattr(
                    interpreted, f"solver_{counter}"
                ), f"{context} solver_{counter}"

    @pytest.mark.parametrize("seed", PROPERTY_CASES)
    def test_strategy_independence(self, seed):
        """The worklist's one order explores the set of paths any order
        would: the same network with every fork's branches expanded the
        other way round ends the same paths."""
        forward = run(random_network(seed))
        backward = run(reverse_forks(random_network(seed)))
        assert path_set(backward) == path_set(forward), f"seed={SEED}+{seed}"

    @pytest.mark.parametrize("seed", PROPERTY_CASES)
    def test_solver_mode_independence(self, seed):
        network = random_network(seed)
        incremental = run(network, use_incremental_solver=True)
        from_scratch = run(network, use_incremental_solver=False)
        assert path_set(incremental) == path_set(from_scratch), f"seed={seed}"

    @pytest.mark.parametrize("seed", PROPERTY_CASES[::4])
    def test_clone_vs_fresh_state_equivalence(self, seed):
        """Running from a fresh state, from a pre-built state, and from its
        clone must explore identical path sets — and executing the original
        must not corrupt the clone (the copy-on-write contract)."""
        network = random_network(seed)
        executor = SymbolicExecutor(network)
        packet = models.symbolic_tcp_packet()

        fresh = executor.inject(packet, "root", "in0")

        base = ExecutionState()
        clone = base.clone()
        from_base = executor.inject(packet, "root", "in0", initial_state=base)
        # base was consumed/mutated above; the clone must be unaffected.
        from_clone = executor.inject(packet, "root", "in0", initial_state=clone)

        assert path_set(from_base) == path_set(fresh), f"seed={seed}"
        assert path_set(from_clone) == path_set(fresh), f"seed={seed}"
