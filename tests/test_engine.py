"""Tests for the symbolic execution engine: instruction semantics, branching,
forwarding, failure handling and loop detection."""

import hashlib
import json

import pytest

from repro import ExecutionSettings, Network, NetworkElement, SymbolicExecutor, models
from repro.core import checks as V
from repro.core.campaign import VerificationCampaign
from repro.core.errors import ModelError
from repro.core.paths import PathStatus
from repro.sefl import (
    Allocate,
    Assign,
    Constrain,
    CreateTag,
    Deallocate,
    DestroyTag,
    Eq,
    Fail,
    For,
    Fork,
    Forward,
    Ge,
    Gt,
    If,
    InstructionBlock,
    IpDst,
    IpSrc,
    IpTtl,
    Le,
    Lt,
    Minus,
    Ne,
    NoOp,
    OneOf,
    Plus,
    SymbolicValue,
    Tag,
    TcpDst,
    TcpSrc,
    ip_to_number,
)
from repro.sefl.instructions import LOCAL
from repro.solver.intervals import IntervalSet
from repro.workloads import stanford


def single_element_network(program, name="box", inputs=("in0",), outputs=("out0", "out1", "out2")):
    network = Network()
    element = NetworkElement(name, list(inputs), list(outputs))
    element.set_input_program("*", program)
    network.add_element(element)
    return network


def run(program, packet=None, **settings_kwargs):
    network = single_element_network(program)
    settings = ExecutionSettings(**settings_kwargs) if settings_kwargs else None
    executor = SymbolicExecutor(network, settings=settings)
    packet = packet if packet is not None else models.symbolic_tcp_packet()
    return executor.inject(packet, "box", "in0")


class TestBasicSemantics:
    def test_forward_delivers(self):
        result = run(Forward("out0"))
        assert result.summary_counts() == {"delivered": 1}
        assert result.delivered()[0].last_port.port == "out0"

    def test_no_forward_is_dropped(self):
        result = run(NoOp())
        assert result.summary_counts() == {"dropped": 1}

    def test_fail_records_failed_path(self):
        result = run(InstructionBlock(Fail("nope"), Forward("out0")))
        assert result.summary_counts() == {"failed": 1}
        assert result.failed()[0].stop_reason == "nope"

    def test_instructions_after_forward_do_not_run(self):
        result = run(InstructionBlock(Forward("out0"), Fail("never reached")))
        assert result.summary_counts() == {"delivered": 1}

    def test_fork_duplicates_packet(self):
        result = run(Fork("out0", "out1", "out2"))
        assert len(result.delivered()) == 3
        ports = sorted(p.last_port.port for p in result.delivered())
        assert ports == ["out0", "out1", "out2"]

    def test_forward_by_index(self):
        result = run(Forward(1))
        assert result.delivered()[0].last_port.port == "out1"

    def test_fork_with_no_ports_is_recorded_as_dropped(self):
        """Regression: an empty Fork used to return no outcomes, silently
        vanishing the state from the results."""
        result = run(Fork())
        assert result.summary_counts() == {"dropped": 1}
        assert result.dropped()[0].stop_reason == "Fork with no output ports"

    def test_satisfiable_constrain_keeps_path_alive(self):
        result = run(InstructionBlock(Constrain(Eq(TcpDst, 80)), Forward("out0")))
        assert result.summary_counts() == {"delivered": 1}

    def test_unsatisfiable_constrain_fails_path(self):
        program = InstructionBlock(
            Constrain(Eq(TcpDst, 80)), Constrain(Eq(TcpDst, 443)), Forward("out0")
        )
        result = run(program)
        assert result.summary_counts() == {"failed": 1}
        assert "unsatisfiable" in result.failed()[0].stop_reason

    def test_constrain_on_concrete_field(self):
        packet = models.symbolic_tcp_packet({TcpDst: 22})
        allowed = run(InstructionBlock(Constrain(Eq(TcpDst, 22)), Forward("out0")), packet)
        denied = run(InstructionBlock(Constrain(Eq(TcpDst, 80)), Forward("out0")), packet)
        assert allowed.summary_counts() == {"delivered": 1}
        assert denied.summary_counts() == {"failed": 1}


class TestIfSemantics:
    def test_if_creates_two_paths_on_symbolic_field(self):
        program = If(Eq(TcpDst, 123), Forward("out0"), Forward("out1"))
        result = run(program)
        assert len(result.delivered()) == 2

    def test_if_single_feasible_branch_on_concrete_field(self):
        packet = models.symbolic_tcp_packet({TcpDst: 123})
        program = If(Eq(TcpDst, 123), Forward("out0"), Forward("out1"))
        result = run(program, packet)
        assert len(result.delivered()) == 1
        assert result.delivered()[0].last_port.port == "out0"

    def test_if_accepts_constrain_as_condition(self):
        program = If(Constrain(Eq(TcpDst, 123)), Forward("out0"), Forward("out1"))
        result = run(program)
        assert len(result.delivered()) == 2

    def test_figure_4_port_forwarding(self):
        """The worked example of Figure 4."""
        program = InstructionBlock(
            Constrain(Eq(IpDst, ip_to_number("141.85.37.1"))),
            If(
                Eq(TcpDst, 123),
                InstructionBlock(
                    Assign(IpDst, ip_to_number("192.168.1.100")),
                    Assign(TcpDst, 22),
                    Forward("out1"),
                ),
                Forward("out2"),
            ),
        )
        result = run(program)
        assert len(result.delivered()) == 2
        rewritten = result.reaching("box", "out1")[0]
        assert V.field_concrete_value(rewritten, TcpDst) == 22
        assert V.field_concrete_value(rewritten, IpDst) == ip_to_number("192.168.1.100")
        untouched = result.reaching("box", "out2")[0]
        assert V.field_invariant(untouched, IpDst)
        assert V.field_invariant(untouched, TcpDst)

    def test_nested_ifs(self):
        program = If(
            Lt(TcpDst, 1024),
            If(Eq(TcpDst, 80), Forward("out0"), Forward("out1")),
            Forward("out2"),
        )
        result = run(program)
        assert len(result.delivered()) == 3


class TestAssignAndExpressions:
    def test_assign_constant(self):
        result = run(InstructionBlock(Assign(TcpSrc, 1234), Forward("out0")))
        path = result.delivered()[0]
        assert V.field_concrete_value(path, TcpSrc) == 1234

    def test_assign_plus_minus(self):
        program = InstructionBlock(
            Assign(IpTtl, Minus(IpTtl, 1)),
            Assign(TcpSrc, Plus(TcpDst, 1)),
            Forward("out0"),
        )
        result = run(program, models.symbolic_tcp_packet({IpTtl: 10, TcpDst: 80}))
        path = result.delivered()[0]
        assert V.field_concrete_value(path, IpTtl) == 9
        assert V.field_concrete_value(path, TcpSrc) == 81

    def test_assign_fresh_symbolic_breaks_invariance(self):
        program = InstructionBlock(Assign(TcpSrc, SymbolicValue("fresh", 16)), Forward("out0"))
        result = run(program)
        path = result.delivered()[0]
        assert not V.field_invariant(path, TcpSrc)

    def test_assign_copies_between_fields(self):
        program = InstructionBlock(Assign(IpSrc, IpDst), Forward("out0"))
        result = run(program)
        path = result.delivered()[0]
        assert V.values_equal(path, IpSrc, IpDst)


class TestMetadataAndTags:
    def test_metadata_roundtrip(self):
        program = InstructionBlock(
            Allocate("note", 32),
            Assign("note", TcpDst),
            Assign(TcpDst, 9999),
            Assign(TcpDst, "note"),
            Forward("out0"),
        )
        result = run(program)
        path = result.delivered()[0]
        assert V.field_invariant(path, TcpDst)

    def test_local_metadata_is_scoped(self):
        # Build two cascaded elements both using a local "v"; the second must
        # not see the first's value.
        network = Network()
        first = NetworkElement("first", ["in0"], ["out0"])
        first.set_input_program(
            "in0",
            InstructionBlock(
                Allocate("v", 32, LOCAL), Assign("v", 1), Forward("out0")
            ),
        )
        second = NetworkElement("second", ["in0"], ["out0"])
        second.set_input_program(
            "in0",
            InstructionBlock(Constrain(Eq("v", 1)), Forward("out0")),
        )
        network.add_elements(first, second)
        network.add_link(("first", "out0"), ("second", "in0"))
        result = SymbolicExecutor(network).inject(
            models.symbolic_tcp_packet(), "first", "in0"
        )
        # The second element reads unallocated metadata -> memory safety fail.
        assert result.summary_counts() == {"failed": 1}
        assert "memory safety" in result.failed()[0].stop_reason

    def test_create_tag_from_existing_tag(self):
        program = InstructionBlock(
            CreateTag("Inner", Tag("L3") + 160),
            Allocate(Tag("Inner") + 0, 8),
            Assign(Tag("Inner") + 0, 7),
            Forward("out0"),
        )
        result = run(program)
        assert result.summary_counts() == {"delivered": 1}

    def test_destroy_tag_then_access_fails(self):
        program = InstructionBlock(
            DestroyTag("L4"),
            Constrain(Eq(TcpDst, 80)),
            Forward("out0"),
        )
        result = run(program)
        assert result.summary_counts() == {"failed": 1}
        assert "memory safety" in result.failed()[0].stop_reason

    def test_symbolic_tag_value_rejected(self):
        program = InstructionBlock(CreateTag("X", SymbolicValue("s", 8)), Forward("out0"))
        result = run(program)
        assert result.summary_counts() == {"failed": 1}


class TestMemorySafetyPaths:
    def test_unallocated_header_access_fails_path(self):
        program = InstructionBlock(
            Constrain(Eq(Tag("L3") + 999, 0)), Forward("out0")
        )
        result = run(program)
        assert result.summary_counts() == {"failed": 1}
        assert V.memory_safety_violations(result)

    def test_double_decapsulation_fails(self):
        from repro.models.tunnel import build_decapsulator

        network = Network()
        network.add_element(build_decapsulator("d1", require_ipip=False))
        network.add_element(build_decapsulator("d2", require_ipip=False))
        network.add_link(("d1", "out0"), ("d2", "in0"))
        result = SymbolicExecutor(network).inject(
            models.symbolic_tcp_packet(), "d1", "in0"
        )
        # Only one IP header exists; the second decapsulation must fail.
        assert result.summary_counts() == {"failed": 1}


class TestForLoop:
    def test_for_unfolds_over_matching_keys(self):
        program = InstructionBlock(
            Allocate("OPT2", 8),
            Assign("OPT2", 1),
            Allocate("OPT30", 8),
            Assign("OPT30", 1),
            Allocate("other", 8),
            Assign("other", 1),
            For(r"OPT\d+", lambda key: Assign(key, 0)),
            Forward("out0"),
        )
        result = run(program)
        path = result.delivered()[0]
        assert V.field_concrete_value(path, "OPT2") == 0
        assert V.field_concrete_value(path, "OPT30") == 0
        assert V.field_concrete_value(path, "other") == 1

    def test_for_with_no_matches_is_noop(self):
        program = InstructionBlock(For(r"NOPE\d+", lambda key: Fail("boom")), Forward("out0"))
        result = run(program)
        assert result.summary_counts() == {"delivered": 1}

    def test_for_body_must_be_callable(self):
        program = InstructionBlock(For(r".*", NoOp()), Forward("out0"))
        with pytest.raises(ModelError):
            run(program)


class TestPropagationAndLoops:
    def build_ring(self, hops=3):
        """A unidirectional ring of pass-through elements (a forwarding loop)."""
        network = Network()
        names = [f"n{i}" for i in range(hops)]
        for name in names:
            element = NetworkElement(name, ["in0"], ["out0"])
            element.set_input_program("in0", Forward("out0"))
            network.add_element(element)
        for i, name in enumerate(names):
            network.add_link((name, "out0"), (names[(i + 1) % hops], "in0"))
        return network

    def test_loop_detected_in_ring(self):
        network = self.build_ring()
        result = SymbolicExecutor(network).inject(
            models.symbolic_tcp_packet(), "n0", "in0"
        )
        assert result.summary_counts() == {"loop": 1}

    def test_hop_limit_fallback(self):
        network = self.build_ring()
        settings = ExecutionSettings(detect_loops=False, max_hops=10)
        result = SymbolicExecutor(network, settings=settings).inject(
            models.symbolic_tcp_packet(), "n0", "in0"
        )
        assert result.summary_counts() == {"loop": 1}
        assert "hop limit" in result.loops()[0].stop_reason

    def test_ttl_decrement_escapes_full_state_loop_detection(self):
        """A ring that decrements TTL: the full-state comparison sees a
        different state each time round (the paper's observation), so the
        path is eventually stopped by the hop budget instead."""
        network = Network()
        names = ["a", "b"]
        for name in names:
            element = NetworkElement(name, ["in0"], ["out0"])
            element.set_input_program(
                "in0",
                InstructionBlock(
                    Constrain(Ge(IpTtl, 1)),
                    Assign(IpTtl, Minus(IpTtl, 1)),
                    Forward("out0"),
                ),
            )
            network.add_element(element)
        network.add_link(("a", "out0"), ("b", "in0"))
        network.add_link(("b", "out0"), ("a", "in0"))
        settings = ExecutionSettings(max_hops=12)
        result = SymbolicExecutor(network, settings=settings).inject(
            models.symbolic_tcp_packet(), "a", "in0"
        )
        loops = result.loops()
        assert loops  # terminated, one way or the other
        assert all(p.state.hop_count <= 13 for p in loops)

    def test_chain_of_elements_propagates_state(self):
        network = Network()
        first = NetworkElement("first", ["in0"], ["out0"])
        first.set_input_program(
            "in0", InstructionBlock(Assign(TcpDst, 8080), Forward("out0"))
        )
        second = NetworkElement("second", ["in0"], ["out0"])
        second.set_input_program(
            "in0", InstructionBlock(Constrain(Eq(TcpDst, 8080)), Forward("out0"))
        )
        network.add_elements(first, second)
        network.add_link(("first", "out0"), ("second", "in0"))
        result = SymbolicExecutor(network).inject(
            models.symbolic_tcp_packet(), "first", "in0"
        )
        assert result.summary_counts() == {"delivered": 1}
        assert result.delivered()[0].last_port.element == "second"

    def test_output_port_program_filters(self):
        network = Network()
        element = NetworkElement("sw", ["in0"], ["out0", "out1"])
        element.set_input_program("in0", Fork("out0", "out1"))
        element.set_output_program("out0", Constrain(Eq(TcpDst, 80)))
        element.set_output_program("out1", Constrain(Ne(TcpDst, 80)))
        network.add_element(element)
        result = SymbolicExecutor(network).inject(
            models.symbolic_tcp_packet({TcpDst: 80}), "sw", "in0"
        )
        assert len(result.delivered()) == 1
        assert result.delivered()[0].last_port.port == "out0"

    def test_output_port_forwarding_is_rejected(self):
        network = Network()
        element = NetworkElement("bad", ["in0"], ["out0"])
        element.set_input_program("in0", Forward("out0"))
        element.set_output_program("out0", Forward("out0"))
        network.add_element(element)
        with pytest.raises(ModelError):
            SymbolicExecutor(network).inject(models.symbolic_tcp_packet(), "bad", "in0")

    def test_injection_program_must_not_forward(self):
        network = single_element_network(Forward("out0"))
        with pytest.raises(ModelError):
            SymbolicExecutor(network).inject(Forward("out0"), "box", "in0")

    def test_max_paths_budget_stops_exploration(self):
        # Three parallel branches, each ending at its own sink element; with a
        # budget of one recorded path the engine must stop before exploring
        # all of them.
        network = Network()
        fan = NetworkElement("fan", ["in0"], ["out0", "out1", "out2"])
        fan.set_input_program("in0", Fork("out0", "out1", "out2"))
        network.add_element(fan)
        for index in range(3):
            sink = NetworkElement(f"sink{index}", ["in0"], ["out0"])
            sink.set_input_program("in0", Forward("out0"))
            network.add_element(sink)
            network.add_link(("fan", f"out{index}"), (f"sink{index}", "in0"))
        settings = ExecutionSettings(max_paths=1)
        result = SymbolicExecutor(network, settings=settings).inject(
            models.symbolic_tcp_packet(), "fan", "in0"
        )
        assert 1 <= len(result.paths) < 3

    def test_result_json_output(self):
        result = run(Fork("out0", "out1"))
        payload = json.loads(result.to_json())
        assert payload["path_count"] == 2
        assert payload["paths"][0]["status"] == "delivered"
        assert payload["injected_at"] == "box:in0"


# ---------------------------------------------------------------------------
# Instructions are described once per object, not once per execution
# ---------------------------------------------------------------------------


def constrain_instructions(network):
    """Every distinct ``Constrain`` object in the network's port programs."""
    found = {}

    def walk(node):
        if isinstance(node, Constrain):
            found[id(node)] = node
        elif isinstance(node, InstructionBlock):
            for child in node.instructions:
                walk(child)
        elif isinstance(node, If):
            walk(node.then_branch)
            walk(node.else_branch)

    for element in network:
        for port in element.input_ports:
            walk(element.input_program(port))
        for port in element.output_ports:
            walk(element.output_program(port))
    return list(found.values())


class TestDescribeOnce:
    # What the engine rendered per execution before descriptions were cached
    # on the instruction: the trace and stop reason of the first failed path.
    TRACE_TAIL = [
        "Allocate",
        "Assign(IpDst)",
        "Fork('hosts', 'up1', 'up0')",
        "Constrain(OneOf(expression=IpDst, values=IntervalSet([0,167772159], "
        "[167903232,167968767], [168034304,4294967295])))",
        "Fork('z0', 'z1', 'z2', 'z3')",
        "Constrain(OneOf(expression=IpDst, values=IntervalSet([167772160,167837695])))",
    ]
    STOP_REASON = (
        "constraint unsatisfiable: Constrain(OneOf(expression=IpDst, "
        "values=IntervalSet([167772160,167837695])))"
    )

    def test_campaign_renders_each_constraint_at_most_once(self, monkeypatch):
        network, injections = stanford.campaign_network(zones=4)
        calls = []
        render = IntervalSet.__repr__
        monkeypatch.setattr(
            IntervalSet, "__repr__", lambda self: calls.append(1) or render(self)
        )
        campaign = VerificationCampaign(network, symmetry=False, delta=False)
        for element, port in injections:
            campaign.add_injection(element, port)
        result = campaign.run(workers=1)
        assert result.stats.jobs == len(injections) == 4
        # One render per execution used to make this 124.
        assert 0 < len(calls) <= len(constrain_instructions(network)) == 20

    def test_trace_and_stop_reason_are_byte_identical(self):
        network, injections = stanford.campaign_network(zones=4)
        result = SymbolicExecutor(network).inject(
            models.symbolic_ip_packet(), *injections[0]
        )
        assert result.summary_counts() == {"delivered": 4, "failed": 11}
        failed = result.failed()[0]
        assert failed.to_dict()["instructions"][-6:] == self.TRACE_TAIL
        assert failed.stop_reason == failed.to_dict()["stop_reason"] == self.STOP_REASON
        traces = [path.to_dict()["instructions"] for path in result.paths]
        assert hashlib.sha256(json.dumps(traces).encode()).hexdigest() == (
            "1a8fbbf233d5104f14485c4256ef4fde58e6a4e012e64ce2df88d2245604db1b"
        )
        # Rendering again hands out the text cached on the instruction.
        again = failed.to_dict()["instructions"]
        assert all(a is b for a, b in zip(again, failed.to_dict()["instructions"]))

    def test_description_is_cached_on_the_instruction(self):
        constraint = Constrain(OneOf(IpDst, [(1, 5)]))
        assert constraint.description is constraint.description
        assert constraint.unsatisfiable_reason is constraint.unsatisfiable_reason
        assert constraint == Constrain(OneOf(IpDst, [(1, 5)]))
        assert hash(constraint) == hash(Constrain(OneOf(IpDst, [(1, 5)])))
        assert [i.description for i in (NoOp(), Fail("x"), Forward(2), Fork("a", 1))] == [
            "NoOp",
            "Fail('x')",
            "Forward(2)",
            "Fork('a', 1)",
        ]
