"""Tests for the topology model: elements, ports, links."""

import pytest

from repro.core.errors import ModelError
from repro.network import Network, NetworkElement, PortId, input_port, output_port
from repro.sefl.instructions import Forward, NoOp


class TestPorts:
    def test_port_naming_helpers(self):
        assert input_port(0) == "in0"
        assert output_port(3) == "out3"
        assert input_port("custom") == "custom"

    def test_port_id_string(self):
        assert str(PortId("sw1", "in0")) == "sw1:in0"


class TestNetworkElement:
    def test_declared_ports(self):
        element = NetworkElement("e", ["in0"], ["out0", "out1"])
        assert element.input_ports == ["in0"]
        assert element.output_ports == ["out0", "out1"]

    def test_set_program_registers_port(self):
        element = NetworkElement("e")
        element.set_input_program("in5", NoOp())
        element.set_output_program("out2", NoOp())
        assert element.has_input_port("in5")
        assert element.has_output_port("out2")

    def test_wildcard_input_program(self):
        element = NetworkElement("e", ["in0", "in1"], ["out0"])
        element.set_input_program("*", Forward("out0"))
        assert isinstance(element.input_program("in0"), Forward)
        assert isinstance(element.input_program("in1"), Forward)

    def test_specific_program_overrides_wildcard(self):
        element = NetworkElement("e", ["in0", "in1"], ["out0"])
        element.set_input_program("*", Forward("out0"))
        element.set_input_program("in1", NoOp())
        assert isinstance(element.input_program("in1"), NoOp)
        assert isinstance(element.input_program("in0"), Forward)

    def test_default_program_is_noop(self):
        element = NetworkElement("e", ["in0"], ["out0"])
        assert isinstance(element.input_program("in0"), NoOp)
        assert isinstance(element.output_program("out0"), NoOp)

    def test_resolve_output_port_by_index(self):
        element = NetworkElement("e", [], ["north", "south"])
        assert element.resolve_output_port(0) == "north"
        assert element.resolve_output_port(1) == "south"
        assert element.resolve_output_port("south") == "south"

    def test_resolve_out_of_range_index_falls_back_to_convention(self):
        element = NetworkElement("e", [], ["out0"])
        assert element.resolve_output_port(7) == "out7"


class TestNetwork:
    def setup_method(self):
        self.network = Network("test")
        self.a = NetworkElement("a", ["in0"], ["out0"])
        self.b = NetworkElement("b", ["in0"], ["out0"])
        self.network.add_elements(self.a, self.b)

    def test_duplicate_element_rejected(self):
        with pytest.raises(ModelError):
            self.network.add_element(NetworkElement("a"))

    def test_unknown_element_lookup_fails(self):
        with pytest.raises(ModelError):
            self.network.element("missing")

    def test_add_link_and_lookup(self):
        self.network.add_link(("a", "out0"), ("b", "in0"))
        destination = self.network.link_from("a", "out0")
        assert destination == PortId("b", "in0")
        assert self.network.link_from("b", "out0") is None

    def test_duplicate_source_port_rejected(self):
        self.network.add_link(("a", "out0"), ("b", "in0"))
        with pytest.raises(ModelError):
            self.network.add_link(("a", "out0"), ("b", "in0"))

    def test_link_to_unknown_element_rejected(self):
        with pytest.raises(ModelError):
            self.network.add_link(("a", "out0"), ("ghost", "in0"))

    def test_add_link_registers_new_ports(self):
        self.network.add_link(("a", "extra-out"), ("b", "extra-in"))
        assert self.a.has_output_port("extra-out")
        assert self.b.has_input_port("extra-in")

    def test_links_listing(self):
        self.network.add_link(("a", "out0"), ("b", "in0"))
        assert len(self.network.links) == 1
        assert "a:out0 -> b:in0" in str(self.network.links[0])

    def test_port_count(self):
        assert self.network.port_count() == 4

    def test_len_and_iteration(self):
        assert len(self.network) == 2
        assert {e.name for e in self.network} == {"a", "b"}

    def test_validate_clean_network(self):
        self.network.add_link(("a", "out0"), ("b", "in0"))
        assert self.network.validate() == []

    def test_permissive_link_to_unknown_element_is_a_validate_finding(self):
        self.network.add_link_permissive(("a", "out0"), ("ghost", "in0"))
        problems = self.network.validate()
        assert any("ghost" in problem for problem in problems)

    def test_permissive_link_from_unknown_element_is_a_validate_finding(self):
        self.network.add_link_permissive(("phantom", "out0"), ("b", "in0"))
        problems = self.network.validate()
        assert any("phantom" in problem for problem in problems)

    def test_permissive_link_still_declares_ports_on_known_elements(self):
        self.network.add_link_permissive(("a", "extra-out"), ("b", "extra-in"))
        assert self.a.has_output_port("extra-out")
        assert self.b.has_input_port("extra-in")
        assert self.network.validate() == []

    def test_permissive_link_rejects_duplicate_source_port(self):
        self.network.add_link_permissive(("a", "out0"), ("ghost", "in0"))
        with pytest.raises(ModelError):
            self.network.add_link_permissive(("a", "out0"), ("b", "in0"))
