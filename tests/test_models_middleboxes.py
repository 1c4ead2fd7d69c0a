"""Tests for the middlebox models: NAT, firewalls, tunnels, encryption,
IP mirror and the composite ASA pipeline."""

import pytest

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.core import checks as V
from repro.models.asa import AsaConfig, build_asa
from repro.models.firewall import AclRule, build_acl_firewall, build_stateful_firewall
from repro.models.mirror import build_ip_mirror
from repro.models.nat import build_nat
from repro.models.tunnel import build_decapsulator, build_encapsulator, build_mtu_filter
from repro.models.encryption import build_decryptor, build_encryptor
from repro.sefl import (
    EtherType,
    IpDst,
    IpLength,
    IpProto,
    IpSrc,
    TcpDst,
    TcpPayload,
    TcpSrc,
    ip_to_number,
)

SETTINGS = ExecutionSettings(record_failed_paths=True)


def run(network, packet, element, port):
    return SymbolicExecutor(network, settings=SETTINGS).inject(packet, element, port)


class TestNat:
    def build(self):
        network = Network()
        network.add_element(build_nat("nat", public_address="141.85.37.1"))
        return network

    def test_outgoing_rewrites_source(self):
        network = self.build()
        result = run(network, models.symbolic_tcp_packet(), "nat", "in0")
        path = result.reaching("nat", "out0")[0]
        assert V.field_concrete_value(path, IpSrc) == ip_to_number("141.85.37.1")
        assert not V.field_invariant(path, TcpSrc)

    def test_mapped_port_is_constrained_to_range(self):
        network = self.build()
        result = run(network, models.symbolic_tcp_packet(), "nat", "in0")
        path = result.reaching("nat", "out0")[0]
        values = V.admitted_values(path, TcpSrc, samples=2)
        assert all(1024 <= v <= 65535 for v in values)

    def test_destination_fields_invariant(self):
        network = self.build()
        result = run(network, models.symbolic_tcp_packet(), "nat", "in0")
        path = result.reaching("nat", "out0")[0]
        assert V.field_invariant(path, IpDst)
        assert V.field_invariant(path, TcpDst)

    def test_non_tcp_traffic_rejected(self):
        network = self.build()
        result = run(network, models.symbolic_udp_packet(), "nat", "in0")
        assert not result.reaching("nat", "out0")

    def test_return_traffic_without_state_is_dropped(self):
        network = self.build()
        result = run(network, models.symbolic_tcp_packet(), "nat", "in1")
        assert not result.reaching("nat", "out1")

    def test_full_round_trip_restores_original(self):
        """NAT out, mirror at the far end, NAT back in: the client sees the
        original addresses again (the cascaded-NAT property of §7)."""
        network = Network()
        network.add_element(build_nat("nat"))
        network.add_element(build_ip_mirror("mirror"))
        network.add_link(("nat", "out0"), ("mirror", "in0"))
        network.add_link(("mirror", "out0"), ("nat", "in1"))
        result = run(network, models.symbolic_tcp_packet(), "nat", "in0")
        paths = result.reaching("nat", "out1")
        assert len(paths) == 1
        path = paths[0]
        # After mirroring, the original source became the destination; the NAT
        # restores it, so destination address/port equal the original source.
        injected_src = path.state.variable_history(IpSrc)[0]
        assert V.header_visible(path, IpDst, injected_src)


class TestStatefulFirewall:
    def test_forward_and_return_traffic(self):
        network = Network()
        network.add_element(build_stateful_firewall("fw"))
        network.add_element(build_ip_mirror("mirror"))
        network.add_link(("fw", "out0"), ("mirror", "in0"))
        network.add_link(("mirror", "out0"), ("fw", "in1"))
        result = run(network, models.symbolic_tcp_packet(), "fw", "in0")
        assert result.reaching("fw", "out1")

    def test_unsolicited_inbound_dropped(self):
        network = Network()
        network.add_element(build_stateful_firewall("fw"))
        result = run(network, models.symbolic_tcp_packet(), "fw", "in1")
        assert not result.reaching("fw", "out1")


class TestAclFirewall:
    RULES = [
        AclRule(action="deny", dst_port=23),
        AclRule(action="allow", proto=6, dst="10.0.0.0/8", dst_port=80),
        AclRule(action="allow", src="192.168.0.0/16"),
    ]

    def run_packet(self, values, default="deny"):
        network = Network()
        network.add_element(build_acl_firewall("fw", self.RULES, default_action=default))
        return run(network, models.symbolic_tcp_packet(values), "fw", "in0")

    def test_allowed_by_rule(self):
        result = self.run_packet(
            {IpDst: ip_to_number("10.1.2.3"), TcpDst: 80, IpProto: 6}
        )
        assert result.reaching("fw", "out0")

    def test_denied_by_first_matching_rule(self):
        result = self.run_packet(
            {IpSrc: ip_to_number("192.168.1.1"), TcpDst: 23}
        )
        assert not result.reaching("fw", "out0")

    def test_default_deny(self):
        result = self.run_packet({IpDst: ip_to_number("8.8.8.8"), TcpDst: 443,
                                  IpSrc: ip_to_number("1.1.1.1")})
        assert not result.reaching("fw", "out0")

    def test_default_allow(self):
        result = self.run_packet(
            {IpDst: ip_to_number("8.8.8.8"), TcpDst: 443, IpSrc: ip_to_number("1.1.1.1")},
            default="allow",
        )
        assert result.reaching("fw", "out0")

    def test_symbolic_packet_explores_both_verdicts(self):
        network = Network()
        network.add_element(build_acl_firewall("fw", self.RULES))
        result = run(network, models.symbolic_tcp_packet(), "fw", "in0")
        assert result.reaching("fw", "out0")
        assert result.failed()


class TestTunnel:
    def build_tunnel(self, mtu=None):
        network = Network()
        network.add_element(build_encapsulator("E1", "10.10.0.1", "10.10.0.2"))
        network.add_element(build_decapsulator("D1"))
        if mtu is not None:
            network.add_element(build_mtu_filter("mid", mtu))
            network.add_link(("E1", "out0"), ("mid", "in0"))
            network.add_link(("mid", "out0"), ("D1", "in0"))
        else:
            network.add_link(("E1", "out0"), ("D1", "in0"))
        return network

    def test_contents_invariant_across_tunnel(self):
        """The §2 motivating example: header contents are invariant across an
        IP-in-IP tunnel, which symbolic execution proves directly."""
        network = self.build_tunnel()
        result = run(network, models.symbolic_tcp_packet(), "E1", "in0")
        path = result.reaching("D1", "out0")[0]
        for field in (IpSrc, IpDst, TcpDst, IpLength):
            assert V.field_invariant(path, field)

    def test_outer_header_visible_inside_tunnel(self):
        network = Network()
        network.add_element(build_encapsulator("E1", "10.10.0.1", "10.10.0.2"))
        result = run(network, models.symbolic_tcp_packet(), "E1", "in0")
        path = result.reaching("E1", "out0")[0]
        assert V.field_concrete_value(path, IpDst) == ip_to_number("10.10.0.2")
        assert V.field_concrete_value(path, IpProto) == 4

    def test_decapsulation_requires_ipip_protocol(self):
        network = Network()
        network.add_element(build_decapsulator("D1"))
        result = run(network, models.symbolic_tcp_packet({IpProto: 6}), "D1", "in0")
        assert not result.reaching("D1", "out0")

    def test_nested_tunnels_reuse_the_same_model(self):
        """Two levels of encapsulation use the identical E/D models (the
        model-independence property NOD lacks, §2)."""
        network = Network()
        network.add_element(build_encapsulator("E1", "1.1.1.1", "2.2.2.2"))
        network.add_element(build_encapsulator("E2", "3.3.3.3", "4.4.4.4"))
        network.add_element(build_decapsulator("D2"))
        network.add_element(build_decapsulator("D1"))
        network.add_link(("E1", "out0"), ("E2", "in0"))
        network.add_link(("E2", "out0"), ("D2", "in0"))
        network.add_link(("D2", "out0"), ("D1", "in0"))
        result = run(network, models.symbolic_tcp_packet(), "E1", "in0")
        path = result.reaching("D1", "out0")[0]
        assert V.field_invariant(path, IpDst)
        assert V.field_invariant(path, TcpDst)

    def test_mtu_interaction_with_tunnel(self):
        """§8.4: with a 1536-byte MTU filter after encapsulation the inner
        packet must be at least one IP header smaller."""
        network = self.build_tunnel(mtu=1536)
        result = run(network, models.symbolic_tcp_packet(), "E1", "in0")
        path = result.reaching("D1", "out0")[0]
        admitted = V.admitted_values(path, IpLength, samples=1)
        assert admitted and all(v + 20 <= 1536 for v in admitted)
        # 1530 bytes would exceed the tunnel MTU once encapsulated.
        from repro.solver.ast import Const, Eq as SEq
        blocked = path.state.read_variable(IpLength)
        from repro.solver.solver import Solver
        solver = Solver()
        assert solver.check(list(path.constraints) + [SEq(blocked, Const(1530))]).is_unsat
        assert solver.check(list(path.constraints) + [SEq(blocked, Const(1516))]).is_sat


class TestEncryption:
    def build(self, encrypt_key=7, decrypt_key=7):
        network = Network()
        network.add_element(build_encryptor("enc", key=encrypt_key))
        network.add_element(build_decryptor("dec", key=decrypt_key))
        network.add_link(("enc", "out0"), ("dec", "in0"))
        return network

    def test_payload_unreadable_after_encryption(self):
        network = Network()
        network.add_element(build_encryptor("enc", key=7))
        result = run(network, models.symbolic_tcp_packet(), "enc", "in0")
        path = result.reaching("enc", "out0")[0]
        # The original payload value sits at the bottom of the allocation
        # stack, masked by the ciphertext allocation on top.
        address = path.state.resolve_address(TcpPayload)
        stacked = [slot.current for slot in path.state.header._slots[address]]
        assert len(stacked) == 2
        original, visible = stacked
        assert not V.header_visible(path, TcpPayload, original)
        assert V.header_visible(path, TcpPayload, visible)

    def test_decryption_with_matching_key_restores_payload(self):
        network = self.build()
        result = run(network, models.symbolic_tcp_packet(), "enc", "in0")
        path = result.reaching("dec", "out0")[0]
        original = path.state.variable_history(TcpPayload)[0]
        assert V.header_visible(path, TcpPayload, original)

    def test_decryption_with_wrong_key_fails(self):
        network = self.build(encrypt_key=7, decrypt_key=8)
        result = run(network, models.symbolic_tcp_packet(), "enc", "in0")
        assert not result.reaching("dec", "out0")


class TestIpMirror:
    def test_swaps_addresses_and_ports(self):
        network = Network()
        network.add_element(build_ip_mirror("mirror"))
        packet = models.symbolic_tcp_packet(
            {IpSrc: 1, IpDst: 2, TcpSrc: 10, TcpDst: 20}
        )
        result = run(network, packet, "mirror", "in0")
        path = result.reaching("mirror", "out0")[0]
        assert V.field_concrete_value(path, IpSrc) == 2
        assert V.field_concrete_value(path, IpDst) == 1
        assert V.field_concrete_value(path, TcpSrc) == 20
        assert V.field_concrete_value(path, TcpDst) == 10


class TestAsaPipeline:
    def build(self, config=None):
        network = Network()
        attachment = build_asa(network, "asa", config)
        return network, attachment

    def test_outbound_tcp_is_allowed_and_natted(self):
        network, asa = self.build()
        result = run(network, models.symbolic_tcp_packet(), *asa.inside_entry)
        paths = [p for p in result.delivered() if p.reached(*asa.outside_exit)]
        assert paths
        assert not V.field_invariant(paths[0], IpSrc)

    def test_unsolicited_inbound_is_blocked_by_default(self):
        network, asa = self.build()
        result = run(network, models.symbolic_tcp_packet(), *asa.outside_entry)
        assert not [p for p in result.delivered() if p.reached(*asa.inside_exit)]

    def test_inbound_allowed_by_acl_rule(self):
        config = AsaConfig(
            inbound_rules=[AclRule(action="allow", proto=6, dst_port=443)],
            enable_dynamic_nat=False,
        )
        network, asa = self.build(config)
        packet = models.symbolic_tcp_packet({TcpDst: 443, IpProto: 6})
        result = run(network, packet, *asa.outside_entry)
        assert [p for p in result.delivered() if p.reached(*asa.inside_exit)]

    def test_static_nat_rewrites_inbound_destination(self):
        config = AsaConfig(
            static_nat=[("141.85.37.10", "10.41.0.10")],
            inbound_rules=[AclRule(action="allow", proto=6, dst="10.41.0.10/32")],
            enable_dynamic_nat=False,
        )
        network, asa = self.build(config)
        packet = models.symbolic_tcp_packet(
            {IpDst: ip_to_number("141.85.37.10"), IpProto: 6}
        )
        result = run(network, packet, *asa.outside_entry)
        delivered = [p for p in result.delivered() if p.reached(*asa.inside_exit)]
        assert delivered
        assert V.field_concrete_value(delivered[0], IpDst) == ip_to_number("10.41.0.10")
