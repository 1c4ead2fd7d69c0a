"""Tests for the configuration parsers (§7.1)."""

import logging
import os
import random
import re

import pytest

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.models.switch import SwitchModelStyle
from repro.parsers import (
    load_network_directory,
    parse_asa_config,
    parse_mac_table,
    parse_routing_table,
    parse_topology_file,
    router_from_routing_table,
    switch_from_mac_table,
)
from repro.parsers.asa_config import format_asa_config
from repro.parsers.mac_table import format_mac_table
from repro.parsers.routing_table import format_routing_table
from repro.parsers.topology_file import TopologyParseError
from repro.sefl import EtherDst, IpDst, ip_to_number, mac_to_number
from repro.sefl.util import parse_prefix

SETTINGS = ExecutionSettings(record_failed_paths=False)

MAC_SNAPSHOT = """
Vlan    Mac Address       Type        Ports
----    -----------       ----        -----
 302    0011.2233.4455    DYNAMIC     Gi0/1
 302    0011.2233.4456    DYNAMIC     Gi0/1
 304    0011.2233.5555    STATIC      Gi0/2
Total Mac Addresses for this criterion: 3
"""

FIB_SNAPSHOT = """
# core router snapshot
10.0.0.0/8        if0
192.168.0.0/24    if1
192.168.0.1/32    if0
0.0.0.0/0         if2
"""

ASA_SNAPSHOT = """
hostname asa5510
ip address 141.85.37.1
static (inside,outside) 141.85.37.10 10.41.0.10
global (outside) 1 interface
nat (inside) 1 0.0.0.0 0.0.0.0
access-list outside_in extended permit tcp any host 141.85.37.10 eq 443
access-list outside_in extended deny ip any any
sysopt connection tcpmss 1380
! a comment
"""


class TestMacTableParser:
    def test_parse_groups_by_port(self):
        table = parse_mac_table(MAC_SNAPSHOT)
        assert set(table) == {"Gi0/1", "Gi0/2"}
        assert len(table["Gi0/1"]) == 2
        assert table["Gi0/2"] == [mac_to_number("0011.2233.5555")]

    def test_vlan_filter(self):
        table = parse_mac_table(MAC_SNAPSHOT, vlan=304)
        assert set(table) == {"Gi0/2"}

    def test_header_lines_ignored(self):
        assert parse_mac_table("Vlan Mac Address Type Ports\n----") == {}

    def test_switch_from_mac_table_executes(self):
        element = switch_from_mac_table("sw", MAC_SNAPSHOT, style=SwitchModelStyle.EGRESS)
        network = Network()
        network.add_element(element)
        packet = models.symbolic_tcp_packet({EtherDst: mac_to_number("0011.2233.5555")})
        result = SymbolicExecutor(network, settings=SETTINGS).inject(packet, "sw", "in0")
        assert [p.last_port.port for p in result.delivered()] == ["Gi0/2"]

    def test_roundtrip_through_formatter(self):
        table = parse_mac_table(MAC_SNAPSHOT)
        assert parse_mac_table(format_mac_table(table)) == table


class TestRoutingTableParser:
    def test_parse_entries(self):
        fib = parse_routing_table(FIB_SNAPSHOT)
        assert len(fib) == 4
        assert (ip_to_number("10.0.0.0"), 8, "if0") in fib
        assert (0, 0, "if2") in fib

    def test_comments_and_blank_lines_ignored(self):
        assert parse_routing_table("# nothing\n\n") == []

    def test_router_from_routing_table_respects_lpm(self):
        element = router_from_routing_table("r", FIB_SNAPSHOT)
        network = Network()
        network.add_element(element)
        packet = models.symbolic_ip_packet({IpDst: ip_to_number("192.168.0.1")})
        result = SymbolicExecutor(network, settings=SETTINGS).inject(packet, "r", "in0")
        assert [p.last_port.port for p in result.delivered()] == ["if0"]

    def test_roundtrip_through_formatter(self):
        fib = parse_routing_table(FIB_SNAPSHOT)
        assert parse_routing_table(format_routing_table(fib)) == fib


OLD_ENTRY = re.compile(r"^\s*(?P<prefix>[\d./]+)\s+(?P<port>\S+)\s*(#.*)?$")


def reference_parse(text):
    """The line-at-a-time parser ``parse_routing_table`` replaced: the oracle
    for which lines are rules and what they mean."""
    entries = []
    for line in text.splitlines():
        stripped = line.strip()
        match = OLD_ENTRY.match(stripped)
        if not stripped or stripped.startswith("#") or not match:
            continue
        try:
            address, plen = parse_prefix(match.group("prefix"))
        except ValueError:
            continue
        entries.append((address, plen, match.group("port")))
    return entries


@pytest.fixture
def routing_table_log():
    """Records of the parser's logger, captured on the logger itself (an
    earlier CLI test may have stopped the ``repro`` hierarchy propagating)."""
    logger = logging.getLogger("repro.parsers.routing_table")
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


class TestRoutingTableSkippedLines:
    DIRTY = (
        "# core router snapshot\n"
        "10.0.0.0/8        if0\n"
        "\n"
        "10.0.0.300/24     if1\n"  # line 4: octet out of range
        "2001:db8::/32     if0\n"  # IPv6
        "10.1.0.0/16\n"  # no port
        "10.2.0.0/33       if1\n"  # length out of range
        "192.168.0.0/24    if1   # trailing comment\n"
    )

    def test_malformed_lines_are_skipped_with_one_warning(self, routing_table_log):
        fib = parse_routing_table(self.DIRTY)
        assert fib == [
            (ip_to_number("10.0.0.0"), 8, "if0"),
            (ip_to_number("192.168.0.0"), 24, "if1"),
        ]
        (record,) = routing_table_log
        assert record.levelno == logging.WARNING
        assert record.name == "repro.parsers.routing_table"
        assert record.getMessage() == (
            "routing table: skipped 4 malformed line(s), first at line 4"
        )

    def test_clean_snapshot_logs_nothing(self, routing_table_log):
        assert len(parse_routing_table(FIB_SNAPSHOT)) == 4
        assert parse_routing_table("") == []
        assert routing_table_log == []

    def test_unusual_but_valid_spellings_still_parse(self, routing_table_log):
        text = "\t10.0.0.0/8\tif0\r\n192.168.0.1 if1#x\r\n  010.001.0.0/016   if2   \n"
        assert parse_routing_table(text) == [
            (ip_to_number("10.0.0.0"), 8, "if0"),
            (ip_to_number("192.168.0.1"), 32, "if1#x"),
            (ip_to_number("10.1.0.0"), 16, "if2"),
        ]
        assert routing_table_log == []

    def test_agrees_with_line_at_a_time_reference(self):
        lines = self.DIRTY.splitlines() + [
            "1.2.3.4/8/3 if0",
            "1.2.3 if0",
            "1.2.3.4.5/8 if0",
            "1.2.3.4/ if0",
            "1.2.3.4/+8 if0",
            "1.2.3.4/8 if0 extra",
            "  # 1.2.3.4/8 if0",
            "1.2.3.4/8 if0#no-space-comment",
            "0.0.0.0/0 default",
            "255.255.255.255 host",
            "256.0.0.0/8 if0",
        ]
        rng = random.Random(20260927)
        for _ in range(200):
            sample = rng.sample(lines, rng.randint(0, len(lines)))
            text = "\n".join(sample) + rng.choice(["", "\n"])
            assert parse_routing_table(text) == reference_parse(text), text


class TestAsaConfigParser:
    def test_parse_core_statements(self):
        config = parse_asa_config(ASA_SNAPSHOT)
        assert config.public_address == "141.85.37.1"
        assert config.static_nat == [("141.85.37.10", "10.41.0.10")]
        assert config.enable_dynamic_nat
        assert config.options_policy.mss_clamp == 1380

    def test_access_list_rules(self):
        config = parse_asa_config(ASA_SNAPSHOT)
        assert len(config.inbound_rules) == 2
        allow = config.inbound_rules[0]
        assert allow.action == "allow"
        assert allow.proto == 6
        assert allow.dst == "141.85.37.10/32"
        assert allow.dst_port == 443
        assert config.inbound_rules[1].action == "deny"

    def test_netmask_clause(self):
        config = parse_asa_config(
            "access-list in extended permit ip 10.0.0.0 255.0.0.0 any"
        )
        assert config.inbound_rules[0].src == "10.0.0.0/8"

    def test_roundtrip_through_formatter(self):
        config = parse_asa_config(ASA_SNAPSHOT)
        reparsed = parse_asa_config(format_asa_config(config))
        assert reparsed.public_address == config.public_address
        assert reparsed.static_nat == config.static_nat
        assert len(reparsed.inbound_rules) == len(config.inbound_rules)


class TestTopologyFile:
    TOPOLOGY = """
    # two switches around a router
    device sw1 switch sw1.mac
    device r1  router r1.fib
    link sw1:Gi0/1 -> r1:in0
    link r1:if0 -> sw1:in0
    """

    SNAPSHOTS = {
        "sw1.mac": MAC_SNAPSHOT,
        "r1.fib": FIB_SNAPSHOT,
    }

    def test_parse_topology(self):
        network = parse_topology_file(self.TOPOLOGY, self.SNAPSHOTS)
        assert network.has_element("sw1")
        assert network.has_element("r1")
        assert len(network.links) == 2

    def test_missing_snapshot_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_topology_file("device x switch missing.mac", {})

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_topology_file("device x toaster x.cfg", {"x.cfg": ""})

    def test_malformed_line_rejected(self):
        with pytest.raises(TopologyParseError):
            parse_topology_file("junk", {})

    def test_asa_and_click_devices(self):
        topology = """
        device fw asa fw.conf
        device pipe click pipe.click
        """
        snapshots = {
            "fw.conf": ASA_SNAPSHOT,
            "pipe.click": "q :: Queue; d :: DecIPTTL; q -> d;",
        }
        network = parse_topology_file(topology, snapshots)
        assert network.has_element("q")
        assert network.has_element("d")
        assert any(name.startswith("fw-") for name in (e.name for e in network))

    def test_load_network_directory(self, tmp_path):
        (tmp_path / "topology.txt").write_text(self.TOPOLOGY)
        (tmp_path / "sw1.mac").write_text(MAC_SNAPSHOT)
        (tmp_path / "r1.fib").write_text(FIB_SNAPSHOT)
        network = load_network_directory(str(tmp_path))
        assert network.has_element("sw1")
        assert network.has_element("r1")

    def test_files_the_topology_never_references_are_never_opened(
        self, tmp_path, monkeypatch
    ):
        """Regression: the directory loader read and UTF-8-decoded *every*
        file, so a ``.DS_Store`` beside ``topology.txt`` crashed the build
        and a multi-megabyte ``--save-baseline`` JSON was read on every
        one.  The snapshot is ``topology.txt`` plus what it references."""
        import builtins

        from repro.api import Loop, NetworkModel
        from repro.parsers.topology_file import Snapshot, snapshot_file_names

        (tmp_path / "topology.txt").write_text(self.TOPOLOGY)
        (tmp_path / "sw1.mac").write_text(MAC_SNAPSHOT)
        (tmp_path / "r1.fib").write_text(FIB_SNAPSHOT)
        (tmp_path / ".DS_Store").write_bytes(b"\xff\xfe\x00\x00Bud1")
        (tmp_path / "baseline.json").write_bytes(b"[" + b" " * 3_600_000 + b"]")
        snapshot_files = ["topology.txt", "sw1.mac", "r1.fib"]
        assert snapshot_file_names(str(tmp_path)) == snapshot_files
        assert list(Snapshot.read(str(tmp_path)).files) == snapshot_files

        opened = []
        real_open = builtins.open

        def recording_open(path, *args, **kwargs):
            opened.append(os.path.basename(os.fspath(path)))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        model = NetworkModel.from_directory(str(tmp_path))
        assert not model.query(Loop()).job_errors
        assert model.fingerprint() == Snapshot.read(str(tmp_path)).digest
        monkeypatch.undo()
        assert set(opened) == set(snapshot_files)

    def test_end_to_end_reachability_on_parsed_network(self):
        network = parse_topology_file(self.TOPOLOGY, self.SNAPSHOTS)
        packet = models.symbolic_tcp_packet(
            {EtherDst: mac_to_number("0011.2233.4455"), IpDst: ip_to_number("10.1.2.3")}
        )
        result = SymbolicExecutor(network, settings=SETTINGS).inject(packet, "sw1", "in0")
        # Gi0/1 feeds the router, which forwards 10/8 out of if0 back to sw1,
        # whose table then decides again (and delivers on a host port or drops).
        assert result.paths
