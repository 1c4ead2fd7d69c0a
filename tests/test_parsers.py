"""Tests for the configuration parsers (§7.1)."""

import logging
import os
import random
import re

import pytest

from repro import ExecutionSettings, Network, SymbolicExecutor, models
from repro.models.router import RouterModelStyle, build_router
from repro.models.switch import SwitchModelStyle
from repro.network.element import WILDCARD_PORT
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
from repro.parsers.routing_table import _LINE, format_routing_table
from repro.parsers.topology_file import TopologyParseError
from repro.sefl import EtherDst, IpDst, ip_to_number, mac_to_number
from repro.sefl.instructions import Constrain, Fail
from repro.sefl.util import parse_prefix
from repro.workloads.fibs import fib_as_text, fib_subset, generate_fib

SETTINGS = ExecutionSettings(record_failed_paths=False)
# Seeds the routing-table fuzz, like the other property suites.
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))

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
    for which lines are rules and what they mean.  Lines end at ``"\\n"``,
    as in the snapshot grammar; returns the entries and the numbers of the
    lines that are neither rules, comments nor blank."""
    entries, skipped = [], []
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = OLD_ENTRY.match(stripped)
        try:
            if not match:
                raise ValueError(stripped)
            address, plen = parse_prefix(match.group("prefix"))
        except ValueError:
            skipped.append(number)
            continue
        entries.append((address, plen, match.group("port")))
    return entries, skipped


def grammar_parse(text):
    """``_LINE`` alone, over the whole text at once: the parser before its
    two-token fast path.  Returns the entries and the skipped line numbers."""
    entries, skipped = [], []
    for number, (a, b, c, d, length, port, junk) in enumerate(_LINE.findall(text), 1):
        if port:
            a, b, c, d = int(a), int(b), int(c), int(d)
            plen = int(length) if length else 32
            if (a | b | c | d) <= 255 and plen <= 32:
                entries.append((a << 24 | b << 16 | c << 8 | d, plen, port))
                continue
        if port or junk:
            skipped.append(number)
    return entries, skipped


def warnings_for(skipped):
    if not skipped:
        return []
    return [
        f"routing table: skipped {len(skipped)} malformed line(s), "
        f"first at line {skipped[0]}"
    ]


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

    LINES = DIRTY.splitlines() + [
        "1.2.3.4/8/3 if0",
        "1.2.3 if0",
        "1.2.3.4.5/8 if0",
        "1.2.3.4/ if0",
        "1.2.3.4/",
        "1.2.3.4/+8 if0",
        "1.2.3.4/8 if0 extra",
        "  # 1.2.3.4/8 if0",
        "1.2.3.4/8 if0#no-space-comment",
        "0.0.0.0/0 default",
        "255.255.255.255 host",
        "256.0.0.0/8 if0",
        # Spellings the grammar accepts and the two-token fast path does
        # not: leading zeros, non-ASCII digits.
        "010.0.0.0/8 if0",
        "10.0.0.0/08 if0",
        "10.0.0.0/032 if0",
        "\u0661.2.3.4/8 if0",
        "1.2.3.4/\u0668 if0",
        # Not rules in either.
        "1.2.3.4\x00/8 if0",
        "1.2.3.4/8\x00 if0",
        "2001:db8::/32 if0",
        "::/0 if0",
        "foo bar",
        "1.2.3.4/33 if0",
        # Every Unicode whitespace separates tokens; only "\n" ends a line.
        "1.2.3.4/8\u00a0if0",
        "1.2.3.4/8\x85if0",
        "1.2.3.4/8\x1cif0",
        "\u30001.2.3.4/8\u3000if0\u3000",
        "1.2.3.4/8 if0\r",
        "\r",
        # A port may start with "#"; a first token that does is a comment.
        "1.2.3.4/8 #if0",
        "1.2.3.4 #",
        "#1.2.3.4/8 if0",
    ]

    def test_agrees_with_line_at_a_time_reference(self, routing_table_log):
        rng = random.Random(SEED)
        for _ in range(200):
            sample = rng.sample(self.LINES, rng.randint(0, len(self.LINES)))
            text = "\n".join(sample) + rng.choice(["", "\n"])
            expected, skipped = reference_parse(text)
            assert grammar_parse(text) == (expected, skipped), text
            routing_table_log.clear()
            assert parse_routing_table(text) == expected, text
            assert [r.getMessage() for r in routing_table_log] == warnings_for(skipped), text

    def test_router_fib_snapshot_agrees_with_reference(self, routing_table_log):
        """The 62 205-prefix FIB of Table 2's 33 % row, as snapshot text."""
        fib = fib_subset(generate_fib(188_500, ports=16, seed=12), 0.33, seed=1)
        text = fib_as_text(fib)
        assert parse_routing_table(text) == reference_parse(text)[0] == fib
        assert routing_table_log == []


def router_shape(element):
    """What a router model is: its input ports, its input program (the
    egress style's ``Fork`` with its port order), its output ports in order
    and, per output port, its ``Constrain``'s allowed set, its ``Fail`` or
    (ingress style) its program."""
    programs = []
    for port in element.output_ports:
        program = element.output_program(port)
        if isinstance(program, Constrain):
            programs.append((port, "allow", list(program.condition.values.pairs())))
        elif isinstance(program, Fail):
            programs.append((port, "fail", program.message))
        else:
            programs.append((port, "program", program))
    return (
        element.input_ports,
        element.input_program(WILDCARD_PORT),
        element.output_ports,
        programs,
    )


class TestColumnPath:
    """``router_from_routing_table`` builds the egress model from the parsed
    columns; it must build what ``build_router`` builds from the entries."""

    def assert_same_router(self, text, style=RouterModelStyle.EGRESS):
        built = router_from_routing_table("r", text, style=style)
        reference = build_router("r", parse_routing_table(text), style=style)
        assert router_shape(built) == router_shape(reference), text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# nothing but a comment\n\n",
            # Duplicate prefixes, one with other host bits: the first wins.
            "10.0.0.0/8 a\n10.0.0.0/8 b\n10.255.0.0/8 c\n0.0.0.0/0 d\n",
            # Port z's one prefix is covered by two more specific ones.
            "10.0.0.0/24 z\n10.0.0.0/25 x\n10.0.0.128/25 y\n",
            # Port late's first prefix in address order is a duplicate.
            "10.128.0.0/9 late\n10.0.0.0/9 a\n10.0.0.0/9 late\n0.0.0.0/0 d\n",
        ],
    )
    def test_edge_cases(self, text):
        self.assert_same_router(text)

    def test_shadowed_ports_fail(self):
        element = router_from_routing_table(
            "r", "10.0.0.0/8 a\n10.0.0.0/8 b\n10.0.0.0/24 z\n"
            "10.0.0.0/25 x\n10.0.0.128/25 y\n"
        )
        kinds = {port: kind for port, kind, _ in router_shape(element)[3]}
        assert kinds == {
            "a": "allow", "b": "fail", "z": "fail", "x": "allow", "y": "allow"
        }
        assert element.input_program(WILDCARD_PORT).ports == ("a", "b", "z", "x", "y")

    def test_agrees_on_the_parser_sample_space(self, routing_table_log):
        rng = random.Random(SEED)
        for _ in range(200):
            sample = rng.sample(
                TestRoutingTableSkippedLines.LINES,
                rng.randint(0, len(TestRoutingTableSkippedLines.LINES)),
            )
            text = "\n".join(sample) + rng.choice(["", "\n"])
            self.assert_same_router(text)
            self.assert_same_router(text, RouterModelStyle.INGRESS)

    def test_agrees_on_the_router_fib_snapshot(self):
        """The 62 205-prefix FIB of Table 2's 33 % row, as snapshot text."""
        fib = fib_subset(generate_fib(188_500, ports=16, seed=12), 0.33, seed=1)
        self.assert_same_router(fib_as_text(fib))


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
