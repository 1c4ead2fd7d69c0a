"""Parse CISCO switch MAC-table snapshots into switch models.

The accepted format follows ``show mac address-table`` output::

    Vlan    Mac Address       Type        Ports
    ----    -----------       ----        -----
     302    0011.2233.4455    DYNAMIC     Gi0/1
     304    0011.2233.4466    STATIC      Gi0/2

Lines that do not look like table entries (headers, separators, totals) are
ignored.  The parser groups MAC addresses per output port — the structure
the egress switch model needs — and can optionally restrict the snapshot to
one VLAN.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.models.switch import SwitchModelStyle, build_switch
from repro.network.element import NetworkElement
from repro.sefl.util import mac_to_number

_ENTRY = re.compile(
    r"^\s*(?P<vlan>\d+)\s+(?P<mac>[0-9a-fA-F.:-]+)\s+(?P<type>\w+)\s+(?P<port>\S+)\s*$"
)


def mac_table_entries(text: str) -> Iterator[Tuple[int, int, str]]:
    """``(vlan, mac, port)`` for every table entry of a snapshot, in file
    order."""
    for line in text.splitlines():
        match = _ENTRY.match(line)
        if not match:
            continue
        try:
            mac = mac_to_number(match.group("mac"))
        except ValueError:
            continue
        yield int(match.group("vlan")), mac, match.group("port")


def parse_mac_table(
    text: str, vlan: Optional[int] = None
) -> Dict[str, List[int]]:
    """Parse a MAC-table snapshot into ``{port: [mac, ...]}``."""
    table: Dict[str, List[int]] = {}
    for entry_vlan, mac, port in mac_table_entries(text):
        if vlan is None or entry_vlan == vlan:
            table.setdefault(port, []).append(mac)
    return table


def switch_from_mac_table(
    name: str,
    text: str,
    style: SwitchModelStyle = SwitchModelStyle.EGRESS,
    vlan: Optional[int] = None,
    input_ports: Sequence[str] = ("in0",),
) -> NetworkElement:
    """Parse a snapshot and build the corresponding switch model."""
    table = parse_mac_table(text, vlan=vlan)
    return build_switch(name, table, style=style, input_ports=input_ports)


def format_mac_table(table: Dict[str, List[int]], vlan: int = 1) -> str:
    """Render a MAC table back into snapshot text (used by tests and the
    workload generators to produce realistic input files)."""
    from repro.sefl.util import number_to_mac

    lines = ["Vlan    Mac Address       Type        Ports",
             "----    -----------       ----        -----"]
    for port, macs in table.items():
        for mac in macs:
            lines.append(f" {vlan:<6} {number_to_mac(mac):<17} DYNAMIC     {port}")
    return "\n".join(lines) + "\n"
