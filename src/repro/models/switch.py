"""Ethernet switch models (§7, "Modeling switch behaviour").

Three encodings of the same MAC table are provided, matching the evaluation
of Figure 8:

* **basic** — a lookup table with one ``If`` per MAC entry, applied on
  ingress.  This mimics what a generic symbolic execution tool would do with
  switch forwarding code: the branching factor equals the number of entries.
* **ingress** — MACs grouped per output port; an ``If`` cascade with one
  disjunction per port.  Branching is optimal (one path per port) but a path
  through the k-th port accumulates the negated disjunctions of the first
  k−1 ports, so the total constraint count grows quadratically.
* **egress** — the packet is forked to every output port and each output
  port constrains the destination MAC to its own group.  Branching is
  optimal *and* the constraint count is linear; this is the model the paper
  (and this library) uses everywhere else.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Mapping, Sequence

from repro.network.element import NetworkElement, WILDCARD_PORT
from repro.sefl.expressions import Eq, OneOf, Or
from repro.sefl.fields import EtherDst
from repro.sefl.instructions import (
    Constrain,
    Fail,
    Fork,
    Forward,
    If,
    Instruction,
)

# A MAC table groups the 48-bit MAC addresses reachable through each output
# port: ``{"out0": [mac, mac, ...], "out1": [...]}``.
MacTable = Mapping[str, Sequence[int]]


class SwitchModelStyle(str, Enum):
    BASIC = "basic"
    INGRESS = "ingress"
    EGRESS = "egress"


def _ordered_ports(table: MacTable) -> List[str]:
    return list(table.keys())


def switch_basic(name: str, table: MacTable, input_ports: Sequence[str] = ("in0",)) -> NetworkElement:
    """One ``If`` per MAC entry — the strawman a generic tool would produce."""
    element = NetworkElement(
        name, input_ports=list(input_ports), output_ports=_ordered_ports(table), kind="switch"
    )
    program: Instruction = Fail("Mac unknown")
    # Build the cascade from the last entry backwards so the first table entry
    # is checked first.
    entries = [
        (port, mac) for port in _ordered_ports(table) for mac in table[port]
    ]
    for port, mac in reversed(entries):
        program = If(Eq(EtherDst, mac), Forward(port), program)
    element.set_input_program(WILDCARD_PORT, program)
    return element


def switch_ingress(name: str, table: MacTable, input_ports: Sequence[str] = ("in0",)) -> NetworkElement:
    """Group MACs per output port and decide on ingress (quadratic constraints)."""
    element = NetworkElement(
        name, input_ports=list(input_ports), output_ports=_ordered_ports(table), kind="switch"
    )
    program: Instruction = Fail("Mac unknown")
    for port in reversed(_ordered_ports(table)):
        macs = table[port]
        if not macs:
            continue
        condition = Or(*[Eq(EtherDst, mac) for mac in macs])
        program = If(condition, Forward(port), program)
    element.set_input_program(WILDCARD_PORT, program)
    return element


def switch_egress(name: str, table: MacTable, input_ports: Sequence[str] = ("in0",)) -> NetworkElement:
    """Fork to all ports and filter on egress (optimal branching and constraints).

    Each port constrains to its MACs minus those an earlier port claimed, so
    the per-port sets are disjoint; a port left with none always fails.
    """
    ports = _ordered_ports(table)
    element = NetworkElement(
        name, input_ports=list(input_ports), output_ports=ports, kind="switch"
    )
    element.set_input_program(WILDCARD_PORT, Fork(*ports))
    claimed = set()
    for port in ports:
        macs = [mac for mac in table[port] if mac not in claimed]
        claimed.update(macs)
        if macs:
            element.set_output_program(port, Constrain(OneOf(EtherDst, macs)))
        else:
            element.set_output_program(port, Fail("no MACs on this port"))
    return element


def build_switch(
    name: str,
    table: MacTable,
    style: SwitchModelStyle = SwitchModelStyle.EGRESS,
    input_ports: Sequence[str] = ("in0",),
) -> NetworkElement:
    """Build a switch model with the requested encoding."""
    style = SwitchModelStyle(style)
    if style is SwitchModelStyle.BASIC:
        return switch_basic(name, table, input_ports)
    if style is SwitchModelStyle.INGRESS:
        return switch_ingress(name, table, input_ports)
    return switch_egress(name, table, input_ports)
