"""IP router models (§7, "Modeling an IP Router").

The difficulty is longest-prefix match: naively emitting one branch per
prefix makes symbolic execution intractable for core routers with hundreds
of thousands of prefixes.  The paper's encoding subtracts every more-specific
overlapping prefix from each rule ("``!a & b``") so that the per-port
constraints become mutually exclusive, then groups rules per output
interface, bringing the number of paths down to the number of links.

``group_prefixes_by_port`` computes exactly that, in one sort plus a stack
sweep over the (laminar) prefixes: the set of destination addresses each
output port attracts under longest-prefix-match semantics, as an interval
set (a prefix is a contiguous address range).
Three model styles mirror Table 2:

* **basic** — one ``If`` per prefix (most specific first);
* **ingress** — one ``If`` per output port with the mutually-exclusive sets;
* **egress** — fork to all ports, constrain on egress (the recommended model).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.network.element import NetworkElement, WILDCARD_PORT
from repro.sefl.expressions import OneOf
from repro.sefl.fields import IpDst
from repro.sefl.instructions import (
    Constrain,
    Fail,
    Fork,
    Forward,
    If,
    Instruction,
)
from repro.solver.intervals import Interval, IntervalSet, prefix_to_interval

# A forwarding table entry: (prefix address, prefix length, output port name).
FibEntry = Tuple[int, int, str]


class RouterModelStyle(str, Enum):
    BASIC = "basic"
    INGRESS = "ingress"
    EGRESS = "egress"


def _hand_out(owner: Tuple[List[int], List[int]], lo: int, hi: int) -> None:
    """Append ``[lo, hi]`` to a port's sorted segments, merged with the last
    one when they touch."""
    los, his = owner
    if his and his[-1] + 1 == lo:
        his[-1] = hi
    else:
        los.append(lo)
        his.append(hi)


def group_prefixes_by_port(
    fib: Sequence[FibEntry], width: int = 32
) -> Dict[str, IntervalSet]:
    """Compute, per output port, the destination addresses it attracts under
    longest-prefix-match semantics.

    Prefixes are laminar — two of them nest or are disjoint — so one sort
    (by first address, then length) visits every prefix after all prefixes
    that enclose it, and a stack of the prefixes open at the cursor always
    has the longest match on top.  The sweep hands each stretch between two
    boundaries to the port on top of the stack, in address order, so every
    port's segments come out sorted, disjoint and merged: canonical bounds
    for :meth:`IntervalSet.from_bounds`.  The result is a set of mutually
    exclusive interval sets — the paper's "``!a & b``" constraints in closed
    form.  Of two entries for the same prefix, the first in the FIB wins.
    """
    top = (1 << width) - 1
    host_masks = [top >> plen for plen in range(width + 1)]
    # One integer per entry — network address, then length, then FIB
    # position — so the sort compares plain integers.  Entries for one prefix
    # differ only in position: the first in the FIB sorts first.
    length_bits = width.bit_length()
    position_bits = len(fib).bit_length()
    keys = []
    for position, (address, plen, _) in enumerate(fib):
        if not 0 <= plen <= width:
            raise ValueError(f"prefix length {plen} out of range for width {width}")
        network = address & (top ^ host_masks[plen])
        keys.append((network << length_bits | plen) << position_bits | position)
    keys.sort()

    # port -> (los, his)
    segments: Dict[str, Tuple[List[int], List[int]]] = {}
    ends: List[int] = []  # last address of each open prefix, innermost last
    owners: List[Tuple[List[int], List[int]]] = []  # and its port's segments
    cursor = 0  # first address not yet handed to a port
    previous = -1
    length_mask = (1 << length_bits) - 1
    position_mask = (1 << position_bits) - 1
    for key in keys:
        prefix = key >> position_bits
        if prefix == previous:
            continue  # same prefix again: the first entry won
        previous = prefix
        lo = prefix >> length_bits
        # Each open prefix that ends before this one starts owns the
        # addresses from the cursor up to its end.
        while ends and ends[-1] < lo:
            last = ends.pop()
            owner = owners.pop()
            if cursor <= last:
                _hand_out(owner, cursor, last)
                cursor = last + 1
        # The innermost prefix still open encloses this one: it owns the
        # addresses up to where this one starts.
        if owners and cursor < lo:
            _hand_out(owners[-1], cursor, lo - 1)
        cursor = lo
        port = fib[key & position_mask][2]
        owner = segments.get(port)
        if owner is None:
            owner = segments[port] = ([], [])
        ends.append(lo | host_masks[prefix & length_mask])
        owners.append(owner)
    while ends:  # close every prefix still open, innermost first
        last = ends.pop()
        owner = owners.pop()
        if cursor <= last:
            _hand_out(owner, cursor, last)
            cursor = last + 1
    return {
        port: IntervalSet.from_bounds(los, his)
        for port, (los, his) in segments.items()
        if los  # a port whose every prefix is shadowed attracts nothing
    }


def _port_order(fib: Sequence[FibEntry]) -> List[str]:
    return list(dict.fromkeys(port for _, _, port in fib))


def router_basic(
    name: str, fib: Sequence[FibEntry], input_ports: Sequence[str] = ("in0",)
) -> NetworkElement:
    """One ``If`` per prefix, most specific first (the intractable strawman)."""
    ports = _port_order(fib)
    element = NetworkElement(
        name, input_ports=list(input_ports), output_ports=ports, kind="router"
    )
    routes: Dict[Interval, Tuple[int, str]] = {}
    for address, plen, port in fib:  # of two entries for one prefix, the first wins
        routes.setdefault(prefix_to_interval(address, plen), (plen, port))
    program: Instruction = Fail("no route to destination")
    # Least specific first: the cascade is built inside out.
    ordered = sorted(routes.items(), key=lambda route: route[1][0])
    for interval, (plen, port) in ordered:
        condition = OneOf(IpDst, IntervalSet([(interval.lo, interval.hi)]))
        program = If(condition, Forward(port), program)
    element.set_input_program(WILDCARD_PORT, program)
    return element


def router_ingress(
    name: str, fib: Sequence[FibEntry], input_ports: Sequence[str] = ("in0",)
) -> NetworkElement:
    """Group prefixes per port with mutually-exclusive constraints, decide on
    ingress."""
    groups = group_prefixes_by_port(fib)
    ports = _port_order(fib)
    element = NetworkElement(
        name, input_ports=list(input_ports), output_ports=ports, kind="router"
    )
    program: Instruction = Fail("no route to destination")
    for port in reversed(ports):
        allowed = groups.get(port)
        if allowed is None or allowed.is_empty():
            continue
        program = If(OneOf(IpDst, allowed), Forward(port), program)
    element.set_input_program(WILDCARD_PORT, program)
    return element


def router_egress(
    name: str, fib: Sequence[FibEntry], input_ports: Sequence[str] = ("in0",)
) -> NetworkElement:
    """Fork to every port and constrain on egress (optimal branching)."""
    groups = group_prefixes_by_port(fib)
    ports = _port_order(fib)
    element = NetworkElement(
        name, input_ports=list(input_ports), output_ports=ports, kind="router"
    )
    element.set_input_program(WILDCARD_PORT, Fork(*ports))
    for port in ports:
        allowed = groups.get(port)
        if allowed is None or allowed.is_empty():
            element.set_output_program(port, Fail("no prefixes on this interface"))
        else:
            element.set_output_program(port, Constrain(OneOf(IpDst, allowed)))
    return element


def build_router(
    name: str,
    fib: Sequence[FibEntry],
    style: RouterModelStyle = RouterModelStyle.EGRESS,
    input_ports: Sequence[str] = ("in0",),
) -> NetworkElement:
    """Build an IP router model with the requested encoding."""
    style = RouterModelStyle(style)
    if style is RouterModelStyle.BASIC:
        return router_basic(name, fib, input_ports)
    if style is RouterModelStyle.INGRESS:
        return router_ingress(name, fib, input_ports)
    return router_egress(name, fib, input_ports)


def longest_prefix_match(
    fib: Sequence[FibEntry], destination: int, width: int = 32
) -> str | None:
    """Reference longest-prefix-match lookup (used by tests to validate the
    symbolic models against ground truth)."""
    best: Tuple[int, str] | None = None
    for address, plen, port in fib:
        interval = prefix_to_interval(address, plen, width)
        if interval.lo <= destination <= interval.hi:
            if best is None or plen > best[0]:
                best = (plen, port)
    return best[1] if best else None
