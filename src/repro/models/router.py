"""IP router models (§7, "Modeling an IP Router").

The difficulty is longest-prefix match: naively emitting one branch per
prefix makes symbolic execution intractable for core routers with hundreds
of thousands of prefixes.  The paper's encoding subtracts every more-specific
overlapping prefix from each rule ("``!a & b``") so that the per-port
constraints become mutually exclusive, then groups rules per output
interface, bringing the number of paths down to the number of links.

``group_columns_by_port`` computes exactly that, in one sort plus a stack
sweep over the (laminar) prefixes: the set of destination addresses each
output port attracts under longest-prefix-match semantics, as an interval
set (a prefix is a contiguous address range).  It reads the FIB as three
parallel columns — addresses, lengths, ports — as the snapshot parser
(``parsers/routing_table.py``) hands them over, so a snapshot reaches the
egress model (:func:`router_egress_columns`) with no tuple per entry;
``group_prefixes_by_port`` and the builders below take FIB entries and
transpose them first (:func:`fib_columns`).
Three model styles mirror Table 2:

* **basic** — one ``If`` per prefix (most specific first);
* **ingress** — one ``If`` per output port with the mutually-exclusive sets;
* **egress** — fork to all ports, constrain on egress (the recommended model).
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

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
# The same table as three parallel columns: addresses, lengths, ports.
FibColumns = Tuple[Sequence[int], Sequence[int], Sequence[str]]


class RouterModelStyle(str, Enum):
    BASIC = "basic"
    INGRESS = "ingress"
    EGRESS = "egress"


def fib_columns(fib: Sequence[FibEntry]) -> FibColumns:
    """Transpose FIB entries into the columns the sweep reads."""
    addresses, lengths, ports = (list(map(itemgetter(i), fib)) for i in range(3))
    return addresses, lengths, ports


def group_columns_by_port(
    columns: FibColumns, width: int = 32
) -> Dict[str, IntervalSet]:
    """Compute, per output port, the destination addresses it attracts under
    longest-prefix-match semantics, from a FIB given as columns.

    Prefixes are laminar — two of them nest or are disjoint — so one sort
    (by first address, then length) visits every prefix after all prefixes
    that enclose it, and a stack of the prefixes open at the cursor always
    has the longest match on top.  The sweep hands each stretch between two
    boundaries to the port on top of the stack, in address order, so every
    port's segments come out sorted, disjoint and merged: canonical bounds
    for :meth:`IntervalSet.from_bounds`.  The result is a set of mutually
    exclusive interval sets — the paper's "``!a & b``" constraints in closed
    form.  Of two entries for the same prefix, the first in the FIB wins.

    Each port's segments are one ``(los, his)`` pair made up front, and a
    list gives the pair of every FIB position, so the sweep looks no port up
    by name.  Ports are listed in the order of their first prefix in address
    order that is not a shadowed duplicate; a port that attracts nothing is
    left out.
    """
    addresses, lengths, ports = columns
    if not lengths:
        return {}
    if min(lengths) < 0 or max(lengths) > width:
        plen = next(plen for plen in lengths if not 0 <= plen <= width)
        raise ValueError(f"prefix length {plen} out of range for width {width}")
    top = (1 << width) - 1
    host_masks = [top >> plen for plen in range(width + 1)]
    # One integer per entry — network address, then length, then FIB
    # position — so the sort compares plain integers.  Entries for one prefix
    # differ only in position: the first in the FIB sorts first.
    length_bits = width.bit_length()
    position_bits = len(lengths).bit_length()
    shift = length_bits + position_bits
    network_masks = [top ^ mask for mask in host_masks]
    length_keys = [plen << position_bits for plen in range(width + 1)]
    keys = [
        (address & network_masks[plen]) << shift | length_keys[plen] | position
        for position, address, plen in zip(count(), addresses, lengths)
    ]
    keys.sort()
    # A prefix past the address space: visiting it closes every prefix
    # still open.
    keys.append(1 << (width + shift))

    segments = {port: ([], []) for port in dict.fromkeys(ports)}
    owner_at = list(map(segments.__getitem__, ports))  # FIB position -> pair
    # The open prefixes' last addresses, innermost last, and their ports'
    # segments.  At the bottom, one past the address space and a pair that
    # takes the addresses no prefix covers, so neither stack is ever empty.
    ends: List[int] = [top + 1]
    owners: List[Tuple[List[int], List[int]]] = [([], [])]
    shadowed: List[int] = []  # keys of a prefix already seen
    cursor = 0  # first address not yet handed to a port
    previous = -1
    length_mask = (1 << length_bits) - 1
    position_mask = (1 << position_bits) - 1
    for key in keys:
        prefix = key >> position_bits
        if prefix == previous:
            shadowed.append(key)  # same prefix again: the first entry won
            continue
        previous = prefix
        lo = prefix >> length_bits
        # Each open prefix that ends before this one starts owns the
        # addresses from the cursor up to its end (merged into the port's
        # last segment when they touch).
        while ends[-1] < lo:
            last = ends.pop()
            los, his = owners.pop()
            if cursor <= last:
                if his and his[-1] + 1 == cursor:
                    his[-1] = last
                else:
                    los.append(cursor)
                    his.append(last)
                cursor = last + 1
        # The innermost prefix still open encloses this one: it owns the
        # addresses up to where this one starts.
        if cursor < lo:
            los, his = owners[-1]
            if his and his[-1] + 1 == cursor:
                his[-1] = lo - 1
            else:
                los.append(cursor)
                his.append(lo - 1)
            cursor = lo
        ends.append(lo | host_masks[prefix & length_mask])
        owners.append(owner_at[key & position_mask])
    keys.pop()

    # Port order: each port's first prefix, in address order, that is not a
    # shadowed duplicate.  Every port has usually been met after a few keys.
    skip = set(shadowed)
    order: Dict[str, None] = {}
    for key in keys:
        if key not in skip:
            order[ports[key & position_mask]] = None
            if len(order) == len(segments):
                break
    return {
        port: IntervalSet.from_bounds(*segments[port])
        for port in order
        if segments[port][0]  # a port whose every prefix is shadowed attracts nothing
    }


def group_prefixes_by_port(
    fib: Sequence[FibEntry], width: int = 32
) -> Dict[str, IntervalSet]:
    """Compute, per output port, the destination addresses it attracts under
    longest-prefix-match semantics: :func:`group_columns_by_port` on FIB
    entries, transposed to columns first.  Of two entries for one prefix the
    first wins, and ports are listed by their first prefix in address order
    that is not a shadowed duplicate."""
    return group_columns_by_port(fib_columns(fib), width)


def router_basic(
    name: str, fib: Sequence[FibEntry], input_ports: Sequence[str] = ("in0",)
) -> NetworkElement:
    """One ``If`` per prefix, most specific first (the intractable strawman)."""
    ports = list(dict.fromkeys(port for _, _, port in fib))
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
    columns = fib_columns(fib)
    groups = group_columns_by_port(columns)
    ports = list(dict.fromkeys(columns[2]))
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
    return router_egress_columns(name, fib_columns(fib), input_ports)


def router_egress_columns(
    name: str, columns: FibColumns, input_ports: Sequence[str] = ("in0",)
) -> NetworkElement:
    """:func:`router_egress` on a FIB given as columns."""
    groups = group_columns_by_port(columns)
    ports = list(dict.fromkeys(columns[2]))
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
