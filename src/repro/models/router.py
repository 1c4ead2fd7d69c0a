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

from collections import defaultdict
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
from repro.solver.intervals import IntervalSet, prefix_to_interval

# A forwarding table entry: (prefix address, prefix length, output port name).
FibEntry = Tuple[int, int, str]


class RouterModelStyle(str, Enum):
    BASIC = "basic"
    INGRESS = "ingress"
    EGRESS = "egress"


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
    # Sort key: first address, then length, packed into one integer.  The
    # sort is stable, so duplicates of a prefix stay in FIB order.
    lengths = width + 1
    keys = []
    for address, plen, _ in fib:
        if not 0 <= plen <= width:
            raise ValueError(f"prefix length {plen} out of range for width {width}")
        keys.append((address & (top ^ host_masks[plen])) * lengths + plen)
    order = sorted(range(len(fib)), key=keys.__getitem__)
    keys.append((top + 1) * lengths)  # sentinel past the address space:
    order.append(len(fib))  # closes every prefix still open

    # port -> (los, his)
    segments: Dict[str, Tuple[List[int], List[int]]] = defaultdict(lambda: ([], []))
    open_prefixes: List[Tuple[int, Tuple[List[int], List[int]]]] = []  # innermost last
    cursor = 0  # first address not yet handed to a port
    previous = None
    for index in order:
        key = keys[index]
        if key == previous:
            continue  # same prefix again: the first entry won
        previous = key
        lo, plen = divmod(key, lengths)
        while open_prefixes:
            # The innermost open prefix owns the addresses up to the next
            # boundary: where this prefix starts inside it, or where it ends.
            hi, (los, his) = open_prefixes[-1]
            boundary = lo if lo <= hi else hi + 1
            if cursor < boundary:
                if his and his[-1] + 1 == cursor:
                    his[-1] = boundary - 1
                else:
                    los.append(cursor)
                    his.append(boundary - 1)
                cursor = boundary
            if lo <= hi:
                break
            open_prefixes.pop()
        if lo > top:
            break
        cursor = lo
        open_prefixes.append((lo | host_masks[plen], segments[fib[index][2]]))
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
    program: Instruction = Fail("no route to destination")
    ordered = sorted(fib, key=lambda entry: entry[1])  # least specific first
    for address, plen, port in ordered:
        interval = prefix_to_interval(address, plen)
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
