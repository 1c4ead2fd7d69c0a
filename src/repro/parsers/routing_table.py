"""Parse router forwarding-table snapshots into IP router models.

Accepted line format (one rule per line, comments with ``#``)::

    10.0.0.0/8        if0
    192.168.0.0/24    if1
    192.168.0.1/32    if0
    0.0.0.0/0         if2        # default route

which mirrors the (prefix → output interface) snapshots the paper feeds its
generator, e.g. the publicly available core-router table with 188 500
entries.
"""

from __future__ import annotations

import logging
import re
from socket import AF_INET, inet_pton
from typing import List, Sequence

from repro.models.router import (
    FibColumns,
    FibEntry,
    RouterModelStyle,
    build_router,
    router_egress_columns,
)
from repro.network.element import NetworkElement
from repro.sefl.util import number_to_ip

_LOG = logging.getLogger(__name__)

# The grammar of one line: a rule (four octets, optional length, port, optional
# comment), a comment or blank line, or — last group — a line that is neither.
_LINE = re.compile(
    r"^[^\S\n]*(?:(\d+)\.(\d+)\.(\d+)\.(\d+)(?:/(\d+))?[^\S\n]+(\S+)[^\S\n]*(?:#.*)?"
    r"|#.*|(\S.*))?$",
    re.MULTILINE,
)

# The prefix lengths the fast path reads, spelled canonically ("8", not "08").
_LENGTHS = {str(plen): plen for plen in range(33)}


def parse_routing_columns(text: str) -> FibColumns:
    """Parse a forwarding-table snapshot into FIB columns: the rules'
    addresses, lengths and ports, in snapshot order.

    Lines that are not rules (a malformed address, an IPv6 prefix, a missing
    port) are skipped, and reported in one warning per snapshot.

    ``_LINE`` is the only definition of a rule.  A line in the common shape —
    exactly ``address[/length] port``, the address canonical dotted decimal —
    is read off its two tokens without the regex; any line that is not
    exactly that shape, valid or not, goes through ``_LINE``.
    """
    addresses: List[int] = []
    lengths: List[int] = []
    ports: List[str] = []
    skipped: List[int] = []
    for number, line in enumerate(text.split("\n"), 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) == 2:
            address, slash, length = tokens[0].partition("/")
            plen = _LENGTHS.get(length) if slash else 32
            if plen is not None:
                try:
                    packed = inet_pton(AF_INET, address)
                except (OSError, ValueError):  # ValueError: an embedded NUL
                    pass
                else:
                    addresses.append(int.from_bytes(packed, "big"))
                    lengths.append(plen)
                    ports.append(tokens[1])
                    continue
        a, b, c, d, length, port, junk = _LINE.match(line).groups(default="")
        if port:
            a, b, c, d = int(a), int(b), int(c), int(d)
            plen = int(length) if length else 32
            if (a | b | c | d) <= 255 and plen <= 32:
                addresses.append(a << 24 | b << 16 | c << 8 | d)
                lengths.append(plen)
                ports.append(port)
                continue
        if port or junk:
            skipped.append(number)
    if skipped:
        _LOG.warning(
            "routing table: skipped %d malformed line(s), first at line %d",
            len(skipped),
            skipped[0],
        )
    return addresses, lengths, ports


def parse_routing_table(text: str) -> List[FibEntry]:
    """Parse a forwarding-table snapshot into a list of FIB entries."""
    return list(zip(*parse_routing_columns(text)))


def router_from_routing_table(
    name: str,
    text: str,
    style: RouterModelStyle = RouterModelStyle.EGRESS,
    input_ports: Sequence[str] = ("in0",),
) -> NetworkElement:
    """Parse a snapshot and build the corresponding router model.  The
    egress model is built straight from the parsed columns."""
    if RouterModelStyle(style) is RouterModelStyle.EGRESS:
        return router_egress_columns(name, parse_routing_columns(text), input_ports)
    fib = parse_routing_table(text)
    return build_router(name, fib, style=style, input_ports=input_ports)


def format_routing_table(fib: Sequence[FibEntry]) -> str:
    """Render FIB entries back into snapshot text."""
    lines = []
    for address, plen, port in fib:
        lines.append(f"{number_to_ip(address)}/{plen}    {port}")
    return "\n".join(lines) + "\n"
