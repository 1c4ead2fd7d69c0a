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
from typing import List, Sequence, Tuple

from repro.models.router import FibEntry, RouterModelStyle, build_router
from repro.network.element import NetworkElement
from repro.sefl.util import number_to_ip

_LOG = logging.getLogger(__name__)

# One match per line: a rule (four octets, optional length, port, optional
# comment), a comment or blank line, or — last group — a line that is neither.
_LINE = re.compile(
    r"^[^\S\n]*(?:(\d+)\.(\d+)\.(\d+)\.(\d+)(?:/(\d+))?[^\S\n]+(\S+)[^\S\n]*(?:#.*)?"
    r"|#.*|(\S.*))?$",
    re.MULTILINE,
)


def parse_routing_table(text: str) -> List[FibEntry]:
    """Parse a forwarding-table snapshot into a list of FIB entries.

    Lines that are not rules (a malformed address, an IPv6 prefix, a missing
    port) are skipped, and reported in one warning per snapshot.
    """
    entries: List[FibEntry] = []
    skipped: List[int] = []
    for number, (a, b, c, d, length, port, junk) in enumerate(_LINE.findall(text), 1):
        if port:
            a, b, c, d = int(a), int(b), int(c), int(d)
            plen = int(length) if length else 32
            if (a | b | c | d) <= 255 and plen <= 32:
                entries.append((a << 24 | b << 16 | c << 8 | d, plen, port))
                continue
        if port or junk:
            skipped.append(number)
    if skipped:
        _LOG.warning(
            "routing table: skipped %d malformed line(s), first at line %d",
            len(skipped),
            skipped[0],
        )
    return entries


def router_from_routing_table(
    name: str,
    text: str,
    style: RouterModelStyle = RouterModelStyle.EGRESS,
    input_ports: Sequence[str] = ("in0",),
) -> NetworkElement:
    """Parse a snapshot and build the corresponding router model."""
    fib = parse_routing_table(text)
    return build_router(name, fib, style=style, input_ports=input_ports)


def format_routing_table(fib: Sequence[FibEntry]) -> str:
    """Render FIB entries back into snapshot text."""
    lines = []
    for address, plen, port in fib:
        lines.append(f"{number_to_ip(address)}/{plen}    {port}")
    return "\n".join(lines) + "\n"
