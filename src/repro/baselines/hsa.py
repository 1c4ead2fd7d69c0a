"""Header Space Analysis (HSA) baseline.

A compact reimplementation of the core of Kazemian et al.'s Header Space
Analysis [NSDI'12], the tool the paper compares against in Table 3 and
Table 5.  Headers are points in a ``{0,1}^L`` space; sets of headers are
unions of wildcard expressions (each bit ``0``, ``1`` or ``*``); network
boxes are transfer functions mapping (port, header set) to (port, header
set) pairs via match / rewrite rules.

The implementation represents a wildcard expression with two integers: a
*don't-care* mask (bit set → ``*``) and a value for the cared bits, which
keeps intersection and rewriting O(1) big-int operations even for wide
headers and large rule sets.

HSA's limitation that motivates SymNet (§2) falls out naturally: transfer
functions relate header *sets*, not individual packets, so after pushing a
fully wildcarded header through a tunnel the output is again fully
wildcarded — there is no way to state that each packet's payload is
unchanged.  The capability-matrix benchmark exercises exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class WildcardExpr:
    """A wildcard expression over ``width`` bits.

    ``dont_care`` has a 1 for every ``*`` position; ``value`` carries the
    concrete bits (its don't-care positions are normalised to 0).
    """

    width: int
    dont_care: int
    value: int

    def __post_init__(self) -> None:
        mask = (1 << self.width) - 1
        object.__setattr__(self, "dont_care", self.dont_care & mask)
        object.__setattr__(self, "value", self.value & mask & ~self.dont_care)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def all_wildcards(cls, width: int) -> "WildcardExpr":
        return cls(width, (1 << width) - 1, 0)

    @classmethod
    def exact(cls, width: int, value: int) -> "WildcardExpr":
        return cls(width, 0, value)

    @classmethod
    def from_field(
        cls, width: int, offset: int, field_width: int, value: int
    ) -> "WildcardExpr":
        """Wildcard everywhere except ``field_width`` bits at ``offset``
        (offset counted from bit 0 = least significant)."""
        field_mask = ((1 << field_width) - 1) << offset
        dont_care = ((1 << width) - 1) & ~field_mask
        return cls(width, dont_care, (value << offset) & field_mask)

    @classmethod
    def from_prefix(
        cls, width: int, offset: int, field_width: int, address: int, prefix_len: int
    ) -> "WildcardExpr":
        """A prefix match on a field: only the top ``prefix_len`` bits of the
        field are cared."""
        host_bits = field_width - prefix_len
        cared = (((1 << prefix_len) - 1) << host_bits) << offset
        dont_care = ((1 << width) - 1) & ~cared
        return cls(width, dont_care, (address << offset) & cared)

    # -- operations -----------------------------------------------------------

    def intersect(self, other: "WildcardExpr") -> Optional["WildcardExpr"]:
        """Intersection, or ``None`` when the expressions conflict."""
        both_cared = ~self.dont_care & ~other.dont_care
        if (self.value ^ other.value) & both_cared:
            return None
        dont_care = self.dont_care & other.dont_care
        value = (self.value & ~self.dont_care) | (other.value & ~other.dont_care)
        return WildcardExpr(self.width, dont_care, value)

    def rewrite(self, rewrite_mask: int, rewrite_value: int) -> "WildcardExpr":
        """Overwrite the bits where ``rewrite_mask`` is 0 with
        ``rewrite_value`` (the Hassel convention)."""
        dont_care = self.dont_care & rewrite_mask
        value = (self.value & rewrite_mask) | (rewrite_value & ~rewrite_mask)
        return WildcardExpr(self.width, dont_care, value)

    def covers(self, other: "WildcardExpr") -> bool:
        """True if every header matching ``other`` also matches ``self``."""
        if other.dont_care & ~self.dont_care:
            return False
        both_cared = ~self.dont_care
        return not ((self.value ^ other.value) & both_cared & ~other.dont_care)

    def sample(self) -> int:
        """An arbitrary header matching the expression (wildcards as 0)."""
        return self.value

    def count_wildcards(self) -> int:
        return bin(self.dont_care).count("1")

    def __str__(self) -> str:
        chars = []
        for bit in range(self.width - 1, -1, -1):
            if (self.dont_care >> bit) & 1:
                chars.append("x")
            else:
                chars.append(str((self.value >> bit) & 1))
        return "".join(chars)


@dataclass
class HeaderSpace:
    """A union of wildcard expressions."""

    width: int
    exprs: List[WildcardExpr] = field(default_factory=list)

    @classmethod
    def all_headers(cls, width: int) -> "HeaderSpace":
        return cls(width, [WildcardExpr.all_wildcards(width)])

    @classmethod
    def empty(cls, width: int) -> "HeaderSpace":
        return cls(width, [])

    def is_empty(self) -> bool:
        return not self.exprs

    def add(self, expr: WildcardExpr) -> None:
        self.exprs.append(expr)

    def intersect_expr(self, expr: WildcardExpr) -> "HeaderSpace":
        result = HeaderSpace(self.width)
        for own in self.exprs:
            joined = own.intersect(expr)
            if joined is not None:
                result.add(joined)
        return result

    def union(self, other: "HeaderSpace") -> "HeaderSpace":
        return HeaderSpace(self.width, list(self.exprs) + list(other.exprs))

    def covers_exact(self, value: int) -> bool:
        probe = WildcardExpr.exact(self.width, value)
        return any(expr.intersect(probe) is not None for expr in self.exprs)


@dataclass(frozen=True)
class TransferRule:
    """One rule of a transfer function: match → rewrite → output ports."""

    match: WildcardExpr
    out_ports: Tuple[str, ...]
    rewrite_mask: Optional[int] = None
    rewrite_value: int = 0

    def apply(self, space: HeaderSpace) -> Optional[HeaderSpace]:
        matched = space.intersect_expr(self.match)
        if matched.is_empty():
            return None
        if self.rewrite_mask is None:
            return matched
        rewritten = HeaderSpace(space.width)
        for expr in matched.exprs:
            rewritten.add(expr.rewrite(self.rewrite_mask, self.rewrite_value))
        return rewritten


@dataclass
class TransferFunction:
    """A network box in HSA: an ordered rule list per input port.

    Rules attached to the wildcard port ``"*"`` apply to every input port.
    Unlike the SymNet models, rule priority is encoded by subtracting earlier
    matches is *not* implemented — like Hassel, all matching rules fire and
    the caller is expected to provide disjoint matches (which the generated
    FIB/MAC rules are).
    """

    name: str
    width: int
    rules: Dict[str, List[TransferRule]] = field(default_factory=dict)

    def add_rule(self, in_port: str, rule: TransferRule) -> None:
        self.rules.setdefault(in_port, []).append(rule)

    def apply(self, in_port: str, space: HeaderSpace) -> List[Tuple[str, HeaderSpace]]:
        outputs: List[Tuple[str, HeaderSpace]] = []
        for port_key in (in_port, "*"):
            for rule in self.rules.get(port_key, []):
                produced = rule.apply(space)
                if produced is None:
                    continue
                for out_port in rule.out_ports:
                    outputs.append((out_port, produced))
        return outputs

    def rule_count(self) -> int:
        return sum(len(rules) for rules in self.rules.values())


@dataclass
class ReachabilityResult:
    """Header spaces reaching each (element, port) during propagation."""

    reached: Dict[Tuple[str, str], HeaderSpace] = field(default_factory=dict)
    hops_explored: int = 0

    def reaches(self, element: str, port: str) -> bool:
        key = (element, port)
        return key in self.reached and not self.reached[key].is_empty()

    def space_at(self, element: str, port: str) -> Optional[HeaderSpace]:
        return self.reached.get((element, port))


class HsaNetwork:
    """A topology of transfer functions with HSA reachability."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._boxes: Dict[str, TransferFunction] = {}
        self._links: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def add_box(self, box: TransferFunction) -> TransferFunction:
        self._boxes[box.name] = box
        return box

    def add_link(
        self, src: Tuple[str, str], dst: Tuple[str, str]
    ) -> None:
        self._links[src] = dst

    def box(self, name: str) -> TransferFunction:
        return self._boxes[name]

    def total_rules(self) -> int:
        return sum(box.rule_count() for box in self._boxes.values())

    def reachability(
        self,
        element: str,
        port: str,
        space: Optional[HeaderSpace] = None,
        max_hops: int = 64,
    ) -> ReachabilityResult:
        """Propagate ``space`` (default: all headers) from ``element:port``."""
        if space is None:
            space = HeaderSpace.all_headers(self.width)
        result = ReachabilityResult()
        worklist: List[Tuple[str, str, HeaderSpace, int]] = [
            (element, port, space, 0)
        ]
        while worklist:
            box_name, in_port, incoming, hops = worklist.pop()
            result.hops_explored += 1
            key = (box_name, in_port)
            existing = result.reached.get(key)
            if existing is None:
                result.reached[key] = HeaderSpace(self.width, list(incoming.exprs))
            else:
                # Avoid re-exploring if the incoming space adds nothing new.
                new_exprs = [
                    expr
                    for expr in incoming.exprs
                    if not any(old.covers(expr) for old in existing.exprs)
                ]
                if not new_exprs:
                    continue
                existing.exprs.extend(new_exprs)
                incoming = HeaderSpace(self.width, new_exprs)
            if hops >= max_hops:
                continue
            box = self._boxes.get(box_name)
            if box is None:
                continue
            for out_port, outgoing in box.apply(in_port, incoming):
                out_key = (box_name, out_port)
                out_existing = result.reached.setdefault(
                    out_key, HeaderSpace(self.width)
                )
                out_existing.exprs.extend(outgoing.exprs)
                destination = self._links.get((box_name, out_port))
                if destination is not None:
                    worklist.append(
                        (destination[0], destination[1], outgoing, hops + 1)
                    )
        return result
