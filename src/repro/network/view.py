"""A stable structural view of campaign jobs for symmetry detection.

A campaign running one engine job per injection port re-executes isomorphic
work whenever the network has renamed copies of the same structure (the 16
Stanford zones).  :class:`CampaignSymmetryView` encodes the **network, once
per campaign,** as an entity graph — elements, directional ports, constant
*cells* and string literals related by kind/link/program atoms — compiles it
into one :class:`repro.solver.canonical.EntityStructure` and refines it to
its stable colouring at construction.  Jobs differ only in which injection
port they mark: :meth:`~CampaignSymmetryView.port_color` reads a port's
orbit candidate straight off the shared colouring (different colours can
never be isomorphic), and :meth:`~CampaignSymmetryView.job_form`
individualises the port on a copy of it and lets the core break the
remaining ties.  Jobs with equal canonical fingerprints are isomorphic up
to element/port/constant renaming, and the index-aligned entity orders of
the two forms *are* the bijection, which :class:`SymmetryRenaming` turns
into a report-rewriting function.

Constants are abstracted the same way the solver's linear atom normal form
abstracts variable names: every single-variable comparison/membership atom
is reduced to its *solution region*, the union of all region boundaries
partitions the value axis into cells, and cells with identical coverage
(the same set of program sites constraining them, the same pinned config
values, the same width-domain membership) collapse into one *cell group*
entity.  Programs then reference cell groups instead of raw numbers, so two
zones whose address blocks are renamings of each other encode identically
even when interval-merging gave their FIB constraints different arities.
Satisfiability of any boolean combination of the program's atoms is
determined by which groups exist and which sites cover them — never by how
many raw values a group happens to contain — so equal encodings imply equal
engine behaviour modulo the recorded renaming.

Anything the encoder cannot soundly abstract (multi-variable arithmetic
offsets, opaque ``For`` bodies, unknown-width variables) is encoded
*literally*: it can only split classes, never merge them wrongly.  Raising
:class:`SymmetryUnsupported` makes the campaign fall back to executing
every job directly — symmetry is an optimisation, never a semantics change.
"""

from __future__ import annotations

import functools
import hashlib
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.sefl import instructions as si
from repro.sefl.expressions import (
    And,
    Condition,
    ConstantValue,
    Eq,
    Expression,
    Ge,
    Gt,
    Le,
    Lt,
    Minus,
    Ne,
    Not,
    OneOf,
    Or,
    Plus,
    Reference,
    SymbolicValue,
)
from repro.sefl.fields import HeaderField, TagOffset
from repro.network.element import NetworkElement
from repro.solver.canonical import (
    ENTITY_SYMMETRY_BUDGET,
    Ent,
    EntityCanonicalForm,
    EntityStructure,
    USet,
)

#: Exclusive top of the value axis used for cell construction; safely above
#: any header-field domain (widths are <= 48 bits in practice).
_DOMAIN_TOP = 2 ** 64

_CMP_OPS = {Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge"}
_FLIP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}


class SymmetryUnsupported(RuntimeError):
    """The network contains a construct the symmetry encoder cannot soundly
    abstract; the campaign must execute every job directly."""


# ---------------------------------------------------------------------------
# Expression / variable helpers
# ---------------------------------------------------------------------------


def _linear_form(expr) -> Optional[Tuple[Optional[object], int]]:
    """``expr`` as ``(variable_or_None, offset)`` when it is a constant or a
    single variable plus a constant offset; ``None`` otherwise (symbolic
    values, multi-variable sums — the caller encodes those literally)."""
    if isinstance(expr, bool):
        return None
    if isinstance(expr, int):
        return (None, expr)
    if isinstance(expr, ConstantValue):
        return (None, expr.value)
    if isinstance(expr, Reference):
        return (expr.variable, 0)
    if isinstance(expr, (str, TagOffset)):
        return (expr, 0)
    if isinstance(expr, Plus):
        left = _linear_form(expr.left)
        right = _linear_form(expr.right)
        if left is None or right is None:
            return None
        (lv, lo), (rv, ro) = left, right
        if lv is not None and rv is not None:
            return None
        return (lv if lv is not None else rv, lo + ro)
    if isinstance(expr, Minus):
        left = _linear_form(expr.left)
        right = _linear_form(expr.right)
        if left is None or right is None:
            return None
        (lv, lo), (rv, ro) = left, right
        if rv is not None:
            return None  # -variable is not a renaming-stable shape
        return (lv, lo - ro)
    return None


def _var_width(variable) -> Optional[int]:
    """Bit width of a variable's value domain, ``None`` when unknown (the
    encoder then falls back to literal encoding for atoms over it)."""
    if isinstance(variable, HeaderField):
        return variable.width
    if isinstance(variable, str):
        return 64  # metadata values: effectively unbounded
    return None


def _clamp_region(
    intervals: Iterable[Tuple[int, int]]
) -> Tuple[Tuple[int, int], ...]:
    clamped = []
    for lo, hi in intervals:
        lo = max(lo, 0)
        hi = min(hi, _DOMAIN_TOP - 1)
        if lo <= hi:
            clamped.append((lo, hi))
    return tuple(clamped)


def _cmp_region(op: str, bound: int) -> Tuple[Tuple[int, int], ...]:
    """Solution region of ``var OP bound`` within ``[0, _DOMAIN_TOP)``."""
    if op == "eq":
        return _clamp_region([(bound, bound)])
    if op == "ne":
        return _clamp_region([(0, bound - 1), (bound + 1, _DOMAIN_TOP - 1)])
    if op == "lt":
        return _clamp_region([(0, bound - 1)])
    if op == "le":
        return _clamp_region([(0, bound)])
    if op == "gt":
        return _clamp_region([(bound + 1, _DOMAIN_TOP - 1)])
    if op == "ge":
        return _clamp_region([(bound, _DOMAIN_TOP - 1)])
    raise SymmetryUnsupported(f"unknown comparison op {op!r}")


def collect_constants(instruction) -> set:
    """Every integer constant a SEFL program can write or test — campaigns
    pin these so a symmetry renaming can never move a value the job's own
    configuration refers to (a ``--field IpDst=...`` override must not be
    paired with a different zone's address block)."""
    found: set = set()
    _collect_constants(instruction, found)
    return found


def _collect_constants(node, found: set) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, int):
        found.add(node)
        return
    if isinstance(node, ConstantValue):
        found.add(node.value)
        return
    if isinstance(node, OneOf):
        for bounds in node.values.pairs():
            found.update(bounds)
        _collect_constants(node.expression, found)
        return
    if isinstance(node, si.InstructionBlock):
        for child in node.instructions:
            _collect_constants(child, found)
        return
    if isinstance(node, si.If):
        _collect_constants(node.condition, found)
        _collect_constants(node.then_branch, found)
        _collect_constants(node.else_branch, found)
        return
    if isinstance(node, si.Assign):
        _collect_constants(node.expression, found)
        return
    if isinstance(node, si.Constrain):
        _collect_constants(node.condition, found)
        return
    if isinstance(node, si.CreateTag):
        _collect_constants(node.value, found)
        return
    if isinstance(node, (Plus, Minus)):
        _collect_constants(node.left, found)
        _collect_constants(node.right, found)
        return
    if isinstance(node, (Eq, Ne, Lt, Le, Gt, Ge)):
        _collect_constants(node.left, found)
        _collect_constants(node.right, found)
        return
    if isinstance(node, (And, Or)):
        for operand in node.operands:
            _collect_constants(operand, found)
        return
    if isinstance(node, Not):
        _collect_constants(node.operand, found)
        return
    # Allocate sizes, references, symbolic values, tags: no value constants.


def _ports(element: NetworkElement) -> List[Tuple[str, str]]:
    """Every declared port of ``element`` as ``(direction, name)``."""
    return [("in", port) for port in element.input_ports] + [
        ("out", port) for port in element.output_ports
    ]


def _program(element: NetworkElement, direction: str, port: str):
    if direction == "in":
        return element.input_program(port)
    return element.output_program(port)


class _RegionRef:
    """Placeholder for a coverage site inside a proto-atom; resolved to a
    USet of cell-group entities once the global cell partition is known."""

    __slots__ = ("site",)

    def __init__(self, site: int) -> None:
        self.site = site


# ---------------------------------------------------------------------------
# The view
# ---------------------------------------------------------------------------


class CampaignSymmetryView:
    """Entity-graph encoding of one network (plus campaign-wide pinned
    values), shared by all of a campaign's jobs.

    ``pinned_values`` are integers the job configuration itself references
    (packet templates, ``--field`` overrides): their cells are marked with
    the literal value so no renaming can move them — a job whose answer
    depends on a concrete configured address can only merge with a job whose
    structure treats that exact address identically.
    """

    def __init__(self, network, pinned_values: Iterable[int] = ()) -> None:
        self.network = network
        self._sites: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []
        self._widths: List[int] = []
        self._pinned = {int(v) for v in pinned_values if int(v) >= 0}
        self._strings: Dict[str, None] = {}
        self._proto_atoms: List = []
        self._encode_network()
        atoms, group_count = self._resolve_cells()
        base_colors = self._base_colors(group_count)
        self._tokens = base_colors.keys()
        # Compiled and refined once; every job form starts from its stable
        # colouring.  Tokens are their own tie keys (unique, and orderable
        # within a class: tied entities share a kind).
        self._structure = EntityStructure(
            atoms, base_colors, {token: token for token in base_colors},
            ENTITY_SYMMETRY_BUDGET,
        )

    # -- encoding ------------------------------------------------------------

    def _register_site(
        self, width: int, region: Tuple[Tuple[int, int], ...]
    ) -> _RegionRef:
        self._sites.append((width, region))
        if width not in self._widths:
            self._widths.append(width)
        return _RegionRef(len(self._sites) - 1)

    def _string(self, text: str):
        self._strings.setdefault(text, None)
        return Ent(("str", text))

    def _port_token(self, element: str, direction: str, port: str) -> Tuple:
        return ("port", element, direction, port)

    def _var_literal(self, variable) -> Tuple:
        if isinstance(variable, HeaderField):
            return ("field", variable.tag, variable.offset, variable.width, variable.name)
        if isinstance(variable, TagOffset):
            return ("addr", variable.tag, variable.offset)
        if isinstance(variable, int):
            return ("abs", variable)
        if isinstance(variable, str):
            return ("meta", self._string(variable))
        raise SymmetryUnsupported(f"unsupported variable {variable!r}")

    def _expr_literal(self, expr):
        if isinstance(expr, bool):
            raise SymmetryUnsupported(f"boolean in expression position: {expr!r}")
        if isinstance(expr, int):
            return ("k", expr)
        if isinstance(expr, ConstantValue):
            return ("k", expr.value)
        if isinstance(expr, Reference):
            return ("ref", self._var_literal(expr.variable))
        if isinstance(expr, (str, TagOffset)):
            return ("ref", self._var_literal(expr))
        if isinstance(expr, SymbolicValue):
            return ("sym", expr.label, expr.width)
        if isinstance(expr, Plus):
            return ("plus", self._expr_literal(expr.left), self._expr_literal(expr.right))
        if isinstance(expr, Minus):
            return ("minus", self._expr_literal(expr.left), self._expr_literal(expr.right))
        raise SymmetryUnsupported(f"unsupported expression {expr!r}")

    def _encode_condition(self, condition):
        if isinstance(condition, si.Constrain):
            # ``If(Constrain(cond), ..)`` spelling: unwrap.
            return ("cwrap", self._encode_condition(condition.condition), None)
        if isinstance(condition, tuple(_CMP_OPS)):
            op = _CMP_OPS[type(condition)]
            left = _linear_form(condition.left)
            right = _linear_form(condition.right)
            if left is not None and right is not None:
                (lv, lo), (rv, ro) = left, right
                if lv is None and rv is None:
                    return ("cmpkk", op, lo, ro)
                if (lv is None) != (rv is None):
                    if lv is not None:
                        variable, bound = lv, ro - lo
                        oriented = op
                    else:
                        variable, bound = rv, lo - ro
                        oriented = _FLIP[op]
                    width = _var_width(variable)
                    if width is not None:
                        ref = self._register_site(width, _cmp_region(oriented, bound))
                        return ("cmp1", self._var_literal(variable), ref)
            # Multi-variable / symbolic / unknown-width: literal (splits only).
            return (
                "cmpL",
                op,
                self._expr_literal(condition.left),
                self._expr_literal(condition.right),
            )
        if isinstance(condition, OneOf):
            linear = _linear_form(condition.expression)
            if linear is not None and linear[0] is not None:
                variable, offset = linear
                width = _var_width(variable)
                if width is not None:
                    region = _clamp_region(
                        (lo - offset, hi - offset)
                        for lo, hi in condition.values.pairs()
                    )
                    ref = self._register_site(width, region)
                    return ("member", self._var_literal(variable), ref)
            values = tuple(condition.values.pairs())
            return ("memberL", self._expr_literal(condition.expression), values)
        if isinstance(condition, (And, Or)):
            tag = "and" if isinstance(condition, And) else "or"
            return (tag, tuple(self._encode_condition(op) for op in condition.operands))
        if isinstance(condition, Not):
            return ("not", self._encode_condition(condition.operand))
        raise SymmetryUnsupported(f"unsupported condition {condition!r}")

    def _encode_instruction(self, instruction, element: NetworkElement):
        if isinstance(instruction, si.NoOp):
            return ("noop",)
        if isinstance(instruction, si.InstructionBlock):
            return (
                "block",
                tuple(
                    self._encode_instruction(child, element)
                    for child in instruction.instructions
                ),
            )
        if isinstance(instruction, si.Forward):
            name = element.resolve_output_port(instruction.port)
            if element.has_output_port(name):
                return ("fwd", Ent(self._port_token(element.name, "out", name)))
            return ("fwd!", name)
        if isinstance(instruction, si.Fork):
            targets = []
            stray = []
            for port in instruction.ports:
                name = element.resolve_output_port(port)
                if element.has_output_port(name):
                    targets.append(Ent(self._port_token(element.name, "out", name)))
                else:
                    stray.append(name)
            # Fork semantics are order-independent for everything the
            # campaign aggregates (sorted loops, counted statuses), so the
            # children form an unordered collection — declaration-order
            # differences between renamed zones must not split classes.
            return ("fork", USet(targets), tuple(sorted(stray)))
        if isinstance(instruction, si.Fail):
            return ("fail", self._string(instruction.message))
        if isinstance(instruction, si.Constrain):
            return ("constrain", self._encode_condition(instruction.condition), None)
        if isinstance(instruction, si.If):
            return (
                "if",
                self._encode_condition(instruction.condition),
                self._encode_instruction(instruction.then_branch, element),
                self._encode_instruction(instruction.else_branch, element),
            )
        if isinstance(instruction, si.Allocate):
            return (
                "alloc",
                self._var_literal(instruction.variable),
                instruction.size,
                instruction.visibility,
            )
        if isinstance(instruction, si.Deallocate):
            return ("dealloc", self._var_literal(instruction.variable))
        if isinstance(instruction, si.Assign):
            return (
                "assign",
                self._var_literal(instruction.variable),
                self._encode_assigned(instruction.expression, instruction.variable),
            )
        if isinstance(instruction, si.CreateTag):
            return ("ctag", instruction.name, instruction.value)
        if isinstance(instruction, si.DestroyTag):
            return ("dtag", instruction.name)
        if isinstance(instruction, si.For):
            # Opaque closure: pin the element to itself by name.  Same-name
            # pairing is the identity, so same-network jobs still merge.
            return ("opaque-for", element.name)
        raise SymmetryUnsupported(f"unsupported instruction {instruction!r}")

    def _encode_assigned(self, expr, variable):
        """The value written by an Assign.  A pure constant becomes a
        coverage site over the *assigned* variable's axis (the written value
        participates in later membership tests exactly like a FIB constant);
        anything else is literal."""
        linear = _linear_form(expr)
        if linear is not None and linear[0] is None:
            width = _var_width(variable) or 64
            return ("valS", self._register_site(width, _clamp_region([(linear[1], linear[1])])))
        return ("valL", self._expr_literal(expr))

    def _encode_network(self) -> None:
        network = self.network
        for element in network:
            elem_ent = Ent(("elem", element.name))
            self._proto_atoms.append(("element", elem_ent, element.kind))
            for direction, port in _ports(element):
                port_ent = Ent(self._port_token(element.name, direction, port))
                program = _program(element, direction, port)
                self._proto_atoms.append(("port", port_ent, direction, elem_ent))
                self._proto_atoms.append(
                    (
                        "program",
                        port_ent,
                        direction,
                        self._encode_instruction(program, element),
                    )
                )
        for link in network.links:
            src, dst = link.source, link.destination
            src_ok = network.has_element(src.element) and network.element(
                src.element
            ).has_output_port(src.port)
            dst_ok = network.has_element(dst.element) and network.element(
                dst.element
            ).has_input_port(dst.port)
            self._proto_atoms.append(
                (
                    "link",
                    Ent(self._port_token(src.element, "out", src.port))
                    if src_ok
                    else ("dangling", src.element, src.port),
                    Ent(self._port_token(dst.element, "in", dst.port))
                    if dst_ok
                    else ("dangling", dst.element, dst.port),
                )
            )

    # -- cells ----------------------------------------------------------------

    def _resolve_cells(self) -> Tuple[List, int]:
        """Partition the value axis into cells, group cells by coverage, and
        replace every :class:`_RegionRef` with a USet of cell-group
        entities."""
        from bisect import bisect_left

        boundaries = {0, _DOMAIN_TOP}
        for _, region in self._sites:
            for lo, hi in region:
                boundaries.add(lo)
                boundaries.add(hi + 1)
        for value in self._pinned:
            if value < _DOMAIN_TOP:
                boundaries.add(value)
                boundaries.add(value + 1)
        bounds = sorted(b for b in boundaries if 0 <= b <= _DOMAIN_TOP)
        cells = [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]

        masks = [0] * len(cells)
        for bit, (_, region) in enumerate(self._sites):
            flag = 1 << bit
            for lo, hi in region:
                start = bisect_left(bounds, lo)
                stop = bisect_left(bounds, hi + 1)
                for index in range(start, stop):
                    masks[index] |= flag

        widths = sorted(self._widths)
        group_ids: Dict[Tuple, int] = {}
        site_groups: List[List[int]] = [[] for _ in self._sites]
        group_atoms: List = []
        for index, (lo, hi) in enumerate(cells):
            mask = masks[index]
            pin = lo if (lo == hi and lo in self._pinned) else None
            if mask == 0 and pin is None:
                continue
            covered_widths = tuple(w for w in widths if hi < (1 << w))
            key = (mask, pin, covered_widths)
            if key not in group_ids:
                gid = len(group_ids)
                group_ids[key] = gid
                group_atoms.append(("cells", Ent(("cells", gid)), pin, covered_widths))
                bit = 0
                remaining = mask
                while remaining:
                    if remaining & 1:
                        site_groups[bit].append(gid)
                    remaining >>= 1
                    bit += 1

        def resolve(node):
            if isinstance(node, _RegionRef):
                return USet(
                    Ent(("cells", gid)) for gid in site_groups[node.site]
                )
            if isinstance(node, Ent) or not isinstance(node, tuple):
                return node
            return tuple(resolve(item) for item in node)

        atoms = [resolve(atom) for atom in self._proto_atoms]
        atoms.extend(group_atoms)
        return atoms, len(group_ids)

    # -- canonical forms -------------------------------------------------------

    def _base_colors(self, group_count: int) -> Dict:
        colors: Dict = {}
        for element in self.network:
            colors[("elem", element.name)] = ("E", element.kind)
            for direction, port in _ports(element):
                colors[self._port_token(element.name, direction, port)] = (
                    "P",
                    direction,
                )
        for gid in range(group_count):
            colors[("cells", gid)] = ("C",)
        for text in self._strings:
            colors[("str", text)] = ("S",)
        return colors

    def _injection(self, element: str, port: str) -> Tuple[Tuple, Tuple]:
        tokens = ("elem", element), self._port_token(element, "in", port)
        if not all(token in self._tokens for token in tokens):
            raise SymmetryUnsupported(f"unknown injection port {element}:{port}")
        return tokens

    def port_color(self, element: str, port: str) -> int:
        """The injection port's colour in the network's stable partition.
        Ports of different colours lie in different automorphism orbits, so
        their jobs can never share a class — a cheap, exact pre-filter the
        campaign applies before asking for any :meth:`job_form`."""
        return self._structure.color_of(self._injection(element, port)[1])

    def job_form(
        self, element: str, port: str, config_digest: str
    ) -> EntityCanonicalForm:
        """Canonical form of one job: the shared network structure with the
        injection element and port individualised on a copy of its stable
        colouring, plus an injection mark carrying the job-config digest
        (jobs with different configurations can never share a class)."""
        return self._structure.form(
            self._injection(element, port), ("inject", config_digest)
        )


def config_digest(payload) -> str:
    """Stable digest of a job's behaviour-relevant configuration."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The recorded bijection
# ---------------------------------------------------------------------------

_BOUNDARY_BEFORE = r"(?<![A-Za-z0-9_.-])"
_BOUNDARY_AFTER = r"(?![A-Za-z0-9_.-])"


@functools.lru_cache(maxsize=4)
def _token_pattern(keys: FrozenSet[str]) -> "re.Pattern[str]":
    """One alternation matching any of ``keys`` as a whole token, longest
    first (so swap renamings are safe).  Cached: every renaming of a
    campaign is keyed by the same representative-side texts — the network's
    element names, ports and program texts — so the pattern is compiled
    once, not once per member."""
    ordered = sorted(keys, key=lambda key: (-len(key), key))
    return re.compile(
        _BOUNDARY_BEFORE + "(?:" + "|".join(map(re.escape, ordered)) + ")" + _BOUNDARY_AFTER
    )


class SymmetryRenaming:
    """The explicit bijection between a class representative's job and a
    member's job, applied to report artifacts as one simultaneous text
    substitution (longest key first, so swap renamings are safe).

    ``text_pairs`` holds only what the member spells differently; texts the
    pair shares are matched too (they are in the pattern) and kept whole."""

    def __init__(
        self,
        element_map: Dict[str, str],
        port_map: Dict[Tuple[str, str, str], str],
        text_pairs: Dict[str, str],
    ) -> None:
        keys = set(text_pairs) | set(element_map)
        pairs = {key: value for key, value in text_pairs.items() if key != value}
        for (elem, _direction, port), mapped_port in port_map.items():
            compound = f"{elem}:{port}"
            mapped = f"{element_map.get(elem, elem)}:{mapped_port}"
            keys.add(compound)
            if compound != mapped:
                pairs[compound] = mapped
        for elem, mapped_elem in element_map.items():
            if elem != mapped_elem:
                pairs.setdefault(elem, mapped_elem)
        self.text_pairs = pairs
        self._pattern = _token_pattern(frozenset(keys)) if pairs else None

    def map_text(self, text: str) -> str:
        if self._pattern is None or not text:
            return text
        return self._pattern.sub(
            lambda m: self.text_pairs.get(m.group(0), m.group(0)), text
        )


def _pair_programs(rep_prog, member_prog, pairs: Dict[str, str]) -> None:
    """Lockstep walk of two paired programs, recording repr/message pairs at
    every node the engine might quote in a report string.  Only block and
    branch structure is descended — equal canonical encodings guarantee the
    shapes line up; any mismatch aborts the renaming (the member then runs
    directly)."""
    if type(rep_prog) is not type(member_prog):
        raise SymmetryUnsupported(
            f"paired programs diverge: {type(rep_prog).__name__} vs "
            f"{type(member_prog).__name__}"
        )
    if isinstance(rep_prog, si.InstructionBlock):
        if len(rep_prog.instructions) != len(member_prog.instructions):
            raise SymmetryUnsupported("paired blocks have different lengths")
        for rep_child, member_child in zip(
            rep_prog.instructions, member_prog.instructions
        ):
            _pair_programs(rep_child, member_child, pairs)
    elif isinstance(rep_prog, si.If):
        _record_pair(repr(rep_prog.condition), repr(member_prog.condition), pairs)
        _pair_programs(rep_prog.then_branch, member_prog.then_branch, pairs)
        _pair_programs(rep_prog.else_branch, member_prog.else_branch, pairs)
    elif isinstance(rep_prog, si.Fail):
        _record_pair(rep_prog.message, member_prog.message, pairs)
    elif isinstance(rep_prog, si.Constrain):
        _record_pair(repr(rep_prog.condition), repr(member_prog.condition), pairs)
    elif not isinstance(rep_prog, si.For):  # closures only pair with themselves
        _record_pair(repr(rep_prog), repr(member_prog), pairs)


def _record_pair(rep_text: str, member_text: str, pairs: Dict[str, str]) -> None:
    """Texts the pair spells identically are recorded too, so the key set
    does not depend on which member is being paired — but only weakly: a
    different spelling met elsewhere replaces an identity, and two different
    spellings conflict."""
    existing = pairs.setdefault(rep_text, member_text)
    if existing == rep_text:
        pairs[rep_text] = member_text
    elif member_text not in (rep_text, existing):
        raise SymmetryUnsupported(
            f"inconsistent text pairing for {rep_text!r}: "
            f"{existing!r} vs {member_text!r}"
        )


def build_renaming(
    view: CampaignSymmetryView,
    rep_form: EntityCanonicalForm,
    member_form: EntityCanonicalForm,
) -> SymmetryRenaming:
    """Turn two equal-fingerprint canonical forms over one view into the
    explicit renaming representative -> member."""
    if rep_form.fingerprint != member_form.fingerprint:
        raise SymmetryUnsupported("forms are not in the same symmetry class")
    if len(rep_form.entities) != len(member_form.entities):
        raise SymmetryUnsupported("forms disagree on entity count")
    element_map: Dict[str, str] = {}
    port_map: Dict[Tuple[str, str, str], Tuple[str, str]] = {}
    text_pairs: Dict[str, str] = {}
    for rep_token, member_token in zip(rep_form.entities, member_form.entities):
        kind = rep_token[0]
        if kind != member_token[0]:
            raise SymmetryUnsupported(
                f"paired entities of different kinds: {rep_token!r} vs "
                f"{member_token!r}"
            )
        if kind == "elem":
            element_map[rep_token[1]] = member_token[1]
        elif kind == "port":
            if rep_token[2] != member_token[2]:
                raise SymmetryUnsupported("paired ports of different directions")
            port_map[rep_token[1:]] = (member_token[1], member_token[3])
        elif kind == "str":
            _record_pair(rep_token[1], member_token[1], text_pairs)
    network = view.network
    for (rep_name, _direction, _port), (member_name, _) in port_map.items():
        if element_map.get(rep_name) != member_name:
            raise SymmetryUnsupported("port map crosses element boundaries")
    for rep_name, member_name in element_map.items():
        rep_elem = network.element(rep_name)
        member_elem = network.element(member_name)
        if rep_elem.kind != member_elem.kind:
            raise SymmetryUnsupported("paired elements of different kinds")
        for direction, port in _ports(rep_elem):
            paired = port_map.get((rep_name, direction, port))
            if paired is None:
                raise SymmetryUnsupported(
                    f"unpaired {direction}put port {rep_name}:{port}"
                )
            _pair_programs(
                _program(rep_elem, direction, port),
                _program(member_elem, direction, paired[1]),
                text_pairs,
            )
    return SymmetryRenaming(
        element_map,
        {key: member_port for key, (_, member_port) in port_map.items()},
        text_pairs,
    )


def elements_reaching(network, targets: Iterable[str]) -> set:
    """Every element name that can reach any of ``targets`` along the
    network's link graph (the targets themselves included).

    This is the element-level neighbourhood relation the symmetry view's
    entity graph encodes structurally, exposed as a plain reverse closure
    for delta verification: an injection port's answer can only depend on
    elements its element reaches, so a port whose element is *not* in the
    closure of the touched set is provably unaffected by the touch.  The
    walk runs over link endpoints *by name* — dangling links included — and
    ignores programs entirely, so it is a sound over-approximation of
    anything the engine (which only follows links) can traverse.
    """
    reverse: Dict[str, set] = {}
    for link in network.links:
        reverse.setdefault(link.destination.element, set()).add(link.source.element)
    seen = set(targets)
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        for upstream in reverse.get(node, ()):
            if upstream not in seen:
                seen.add(upstream)
                frontier.append(upstream)
    return seen
