"""A stable structural view of a network: the job encoder.

:class:`CampaignSymmetryView` encodes the **network, once,** as an entity
graph — elements, directional ports, constant *cells* and string literals
related by kind/link/program atoms — compiles it into one
:class:`repro.solver.canonical.EntityStructure` and refines it to its
stable colouring at construction.  Jobs differ only in which injection port
they mark: :meth:`~CampaignSymmetryView.job_form` individualises the port
on a copy of that colouring and lets the core break the remaining ties.
Jobs with equal canonical fingerprints are isomorphic up to
element/port/constant renaming.

No campaign stage reads these forms any more: a job-level symmetry tier
that ran one engine job per renaming class was slower than running every
job on each workload measured, and was retired.  The encoder stays for the
benchmark's ``network.view`` replay (``bench/probes.py``).

Constants are abstracted the same way the solver's linear atom normal form
abstracts variable names: every single-variable comparison/membership atom
is reduced to its *solution region*, the union of all region boundaries
partitions the value axis into cells, and cells with identical coverage
(the same set of program sites constraining them, the same pinned config
values, the same width-domain membership) collapse into one *cell group*
entity.  Programs then reference cell groups instead of raw numbers, so two
zones whose address blocks are renamings of each other encode identically
even when interval-merging gave their FIB constraints different arities.

Anything the encoder cannot soundly abstract (multi-variable arithmetic
offsets, opaque ``For`` bodies, unknown-width variables) is encoded
*literally*: it can only split classes, never merge them wrongly.  A
construct it cannot encode at all raises :class:`SymmetryUnsupported`.

:func:`elements_reaching` — the element-level reverse link closure delta
verification reads — lives here too.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sefl import instructions as si
from repro.sefl.expressions import (
    And,
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
    """The network contains a construct the encoder cannot soundly
    abstract."""


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
    """Every integer constant a SEFL program can write or test — the view
    pins these so no renaming can move a value the job's own configuration
    refers to (a ``--field IpDst=...`` override must not be paired with a
    different zone's address block)."""
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
    """Entity-graph encoding of one network (plus pinned values), shared
    by every job form asked of it.

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
