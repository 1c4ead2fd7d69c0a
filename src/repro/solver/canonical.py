"""Canonical forms by colour refinement, and the verdict cache's key.

The network encoder (:mod:`repro.network.view`) asks "are these two
structures the same up to renaming?" of whole networks: an injection port
of one Stanford zone against the same port of a renamed zone.  It is
answered by one core,
:class:`EntityStructure`: a set of *entities* (network elements, ports,
constant cells, string literals) related by *atoms* — nested tuples in
which entity occurrences are wrapped in :class:`Ent` and unordered
sub-collections in :class:`USet`; everything not wrapped is a literal and
must match exactly.  The structure is compiled once — entities interned to
``0..n-1``, every atom to *(template id, slot entities, unordered entity
groups)* — and canonical indices are chosen by

* **colour refinement** (:meth:`EntityStructure.refine`, Weisfeiler-Lehman
  style): each round colours every atom once from its entities' colours and
  re-colours every entity by the multiset of *(atom colour, position)* over
  its static occurrence list, on integer colours ranked by plain tuple
  order, until the partition stops splitting;
* **tie-breaking** (:meth:`EntityStructure.canonicalise`): entities the
  refinement cannot separate (automorphic-looking ties) are split by
  individualise-and-refine — try each member of the first tied class,
  recurse, keep the smallest rendering — when the residual ties fit the
  leaf budget; otherwise the search *continues from the same colouring*
  greedily, ordering each tied class by the caller's tie keys.

:func:`canonical_entity_form` is a thin adapter;
:class:`repro.network.view.CampaignSymmetryView` keeps one structure per
network and pays the compilation and the first refinement once for all of
its job forms.

**Soundness invariant**: the canonical index assignment is always a
*bijection* from the entities onto ``0..n-1`` and the final rendering
replaces every entity occurrence by its index, so the rendering is a
renamed copy of the input.  Equal renderings therefore certify that the
index-aligned entity pairing is an isomorphism.  Any deterministic
tie-break keeps this true, so the greedy pass can only cost a missed
merge, never a wrong one; ``used_name_fallback`` reports when it ran.

The verdict cache's key, :func:`canonical_fingerprint`, renames nothing:
it is SHA-256 over the exact conjunct set (see its docstring).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.solver.ast import (
    Add,
    And,
    BoolFalse,
    BoolTrue,
    Const,
    Eq,
    Formula,
    Ge,
    Gt,
    Le,
    Lt,
    Member,
    Ne,
    Not,
    Or,
    Sub,
    Var,
)

#: Leaf budget for entity graphs.  Campaign topologies routinely keep large
#: automorphism groups even after the injection port is individualised (the
#: 15 unmarked Stanford zones), so a deep search is pointless: the greedy
#: pass is cheap and still merges same-network jobs.
ENTITY_SYMMETRY_BUDGET = 24


class Ent:
    """Marks an entity occurrence inside an atom tree."""

    __slots__ = ("token",)

    def __init__(self, token) -> None:
        self.token = token

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Ent({self.token!r})"


class USet:
    """Marks an unordered sub-collection inside an atom tree (rendered as a
    sorted tuple, so member order never influences the canonical form)."""

    __slots__ = ("items",)

    def __init__(self, items) -> None:
        self.items = tuple(items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"USet({self.items!r})"


# ---------------------------------------------------------------------------
# The core: compile once, refine, break ties
# ---------------------------------------------------------------------------

class _Marker(str):
    """Stands in a template where an ``Ent`` / ``USet`` was.  Its ``repr``
    is bare text no string, number or tuple literal can reproduce, so a
    template text determines where the slots and groups go."""

    __repr__ = str.__str__


_SLOT, _GROUP = _Marker("<ent>"), _Marker("<uset>")
_NODES = (tuple, Ent, USet)  # everything else in an atom tree is a literal


class EntityStructure:
    """A set of atom trees compiled for colour refinement.

    ``base_colors`` maps **every** entity token to its initial colour
    (entities with distinct base colours can never be identified — this is
    how callers pin roles and config-referenced objects); ``tie_keys`` maps
    every token to a *unique* orderable key consulted only when the residual
    symmetry exceeds ``budget`` leaves.

    Each atom compiles to ``(template text, slot entities, entity groups)``:
    the template is the atom's literal skeleton with a marker at every
    :class:`Ent` and :class:`USet`, the slots are the ``Ent`` occurrences in
    walk order, the groups the ``USet`` member lists.  A ``USet`` member
    that is not a bare ``Ent`` becomes an *auxiliary* entity leading an atom
    of its own, so nested unordered structure (a disjunction's operands)
    refines through the same positions-and-groups machinery; auxiliaries
    never receive canonical indices.

    Construction compiles the atoms and refines the base colouring to its
    stable partition once; :meth:`canonicalise` starts from that shared
    colouring however often it is called.
    """

    def __init__(self, atoms: Sequence, base_colors: Dict, tie_keys: Dict, budget: int):
        self.tokens = list(base_colors)
        self._ids = {token: index for index, token in enumerate(self.tokens)}
        self._tie_keys = [tie_keys[token] for token in self.tokens]
        self._budget = budget
        #: (template text, slots, groups) per atom; an auxiliary's atom
        #: carries the auxiliary itself as slot 0.
        self._compiled: List[Tuple[str, List[int], List[List[int]]]] = []
        self._entities = len(self.tokens)  # real entities, then auxiliaries
        self._aux_atom: Dict[int, int] = {}  # auxiliary -> the atom it leads
        self._top = [self._compile(atom, []) for atom in atoms]
        # Literal templates and base colours are ranked by ``repr`` here,
        # once; every later comparison is between tuples of ints.
        template_rank = {
            text: rank
            for rank, text in enumerate(sorted({text for text, _, _ in self._compiled}))
        }
        self._atoms = [
            (template_rank[text], slots, groups)
            for text, slots, groups in self._compiled
        ]
        self._stride = 1 + max(
            (len(slots) + len(groups) for _, slots, groups in self._atoms), default=0
        )
        self._occurrences: List[List[Tuple[int, int]]] = [
            [] for _ in range(self._entities)
        ]
        for atom, (_, slots, groups) in enumerate(self._atoms):
            for position, entity in enumerate(slots):
                self._occurrences[entity].append((atom, position))
            for position, members in enumerate(groups, len(slots)):
                for entity in members:
                    self._occurrences[entity].append((atom, position))
        base_text = [repr(base_colors[token]) for token in self.tokens]
        base_rank = {text: rank for rank, text in enumerate(sorted(set(base_text)))}
        colors = [base_rank[text] for text in base_text]
        colors += [len(base_rank)] * len(self._aux_atom)
        self._stable = self.refine(colors)

    def _compile(self, tree, slots: List[int]) -> int:
        groups: List[List[int]] = []

        def walk(node):
            if isinstance(node, Ent):
                slots.append(self._ids[node.token])
                return _SLOT
            if isinstance(node, USet):
                members = []
                for item in node.items:
                    if isinstance(item, Ent):
                        members.append(self._ids[item.token])
                    else:
                        auxiliary = self._entities
                        self._entities += 1  # before the item nests further
                        self._aux_atom[auxiliary] = self._compile(item, [auxiliary])
                        members.append(auxiliary)
                groups.append(members)
                return _GROUP
            if isinstance(node, tuple):
                return tuple(
                    [walk(item) if isinstance(item, _NODES) else item for item in node]
                )
            return node

        template = ("aux#" if slots else "atom#", walk(tree))
        self._compiled.append((repr(template), slots, groups))
        return len(self._compiled) - 1

    def refine(self, colors: List[int]) -> List[int]:
        """Iterate occurrence-signature colouring to the stable partition
        refining ``colors``; the result is renumbered ``0..k-1`` in an order
        that depends only on the structure, never on entity names."""
        atoms, occurrences, stride = self._atoms, self._occurrences, self._stride
        classes = len(set(colors))
        while True:
            color = colors.__getitem__
            keys = [
                (
                    template,
                    tuple(map(color, slots)),
                    tuple([tuple(sorted(map(color, g))) for g in groups]),
                )
                for template, slots, groups in atoms
            ]
            rank = {key: index for index, key in enumerate(sorted(set(keys)))}
            atom_colors = [rank[key] * stride for key in keys]
            signatures = [
                (color(e), tuple(sorted([atom_colors[a] + p for a, p in occ])))
                for e, occ in enumerate(occurrences)
            ]
            rank = {sig: index for index, sig in enumerate(sorted(set(signatures)))}
            colors = [rank[sig] for sig in signatures]
            if len(rank) == classes:
                return colors
            classes = len(rank)

    def _first_tie(self, colors: List[int]) -> Tuple[List[int], int]:
        """The lowest-coloured class of two or more real entities (empty
        when the colouring is discrete) and the residual symmetry — how many
        individualisations could still be needed."""
        classes: Dict[int, List[int]] = {}
        for entity in range(len(self.tokens)):
            classes.setdefault(colors[entity], []).append(entity)
        tied = [color for color, members in classes.items() if len(members) > 1]
        if not tied:
            return [], 0
        return classes[min(tied)], sum(len(classes[color]) - 1 for color in tied)

    def _rendered(self, colors: List[int], mark) -> List:
        """The atoms under the discrete colouring's index assignment, as a
        sorted list of ``(template text, slot indices, sorted groups)`` — a
        renamed copy of the input whose parts compare natively.  Group
        members render as ``("", index)`` or, for auxiliaries, as the
        rendering of the atom they lead."""
        real = len(self.tokens)
        index = [0] * real
        for rank, entity in enumerate(sorted(range(real), key=colors.__getitem__)):
            index[entity] = rank

        def member(entity: int) -> Tuple:
            if entity < real:
                return ("", index[entity])
            text, slots, groups = self._compiled[self._aux_atom[entity]]
            return render(text, slots[1:], groups)

        def render(text: str, slots: Sequence[int], groups) -> Tuple:
            return (
                text,
                tuple([index[e] for e in slots]),
                tuple([tuple(sorted([member(e) for e in g])) for g in groups]),
            )

        rendered = [render(*self._compiled[atom]) for atom in self._top]
        if mark is not None:
            rendered.append(render(*mark, ()))
        rendered.sort()
        return rendered

    def _search(self, colors: List[int], budget: List[int], mark):
        """Exact individualise-and-refine below a stable colouring: the
        ``(rendering, colouring)`` of the smallest leaf, or ``None`` once
        the leaf budget is spent."""
        members, _ = self._first_tie(colors)
        if not members:
            return self._rendered(colors, mark), colors
        best = None
        fresh = max(colors) + 1
        for candidate in members:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            trial = list(colors)
            trial[candidate] = fresh
            leaf = self._search(self.refine(trial), budget, mark)
            if leaf is None:
                return None
            if best is None or leaf[0] < best[0]:
                best = leaf
        return best

    def canonicalise(self, marked: Sequence = (), label=None) -> Tuple[List, Tuple, bool]:
        """``(rendered atoms, entity tokens in canonical-index order, used
        the greedy pass)``.

        ``marked`` tokens are individualised, in the order given, on a copy
        of the shared stable colouring, and the rendering gains one atom
        holding ``label`` and their indices — the structure is canonicalised
        as if the atom ``(label, *marked)`` had been part of it, without
        recompiling or re-refining the rest.  That is how a campaign marks
        one injection port per job.
        """
        colors, mark = self._stable, None
        if marked:
            mark = (repr(("mark", label)), [self._ids[token] for token in marked])
            colors = list(colors)
            for fresh, entity in enumerate(mark[1], max(colors) + 1):
                colors[entity] = fresh
            colors = self.refine(colors)
        members, residual = self._first_tie(colors)
        # A residual symmetry bigger than the whole budget cannot be
        # searched; do not burn the budget on a lost cause (campaign
        # topologies keep 10!-sized automorphism groups).
        leaf = (
            self._search(colors, [self._budget], mark)
            if members and residual <= self._budget
            else None
        )
        if leaf is not None:
            colors, members = leaf[1], []
        used_fallback = bool(members)
        # Greedy aligned pass: batch-individualise the first tied class in
        # tie-key order, re-refine, repeat until discrete.  *Alignment* —
        # do two automorphic structures end up with corresponding orders? —
        # holds whenever every surviving tied class is a full symmetric
        # orbit (interchangeable campaign zones): orbit transitivity
        # supplies an automorphism matching any pair of greedy choice
        # sequences.  A flat sort by key lacks this property because
        # relative name order shifts with the marked port (``zr10`` sorts
        # before ``zr2``).
        while members:
            members.sort(key=self._tie_keys.__getitem__)
            colors = list(colors)
            for fresh, entity in enumerate(members, max(colors) + 1):
                colors[entity] = fresh
            colors = self.refine(colors)
            members, _ = self._first_tie(colors)
        order = sorted(range(len(self.tokens)), key=colors.__getitem__)
        return (
            leaf[0] if leaf is not None else self._rendered(colors, mark),
            tuple(self.tokens[entity] for entity in order),
            used_fallback,
        )

    def form(self, marked: Sequence = (), label=None) -> "EntityCanonicalForm":
        """The structure's canonical form (see :meth:`canonicalise`)."""
        rendered, entities, used_fallback = self.canonicalise(marked, label)
        rendering = ("ecf2", tuple(rendered))
        return EntityCanonicalForm(
            fingerprint=_digest(rendering),
            rendering=rendering,
            entities=entities,
            used_name_fallback=used_fallback,
        )


def _digest(rendering: Tuple) -> str:
    return hashlib.sha256(repr(rendering).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Entity graphs (the network encoder)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityCanonicalForm:
    """Canonical form of an entity-graph structure."""

    #: SHA-256 hex digest of ``rendering``.
    fingerprint: str
    #: The canonical rendering: per atom its literal template text, slot
    #: entity indices and sorted group indices.
    rendering: Tuple
    #: Entity tokens in canonical-index order: ``entities[i]`` was renamed
    #: to index ``i``.  Two forms with equal renderings are isomorphic via
    #: ``A.entities[i] -> B.entities[i]`` — the recorded bijection.
    entities: Tuple
    #: True when the symmetry search fell back to ``fallback_keys`` order.
    used_name_fallback: bool = False


def canonical_entity_form(
    atoms: Sequence, base_colors: Dict, fallback_keys: Dict
) -> EntityCanonicalForm:
    """Canonicalize an entity-graph structure: ``atoms`` is a sequence of
    nested tuples with :class:`Ent` / :class:`USet` wrappers; for
    ``base_colors`` and ``fallback_keys`` see :class:`EntityStructure`."""
    return EntityStructure(
        atoms, base_colors, fallback_keys, ENTITY_SYMMETRY_BUDGET
    ).form()




# ---------------------------------------------------------------------------
# Conjunct sets (the verdict-cache key)
# ---------------------------------------------------------------------------

#: Leads every key's hashed bytes: no other scheme's key (an older,
#: renaming-based one included) can equal one of this scheme's.
_SCHEME = b"exact-conjunct-set/1\n"

_BINARY = (Add, Sub, Eq, Ne, Lt, Le, Gt, Ge)


def _spell(node) -> str:
    """An injective spelling of a term or formula: equal nodes spell alike,
    unequal ones differently.  Names are ``repr``-quoted, so a spelling never
    holds a bare newline; an ``IntervalSet`` is spelled off its two tuples
    of integer bounds."""
    kind = type(node)
    if kind is Var:
        return f"Var({node.name!r},{node.width:d})"
    if kind is Const:
        return f"Const({node.value:d})"
    if kind in _BINARY:
        return f"{kind.__name__}({_spell(node.left)},{_spell(node.right)})"
    if kind is Member:
        los, his = node.values.bounds
        return f"Member({_spell(node.term)},{node.negated:d},{los!r},{his!r})"
    if kind is And or kind is Or:
        return f"{kind.__name__}({','.join(map(_spell, node.operands))})"
    if kind is Not:
        return f"Not({_spell(node.operand)})"
    if kind is BoolTrue or kind is BoolFalse:
        return kind.__name__
    raise TypeError(f"not a term or formula: {node!r}")


def canonical_fingerprint(conjuncts: Iterable[Formula]) -> str:
    """The verdict cache's key of a conjunct set: SHA-256 over the scheme
    tag and the set's sorted, distinct conjunct spellings, one per line.

    Two keys are equal exactly when the two sets are equal as ``frozenset``
    objects: order and duplicates do not count, everything else — variable
    names, widths, ``x + 1 == 5`` against ``x == 4`` — does.  No step
    depends on ``hash()``, so the key is the same in every process.
    """
    spellings = sorted({_spell(formula) for formula in conjuncts})
    text = "\n".join(spellings).encode("utf-8")
    return hashlib.sha256(_SCHEME + text).hexdigest()
