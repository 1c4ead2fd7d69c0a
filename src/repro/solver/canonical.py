"""Canonical forms by colour refinement: renaming-invariant cache keys.

Two layers need the same answer to "are these two structures the same up to
renaming?".  The incremental solver memoizes full solves on the conjunct
set of a path, and the huge number of structurally similar paths a network
induces (the paper's scalability argument) produces sets that differ
**only** in the names of the fresh symbols the engine allocated along the
way.  The campaign symmetry layer asks it of whole networks: an injection
port of one Stanford zone against the same port of a renamed zone.

Both are answered by **one core**, :class:`EntityStructure`: a set of
*entities* (solver variables; network elements, ports, constant cells,
string literals) related by *atoms* — nested tuples in which entity
occurrences are wrapped in :class:`Ent` and unordered sub-collections in
:class:`USet`; everything not wrapped is a literal and must match exactly.
The structure is compiled once — entities interned to ``0..n-1``, every
atom to *(template id, slot entities, unordered entity groups)* — and
canonical indices are chosen by

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

:func:`canonical_form` (conjunct sets: order-, duplicate- and
variable-name-independent, after NNF and linear normalisation so ``x + 1 ==
5`` and ``x == 4`` are one conjunct) and :func:`canonical_entity_form` are
thin adapters; :class:`repro.network.view.CampaignSymmetryView` keeps one
structure per network and pays the compilation and the first refinement
once for all of a campaign's jobs.

**Soundness invariant**: the canonical index assignment is always a
*bijection* from the entities onto ``0..n-1`` and the final rendering
replaces every entity occurrence by its index, so the rendering is a
renamed copy of the input.  Equal renderings therefore certify that the
index-aligned entity pairing is an isomorphism — for conjunct sets: the
sets are alpha-equivalent, hence equisatisfiable, and a cache keyed on the
fingerprint can never serve a verdict for a semantically different set
(fingerprints are SHA-256 over the rendering; hash collisions aside).  Any
deterministic tie-break keeps this true, so the greedy pass can only cost
a missed merge, never a wrong one; ``used_name_fallback`` reports when it
ran, and the mutation/soundness suite in ``tests/test_canonical_cache.py``
pins both directions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.solver.ast import (
    And,
    BoolFalse,
    BoolTrue,
    Formula,
    Member,
    Or,
    Var,
    linearize,
    to_nnf,
)

#: Leaf budget for the individualise-and-refine search over conjunct sets.
#: Sets produced by network models have tiny symmetric classes (usually
#: none), so this is generous; exceeding it triggers the sound name-order
#: greedy pass.
SYMMETRY_BUDGET = 64

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

    def color_of(self, token) -> int:
        """The token's colour in the stable partition of the base colouring:
        entities of different colours lie in different automorphism orbits."""
        return self._stable[self._ids[token]]

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
# Entity graphs (the job symmetry layer)
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
#
# Formulas are normalised to atom trees over ``Ent(Var)`` leaves:
#   ("bool", 0|1)
#   ("cmp", op, terms, k)             -- sum(c_i * v_i) + k  op  0
#   ("member", negated, terms, k, values)
#   ("and"|"or", USet(children))
# ``terms`` groups a linear combination by coefficient and bit width —
# ``((coeff, width, USet(variables)), ...)`` in literal order — so the
# width is part of the rendering and two sets differing only in a
# variable's bit width can never share one.

_OP_NAMES = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le"}
_FLIPPED = {">": "lt", ">=": "le"}


def _terms(coeffs: Iterable[Tuple[Var, int]], variables: Dict, sign: int = 1) -> Tuple:
    buckets: Dict[Tuple[int, int], List[Ent]] = {}
    for var, coeff in coeffs:
        variables.setdefault(var, None)
        buckets.setdefault((sign * coeff, var.width), []).append(Ent(var))
    return tuple(
        (coeff, width, USet(members))
        for (coeff, width), members in sorted(buckets.items())
    )


def _shape(terms: Tuple, constant: int) -> Tuple:
    return (constant, tuple((c, w, len(group.items)) for c, w, group in terms))


def _normalize(formula: Formula, variables: Dict[Var, None]):
    formula = to_nnf(formula)
    if isinstance(formula, BoolTrue):
        return ("bool", 1)
    if isinstance(formula, BoolFalse):
        return ("bool", 0)
    if isinstance(formula, (And, Or)):
        tag = "and" if isinstance(formula, And) else "or"
        return (tag, USet(_normalize(op, variables) for op in formula.operands))
    if isinstance(formula, Member):
        linear = linearize(formula.term)
        values = tuple(formula.values.pairs())
        return (
            "member",
            1 if formula.negated else 0,
            _terms(linear.coeffs, variables),
            linear.constant,
            values,
        )
    # Comparison atom: move everything left (lhs - rhs op 0) and orient
    # > / >= as < / <= by negating the linear combination.
    lhs = linearize(formula.left)
    rhs = linearize(formula.right)
    merged: Dict[Var, int] = {}
    for var, coeff in lhs.coeffs:
        merged[var] = merged.get(var, 0) + coeff
    for var, coeff in rhs.coeffs:
        merged[var] = merged.get(var, 0) - coeff
    coeffs = [(var, coeff) for var, coeff in merged.items() if coeff != 0]
    constant = lhs.constant - rhs.constant
    if formula.op in _FLIPPED:
        return ("cmp", _FLIPPED[formula.op], _terms(coeffs, variables, -1), -constant)
    op = _OP_NAMES[formula.op]
    forward = (_terms(coeffs, variables), constant)
    if op in ("eq", "ne"):
        # x - y == k and y - x == -k are the same atom: keep the
        # orientation whose literal shape is smaller, and when the shapes
        # coincide (x == y) keep both as an unordered pair.
        backward = (_terms(coeffs, variables, -1), -constant)
        shapes = _shape(*forward), _shape(*backward)
        if shapes[0] == shapes[1]:
            return ("cmp", op, USet((forward, backward)))
        if shapes[1] < shapes[0]:
            forward = backward
    return ("cmp", op, *forward)


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical normal form of one conjunct set."""

    #: SHA-256 hex digest of ``rendering`` — the cross-process cache key.
    fingerprint: str
    #: The canonical rendering itself (nested tuples of ints/strings only,
    #: so it is hashable, comparable and stable across processes).
    rendering: Tuple
    #: The original variables in canonical-index order: ``variables[i]`` is
    #: the variable renamed to index ``i`` (the witness bijection).
    variables: Tuple[Var, ...]
    #: True when symmetry breaking exceeded the budget and ties were broken
    #: by original variable names (sound, but not name-independent).
    used_name_fallback: bool = False


def canonical_form(conjuncts: Iterable[Formula]) -> CanonicalForm:
    """Canonicalize a conjunct set (see module docstring)."""
    trees = []
    variables: Dict[Var, None] = {}
    for formula in conjuncts:
        tree = _normalize(formula, variables)
        if tree != ("bool", 1):  # TRUE conjuncts carry no information
            trees.append(tree)
    rendered, ordered, used_fallback = EntityStructure(
        trees,
        dict.fromkeys(variables, 0),
        {var: (var.width, var.name) for var in variables},
        SYMMETRY_BUDGET,
    ).canonicalise()
    # A conjunct *set*: structurally equal conjuncts collapse.
    rendering = ("cf2", tuple(dict.fromkeys(rendered)))
    return CanonicalForm(
        fingerprint=_digest(rendering),
        rendering=rendering,
        variables=ordered,
        used_name_fallback=used_fallback,
    )


def canonical_fingerprint(conjuncts: Iterable[Formula]) -> str:
    """The alpha-renaming-invariant cache key of a conjunct set."""
    return canonical_form(conjuncts).fingerprint
