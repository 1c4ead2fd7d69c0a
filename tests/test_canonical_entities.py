"""Property suite for the entity-graph canonicaliser.

``canonical_entity_form`` is the certificate the network encoder
(``repro.network.view``) groups job forms on.  This suite attacks it
directly, with the conventions of
``test_canonical_cache.py`` (seed-pinned fuzz loops, chunked, greedy
shrink-on-failure through its ``shrink_case``):

* **invariance** — a random entity graph and a copy under a random token
  renaming, atom shuffle and ``USet`` member shuffle share a fingerprint,
  and the index-aligned ``entities`` pairing maps the one atom multiset
  exactly onto the other (the recorded bijection);
* **separation** — one changed literal, or one link rewired onto an entity
  of a different kind (both provably non-isomorphic), splits them;
* **budget** — a structure whose residual ties exceed the leaf budget
  reports ``used_name_fallback`` and still yields a bijection.
"""

import random
from collections import Counter

import pytest

from repro.solver.canonical import (
    ENTITY_SYMMETRY_BUDGET,
    Ent,
    USet,
    canonical_entity_form,
)
from test_canonical_cache import SEED, shrink_case

CASES = 240
KINDS = ("a", "b", "c")


# ===========================================================================
# Random entity graphs, renamed copies and a structural atom comparison
# ===========================================================================


def generate_graph(seed: int):
    """Atoms over 4-9 entities of three kinds.  Labels come from a small
    alphabet, so some entities look alike until their links tell them apart
    (and some never do: real automorphisms, resolved by the exact search).
    Nested ``USet`` members exercise the auxiliary-entity path."""
    rng = random.Random(seed)
    tokens = [(rng.choice(KINDS), index) for index in range(rng.randint(4, 9))]
    atoms = [("node", Ent(token), rng.randint(0, 2)) for token in tokens]
    for _ in range(rng.randint(3, 10)):
        roll = rng.random()
        if roll < 0.5:
            atoms.append(
                ("link", Ent(rng.choice(tokens)), Ent(rng.choice(tokens)), rng.randint(0, 3))
            )
        elif roll < 0.8:
            members = rng.sample(tokens, rng.randint(1, min(4, len(tokens))))
            atoms.append(("fan", Ent(rng.choice(tokens)), USet(Ent(t) for t in members)))
        else:
            atoms.append(
                (
                    "tree",
                    Ent(rng.choice(tokens)),
                    USet(
                        ("leaf", Ent(rng.choice(tokens)), rng.randint(0, 1))
                        for _ in range(rng.randint(1, 3))
                    ),
                )
            )
    return tuple(atoms), tokens


def _rebuild(node, mapping, rng):
    if isinstance(node, Ent):
        return Ent(mapping[node.token])
    if isinstance(node, USet):
        items = [_rebuild(item, mapping, rng) for item in node.items]
        rng.shuffle(items)
        return USet(items)
    if isinstance(node, tuple):
        return tuple(_rebuild(item, mapping, rng) for item in node)
    return node


def renamed_copy(atoms, tokens, rng):
    """The graph under a fresh kind-preserving token bijection, with atoms
    and unordered members shuffled."""
    fresh = rng.sample(range(1000, 9999), len(tokens))
    mapping = {token: (token[0], name) for token, name in zip(tokens, fresh)}
    copy = [_rebuild(atom, mapping, rng) for atom in atoms]
    rng.shuffle(copy)
    return tuple(copy), [mapping[token] for token in tokens]


def form_of(atoms, tokens):
    return canonical_entity_form(
        atoms,
        {token: ("kind", token[0]) for token in tokens},
        {token: token for token in tokens},
    )


def _frozen(node, mapping):
    """The atom with entities sent through ``mapping``, hashable and blind
    to ``USet`` member order."""
    if isinstance(node, Ent):
        return ("ent", mapping[node.token])
    if isinstance(node, USet):
        members = Counter(_frozen(item, mapping) for item in node.items)
        return ("set", tuple(sorted(members.items(), key=repr)))
    if isinstance(node, tuple):
        return tuple(_frozen(item, mapping) for item in node)
    return node


def pairing_is_isomorphism(atoms, form, other_atoms, other_form) -> bool:
    """Does ``form.entities[i] -> other_form.entities[i]`` map the one atom
    multiset exactly onto the other?"""
    pairing = dict(zip(form.entities, other_form.entities))
    identity = {token: token for token in other_form.entities}
    return (
        len(pairing) == len(form.entities) == len(set(pairing.values()))
        and Counter(_frozen(atom, pairing) for atom in atoms)
        == Counter(_frozen(atom, identity) for atom in other_atoms)
    )


# ===========================================================================
# (a) invariance: renaming + shuffling keep the fingerprint and the pairing
# ===========================================================================


def _invariance_breaks(atoms, tokens, seed) -> bool:
    copy, copy_tokens = renamed_copy(atoms, tokens, random.Random(seed ^ 0x5EED))
    form, other = form_of(atoms, tokens), form_of(copy, copy_tokens)
    if form.used_name_fallback or other.used_name_fallback:
        # Beyond the leaf budget only soundness is promised.
        return sorted(form.entities) != sorted(tokens)
    return form.fingerprint != other.fingerprint or not pairing_is_isomorphism(
        atoms, form, copy, other
    )


@pytest.mark.parametrize("chunk", range(4))
def test_entity_fingerprint_invariant_under_renaming(chunk):
    per_chunk = CASES // 4
    for offset in range(per_chunk):
        seed = SEED + 70_000 + chunk * per_chunk + offset
        atoms, tokens = generate_graph(seed)
        if _invariance_breaks(atoms, tokens, seed):
            minimal = shrink_case(
                atoms, lambda sub: _invariance_breaks(sub, tokens, seed)
            )
            pytest.fail(
                f"entity fingerprint or pairing changed under renaming "
                f"(seed={seed})\nminimal case:\n"
                + "\n".join(f"  {atom!r}" for atom in minimal)
            )


# ===========================================================================
# (b) separation: provably non-isomorphic near-misses split
# ===========================================================================


def _one_literal_changed(atoms, rng):
    """Overwrite one node label / link weight with 99, which occurs nowhere
    else: the literal multiset itself differs."""
    index = rng.choice(
        [i for i, atom in enumerate(atoms) if atom[0] in ("node", "link")]
    )
    return atoms[:index] + (atoms[index][:-1] + (99,),) + atoms[index + 1:]


def _one_link_rewired(atoms, tokens, rng):
    """Move one link's head onto an entity of another kind: the multiset of
    (tail kind, head kind) over links changes."""
    links = [i for i, atom in enumerate(atoms) if atom[0] == "link"]
    rng.shuffle(links)
    for index in links:
        tag, tail, head, weight = atoms[index]
        others = [t for t in tokens if t[0] != head.token[0]]
        if others:
            rewired = (tag, tail, Ent(rng.choice(others)), weight)
            return atoms[:index] + (rewired,) + atoms[index + 1:]
    return None


@pytest.mark.parametrize("chunk", range(4))
def test_entity_near_misses_split(chunk):
    per_chunk = CASES // 4
    for offset in range(per_chunk):
        seed = SEED + 80_000 + chunk * per_chunk + offset
        atoms, tokens = generate_graph(seed)
        rng = random.Random(seed ^ 0xD1FF)
        fingerprint = form_of(atoms, tokens).fingerprint
        mutants = [_one_literal_changed(atoms, rng), _one_link_rewired(atoms, tokens, rng)]
        for mutant in mutants:
            if mutant is not None and form_of(mutant, tokens).fingerprint == fingerprint:
                pytest.fail(
                    f"near-miss merged with the original (seed={seed}):\n"
                    + "\n".join(f"  {atom!r}" for atom in mutant)
                )


# ===========================================================================
# (c) budget: ties beyond the leaf budget fall back, still a bijection
# ===========================================================================


def test_ties_beyond_the_budget_fall_back_to_a_sound_bijection():
    rng = random.Random(SEED)
    tokens = [("a", index) for index in range(ENTITY_SYMMETRY_BUDGET + 6)]
    # A hub fanning out to interchangeable spokes: one orbit, residual ties
    # = len(tokens) - 1 > budget.
    hub = ("b", 0)
    atoms = tuple(("link", Ent(hub), Ent(token), 1) for token in tokens)
    form = form_of(atoms, tokens + [hub])
    assert form.used_name_fallback
    assert sorted(form.entities) == sorted(tokens + [hub])
    # The tied class is one full orbit, so the greedy pass still aligns a
    # renamed copy; equal fingerprints must come with a valid certificate.
    copy, copy_tokens = renamed_copy(atoms, tokens + [hub], rng)
    other = form_of(copy, copy_tokens)
    assert other.used_name_fallback
    assert other.fingerprint == form.fingerprint
    assert pairing_is_isomorphism(atoms, form, copy, other)
    # Within the budget the same shape is searched exactly.
    small = form_of(atoms[:3], tokens[:3] + [hub])
    assert not small.used_name_fallback
