"""Contract suite for the verdict cache's key and the cache itself.

The cross-job verdict cache (solver/canonical.py's ``canonical_fingerprint``
+ solver/verdict_cache.py) files each solver verdict under SHA-256 of the
exact conjunct set.  That is only safe — and only useful — if the key is
equal exactly when the sets are, so this suite pins the contract from three
directions, mirroring the conventions of ``test_differential_baselines.py``
(seed-pinned fuzz loops, chunked, greedy shrink-on-failure, case-budget
check):

* **the key contract** — across >= 2000 random conjunct sets and variants
  of each (shuffles, duplicates, renamed copies, linear rewrites, width
  changes, nested ``And``/``Or``/``Not``, large ``Member`` sets),
  ``key(a) == key(b)`` exactly when ``frozenset(a) == frozenset(b)``, and
  the key is the same in every process whatever its hash seed;
* **renaming** — a renamed copy keys apart from the original, alike in any
  order, and renamed back keys exactly as the original did;
* **separation** — hand-crafted near-miss pairs get distinct keys;
* **verdict parity** — a verdict served from the cache always equals a
  from-scratch ``Solver.check``; a renamed copy is a miss, solved afresh,
  and gets an equal verdict.

Mutation-style negative tests then corrupt the cache on purpose — flipped
verdicts, re-keyed entries, a key function collapsed to a constant — and
assert the soundness hooks (``VerdictCache.verify_entry`` /
``verify_witnesses``, put/merge conflict detection, paranoid mode) catch
every one.
"""

import os
import random
import re
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

import repro
from repro.solver import ast as sa
from repro.solver.canonical import canonical_fingerprint
from repro.solver.form import PathCondition
from repro.solver.incremental import IncrementalSolver
from repro.solver.intervals import IntervalSet
from repro.solver.solver import Solver
from repro.solver.verdict_cache import (
    CacheConflictError,
    CacheCorruptionError,
    VerdictCache,
)

SEED = int(os.environ.get("REPRO_CACHE_SEED", "20260728"))

INVARIANCE_CASES = 600
CONTRACT_CASES = 2200
PARITY_CASES = 250

_CASES_RUN = {"invariance": 0, "contract": 0, "parity": 0}

WIDTHS = (8, 16, 32)


# ===========================================================================
# Random conjunct-set generator and renaming helpers
# ===========================================================================


def _random_interval_set(rng: random.Random, width: int) -> IntervalSet:
    top = (1 << width) - 1
    intervals = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(0, top)
        hi = min(top, lo + rng.randint(0, max(1, top // 8)))
        intervals.append((lo, hi))
    return IntervalSet(intervals)


def _random_term(rng: random.Random, var: sa.Var) -> sa.Term:
    roll = rng.random()
    if roll < 0.6:
        return var
    offset = sa.Const(rng.randint(1, 50))
    return sa.Add(var, offset) if roll < 0.8 else sa.Sub(var, offset)


_CMP_OPS = (sa.Eq, sa.Ne, sa.Lt, sa.Le, sa.Gt, sa.Ge)


def _random_atom(rng: random.Random, variables: Sequence[sa.Var]) -> sa.Formula:
    op = rng.choice(_CMP_OPS)
    var = rng.choice(variables)
    if rng.random() < 0.55 or len(variables) == 1:
        constant = sa.Const(rng.randint(0, (1 << var.width) - 1))
        return op(_random_term(rng, var), constant)
    other = rng.choice([v for v in variables if v != var])
    return op(
        _random_term(rng, var),
        sa.Add(other, sa.Const(rng.randint(0, 30)))
        if rng.random() < 0.4
        else other,
    )


def _random_conjunct(rng: random.Random, variables: Sequence[sa.Var]) -> sa.Formula:
    roll = rng.random()
    if roll < 0.55:
        return _random_atom(rng, variables)
    if roll < 0.75:
        var = rng.choice(variables)
        return sa.Member(
            _random_term(rng, var),
            _random_interval_set(rng, var.width),
            negated=rng.random() < 0.3,
        )
    operands = [
        _random_atom(rng, variables) for _ in range(rng.randint(2, 3))
    ]
    disjunction = sa.Or(*operands)
    if roll < 0.85:
        return sa.Not(disjunction)  # exercises the NNF step too
    return disjunction


def generate_case(seed: int) -> Tuple[sa.Formula, ...]:
    rng = random.Random(seed)
    variables = [
        sa.Var(f"v{index}", rng.choice(WIDTHS))
        for index in range(rng.randint(1, 5))
    ]
    return tuple(
        _random_conjunct(rng, variables) for _ in range(rng.randint(1, 6))
    )


def _rename_term(term: sa.Term, mapping: Dict[sa.Var, sa.Var]) -> sa.Term:
    if isinstance(term, sa.Var):
        return mapping[term]
    if isinstance(term, sa.Const):
        return term
    if isinstance(term, sa.Add):
        return sa.Add(_rename_term(term.left, mapping), _rename_term(term.right, mapping))
    if isinstance(term, sa.Sub):
        return sa.Sub(_rename_term(term.left, mapping), _rename_term(term.right, mapping))
    raise TypeError(f"not a term: {term!r}")


def rename_formula(formula: sa.Formula, mapping: Dict[sa.Var, sa.Var]) -> sa.Formula:
    if isinstance(formula, (sa.BoolTrue, sa.BoolFalse)):
        return formula
    if isinstance(formula, sa.Not):
        return sa.Not(rename_formula(formula.operand, mapping))
    if isinstance(formula, sa.And):
        return sa.And(*(rename_formula(op, mapping) for op in formula.operands))
    if isinstance(formula, sa.Or):
        return sa.Or(*(rename_formula(op, mapping) for op in formula.operands))
    if isinstance(formula, sa.Member):
        return sa.Member(
            _rename_term(formula.term, mapping), formula.values, formula.negated
        )
    return type(formula)(
        _rename_term(formula.left, mapping), _rename_term(formula.right, mapping)
    )


def alpha_mapping(
    conjuncts: Sequence[sa.Formula], rng: random.Random
) -> Dict[sa.Var, sa.Var]:
    """A fresh bijection from the variables of ``conjuncts`` to new names."""
    variables = sorted(
        {v for f in conjuncts for v in sa.formula_variables(f)},
        key=lambda v: v.name,
    )
    fresh = [f"w{rng.randrange(10_000)}_{i}" for i, _ in enumerate(variables)]
    rng.shuffle(fresh)
    return {var: sa.Var(name, var.width) for var, name in zip(variables, fresh)}


def alpha_rename(
    conjuncts: Sequence[sa.Formula], rng: random.Random
) -> Tuple[sa.Formula, ...]:
    """A renamed + reordered copy of ``conjuncts`` under a fresh bijection."""
    mapping = alpha_mapping(conjuncts, rng)
    renamed = [rename_formula(f, mapping) for f in conjuncts]
    rng.shuffle(renamed)
    return tuple(renamed)


def shrink_case(
    conjuncts: Tuple[sa.Formula, ...], still_failing
) -> Tuple[sa.Formula, ...]:
    """Greedily drop conjuncts while ``still_failing`` holds (matching the
    shrinker conventions of test_differential_baselines.py)."""
    changed = True
    while changed and len(conjuncts) > 1:
        changed = False
        for index in range(len(conjuncts)):
            candidate = conjuncts[:index] + conjuncts[index + 1:]
            if still_failing(candidate):
                conjuncts = candidate
                changed = True
                break
    return conjuncts


def _describe(conjuncts: Sequence[sa.Formula]) -> str:
    return "\n".join(f"  {formula!r}" for formula in conjuncts)


# ===========================================================================
# (a) the key contract: equal keys exactly for equal conjunct sets
# ===========================================================================


def renaming_divergence(
    case: Tuple[sa.Formula, ...], seed: int
) -> Optional[str]:
    """None when the key treats an alpha-renamed copy of ``case`` as the set
    it is: its own key (fresh names make a different set), the same key in
    any order, and the original's key again once renamed back; else a
    description."""
    rng = random.Random(seed ^ 0x5EED)
    mapping = alpha_mapping(case, rng)
    renamed = [rename_formula(f, mapping) for f in case]
    reordered = list(renamed)
    rng.shuffle(reordered)
    inverse = {new: old for old, new in mapping.items()}
    restored = [rename_formula(f, inverse) for f in reordered]
    key, renamed_key = canonical_fingerprint(case), canonical_fingerprint(renamed)
    if renamed_key == key:
        return "a renamed copy shares the original's key"
    if canonical_fingerprint(reordered) != renamed_key:
        return "reordering the renamed copy changed its key"
    if canonical_fingerprint(restored) != key:
        return "renaming the copy back did not restore the original's key"
    return None


@pytest.mark.parametrize("chunk", range(10))
def test_fingerprint_invariant_under_alpha_renaming(chunk):
    """The key is a function of the set as written, so alpha-renaming moves
    it and the inverse renaming moves it back: a renamed copy keys apart
    from the original, alike in any order, and renamed back it keys exactly
    as the original did."""
    per_chunk = INVARIANCE_CASES // 10
    for offset in range(per_chunk):
        seed = SEED + chunk * per_chunk + offset
        case = generate_case(seed)
        _CASES_RUN["invariance"] += 1
        divergence = renaming_divergence(case, seed)
        if divergence is not None:
            minimal = shrink_case(
                case, lambda sub: renaming_divergence(sub, seed) is not None
            )
            pytest.fail(
                f"{divergence} (seed={seed})\n"
                f"minimal case:\n{_describe(minimal)}"
            )



def _rewrite(formula: sa.Formula) -> sa.Formula:
    """An equivalent conjunct written differently: ``x + 1 == k + 1`` for
    a comparison ``x == k``, a double negation for anything else."""
    if isinstance(formula, (sa.Eq, sa.Ne, sa.Lt, sa.Le, sa.Gt, sa.Ge)):
        one = sa.Const(1)
        return type(formula)(sa.Add(formula.left, one), sa.Add(formula.right, one))
    return sa.Not(sa.Not(formula))


def _large_member(rng: random.Random, var: sa.Var) -> sa.Member:
    """A membership in up to 1,500 intervals, like a router port's set."""
    top = (1 << var.width) - 1
    stride = max(2, top // rng.randint(200, 1500))
    span = rng.randrange(stride - 1)  # leaves a gap before the next interval
    los = range(rng.randrange(stride), top - span, stride)[:1500]
    return sa.Member(var, IntervalSet.from_bounds(los, [lo + span for lo in los]))


def contract_variants(
    case: Tuple[sa.Formula, ...], rng: random.Random
) -> List[Tuple[str, Tuple[sa.Formula, ...]]]:
    """Sets to hold against ``case``: some equal to it as sets, the rest one
    detail away from it."""
    variables = sorted(
        {v for f in case for v in sa.formula_variables(f)}, key=lambda v: v.name
    )
    pick = rng.randrange(len(case))
    shuffled = list(case)
    rng.shuffle(shuffled)
    first = variables[0]
    widened = {var: var for var in variables}
    widened[first] = sa.Var(
        first.name, rng.choice([w for w in WIDTHS if w != first.width])
    )
    wrapped = rng.choice(
        [
            sa.Not(sa.Not(case[pick])),
            sa.Or(case[pick], sa.FALSE),
            sa.And(case[pick], sa.TRUE),
            sa.Or(sa.And(case[pick], case[pick])),
        ]
    )
    var = variables[-1]
    member = _large_member(rng, var)
    original = list(member.values.pairs())
    lo, hi = original[-1]
    moved = original[:-1] + [(lo, hi - 1) if hi > lo else (lo - 1, hi)]
    return [
        ("shuffled", tuple(shuffled)),
        ("duplicated", tuple(shuffled) + (case[pick], case[0])),
        ("renamed", alpha_rename(case, rng)),
        ("rewritten", case[:pick] + (_rewrite(case[pick]),) + case[pick + 1:]),
        ("widened", tuple(rename_formula(f, widened) for f in case)),
        ("nested", case[:pick] + (wrapped,) + case[pick + 1:]),
        ("with member", case + (member,)),
        ("with member rebuilt", case + (sa.Member(var, IntervalSet(reversed(original))),)),
        ("with member moved", case + (sa.Member(var, IntervalSet(moved)),)),
    ]


def contract_violation(
    case: Tuple[sa.Formula, ...], seed: int, seen: Dict[str, frozenset]
) -> Optional[str]:
    """None when every variant of ``case`` gets a key equal to ``case``'s
    exactly when it is the same set, and no key in ``seen`` names two sets;
    else a description.  Files every set it keyed in ``seen``."""
    key = canonical_fingerprint(case)
    for label, variant in [("case", case)] + contract_variants(
        case, random.Random(seed ^ 0x5EED)
    ):
        variant_key = canonical_fingerprint(variant)
        same_set = frozenset(variant) == frozenset(case)
        if (variant_key == key) != same_set:
            return (
                f"{label}: the sets are {'equal' if same_set else 'different'} "
                f"but their keys are {'different' if same_set else 'equal'}"
            )
        filed = seen.setdefault(variant_key, frozenset(variant))
        if filed != frozenset(variant):
            return f"{label}: key {variant_key[:12]}… names two different sets"
    return None


@pytest.mark.parametrize("chunk", range(10))
def test_no_fingerprint_collisions_across_random_sets(chunk):
    """``key(a) == key(b)`` exactly when ``frozenset(a) == frozenset(b)``:
    each random set against its variants, and every key of the chunk against
    every other — a key may neither name two sets nor one set get two."""
    per_chunk = CONTRACT_CASES // 10
    seen: Dict[str, frozenset] = {}
    for offset in range(per_chunk):
        seed = SEED + 50_000 + chunk * per_chunk + offset
        case = generate_case(seed)
        _CASES_RUN["contract"] += 1
        violation = contract_violation(case, seed, seen)
        if violation is not None:
            minimal = shrink_case(
                case, lambda sub: contract_violation(sub, seed, {}) is not None
            )
            pytest.fail(
                f"key contract broken (seed={seed}): {violation}\n"
                f"minimal case:\n{_describe(minimal)}"
            )
    sets_by_key: Dict[frozenset, str] = {}
    for key, conjuncts in seen.items():
        assert sets_by_key.setdefault(conjuncts, key) == key, _describe(conjuncts)


def test_fingerprint_is_the_same_under_any_hash_seed():
    """The key never reads ``hash()``: two processes with different
    ``PYTHONHASHSEED`` values compute the same keys for pinned sets."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from test_canonical_cache import generate_case\n"
        "from repro.solver.canonical import canonical_fingerprint\n"
        "for seed in range(40):\n"
        "    print(canonical_fingerprint(generate_case(seed)))\n"
    )
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")])
        )
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", script, os.path.dirname(__file__)],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout.split()
        )
    expected = [canonical_fingerprint(generate_case(seed)) for seed in range(40)]
    assert outputs[0] == outputs[1] == expected
    assert all(re.fullmatch("[0-9a-f]{64}", key) for key in expected)


# ===========================================================================
# (b) separation: near-miss pairs never share a key
# ===========================================================================


def test_near_miss_pairs_get_distinct_fingerprints():
    """Pairs that differ by one detail must separate — equivalent rewrites
    included: the key names the set as written."""
    x, y, z = sa.Var("x", 32), sa.Var("y", 32), sa.Var("z", 32)
    member_values = IntervalSet([(10, 20)])
    pairs = [
        # different constant
        ([sa.Eq(x, sa.Const(4))], [sa.Eq(x, sa.Const(5))]),
        # different operator
        ([sa.Lt(x, sa.Const(4))], [sa.Le(x, sa.Const(4))]),
        # different width
        ([sa.Eq(sa.Var("v", 16), sa.Const(5))], [sa.Eq(sa.Var("v", 32), sa.Const(5))]),
        # symmetric pair vs chain over three variables
        (
            [sa.Le(sa.Sub(x, y), sa.Const(1)), sa.Le(sa.Sub(y, x), sa.Const(1))],
            [sa.Le(sa.Sub(x, y), sa.Const(1)), sa.Le(sa.Sub(y, z), sa.Const(1))],
        ),
        # same variable twice vs two distinct variables in a disjunction
        (
            [sa.Or(sa.Eq(x, sa.Const(1)), sa.Eq(x, sa.Const(2)))],
            [sa.Or(sa.Eq(x, sa.Const(1)), sa.Eq(y, sa.Const(2)))],
        ),
        # membership polarity
        (
            [sa.Member(x, member_values)],
            [sa.Member(x, member_values, negated=True)],
        ),
        # same atoms, different grouping (conjunct set vs disjunction)
        (
            [sa.Eq(x, sa.Const(1)), sa.Eq(y, sa.Const(2))],
            [sa.Or(sa.Eq(x, sa.Const(1)), sa.Eq(y, sa.Const(2)))],
        ),
        # equivalent, written differently: x + 1 == 5 against x == 4
        ([sa.Eq(sa.Add(x, sa.Const(1)), sa.Const(5))], [sa.Eq(x, sa.Const(4))]),
        # a renamed copy
        ([sa.Le(sa.Sub(x, y), sa.Const(3))], [sa.Le(sa.Sub(y, z), sa.Const(3))]),
    ]
    for left, right in pairs:
        assert canonical_fingerprint(left) != canonical_fingerprint(right), (
            f"near-miss pair collided:\n{_describe(left)}\nvs\n{_describe(right)}"
        )


# ===========================================================================
# (c) verdict parity: cached verdicts == fresh Solver.check verdicts
# ===========================================================================


def _parity_divergence(case: Tuple[sa.Formula, ...]) -> Optional[str]:
    """None when the cache-served verdict matches a from-scratch solve and
    a renamed copy — a miss, solved afresh — gets an equal verdict, else a
    description."""
    fresh = Solver().check(list(case)).verdict
    inc = IncrementalSolver()
    first = inc.check_cached(list(case)).verdict
    second = inc.check_cached(list(case)).verdict  # served from cache
    renamed = alpha_rename(case, random.Random(len(case) * 7919 + 13))
    solved = inc.check_cached(list(renamed)).verdict  # a different set: a miss
    fresh_renamed = Solver().check(list(renamed)).verdict
    counters = (inc.stats.cache_hits, inc.stats.cache_misses)
    problems = []
    if first != fresh:
        problems.append(f"first={first} fresh={fresh}")
    if second != fresh:
        problems.append(f"cached={second} fresh={fresh}")
    if solved != fresh_renamed:
        problems.append(f"renamed cached={solved} fresh={fresh_renamed}")
    if "unknown" not in (fresh, fresh_renamed) and fresh != fresh_renamed:
        problems.append(f"renamed copy fresh={fresh_renamed} original={fresh}")
    if counters != (1, 2):
        problems.append(f"expected 1 hit and 2 misses, saw {counters}")
    return "; ".join(problems) or None


@pytest.mark.parametrize("chunk", range(10))
def test_cached_verdicts_match_fresh_solves(chunk):
    per_chunk = PARITY_CASES // 10
    for offset in range(per_chunk):
        seed = SEED + 90_000 + chunk * per_chunk + offset
        case = generate_case(seed)
        _CASES_RUN["parity"] += 1
        divergence = _parity_divergence(case)
        if divergence is not None:
            minimal = shrink_case(
                case, lambda sub: _parity_divergence(tuple(sub)) is not None
            )
            pytest.fail(
                f"cache/fresh verdict divergence (seed={seed}): {divergence}\n"
                f"minimal case:\n{_describe(minimal)}"
            )


def test_context_checks_match_fresh_solves_via_cache():
    """End-to-end through IncrementalSolver.check: two path conditions over
    the same constraints share one full solve; a renamed copy is solved
    afresh and agrees with Solver.check."""
    x, y = sa.Var("x", 32), sa.Var("y", 32)
    p, q = sa.Var("p", 32), sa.Var("q", 32)
    inc = IncrementalSolver()
    contexts = []
    for left, right in ((x, y), (x, y), (p, q)):
        context = PathCondition()
        context.assume(sa.Le(sa.Sub(left, right), sa.Const(3)))
        context.assume(sa.Member(left, IntervalSet([(0, 100)])))
        contexts.append(context)
    assert [inc.check(context).verdict for context in contexts] == ["sat"] * 3
    assert Solver().check(list(contexts[2].formulas)).verdict == "sat"
    # The identical twin was served from cache; the renamed one was solved.
    assert (inc.stats.cache_hits, inc.stats.cache_misses) == (1, 2)


# ===========================================================================
# Mutation-style negative tests: the soundness net must catch corruption
# ===========================================================================


def _populated_debug_cache() -> Tuple[IncrementalSolver, VerdictCache]:
    cache = VerdictCache(debug=True)
    inc = IncrementalSolver(verdict_cache=cache)
    x, y = sa.Var("x", 32), sa.Var("y", 32)
    inc.check_cached([sa.Le(sa.Sub(x, y), sa.Const(3))])            # sat
    inc.check_cached([sa.Lt(x, sa.Const(2)), sa.Gt(x, sa.Const(5))])  # unsat
    return inc, cache


def test_healthy_cache_passes_verification():
    _, cache = _populated_debug_cache()
    assert cache.verify_witnesses() == 2


def test_mutated_verdict_is_caught():
    _, cache = _populated_debug_cache()
    fingerprint, stored = next(iter(cache.snapshot().items()))
    flipped = "unsat" if stored == "sat" else "sat"
    cache._entries[fingerprint] = flipped  # deliberate corruption
    with pytest.raises(CacheCorruptionError, match="verdict mismatch"):
        cache.verify_witnesses()


def test_mutated_fingerprint_is_caught():
    _, cache = _populated_debug_cache()
    fingerprint = next(iter(cache.snapshot()))
    bogus = "0" * len(fingerprint)
    cache._entries[bogus] = cache._entries.pop(fingerprint)
    cache._witnesses[bogus] = cache._witnesses.pop(fingerprint)
    with pytest.raises(CacheCorruptionError, match="fingerprint mismatch"):
        cache.verify_witnesses()


def test_collapsed_canonicalization_is_caught(monkeypatch):
    """Simulate the key function silently weakening to a constant: the
    paranoid re-verification hook must refuse the resulting false hit."""
    import repro.solver.incremental as incremental

    monkeypatch.setattr(
        incremental, "canonical_fingerprint", lambda conjuncts: "f" * 64
    )
    inc = IncrementalSolver(verdict_cache=VerdictCache(debug=True), paranoid=True)
    x = sa.Var("x", 32)
    y = sa.Var("y", 32)
    sat_set = [sa.Le(sa.Sub(x, y), sa.Const(3))]
    unsat_set = [sa.Lt(x, sa.Const(2)), sa.Gt(x, sa.Const(5))]
    assert inc.check_cached(sat_set).verdict == "sat"
    with pytest.raises(CacheCorruptionError):
        inc.check_cached(unsat_set)  # false hit on the collapsed key


def _memo(inc: IncrementalSolver) -> Tuple[int, int, int]:
    """``(hits, misses, entries)`` of a solver's verdict memo."""
    return (inc.stats.cache_hits, inc.stats.cache_misses, len(inc.cache))


def test_unknown_verdicts_never_cross_alpha_variants():
    """"unknown" is budget-dependent incompleteness, not an answer: filing
    it as a verdict would poison queries a fresh solve could answer, and
    treating it as a conflict would crash campaigns on harmless
    solver-budget differences.  It IS memoized for the exact conjunct set
    in this process (the solver is deterministic on identical input)."""
    x, y, z = sa.Var("x", 32), sa.Var("y", 32), sa.Var("z", 32)
    unsupported = [sa.Eq(sa.Add(x, y), z)]  # outside the decidable fragment
    assert Solver().check(unsupported).verdict == "unknown"
    inc = IncrementalSolver()
    assert inc.check_cached(unsupported).verdict == "unknown"
    assert len(inc.cache) == 0  # kept out of the verdict map
    assert inc.check_cached(unsupported).verdict == "unknown"
    assert _memo(inc) == (1, 1, 0)  # exact-match memo hit, no re-solve
    renamed = [rename_formula(unsupported[0], {x: y, y: z, z: x})]
    assert inc.check_cached(renamed).verdict == "unknown"
    assert _memo(inc) == (1, 2, 0)  # the renamed copy re-solved

    # The exact-set memo lives on the VerdictCache: a second solver sharing
    # it (the next job on a worker) sees the first's "unknown" as a hit,
    # a renamed copy still re-solves, and a fresh cache sees neither.
    shared = VerdictCache()
    IncrementalSolver(verdict_cache=shared).check_cached(unsupported)
    later = IncrementalSolver(verdict_cache=shared)
    assert later.check_cached(unsupported).verdict == "unknown"
    assert _memo(later) == (1, 0, 0)
    assert later.check_cached(renamed).verdict == "unknown"
    assert _memo(later) == (1, 1, 0)
    isolated = IncrementalSolver(verdict_cache=VerdictCache())
    assert isolated.check_cached(unsupported).verdict == "unknown"
    assert _memo(isolated) == (0, 1, 0)
    shared.clear()  # empties the exact-set memo with the verdicts
    cleared = IncrementalSolver(verdict_cache=shared)
    assert cleared.check_cached(unsupported).verdict == "unknown"
    assert _memo(cleared) == (0, 1, 0)

    # An "unknown" injected via merge (old warm maps) must not suppress the
    # solve that can upgrade it.
    seeded = IncrementalSolver()
    sat_set = [sa.Le(sa.Sub(x, y), sa.Const(3))]
    fingerprint = canonical_fingerprint(sat_set)
    seeded.cache.merge({fingerprint: "unknown"}, strict=True)
    assert seeded.check_cached(sat_set).verdict == "sat"  # solved, not served
    assert seeded.cache.snapshot()[fingerprint] == "sat"  # and upgraded

    cache = VerdictCache()
    fingerprint = "b" * 64
    cache.put(fingerprint, "unknown")
    cache.put(fingerprint, "sat")  # definite supersedes unknown
    assert cache.snapshot()[fingerprint] == "sat"
    cache.put(fingerprint, "unknown")  # ... and is never downgraded
    assert cache.snapshot()[fingerprint] == "sat"
    assert cache.merge({fingerprint: "unknown"}) == 0
    assert cache.snapshot()[fingerprint] == "sat"
    with pytest.raises(CacheConflictError):
        cache.put(fingerprint, "unsat")  # definite-vs-definite still fatal


def test_exact_key_memo_never_leaves_the_process():
    """The exact-set memo is a cost cache over live formula objects: it is
    not a verdict, so snapshots, fresh entries, merges and pickles skip it."""
    import pickle

    x, y = sa.Var("x", 32), sa.Var("y", 32)
    conjuncts = [sa.Le(sa.Sub(x, y), sa.Const(3))]
    cache = VerdictCache()
    cache.begin_collection()
    IncrementalSolver(verdict_cache=cache).check_cached(conjuncts)
    fingerprint = canonical_fingerprint(conjuncts)
    assert cache.exact_key(frozenset(conjuncts)) == fingerprint
    assert cache.snapshot() == cache.fresh_entries() == {fingerprint: "sat"}
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.snapshot() == {fingerprint: "sat"}
    assert clone.exact_key(frozenset(conjuncts)) is None
    merged = VerdictCache()
    merged.merge(cache.snapshot())
    assert merged.exact_key(frozenset(conjuncts)) is None


def test_conflicting_put_and_merge_are_refused():
    cache = VerdictCache()
    cache.put("a" * 64, "sat")
    with pytest.raises(CacheConflictError):
        cache.put("a" * 64, "unsat")
    with pytest.raises(CacheConflictError):
        cache.merge({"a" * 64: "unsat"})
    # Non-strict merge keeps the existing entry instead.
    assert cache.merge({"a" * 64: "unsat"}, strict=False) == 0
    assert cache.snapshot() == {"a" * 64: "sat"}


def test_eviction_never_loses_fresh_entries():
    cache = VerdictCache(max_entries=2)
    cache.begin_collection()
    for index in range(5):
        cache.put(f"{index:064d}", "sat")
    assert len(cache) == 2
    assert len(cache.fresh_entries()) == 5  # report keeps every paid verdict


def test_case_budget():
    """The campaign requirement: >= 2000 fuzzed key-contract cases (and the
    other loops at their configured sizes) actually ran."""
    assert CONTRACT_CASES >= 2000
    if _CASES_RUN["contract"]:
        assert _CASES_RUN["contract"] == CONTRACT_CASES
    if _CASES_RUN["invariance"]:
        assert _CASES_RUN["invariance"] == INVARIANCE_CASES
    if _CASES_RUN["parity"]:
        assert _CASES_RUN["parity"] == PARITY_CASES
