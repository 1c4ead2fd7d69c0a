"""Cache-soundness fuzz suite for canonical fingerprints + verdict cache.

The cross-job verdict cache (solver/canonical.py + solver/verdict_cache.py)
lets one solver verdict answer every alpha-equivalent constraint set any
campaign job produces.  That is only safe if canonicalization never merges
semantically distinct sets, so this suite attacks it from three directions,
mirroring the conventions of ``test_differential_baselines.py`` (seed-pinned
fuzz loops, chunked, greedy shrink-on-failure, case-budget check):

* **invariance** — alpha-renaming, conjunct reordering and linear-arithmetic
  rewrites must not change the fingerprint;
* **separation** — across >= 2000 random conjunct sets, sets sharing a
  fingerprint must share the canonical rendering (no hash collision) and the
  solver verdict (the cache would have served the right answer), plus
  hand-crafted near-miss pairs must get distinct fingerprints;
* **verdict parity** — a verdict served from the cache (including for a
  renamed copy of the original set) always equals a from-scratch
  ``Solver.check``.

Mutation-style negative tests then corrupt the cache on purpose — flipped
verdicts, re-keyed entries, a canonicalization collapsed to a constant — and
assert the soundness hooks (``VerdictCache.verify_entry`` /
``verify_witnesses``, put/merge conflict detection, paranoid mode) catch
every one: the suite fails if canonicalization ever silently weakens.
"""

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.solver import ast as sa
from repro.solver.canonical import canonical_fingerprint, canonical_form
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
SEPARATION_CASES = 2200
PARITY_CASES = 250

_CASES_RUN = {"invariance": 0, "separation": 0, "parity": 0}

WIDTHS = (8, 16, 32)


# ===========================================================================
# Random conjunct-set generator and alpha-renaming helpers
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


def alpha_rename(
    conjuncts: Sequence[sa.Formula], rng: random.Random
) -> Tuple[sa.Formula, ...]:
    """A renamed + reordered copy of ``conjuncts`` under a fresh bijection."""
    variables = sorted(
        {v for f in conjuncts for v in sa.formula_variables(f)},
        key=lambda v: v.name,
    )
    fresh = [f"w{rng.randrange(10_000)}_{i}" for i, _ in enumerate(variables)]
    rng.shuffle(fresh)
    mapping = {
        var: sa.Var(name, var.width) for var, name in zip(variables, fresh)
    }
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
# (a) invariance: alpha-renaming / reordering keep the fingerprint
# ===========================================================================


@pytest.mark.parametrize("chunk", range(10))
def test_fingerprint_invariant_under_alpha_renaming(chunk):
    per_chunk = INVARIANCE_CASES // 10
    for offset in range(per_chunk):
        seed = SEED + chunk * per_chunk + offset
        case = generate_case(seed)
        rng = random.Random(seed ^ 0x5EED)
        renamed = alpha_rename(case, rng)
        _CASES_RUN["invariance"] += 1
        if canonical_fingerprint(case) != canonical_fingerprint(renamed):

            def diverges(sub):
                return canonical_fingerprint(sub) != canonical_fingerprint(
                    alpha_rename(sub, random.Random(seed ^ 0x5EED))
                )

            minimal = shrink_case(case, diverges)
            pytest.fail(
                f"fingerprint changed under alpha-renaming (seed={seed})\n"
                f"minimal case:\n{_describe(minimal)}"
            )


def test_fingerprint_ignores_duplicates_and_linear_rewrites():
    x, y = sa.Var("x", 32), sa.Var("y", 32)
    base = [sa.Eq(x, sa.Const(4)), sa.Le(sa.Sub(x, y), sa.Const(3))]
    rewritten = [
        sa.Eq(sa.Add(x, sa.Const(1)), sa.Const(5)),  # x + 1 == 5  <=>  x == 4
        sa.Eq(x, sa.Const(4)),                        # duplicate conjunct
        sa.Ge(sa.Const(3), sa.Sub(x, y)),             # flipped orientation
    ]
    assert canonical_fingerprint(base) == canonical_fingerprint(rewritten)


# ===========================================================================
# (b) separation: semantically distinct sets never collide
# ===========================================================================


@pytest.mark.parametrize("chunk", range(10))
def test_no_fingerprint_collisions_across_random_sets(chunk):
    """Fingerprint equality must imply canonical-rendering equality (no hash
    collision) and solver-verdict equality (the cache would have answered
    correctly).  Renderings are compared per chunk; fingerprint->verdict
    consistency is checked across the whole run via a shared registry."""
    per_chunk = SEPARATION_CASES // 10
    by_fingerprint: Dict[str, Tuple] = {}
    solver = Solver()
    verdicts: Dict[str, str] = _SEPARATION_VERDICTS
    for offset in range(per_chunk):
        seed = SEED + 50_000 + chunk * per_chunk + offset
        case = generate_case(seed)
        form = canonical_form(case)
        _CASES_RUN["separation"] += 1
        seen = by_fingerprint.get(form.fingerprint)
        if seen is not None and seen != form.rendering:
            pytest.fail(
                f"fingerprint collision between distinct renderings "
                f"(seed={seed}):\n{seen!r}\nvs\n{form.rendering!r}"
            )
        by_fingerprint[form.fingerprint] = form.rendering
        if form.fingerprint in verdicts:
            verdict = solver.check(list(case)).verdict
            assert verdicts[form.fingerprint] == verdict, (
                f"seed={seed}: colliding sets have different verdicts\n"
                f"{_describe(case)}"
            )
        elif seen is None and len(verdicts) < 500:
            # Sample verdicts for cross-chunk consistency checking without
            # solving all >= 2000 cases.
            verdicts[form.fingerprint] = solver.check(list(case)).verdict


_SEPARATION_VERDICTS: Dict[str, str] = {}


def test_near_miss_pairs_get_distinct_fingerprints():
    """Adversarial pairs that differ by one semantic detail must separate."""
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
    ]
    for left, right in pairs:
        assert canonical_fingerprint(left) != canonical_fingerprint(right), (
            f"near-miss pair collided:\n{_describe(left)}\nvs\n{_describe(right)}"
        )


def test_automorphic_sets_still_rename_invariantly():
    """Fully symmetric variable classes force the individualise-and-refine
    search; its result must still be name-independent."""
    rng = random.Random(SEED)
    a, b, c = (sa.Var(name, 32) for name in ("a", "b", "c"))
    cycle = (
        sa.Le(sa.Sub(a, b), sa.Const(1)),
        sa.Le(sa.Sub(b, c), sa.Const(1)),
        sa.Le(sa.Sub(c, a), sa.Const(1)),
    )
    form = canonical_form(cycle)
    assert not form.used_name_fallback
    for _ in range(5):
        assert canonical_fingerprint(alpha_rename(cycle, rng)) == form.fingerprint
    # ... and a broken cycle must not merge with the intact one.
    broken = (
        sa.Le(sa.Sub(a, b), sa.Const(1)),
        sa.Le(sa.Sub(b, c), sa.Const(1)),
        sa.Le(sa.Sub(a, c), sa.Const(1)),
    )
    assert canonical_fingerprint(broken) != form.fingerprint


# ===========================================================================
# (c) verdict parity: cached verdicts == fresh Solver.check verdicts
# ===========================================================================


def _parity_divergence(case: Tuple[sa.Formula, ...]) -> Optional[str]:
    """None when cache-served verdicts (original + renamed lookup) match
    from-scratch solves, else a description."""
    fresh = Solver().check(list(case)).verdict
    inc = IncrementalSolver()
    first = inc.check_cached(list(case)).verdict
    second = inc.check_cached(list(case)).verdict  # served from cache
    renamed = alpha_rename(case, random.Random(len(case) * 7919 + 13))
    served = inc.check_cached(list(renamed)).verdict  # alpha-equivalent hit
    fresh_renamed = Solver().check(list(renamed)).verdict
    hits = inc.cache_info()[0]
    problems = []
    if first != fresh:
        problems.append(f"first={first} fresh={fresh}")
    if second != fresh:
        problems.append(f"cached={second} fresh={fresh}")
    if served != fresh_renamed:
        problems.append(f"renamed cached={served} fresh={fresh_renamed}")
    if hits < 2:
        problems.append(f"expected 2 cache hits, saw {hits}")
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
    """End-to-end through SolverContext: two contexts over renamed copies of
    the same constraints share one full solve and agree with Solver.check."""
    x, y = sa.Var("x", 32), sa.Var("y", 32)
    p, q = sa.Var("p", 32), sa.Var("q", 32)
    inc = IncrementalSolver()
    first = inc.context()
    first.assume(sa.Le(sa.Sub(x, y), sa.Const(3)))
    first.assume(sa.Member(x, IntervalSet([(0, 100)])))
    second = inc.context()
    second.assume(sa.Le(sa.Sub(p, q), sa.Const(3)))
    second.assume(sa.Member(p, IntervalSet([(0, 100)])))
    assert first.check().verdict == second.check().verdict == "sat"
    hits, misses, _ = inc.cache_info()
    assert (hits, misses) == (1, 1)  # the renamed twin was served from cache


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
    """Simulate canonicalization silently weakening to a constant key: the
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


def test_unknown_verdicts_never_cross_alpha_variants():
    """"unknown" is budget-dependent incompleteness, not an answer: sharing
    it across alpha-variants would poison queries a fresh solve could
    answer, and treating it as a conflict would crash campaigns on harmless
    solver-budget differences.  It IS memoized for the bit-identical
    conjunct set (the solver is deterministic on identical input)."""
    x, y, z = sa.Var("x", 32), sa.Var("y", 32), sa.Var("z", 32)
    unsupported = [sa.Eq(sa.Add(x, y), z)]  # outside the decidable fragment
    assert Solver().check(unsupported).verdict == "unknown"
    inc = IncrementalSolver()
    assert inc.check_cached(unsupported).verdict == "unknown"
    assert len(inc.cache) == 0  # kept out of the cross-variant cache
    assert inc.check_cached(unsupported).verdict == "unknown"
    assert inc.cache_info() == (1, 1, 0)  # exact-match memo hit, no re-solve
    renamed = [rename_formula(unsupported[0], {x: y, y: z, z: x})]
    assert inc.check_cached(renamed).verdict == "unknown"
    assert inc.cache_info()[1] == 2  # the alpha-variant re-solved

    # The exact-set memo lives on the VerdictCache: a second solver sharing
    # it (the next job on a worker) sees the first's "unknown" as a hit,
    # an alpha-variant still re-solves, and a fresh cache sees neither.
    shared = VerdictCache()
    IncrementalSolver(verdict_cache=shared).check_cached(unsupported)
    later = IncrementalSolver(verdict_cache=shared)
    assert later.check_cached(unsupported).verdict == "unknown"
    assert later.cache_info() == (1, 0, 0)
    assert later.check_cached(renamed).verdict == "unknown"
    assert later.cache_info() == (1, 1, 0)
    isolated = IncrementalSolver(verdict_cache=VerdictCache())
    assert isolated.check_cached(unsupported).verdict == "unknown"
    assert isolated.cache_info() == (0, 1, 0)
    shared.clear()  # empties the exact-set memo with the verdicts
    cleared = IncrementalSolver(verdict_cache=shared)
    assert cleared.check_cached(unsupported).verdict == "unknown"
    assert cleared.cache_info() == (0, 1, 0)

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
    """The campaign requirement: >= 2000 fuzzed separation cases (and the
    other loops at their configured sizes) actually ran."""
    assert SEPARATION_CASES >= 2000
    if _CASES_RUN["separation"]:
        assert _CASES_RUN["separation"] == SEPARATION_CASES
    if _CASES_RUN["invariance"]:
        assert _CASES_RUN["invariance"] == INVARIANCE_CASES
    if _CASES_RUN["parity"]:
        assert _CASES_RUN["parity"] == PARITY_CASES
