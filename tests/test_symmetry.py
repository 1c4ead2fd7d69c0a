"""Seed-pinned fuzz of what the network encoder merges and splits.

The job-level symmetry tier that ran one engine job per class of equal job
forms is retired, and with it report instantiation and the audit; the
encoder (``repro.network.view``) stays.  These are the merge/split
guarantees the tier rested on, now asked of the encoder directly, on
fresh seeds of :func:`build_symmetric_case` (the conventions of
``test_canonical_cache.py``: seeds pinned by ``REPRO_CACHE_SEED``,
chunked, greedy shrink-on-failure):

* **merging** — cloned zones, whose element/port names are randomised per
  zone and whose address constants live in disjoint per-zone ranges, get
  one form;
* **splitting** — a near-symmetric variant (one extra ACL rule, one
  rewired link, one overlapping address constant) keeps the modified zone
  out of the pristine zones' form;
* **the pinned workloads** — stanford 16/12/4 splits into its two parity
  classes, and department's vantage points share no form.

``tests/test_symmetry_partition.py`` holds the exact partitions recorded
over a fixed seed range and the benchmark replay's calls.
"""

import os

import pytest

from test_symmetry_partition import (
    STANFORD_ACL,
    _acl_ports,
    build_symmetric_case,
    classes_of,
    partition,
    workload_partition,
)

SEED = int(os.environ.get("REPRO_CACHE_SEED", "20260728"))

MERGE_CASES = 12
SPLIT_CASES = 9


def shrink_case(seed: int, zones: int, asymmetry: str, still_failing):
    """Greedily reduce the zone count while the failure reproduces
    (matching the shrinker conventions of test_canonical_cache.py)."""
    while zones > 2 and still_failing(seed, zones - 1, asymmetry):
        zones -= 1
    return zones


def _describe(seed: int, zones: int, asymmetry: str) -> str:
    return f"seed={seed} zones={zones} asymmetry={asymmetry!r}"


def _ports(injections):
    return [f"{element}:{port}" for element, port in injections]


# ===========================================================================
# (a) merging: cloned zones get one form
# ===========================================================================


def _merge_fails(seed: int, zones: int, asymmetry: str) -> bool:
    network, injections = build_symmetric_case(seed, zones, asymmetry)
    return partition(network, injections) != classes_of(_ports(injections))


@pytest.mark.parametrize("chunk", range(3))
def test_cloned_zones_merge_and_instantiate_exactly(chunk):
    per_chunk = MERGE_CASES // 3
    for offset in range(per_chunk):
        seed = SEED + chunk * per_chunk + offset
        zones = 3 + (seed % 3)
        if _merge_fails(seed, zones, ""):
            zones = shrink_case(seed, zones, "", _merge_fails)
            pytest.fail(
                f"symmetric case failed to merge: {_describe(seed, zones, '')}"
            )


def test_stanford_parity_classes():
    """The acceptance workload: 16 stanford+ACL zones fall into the two
    parity classes (even zones uplink evens via up0, odd via up1)."""
    classes = workload_partition("stanford", zones=16, **STANFORD_ACL)
    assert classes == classes_of(
        _acl_ports(range(0, 16, 2)), _acl_ports(range(1, 16, 2))
    )
    assert sum(len(members) for members in classes) == 16


def test_distinct_vantage_points_form_no_class():
    """The department workload's vantage points are genuinely distinct:
    no two share a form."""
    classes = workload_partition("department")
    assert len(classes) == 4
    assert all(len(members) == 1 for members in classes)


# ===========================================================================
# (b) splitting: near-symmetric variants keep the modified zone separate
# ===========================================================================


def _split_fails(seed: int, zones: int, asymmetry: str) -> bool:
    """True when the perturbed zone 0 — the first injection — shares its
    form with a pristine zone: the asymmetry was absorbed."""
    network, injections = build_symmetric_case(seed, zones, asymmetry)
    first = _ports(injections)[0]
    return frozenset([first]) not in partition(network, injections)


@pytest.mark.parametrize("asymmetry", ["rule", "link", "const"])
def test_near_symmetric_cases_split(asymmetry):
    per_kind = SPLIT_CASES // 3
    for offset in range(per_kind):
        seed = SEED + 10_000 + offset
        zones = 3 + (seed % 3)
        if _split_fails(seed, zones, asymmetry):
            zones = shrink_case(seed, zones, asymmetry, _split_fails)
            pytest.fail(
                f"near-symmetric case merged: {_describe(seed, zones, asymmetry)}"
            )
