"""Tests for interval sets, the solver's domain representation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import Solver
from repro.solver.ast import Lt, Ne, Var
from repro.solver.intervals import (
    Interval,
    IntervalSet,
    prefix_to_interval,
)


# ---------------------------------------------------------------------------
# Interval basics
# ---------------------------------------------------------------------------


class TestInterval:
    def test_contains(self):
        interval = Interval(3, 7)
        assert 3 in interval
        assert 7 in interval
        assert 5 in interval
        assert 2 not in interval
        assert 8 not in interval

    def test_len(self):
        assert len(Interval(0, 0)) == 1
        assert len(Interval(2, 9)) == 8

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 2).intersection(Interval(3, 9)) is None

    def test_intersects(self):
        assert Interval(0, 5).intersection(Interval(5, 9)) is not None
        assert Interval(0, 4).intersection(Interval(5, 9)) is None


# ---------------------------------------------------------------------------
# IntervalSet construction and queries
# ---------------------------------------------------------------------------


class TestIntervalSetConstruction:
    def test_empty(self):
        assert IntervalSet.empty().is_empty()
        assert not IntervalSet.empty()
        assert IntervalSet.empty().size() == 0

    def test_full(self):
        full = IntervalSet.full(8)
        assert full.size() == 256
        assert full.min() == 0
        assert full.max() == 255

    def test_point_and_points(self):
        assert IntervalSet.point(7).size() == 1
        pts = IntervalSet.points([1, 3, 5])
        assert pts.size() == 3
        assert 3 in pts
        assert 4 not in pts

    def test_adjacent_points_merge(self):
        merged = IntervalSet.points([1, 2, 3])
        assert len(merged.intervals) == 1
        assert merged.intervals[0] == Interval(1, 3)

    def test_overlapping_ranges_merge(self):
        merged = IntervalSet([(0, 5), (3, 9), (20, 30)])
        assert len(merged.intervals) == 2
        assert merged.size() == 21

    def test_range_empty_when_inverted(self):
        assert IntervalSet.range(5, 2).is_empty()

    def test_at_most_at_least(self):
        assert IntervalSet.at_most(-1).is_empty()
        assert IntervalSet.at_most(3).size() == 4
        assert IntervalSet.at_least(250, 8).size() == 6
        assert IntervalSet.at_least(300, 8).is_empty()

    def test_singleton(self):
        single = IntervalSet.point(9)
        assert single.is_singleton()
        assert single.singleton_value() == 9
        assert not IntervalSet.points([1, 2]).is_singleton()
        with pytest.raises(ValueError):
            IntervalSet.points([1, 5]).singleton_value()

    def test_min_max_on_empty_raise(self):
        with pytest.raises(ValueError):
            IntervalSet.empty().min()
        with pytest.raises(ValueError):
            IntervalSet.empty().max()

    def test_iter_values_with_limit(self):
        values = list(IntervalSet([(0, 100)]).iter_values(limit=5))
        assert values == [0, 1, 2, 3, 4]


class TestIntervalSetAlgebra:
    def test_intersection(self):
        a = IntervalSet([(0, 10), (20, 30)])
        b = IntervalSet([(5, 25)])
        result = a.intersection(b)
        assert result == IntervalSet([(5, 10), (20, 25)])

    def test_union(self):
        a = IntervalSet([(0, 5)])
        b = IntervalSet([(10, 15)])
        assert a.union(b).size() == 12

    def test_complement(self):
        a = IntervalSet([(1, 2), (5, 6)])
        comp = a.complement(3)
        assert comp == IntervalSet([(0, 0), (3, 4), (7, 7)])

    def test_complement_of_empty_is_full(self):
        assert IntervalSet.empty().complement(4) == IntervalSet.full(4)

    def test_difference(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(3, 5)])
        diff = a.difference(b)
        assert diff == IntervalSet([(0, 2), (6, 10)])

    def test_remove_point(self):
        a = IntervalSet([(0, 3)])
        assert a.remove_point(2) == IntervalSet([(0, 1), (3, 3)])
        assert a.remove_point(99) == a

    def test_shift_positive_and_negative(self):
        a = IntervalSet([(5, 10)])
        assert a.shift(3) == IntervalSet([(8, 13)])
        assert a.shift(-5) == IntervalSet([(0, 5)])

    def test_shift_drops_fully_negative_intervals(self):
        a = IntervalSet([(0, 3)])
        assert a.shift(-10).is_empty()

    def test_shift_clamps_to_width(self):
        a = IntervalSet([(250, 255)])
        shifted = a.shift(10, width=8)
        assert shifted.is_empty() or shifted.max() <= 255

    def test_covers(self):
        big = IntervalSet([(0, 100)])
        small = IntervalSet([(5, 10), (50, 60)])
        assert big.covers(small)
        assert not small.covers(big)


# ---------------------------------------------------------------------------
# Prefix helpers
# ---------------------------------------------------------------------------


class TestPrefixes:
    def test_prefix_to_interval_basics(self):
        interval = prefix_to_interval(0x0A000000, 8)
        assert interval.lo == 0x0A000000
        assert interval.hi == 0x0AFFFFFF

    def test_host_route(self):
        interval = prefix_to_interval(0xC0A80001, 32)
        assert interval.lo == interval.hi == 0xC0A80001

    def test_default_route_covers_everything(self):
        interval = prefix_to_interval(0, 0)
        assert interval.lo == 0
        assert interval.hi == (1 << 32) - 1

    def test_prefix_len_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_to_interval(0, 33)

    def test_intervals_from_prefixes(self):
        spans = [prefix_to_interval(0x0A000000, 8), prefix_to_interval(0x0A000000, 16)]
        merged = IntervalSet((span.lo, span.hi) for span in spans)
        assert merged.size() == 1 << 24


# ---------------------------------------------------------------------------
# Property-based tests against a set-based reference
# ---------------------------------------------------------------------------

small_sets = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=0, max_size=6
)


def as_python_set(pairs):
    values = set()
    for lo, hi in pairs:
        if lo <= hi:
            values.update(range(lo, hi + 1))
    return values


@settings(max_examples=150, deadline=None)
@given(small_sets, small_sets)
def test_intersection_matches_set_semantics(a_pairs, b_pairs):
    a, b = IntervalSet(a_pairs), IntervalSet(b_pairs)
    expected = as_python_set(a_pairs) & as_python_set(b_pairs)
    result = a.intersection(b)
    assert set(result.iter_values()) == expected
    assert result.size() == len(expected)


@settings(max_examples=150, deadline=None)
@given(small_sets, small_sets)
def test_union_matches_set_semantics(a_pairs, b_pairs):
    a, b = IntervalSet(a_pairs), IntervalSet(b_pairs)
    expected = as_python_set(a_pairs) | as_python_set(b_pairs)
    assert set(a.union(b).iter_values()) == expected


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_complement_matches_set_semantics(pairs):
    width = 6
    full = set(range(1 << width))
    clipped = [(lo, min(hi, (1 << width) - 1)) for lo, hi in pairs if lo < (1 << width)]
    a = IntervalSet(clipped)
    expected = full - as_python_set(clipped)
    assert set(a.complement(width).iter_values()) == expected


@settings(max_examples=100, deadline=None)
@given(small_sets, st.integers(0, 40))
def test_remove_point_matches_set_semantics(pairs, point):
    a = IntervalSet(pairs)
    expected = as_python_set(pairs) - {point}
    assert set(a.remove_point(point).iter_values()) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, (1 << 32) - 1),
    st.integers(0, 32),
    st.integers(0, (1 << 32) - 1),
)
def test_prefix_interval_membership_matches_mask_semantics(address, plen, probe):
    interval = prefix_to_interval(address, plen)
    host_bits = 32 - plen
    mask = ((1 << plen) - 1) << host_bits if plen else 0
    expected = (probe & mask) == (address & mask)
    assert (interval.lo <= probe <= interval.hi) == expected


# ---------------------------------------------------------------------------
# The bound-array kernel against a set-of-ints oracle (seed-pinned)
# ---------------------------------------------------------------------------


def random_pairs(rng, width):
    """Unnormalised input: overlapping, adjacent, inverted and duplicate pairs."""
    top = (1 << width) - 1
    pairs = []
    for _ in range(rng.randrange(0, 7)):
        lo = rng.randint(0, top)
        pairs.append((lo, min(top, lo + rng.choice([-1, 0, 0, 1, 2, 5, top]))))
    return pairs


def assert_canonical(result):
    """What ``from_bounds`` trusts its callers to deliver."""
    pairs = list(result.pairs())
    assert all(lo <= hi for lo, hi in pairs)
    assert all(a_hi + 1 < b_lo for (_, a_hi), (b_lo, _) in zip(pairs, pairs[1:]))
    assert result == IntervalSet(pairs) and hash(result) == hash(IntervalSet(pairs))


@pytest.mark.parametrize("seed", range(8))
def test_every_operation_matches_a_set_of_ints(seed):
    rng = random.Random(20260927 + seed)
    for _ in range(250):
        width = rng.randint(1, 8)
        top = (1 << width) - 1
        a_pairs, b_pairs = random_pairs(rng, width), random_pairs(rng, width)
        a, b = IntervalSet(a_pairs), IntervalSet(b_pairs)
        a_set, b_set = as_python_set(a_pairs), as_python_set(b_pairs)
        point, offset = rng.randint(0, top), rng.randint(-top, top)
        clamp = rng.choice([None, width])
        shifted = {v + offset for v in a_set if v + offset >= 0}
        if clamp is not None:
            shifted = {v for v in shifted if v <= top}
        cases = [
            (a.intersection(b), a_set & b_set),
            (a.union(b), a_set | b_set),
            (a.complement(width), set(range(top + 1)) - a_set),
            (a.difference(b), a_set - b_set),
            (a.remove_point(point), a_set - {point}),
            (a.shift(offset, clamp), shifted),
        ]
        for result, expected in cases:
            assert set(result.iter_values()) == expected, (a, b, point, offset, clamp)
            assert result.size() == len(expected)
            assert_canonical(result)
        assert a.covers(b) == (b_set <= a_set)
        assert all((value in a) == (value in a_set) for value in range(-1, top + 2))
        assert list(a.iter_values()) == sorted(a_set)
        assert list(a.iter_values(limit=3)) == sorted(a_set)[:3]
        assert a.is_empty() == (not a_set) and bool(a) == bool(a_set)
        if a_set:
            assert (a.min(), a.max()) == (min(a_set), max(a_set))
        assert a.is_singleton() == (len(a_set) == 1)
        assert [(iv.lo, iv.hi) for iv in a.intervals] == list(a.pairs())


class TestKernelGoldens:
    def test_repr_is_the_one_path_reports_have_always_carried(self):
        assert repr(IntervalSet()) == "IntervalSet()"
        assert repr(IntervalSet.point(7)) == "IntervalSet([7,7])"
        messy = IntervalSet([(20, 30), (0, 5), (3, 9), (10, 10), (40, 39)])
        assert repr(messy) == "IntervalSet([0,10], [20,30])"
        assert repr(IntervalSet.full(32)) == "IntervalSet([0,4294967295])"

    def test_equality_and_hash_follow_the_value_not_the_producer(self):
        normalised = IntervalSet([(3, 9), (0, 5), (20, 30)])
        trusted = IntervalSet.from_bounds([0, 20], [9, 30])
        derived = IntervalSet([(0, 30)]).difference(IntervalSet([(10, 19)]))
        assert normalised == trusted == derived
        assert len({normalised, trusted, derived}) == 1
        assert hash(normalised) == hash(((0, 20), (9, 30)))
        assert normalised != IntervalSet([(0, 9)])
        assert normalised != [(0, 9), (20, 30)]

    def test_operations_that_cut_nothing_return_their_operand(self):
        ports = IntervalSet([(10, 20), (40, 50), (70, 70)])
        full = IntervalSet.full(8)
        assert full.intersection(ports) is ports
        assert ports.intersection(full) is ports
        assert ports.intersection(IntervalSet([(10, 70)])) is ports
        assert ports.intersection(IntervalSet([(11, 70)])) is not ports
        assert ports.remove_point(30) is ports
        assert ports.union(IntervalSet()) is ports
        assert IntervalSet().union(ports) is ports
        assert ports.difference(IntervalSet()) is ports
        assert ports.shift(0) == ports

    def test_size_is_integer_arithmetic_at_any_width(self):
        for width in (64, 128):
            assert IntervalSet.full(width).size() == 1 << width
            assert IntervalSet.full(width).remove_point(5).size() == (1 << width) - 1


@pytest.mark.parametrize("width", [64, 128])
def test_solver_orders_domains_wider_than_a_machine_word(width):
    """``size()`` used to sum ``len(Interval)``, which overflows ``Py_ssize_t``
    from 2**63 on; the theory solver sorts variables by it."""
    x, y = Var("x", width), Var("y", width)
    assert Solver().check([Lt(x, y), Ne(x, y)]).is_sat
