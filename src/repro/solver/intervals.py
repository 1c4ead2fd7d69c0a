"""Interval sets over non-negative integers.

Every variable tracked by the solver has a fixed bit width, so its domain is
a subset of ``[0, 2**width - 1]``.  The solver represents domains as sorted,
disjoint, closed integer intervals.  The large disjunctions produced by the
egress switch and router models ("EtherDst is one of these 480 000
addresses") become interval sets with one point interval per address, which
keeps satisfiability checks linear in the number of intervals instead of
requiring boolean case splits.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

Bounds = Tuple[int, ...]


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``.

    ``lo`` must be less than or equal to ``hi``; empty intervals are never
    constructed (the empty domain is an :class:`IntervalSet` with no
    intervals).
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)


class IntervalSet:
    """A set of non-overlapping, non-adjacent, sorted, closed integer intervals.

    The representation is two parallel sorted tuples of bounds (``_los[i] <=
    _his[i] < _los[i + 1] - 1``).  The public constructor normalises arbitrary
    pairs; every operation below already produces canonical bounds and wraps
    them with :meth:`from_bounds`, which trusts its caller and skips sorting,
    merging and validation.
    """

    __slots__ = ("_los", "_his", "_hash")

    def __init__(self, intervals: Iterable[Tuple[int, int]] = ()) -> None:
        los: List[int] = []
        his: List[int] = []
        for lo, hi in sorted((lo, hi) for lo, hi in intervals if lo <= hi):
            if his and lo <= his[-1] + 1:
                if hi > his[-1]:
                    his[-1] = hi
            else:
                los.append(lo)
                his.append(hi)
        self._los: Bounds = tuple(los)
        self._his: Bounds = tuple(his)
        self._hash: Optional[int] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_bounds(cls, los: Sequence[int], his: Sequence[int]) -> "IntervalSet":
        """Trusted constructor: ``los``/``his`` must already be canonical
        (equal length, sorted, ``lo <= hi``, a gap between neighbours)."""
        self = cls.__new__(cls)
        self._los = tuple(los)
        self._his = tuple(his)
        self._hash = None
        return self

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set: one shared object, sets being immutable (a dead
        egress port's probe makes one per port)."""
        return _EMPTY

    @classmethod
    def full(cls, width: int) -> "IntervalSet":
        """Domain of an unsigned integer with ``width`` bits."""
        return cls.from_bounds((0,), ((1 << width) - 1,))

    @classmethod
    def point(cls, value: int) -> "IntervalSet":
        return cls.from_bounds((value,), (value,))

    @classmethod
    def points(cls, values: Iterable[int]) -> "IntervalSet":
        return cls((v, v) for v in values)

    @classmethod
    def range(cls, lo: int, hi: int) -> "IntervalSet":
        if lo > hi:
            return cls.empty()
        return cls.from_bounds((lo,), (hi,))

    @classmethod
    def at_most(cls, value: int) -> "IntervalSet":
        return cls.range(0, value)

    @classmethod
    def at_least(cls, value: int, width: int) -> "IntervalSet":
        return cls.range(max(0, value), (1 << width) - 1)

    # -- queries --------------------------------------------------------------

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """The ``(lo, hi)`` bounds of every interval, in order."""
        return zip(self._los, self._his)

    @property
    def bounds(self) -> Tuple[Bounds, Bounds]:
        """The ``(los, his)`` tuples :meth:`from_bounds` takes."""
        return self._los, self._his

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """Compatibility view: materialises one :class:`Interval` per span."""
        return tuple(map(Interval, self._los, self._his))

    def is_empty(self) -> bool:
        return not self._los

    def __bool__(self) -> bool:
        return bool(self._los)

    def __contains__(self, value: int) -> bool:
        index = bisect_left(self._his, value)
        return index < len(self._los) and self._los[index] <= value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        if self is other:
            return True
        return self._los == other._los and self._his == other._his

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._los, self._his))
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo},{hi}]" for lo, hi in self.pairs())
        return f"IntervalSet({parts})"

    def size(self) -> int:
        """Number of integers contained in the set."""
        return sum(self._his) - sum(self._los) + len(self._los)

    def min(self) -> int:
        if not self._los:
            raise ValueError("empty interval set has no minimum")
        return self._los[0]

    def max(self) -> int:
        if not self._his:
            raise ValueError("empty interval set has no maximum")
        return self._his[-1]

    def is_singleton(self) -> bool:
        return len(self._los) == 1 and self._los[0] == self._his[0]

    def singleton_value(self) -> int:
        if not self.is_singleton():
            raise ValueError("interval set is not a singleton")
        return self._los[0]

    def iter_values(self, limit: Optional[int] = None) -> Iterator[int]:
        """Iterate over contained integers, optionally stopping after ``limit``."""
        values = chain.from_iterable(range(lo, hi + 1) for lo, hi in self.pairs())
        return islice(values, limit)

    # -- set algebra ----------------------------------------------------------

    def _clip(self, lo: int, hi: int) -> "IntervalSet":
        """``self ∩ [lo, hi]``: two bisections and a slice — ``self`` itself
        when nothing is cut."""
        los, his = self._los, self._his
        start = bisect_left(his, lo)  # first span ending at or after lo
        stop = bisect_right(los, hi)  # one past the last span starting by hi
        if start >= stop:
            return IntervalSet.empty()
        if start == 0 and stop == len(los) and lo <= los[0] and his[-1] <= hi:
            return self
        los, his = los[start:stop], his[start:stop]
        if los[0] < lo:
            los = (lo,) + los[1:]
        if his[-1] > hi:
            his = his[:-1] + (hi,)
        return IntervalSet.from_bounds(los, his)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        a_los, a_his, b_los, b_his = self._los, self._his, other._los, other._his
        if len(b_los) == 1:
            return self._clip(b_los[0], b_his[0])
        if len(a_los) == 1:
            return other._clip(a_los[0], a_his[0])
        if not a_los or not b_los:
            return IntervalSet.empty()
        # Two cursors, each started at its first span the other side reaches.
        i, j = bisect_left(a_his, b_los[0]), bisect_left(b_his, a_los[0])
        los: List[int] = []
        his: List[int] = []
        while i < len(a_los) and j < len(b_los):
            lo = max(a_los[i], b_los[j])
            a_hi, b_hi = a_his[i], b_his[j]
            if a_hi < b_hi:
                hi = a_hi
                i += 1
            else:
                hi = b_hi
                j += 1
            if lo <= hi:
                los.append(lo)
                his.append(hi)
        return IntervalSet.from_bounds(los, his)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other._los:
            return self
        if not self._los:
            return other
        return IntervalSet(chain(self.pairs(), other.pairs()))

    def complement(self, width: int) -> "IntervalSet":
        """Complement relative to the full domain of ``width`` bits."""
        top = (1 << width) - 1
        inside = self._clip(0, top)
        # The gaps run from just after each span to just before the next,
        # with the domain's ends as the outermost bounds.
        los = (0,) + tuple(hi + 1 for hi in inside._his)
        his = tuple(lo - 1 for lo in inside._los) + (top,)
        start = 1 if his[0] < 0 else 0  # the set starts at 0: no leading gap
        stop = len(los) - 1 if los[-1] > top else len(los)  # ... ends at top
        return IntervalSet.from_bounds(los[start:stop], his[start:stop])

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        if not self._los or not other._los:
            return self
        width = max(self.max(), other.max()).bit_length() or 1
        return self.intersection(other.complement(width))

    def remove_point(self, value: int) -> "IntervalSet":
        """Return a copy of the set with ``value`` removed."""
        los, his = self._los, self._his
        index = bisect_left(his, value)
        if index == len(los) or los[index] > value:
            return self
        # Span ``index`` splits into what lies below and above ``value``.
        lo, hi = los[index], his[index]
        below, above = lo < value, value < hi
        return IntervalSet.from_bounds(
            los[:index] + ((lo,) if below else ()) + ((value + 1,) if above else ())
            + los[index + 1 :],
            his[:index] + ((value - 1,) if below else ()) + ((hi,) if above else ())
            + his[index + 1 :],
        )

    def shift(self, offset: int, width: Optional[int] = None) -> "IntervalSet":
        """Translate every interval by ``offset``, clamping at 0 and the width."""
        if not self._los:
            return self
        moved = IntervalSet.from_bounds(
            [lo + offset for lo in self._los], [hi + offset for hi in self._his]
        )
        return moved._clip(0, moved._his[-1] if width is None else (1 << width) - 1)

    def covers(self, other: "IntervalSet") -> bool:
        """True if every value of ``other`` is contained in this set."""
        return other.difference(self).is_empty()


_EMPTY = IntervalSet.from_bounds((), ())


def prefix_to_interval(address: int, prefix_len: int, width: int = 32) -> Interval:
    """Return the interval of addresses covered by ``address/prefix_len``.

    This is the translation used by the router models: an IP prefix match is
    exactly a contiguous range of destination addresses.
    """
    if not 0 <= prefix_len <= width:
        raise ValueError(f"prefix length {prefix_len} out of range for width {width}")
    host_bits = width - prefix_len
    mask = ((1 << prefix_len) - 1) << host_bits if prefix_len else 0
    lo = address & mask
    hi = lo | ((1 << host_bits) - 1)
    return Interval(lo, hi)
