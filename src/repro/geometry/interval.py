"""1-D interval utilities used by segment extraction and insertion points.

Intervals are half-open in spirit but stored as closed ``[lo, hi]`` pairs
of floats; an interval with ``hi <= lo`` is considered empty.  All
functions are pure and operate on small Python lists — segment extraction
touches at most a handful of intervals per row so there is no need for a
vectorised representation here (the hot loops of the legalizer live in
:mod:`repro.mgl.shifting` and :mod:`repro.mgl.curves`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Interval:
    """A closed 1-D interval ``[lo, hi]``.

    Attributes
    ----------
    lo:
        Left endpoint.
    hi:
        Right endpoint.  ``hi <= lo`` denotes an empty interval.
    """

    lo: float
    hi: float

    @property
    def length(self) -> float:
        """Length of the interval (0 when empty)."""
        return max(0.0, self.hi - self.lo)

    @property
    def empty(self) -> bool:
        """True when the interval contains no positive-length span."""
        return self.hi <= self.lo

    def contains(self, x: float, *, tol: float = 0.0) -> bool:
        """Return True when ``x`` lies inside the interval (within tol)."""
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "Interval", *, tol: float = 1e-9) -> bool:
        """Return True when ``other`` is fully contained in this interval."""
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def overlaps(self, other: "Interval") -> bool:
        """Return True when the open interiors of the two intervals overlap."""
        return self.lo < other.hi and other.lo < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        """Return the intersection (possibly empty) of two intervals."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def clamp(self, x: float) -> float:
        """Clamp a scalar into the interval.

        Raises
        ------
        ValueError
            If the interval is empty.
        """
        if self.empty:
            raise ValueError(f"cannot clamp into empty interval {self}")
        return min(max(x, self.lo), self.hi)

    def shifted(self, dx: float) -> "Interval":
        """Return a copy translated by ``dx``."""
        return Interval(self.lo + dx, self.hi + dx)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:g}, {self.hi:g}]"


_lo = attrgetter("lo")


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge overlapping or touching intervals into a disjoint sorted list.

    Empty intervals are dropped.  The result is sorted by ``lo``.
    """
    items = sorted([iv for iv in intervals if iv.hi > iv.lo], key=_lo)
    merged: List[Interval] = []
    for iv in items:
        if merged and iv.lo <= merged[-1].hi:
            last = merged[-1]
            if iv.hi > last.hi:
                merged[-1] = Interval(last.lo, iv.hi)
        else:
            merged.append(iv)
    return merged


def subtract_intervals(base: Interval, holes: Sequence[Interval]) -> List[Interval]:
    """Subtract a set of hole intervals from ``base``.

    Returns the list of maximal free sub-intervals of ``base`` that do not
    intersect any hole.  Used to carve placement-row segments around fixed
    blockages and partially-covered cells.
    """
    base_lo, base_hi = base.lo, base.hi
    if base_hi <= base_lo:
        return []
    free: List[Interval] = []
    cursor = base_lo
    for hole in merge_intervals(holes):
        # The hole clipped to ``base`` (float pairs: this runs once per
        # hole of every segment extraction).
        lo = max(hole.lo, base_lo)
        hi = min(hole.hi, base_hi)
        if hi <= lo:
            continue
        if lo > cursor:
            free.append(Interval(cursor, lo))
        if hi > cursor:
            cursor = hi
    if cursor < base_hi:
        free.append(Interval(cursor, base_hi))
    return free


def intersect_many(intervals: Sequence[Interval]) -> Optional[Interval]:
    """Intersect a non-empty sequence of intervals.

    Returns ``None`` when the intersection is empty or the input sequence
    is empty.
    """
    if not intervals:
        return None
    lo = max(iv.lo for iv in intervals)
    hi = min(iv.hi for iv in intervals)
    if hi <= lo:
        return None
    return Interval(lo, hi)


def longest_interval(intervals: Sequence[Interval]) -> Optional[Interval]:
    """Return the longest interval of a sequence (ties broken by position)."""
    best: Optional[Interval] = None
    for iv in intervals:
        if iv.empty:
            continue
        if best is None or iv.length > best.length:
            best = iv
    return best


def total_length(intervals: Iterable[Interval]) -> float:
    """Total length of a set of intervals after merging overlaps."""
    return sum(iv.length for iv in merge_intervals(intervals))


def intersect_interval_lists(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersect two disjoint sorted interval lists (the free-space AND).

    Both inputs must be sorted by ``lo`` and pairwise disjoint (the output
    of :func:`merge_intervals`, :func:`subtract_intervals` or
    :func:`gaps_between`).  Runs in linear time with a two-pointer sweep.
    """
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].lo, b[j].lo)
        hi = min(a[i].hi, b[j].hi)
        if hi > lo:
            out.append(Interval(lo, hi))
        if a[i].hi <= b[j].hi:
            i += 1
        else:
            j += 1
    return out


def gaps_between(sorted_occupied: Sequence[Tuple[float, float]], bounds: Interval) -> List[Interval]:
    """Compute the free gaps inside ``bounds`` given sorted occupied spans.

    ``sorted_occupied`` must be a list of ``(lo, hi)`` spans sorted by
    ``lo`` and pairwise non-overlapping (the typical state of a legal row).
    The returned gaps include the two end gaps when non-empty.
    """
    gaps: List[Interval] = []
    cursor = bounds.lo
    for lo, hi in sorted_occupied:
        if lo > cursor:
            gaps.append(Interval(cursor, min(lo, bounds.hi)))
        cursor = max(cursor, hi)
        if cursor >= bounds.hi:
            break
    if cursor < bounds.hi:
        gaps.append(Interval(cursor, bounds.hi))
    return [g for g in gaps if not g.empty]
