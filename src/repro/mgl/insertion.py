"""Insertion-interval / insertion-point enumeration (paper Sec. 2.2.2).

An *insertion interval* is a gap between two adjacent cells in a
localSegment; an *insertion point* combines one interval per row spanned
by the target cell.  For a target of height ``h`` anchored at bottom row
``r`` the combination is fully described by, for each spanned row, the
index at which the target is inserted into that row's x-sorted subcell
list (its "split index"): cells before the split are pushed left, cells
at or after the split are pushed right.

Enumerating every combination of per-row intervals independently would be
exponential in the cell height; instead we sweep the cells of the spanned
rows in order of their x-centres.  Each swept cell advances the split
index of exactly one row, so the sweep visits every *distinct* combination
that can be optimal — at most ``(number of subcells in the spanned rows)
+ 1`` insertion points per candidate bottom row, which matches the
"hundreds of insertion points per localRegion" workload the paper
describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.geometry.cell import Cell
from repro.geometry.region import LocalRegion
from repro.geometry.row import pg_compatible


@dataclass(frozen=True)
class InsertionPoint:
    """One candidate insertion point for a target cell.

    Attributes
    ----------
    bottom_row:
        Bottom row index the target would be anchored on.
    rows:
        The rows spanned by the target (``bottom_row .. bottom_row+h-1``).
    split:
        For each spanned row, the index into the region's x-sorted subcell
        list at which the target is inserted: subcells with list position
        ``< split[row]`` are on the target's left, the rest on its right.
    """

    bottom_row: int
    rows: Tuple[int, ...]
    split: Tuple[Tuple[int, int], ...]

    def split_map(self) -> Dict[int, int]:
        """The per-row split indexes as a dictionary."""
        return dict(self.split)

    def left_cell_indices(self, region: LocalRegion) -> List[int]:
        """Local indices of the cells on the target's left, deduplicated."""
        seen: List[int] = []
        split = self.split_map()
        for row in self.rows:
            for idx in region.cell_indices_in_row(row)[: split[row]]:
                if idx not in seen:
                    seen.append(idx)
        return seen

    def right_cell_indices(self, region: LocalRegion) -> List[int]:
        """Local indices of the cells on the target's right, deduplicated."""
        seen: List[int] = []
        split = self.split_map()
        for row in self.rows:
            for idx in region.cell_indices_in_row(row)[split[row] :]:
                if idx not in seen:
                    seen.append(idx)
        return seen


def candidate_bottom_rows(region: LocalRegion, target: Cell) -> List[int]:
    """Bottom rows on which the target can legally be anchored in the region.

    A row qualifies when the target fits vertically inside the window, the
    P/G alignment constraint holds, every spanned row has a localSegment
    and each of those segments is at least as wide as the target.
    """
    rows: List[int] = []
    window = region.window
    for bottom in range(window.row_lo, window.row_hi - target.height + 1):
        if not pg_compatible(target.height, bottom):
            continue
        spanned = range(bottom, bottom + target.height)
        ok = True
        for row in spanned:
            seg = region.segments.get(row)
            if seg is None or seg.length < target.width:
                ok = False
                break
        if ok:
            rows.append(bottom)
    return rows


def _row_prefix_widths(region: LocalRegion, row: int) -> List[float]:
    """Prefix sums of subcell widths in a row (index i = width of first i cells)."""
    widths = [region.local_cells[idx].width for idx in region.cell_indices_in_row(row)]
    prefix = [0.0]
    for w in widths:
        prefix.append(prefix[-1] + w)
    return prefix


def _combination_feasible(
    region: LocalRegion,
    target: Cell,
    rows: Sequence[int],
    split: Dict[int, int],
    prefix_widths: Dict[int, List[float]],
) -> bool:
    """Cheap per-row capacity check for one split combination.

    The exact cross-row feasibility interval is computed later by cell
    shifting; this filter only rejects combinations where a single row
    cannot possibly host its left cells, the target and its right cells
    even when fully packed.
    """
    for row in rows:
        seg = region.segments[row]
        prefix = prefix_widths[row]
        total = prefix[-1]
        left = prefix[split[row]]
        right = total - left
        if left + target.width + right > seg.length + 1e-9:
            return False
    return True


def enumerate_insertion_points(
    region: LocalRegion, target: Cell, bottom_row: int
) -> List[InsertionPoint]:
    """Enumerate the distinct insertion points for one candidate bottom row.

    Points are produced in left-to-right sweep order.
    """
    rows = tuple(range(bottom_row, bottom_row + target.height))
    for row in rows:
        if row not in region.segments:
            return []
    prefix_widths = {row: _row_prefix_widths(region, row) for row in rows}

    # Sweep events: one event per distinct localCell overlapping the
    # spanned rows.  Passing a cell's x-centre moves it from the target's
    # right side to its left side in *every* spanned row it covers, so a
    # multi-row cell is always consistently on one side.
    rows_set = set(rows)
    per_cell_rows: Dict[int, List[int]] = {}
    for row in rows:
        for idx in region.cell_indices_in_row(row):
            per_cell_rows.setdefault(idx, []).append(row)
    events: List[Tuple[float, int, List[int]]] = []
    for idx, covered in per_cell_rows.items():
        cell = region.local_cells[idx]
        events.append((cell.x + cell.width / 2.0, idx, covered))
    events.sort(key=lambda e: (e[0], e[1]))

    split = {row: 0 for row in rows}
    points: List[InsertionPoint] = []

    def emit() -> None:
        if _combination_feasible(region, target, rows, split, prefix_widths):
            points.append(
                InsertionPoint(
                    bottom_row=bottom_row,
                    rows=rows,
                    split=tuple(sorted(split.items())),
                )
            )

    emit()
    for _, _, covered in events:
        for row in covered:
            if row in rows_set:
                split[row] += 1
        emit()
    return points


def enumerate_all_insertion_points(region: LocalRegion, target: Cell) -> Iterator[InsertionPoint]:
    """Enumerate insertion points over all candidate bottom rows (loop1 x loop2)."""
    for bottom in candidate_bottom_rows(region, target):
        yield from enumerate_insertion_points(region, target, bottom)
