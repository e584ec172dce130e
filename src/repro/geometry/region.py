"""MGL localisation terms: window, localSegment, localCell, localRegion.

These classes mirror the terminology of paper Section 2.2 (and Fig. 3):

* a rectangular :class:`Window` is opened around the target cell;
* each row of the window contributes one :class:`LocalSegment` — the
  longest continuous run of unblocked placement sites in that row;
* every already-legalized cell that lies entirely inside the segments is
  a :class:`LocalCell`; a multi-row localCell consists of one *subcell*
  per row it covers;
* segments plus localCells form the :class:`LocalRegion`, the unit of
  work handed to FOP (on the FPGA in FLEX).

A :class:`LocalRegion` snapshots the obstacle cells' current positions so
that FOP can evaluate many candidate insertion points without mutating
the layout; the winning positions are committed afterwards by the
insert & update step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geometry.cell import Cell
from repro.geometry.interval import Interval


@dataclass(frozen=True)
class Window:
    """A rectangular search window around a target cell.

    ``row_hi`` is exclusive: the window covers rows ``row_lo .. row_hi-1``.
    """

    x_lo: float
    x_hi: float
    row_lo: int
    row_hi: int

    @property
    def width(self) -> float:
        """Horizontal extent in site units."""
        return max(0.0, self.x_hi - self.x_lo)

    @property
    def num_rows(self) -> int:
        """Number of rows covered by the window."""
        return max(0, self.row_hi - self.row_lo)

    @property
    def area(self) -> float:
        """Window area in site*row units."""
        return self.width * self.num_rows

    def rows(self) -> range:
        """Iterate over the covered row indexes."""
        return range(self.row_lo, self.row_hi)

    def expanded(self, dx: float, drows: int, layout_width: float, layout_rows: int) -> "Window":
        """Return a window grown by ``dx`` sites and ``drows`` rows per side,
        clipped to the chip boundary."""
        return Window(
            x_lo=max(0.0, self.x_lo - dx),
            x_hi=min(layout_width, self.x_hi + dx),
            row_lo=max(0, self.row_lo - drows),
            row_hi=min(layout_rows, self.row_hi + drows),
        )

    def overlaps(self, other: "Window") -> bool:
        """True when the two windows share area (a common edge is no overlap).

        The CPU-GPU baseline batches only targets whose windows do not
        overlap (:func:`repro.baselines.cpu_gpu.region_batch_order`).
        """
        return (
            self.x_lo < other.x_hi
            and other.x_lo < self.x_hi
            and self.row_lo < other.row_hi
            and other.row_lo < self.row_hi
        )

    def contains_rect(self, x: float, y: float, w: float, h: float) -> bool:
        """True when the rectangle ``[x, x+w) x [y, y+h)`` fits inside the window."""
        return (
            x >= self.x_lo - 1e-9
            and x + w <= self.x_hi + 1e-9
            and y >= self.row_lo - 1e-9
            and y + h <= self.row_hi + 1e-9
        )


@dataclass(frozen=True)
class LocalSegment:
    """The longest continuous unblocked span of a row inside the window."""

    row: int
    interval: Interval

    @property
    def x_lo(self) -> float:
        return self.interval.lo

    @property
    def x_hi(self) -> float:
        return self.interval.hi

    @property
    def length(self) -> float:
        return self.interval.length


@dataclass
class LocalCell:
    """A legalized cell fully contained in the localRegion's segments.

    Attributes
    ----------
    local_index:
        Index of this localCell inside its :class:`LocalRegion`.
    cell:
        Reference to the underlying layout :class:`Cell` (its current
        position is *not* read during FOP; the snapshot fields below are).
    x:
        Snapshot of the cell's x position when the region was built.  FOP
        works on this snapshot; insert & update writes results back.
    rows:
        Row indexes covered by the cell (one subcell per entry).
    """

    local_index: int
    cell: Cell
    x: float
    rows: Tuple[int, ...]

    @property
    def width(self) -> float:
        return self.cell.width

    @property
    def height(self) -> int:
        return self.cell.height

    @property
    def right(self) -> float:
        """Right edge of the snapshot position."""
        return self.x + self.cell.width

    @property
    def gp_x(self) -> float:
        return self.cell.gp_x


@dataclass
class LocalRegion:
    """The localised legalization problem for one target cell.

    The region is a *snapshot*: FOP never mutates the layout, it works on
    the ``x`` coordinates stored in the localCells and returns proposed
    positions that the insert & update step commits.
    """

    window: Window
    target: Cell
    segments: Dict[int, LocalSegment] = field(default_factory=dict)
    local_cells: List[LocalCell] = field(default_factory=list)
    # Per-row localCell ordering: row -> list of local_index sorted by x.
    row_cells: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_segment(self, segment: LocalSegment) -> None:
        """Register the segment of one row."""
        self.segments[segment.row] = segment
        self.row_cells.setdefault(segment.row, [])

    def add_local_cell(self, cell: Cell) -> LocalCell:
        """Snapshot a legalized cell into the region and index its subcells."""
        rows = tuple(r for r in cell.rows_covered() if r in self.segments)
        local = LocalCell(local_index=len(self.local_cells), cell=cell, x=cell.x, rows=rows)
        self.local_cells.append(local)
        for row in rows:
            self.row_cells.setdefault(row, []).append(local.local_index)
        return local

    def finalize(self) -> None:
        """Sort per-row subcell lists by x.  Call once after construction."""
        for row, indices in self.row_cells.items():
            indices.sort(key=lambda i: (self.local_cells[i].x, i))

    # ------------------------------------------------------------------
    # Queries used by FOP / shifting
    # ------------------------------------------------------------------
    def rows(self) -> List[int]:
        """Sorted list of rows that have a segment."""
        return sorted(self.segments.keys())

    def segment(self, row: int) -> LocalSegment:
        """Segment of ``row``; raises ``KeyError`` when the row has none."""
        return self.segments[row]

    def cell_indices_in_row(self, row: int) -> List[int]:
        """Local indices of the cells with a subcell in ``row``, sorted by x."""
        return list(self.row_cells.get(row, []))

    def sorted_by_x(self, *, descending: bool = False) -> List[LocalCell]:
        """All localCells sorted by their snapshot x (the SACS pre-sort)."""
        return sorted(self.local_cells, key=lambda lc: (lc.x, lc.local_index), reverse=descending)

    def total_subcells(self) -> int:
        """Total number of subcells in the region (Fig. 6 traversal unit)."""
        return sum(len(v) for v in self.row_cells.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalRegion(target={self.target.name}, rows={len(self.segments)}, "
            f"localCells={len(self.local_cells)})"
        )
