"""The chip layout: rows, sites, cells and spatial indexes.

:class:`Layout` is the central mutable object passed between the
legalization stages.  It maintains a per-row index of the cells that are
*obstacles* for insertion (fixed blockages plus already-legalized cells),
which is what localRegion extraction and cell shifting operate on.

Design notes
------------
* The index maps each row to the sorted-by-x list of obstacle cell
  indexes covering that row.  Multi-row cells appear in every row they
  span (these per-row appearances are the "subcells" of the paper).
* Unlegalized movable cells are *not* obstacles: the MGL flow treats them
  as still-floating and will legalize them later in processing order.
* Coordinates use a unit site width and unit row height internally.  The
  physical dimensions only matter for reporting, where
  :class:`~repro.legality.metrics.PlacementMetrics` can apply scale
  factors.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.geometry.cell import Cell
from repro.geometry.interval import Interval
from repro.geometry.row import Row


class Layout:
    """A row-based chip layout holding the design's cells.

    Parameters
    ----------
    num_rows:
        Number of placement rows.
    num_sites:
        Number of placement sites per row (uniform rows).
    cells:
        Optional initial cells; more can be added with :meth:`add_cell`.
    site_width, row_height:
        Physical dimensions of one site / one row, used only for metric
        scaling (the internal grid is always the unit grid).
    name:
        Design name (e.g. ``des_perf_1``).
    """

    def __init__(
        self,
        num_rows: int,
        num_sites: int,
        cells: Optional[Iterable[Cell]] = None,
        *,
        site_width: float = 1.0,
        row_height: float = 1.0,
        name: str = "design",
    ) -> None:
        if num_rows <= 0 or num_sites <= 0:
            raise ValueError("layout must have positive numbers of rows and sites")
        self.num_rows = int(num_rows)
        self.num_sites = int(num_sites)
        self.site_width = float(site_width)
        self.row_height = float(row_height)
        self.name = name
        self.rows: List[Row] = [
            Row(index=i, x_lo=0.0, x_hi=float(num_sites), bottom_rail=Row.default_rail(i))
            for i in range(self.num_rows)
        ]
        self.cells: List[Cell] = []
        # Per-row sorted obstacle index: row -> list of (x, cell_index).
        self._row_index: List[List[Tuple[float, int]]] = [[] for _ in range(self.num_rows)]
        self._index_dirty = False
        # Free-space summary: per-row (prefix sums of obstacle widths,
        # max obstacle width), aligned with the row's index entries.
        # Rebuilt lazily per row (an entry is invalidated whenever the
        # row's obstacles change), so occupancy queries stay O(log n)
        # between placements without a full-summary rebuild per commit.
        self._row_prefix: List[Optional[Tuple[List[float], float]]] = (
            [None] * self.num_rows
        )
        if cells is not None:
            for cell in cells:
                self.add_cell(cell)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_cell(self, cell: Cell) -> None:
        """Add a cell to the layout.

        The cell's ``index`` must equal its position in the cell list so
        that indexes can be used interchangeably with references.
        """
        if cell.index != len(self.cells):
            raise ValueError(
                f"cell index {cell.index} does not match insertion position {len(self.cells)}"
            )
        self.cells.append(cell)
        if cell.fixed or cell.legalized:
            self._insert_into_index(cell)

    @property
    def width(self) -> float:
        """Chip width in site units."""
        return float(self.num_sites)

    @property
    def height(self) -> float:
        """Chip height in row units."""
        return float(self.num_rows)

    @property
    def core_area(self) -> float:
        """Total placeable area in site*row units."""
        return self.width * self.height

    # ------------------------------------------------------------------
    # Cell queries
    # ------------------------------------------------------------------
    def movable_cells(self) -> List[Cell]:
        """All non-fixed cells."""
        return [c for c in self.cells if not c.fixed]

    def fixed_cells(self) -> List[Cell]:
        """All fixed blockages / macros."""
        return [c for c in self.cells if c.fixed]

    def unlegalized_cells(self) -> List[Cell]:
        """Movable cells that still need to be legalized."""
        return [c for c in self.cells if not c.fixed and not c.legalized]

    def legalized_cells(self) -> List[Cell]:
        """Movable cells whose final position has been committed."""
        return [c for c in self.cells if not c.fixed and c.legalized]

    def total_cell_area(self, movable_only: bool = False) -> float:
        """Sum of cell areas (optionally restricted to movable cells)."""
        return sum(c.area for c in self.cells if not (movable_only and c.fixed))

    def density(self) -> float:
        """Design density: total cell area / free core area (paper Table 1)."""
        fixed_area = sum(c.area for c in self.fixed_cells())
        free = self.core_area - fixed_area
        if free <= 0:
            return float("inf")
        return sum(c.area for c in self.movable_cells()) / free

    def height_histogram(self) -> Dict[int, int]:
        """Number of movable cells per cell height."""
        hist: Dict[int, int] = {}
        for cell in self.movable_cells():
            hist[cell.height] = hist.get(cell.height, 0) + 1
        return hist

    def max_cell_height(self) -> int:
        """Largest movable-cell height (the ``H`` of Eq. 2)."""
        heights = [c.height for c in self.movable_cells()]
        return max(heights) if heights else 1

    def tall_cell_fraction(self, taller_than: int = 3) -> float:
        """Fraction of movable cells strictly taller than ``taller_than`` rows.

        Reproduces the grey line of Fig. 9 (proportion of cells taller than
        three-row height), which governs how much the SACS bandwidth
        optimisations help.
        """
        movable = self.movable_cells()
        if not movable:
            return 0.0
        return sum(1 for c in movable if c.height > taller_than) / len(movable)

    # ------------------------------------------------------------------
    # Obstacle index (fixed + legalized cells, per row, sorted by x)
    # ------------------------------------------------------------------
    def _insert_into_index(self, cell: Cell) -> None:
        bottom, top = cell.row_span
        for row in range(max(0, bottom), min(self.num_rows, top)):
            bisect.insort(self._row_index[row], (cell.x, cell.index))
            self._row_prefix[row] = None

    def _remove_from_index(self, cell: Cell) -> None:
        bottom, top = cell.row_span
        for row in range(max(0, bottom), min(self.num_rows, top)):
            self._row_prefix[row] = None
            entries = self._row_index[row]
            key = (cell.x, cell.index)
            pos = bisect.bisect_left(entries, key)
            if pos < len(entries) and entries[pos] == key:
                entries.pop(pos)
            else:  # pragma: no cover - defensive fallback
                self._row_index[row] = [e for e in entries if e[1] != cell.index]

    def rebuild_index(self) -> None:
        """Rebuild the per-row obstacle index from scratch.

        Call after bulk position changes (e.g. pre-move) that bypass
        :meth:`move_obstacle` / :meth:`mark_legalized`.
        """
        self._row_index = [[] for _ in range(self.num_rows)]
        self._row_prefix = [None] * self.num_rows
        for cell in self.cells:
            if cell.fixed or cell.legalized:
                self._insert_into_index(cell)

    def mark_legalized(self, cell: Cell, x: float, y: float) -> None:
        """Commit a cell to its legal position and add it to the obstacle index."""
        if cell.legalized or cell.fixed:
            self._remove_from_index(cell)
        cell.move_to(x, y)
        cell.legalized = True
        self._insert_into_index(cell)

    def unmark_legalized(self, cell: Cell, x: float, y: float, was_legalized: bool = False) -> None:
        """Revert a :meth:`mark_legalized` call.

        Restores the cell to position ``(x, y)`` and its previous
        legalization state, keeping the obstacle index consistent.
        """
        self._remove_from_index(cell)
        cell.x = float(x)
        cell.y = float(y)
        cell.legalized = bool(was_legalized)
        if was_legalized:
            self._insert_into_index(cell)

    def move_obstacle(self, cell: Cell, new_x: float) -> None:
        """Horizontally move an already-legalized obstacle cell.

        Used by the insert & update step when committing the shifts chosen
        by FOP.  Vertical moves are never needed because MGL restricts
        shifting to the horizontal direction.
        """
        if not (cell.legalized or cell.fixed):
            raise ValueError(f"cell {cell.name} is not an obstacle; use mark_legalized")
        if cell.fixed:
            raise ValueError(f"cell {cell.name} is fixed and cannot be shifted")
        self._remove_from_index(cell)
        cell.x = float(new_x)
        self._insert_into_index(cell)

    # ------------------------------------------------------------------
    # Incremental (ECO) mutation hooks
    # ------------------------------------------------------------------
    # These maintain the per-row obstacle index and invalidate the
    # free-space summary only for the rows a change actually touches, so
    # an incremental legalization pass never pays a whole-index /
    # whole-summary rebuild (:mod:`repro.incremental` is the consumer).
    def unlegalize_cell(self, cell: Cell) -> None:
        """Mark a legalized cell as floating again (ECO re-legalization).

        Removes the cell from the obstacle index; its position is left
        untouched (pre-move will snap it when it is re-legalized).
        """
        if cell.fixed:
            raise ValueError(f"cell {cell.name} is fixed; use set_cell_fixed first")
        if cell.legalized:
            self._remove_from_index(cell)
            cell.legalized = False

    def resize_cell(self, cell: Cell, width: Optional[float] = None,
                    height: Optional[int] = None) -> None:
        """Change a cell's dimensions, keeping the obstacle index consistent."""
        width = cell.width if width is None else float(width)
        height = cell.height if height is None else int(height)
        if width < 0 or (width == 0 and not cell.fixed):
            raise ValueError(f"cell {cell.name}: width must be positive, got {width}")
        if height < 1:
            raise ValueError(f"cell {cell.name}: height must be >= 1, got {height}")
        in_index = cell.fixed or cell.legalized
        if in_index:
            self._remove_from_index(cell)
        cell.width = width
        cell.height = height
        if in_index:
            self._insert_into_index(cell)

    def relocate_fixed(self, cell: Cell, x: float, y: float) -> None:
        """Move a fixed blockage (an ECO macro change).

        Unlike :meth:`move_obstacle` this is 2-D and only legal for fixed
        cells; legalized movable cells must instead be unlegalized and
        re-placed by the legalizer.
        """
        if not cell.fixed:
            raise ValueError(f"cell {cell.name} is not fixed; use unlegalize_cell")
        self._remove_from_index(cell)
        cell.x = float(x)
        cell.y = float(y)
        self._insert_into_index(cell)

    def set_cell_fixed(self, cell: Cell, fixed: bool) -> None:
        """Toggle a cell's fixed flag, keeping the obstacle index consistent.

        Freezing (``fixed=True``) keeps the cell at its current position
        as a blockage; freeing (``fixed=False``) leaves the cell
        unlegalized — the caller is expected to re-legalize it.
        """
        if cell.fixed == fixed:
            return
        if not fixed and cell.width == 0.0:
            # A zero-width fixed marker is a tombstone (retire_cell) or a
            # blockage pin; freeing it would mint an invalid zero-width
            # movable cell that breaks Layout.copy() and Cell invariants.
            raise ValueError(
                f"cell {cell.name} has zero width and cannot become movable"
            )
        if cell.fixed or cell.legalized:
            self._remove_from_index(cell)
        cell.fixed = fixed
        cell.legalized = False
        if fixed:
            self._insert_into_index(cell)

    def retire_cell(self, cell: Cell) -> None:
        """Delete a cell from play by tombstoning it (ECO cell removal).

        Cell indexes must stay stable (delta streams and the obstacle
        index address cells by index), so deletion keeps the entry in
        the cell list but turns it into a zero-width fixed marker — the
        same degenerate shape already tolerated everywhere (zero
        occupancy, skipped by the legality overlap sweep, zero area in
        every metric).
        """
        if cell.fixed or cell.legalized:
            self._remove_from_index(cell)
        cell.width = 0.0
        cell.fixed = True
        cell.legalized = False
        self._insert_into_index(cell)

    def is_retired(self, cell: Cell) -> bool:
        """True for cells deleted via :meth:`retire_cell` (tombstones)."""
        return cell.fixed and cell.width == 0.0

    def invalidate_summary_rows(self, row_lo: int, row_hi: int) -> None:
        """Invalidate the free-space summary of rows ``[row_lo, row_hi)``.

        The per-cell mutators above already invalidate the rows they
        touch; this hook is for callers that edit row contents directly
        (bulk loaders, tests) and would otherwise have to pay
        :meth:`rebuild_index` just to refresh the summary.
        """
        for row in range(max(0, row_lo), min(self.num_rows, row_hi)):
            self._row_prefix[row] = None

    def obstacles_in_row(self, row: int) -> List[Cell]:
        """Obstacle cells covering ``row``, sorted by current x."""
        return [self.cells[idx] for _, idx in self._row_index[row]]

    def obstacles_in_row_window(self, row: int, x_lo: float, x_hi: float) -> List[Cell]:
        """Obstacle cells covering ``row`` that intersect ``[x_lo, x_hi)``."""
        result: List[Cell] = []
        for x, idx in self._row_index[row]:
            cell = self.cells[idx]
            if cell.x >= x_hi:
                break
            if cell.right > x_lo:
                result.append(cell)
        return result

    # ------------------------------------------------------------------
    # Free-space summary (consumed by the occupancy-aware window planner)
    # ------------------------------------------------------------------
    def _row_summary(self, row: int) -> Tuple[List[float], float]:
        """``(prefix width sums, max obstacle width)`` of a row's index
        entries (lazily rebuilt when the row's obstacles changed)."""
        summary = self._row_prefix[row]
        if summary is None:
            prefix = [0.0]
            max_width = 0.0
            for _, idx in self._row_index[row]:
                width = self.cells[idx].width
                prefix.append(prefix[-1] + width)
                if width > max_width:
                    max_width = width
            summary = self._row_prefix[row] = (prefix, max_width)
        return summary

    def row_occupied_width(self, row: int, x_lo: float, x_hi: float) -> float:
        """Total obstacle width covering ``[x_lo, x_hi)`` of ``row``.

        Obstacles crossing the span boundary count only their overlap.
        Uses the per-row prefix sums, so the query is O(log n) in the
        row's obstacle count.  In a legal layout the result is exact;
        with overlapping obstacles (malformed fixed blockages) it never
        underestimates — cells starting inside the span contribute their
        full width even where they overlap — so the window planner can
        only be conservative, never optimistic.
        """
        if x_hi <= x_lo:
            return 0.0
        entries = self._row_index[row]
        if not entries:
            return 0.0
        prefix, max_width = self._row_summary(row)
        # Entries starting inside [x_lo, x_hi) form the run [i, j); sum
        # their widths via the prefix array, clipping only the last one
        # at x_hi (in a legal row no earlier run member can reach past
        # the last one's right edge; with overlaps this overestimates).
        j = bisect.bisect_left(entries, (x_hi,))
        i = bisect.bisect_left(entries, (x_lo,))
        occupied = 0.0
        if i < j:
            occupied = prefix[j] - prefix[i]
            occupied -= max(0.0, self.cells[entries[j - 1][1]].right - x_hi)
        # Boundary crossers start before x_lo; any of them satisfies
        # ``x > x_lo - max_width`` (their width bounds their reach), so
        # walking that bounded strip finds every one even when obstacles
        # overlap and rights are not monotone.  Each contributes its
        # exact clipped overlap.
        k = i
        while k > 0 and entries[k - 1][0] > x_lo - max_width:
            k -= 1
            cell = self.cells[entries[k][1]]
            lo = max(cell.x, x_lo)
            hi = min(cell.right, x_hi)
            if hi > lo:
                occupied += hi - lo
        return max(0.0, occupied)

    def row_free_capacity(self, row: int, x_lo: float, x_hi: float) -> float:
        """Free site capacity of ``row`` inside ``[x_lo, x_hi)``.

        The span is clipped to the row extent; the result is the clipped
        width minus the obstacle occupancy from the free-space summary.
        """
        span = self.rows[row].span
        x_lo = max(x_lo, span.lo)
        x_hi = min(x_hi, span.hi)
        if x_hi <= x_lo:
            return 0.0
        return max(0.0, (x_hi - x_lo) - self.row_occupied_width(row, x_lo, x_hi))

    def window_free_capacity(
        self, x_lo: float, x_hi: float, row_lo: int, row_hi: int
    ) -> float:
        """Total free site capacity of a window (``row_hi`` exclusive)."""
        row_lo = max(0, row_lo)
        row_hi = min(self.num_rows, row_hi)
        return sum(
            self.row_free_capacity(row, x_lo, x_hi) for row in range(row_lo, row_hi)
        )

    def mean_movable_width(self) -> float:
        """Mean width of the live movable cells (1.0 for an empty design)."""
        widths = [c.width for c in self.cells if not c.fixed and c.width > 0]
        if not widths:
            return 1.0
        return sum(widths) / len(widths)

    def free_space_fragmentation(self, min_gap: Optional[float] = None) -> float:
        """Fraction of free row capacity trapped in gaps below ``min_gap``.

        A long ECO stream chops the free space into slivers: the total
        free capacity stays roughly constant while the *usable* capacity
        (gaps wide enough to host a typical cell) erodes, which is what
        makes later insertions drift far from their desired positions.
        This metric quantifies that erosion — 0.0 means every free site
        sits in a gap at least ``min_gap`` wide, 1.0 means all free space
        is unusable slivers.  ``min_gap`` defaults to the mean live
        movable-cell width.  A design with no free space reports 0.0.

        Walks each row's obstacle index once, so it is O(total obstacle
        entries) — cheap enough to evaluate once per ECO batch.
        """
        if min_gap is None:
            min_gap = self.mean_movable_width()
        total_free = 0.0
        usable_free = 0.0
        for row in range(self.num_rows):
            span = self.rows[row].span
            cursor = span.lo
            for cell in self.obstacles_in_row(row):
                if cell.width <= 0:
                    # Tombstones and zero-width fixed markers occupy
                    # nothing; counting them would split a contiguous
                    # gap into phantom slivers.
                    continue
                gap = min(cell.x, span.hi) - cursor
                if gap > 0:
                    total_free += gap
                    if gap >= min_gap:
                        usable_free += gap
                cursor = max(cursor, min(cell.right, span.hi))
            gap = span.hi - cursor
            if gap > 0:
                total_free += gap
                if gap >= min_gap:
                    usable_free += gap
        if total_free <= 0:
            return 0.0
        return 1.0 - usable_free / total_free

    def iter_obstacle_pairs(self) -> Iterator[Tuple[Cell, Cell]]:
        """Yield pairs of horizontally adjacent obstacles in each row.

        Useful for invariant checks: in a legal layout no adjacent pair
        overlaps.
        """
        for row in range(self.num_rows):
            cells = self.obstacles_in_row(row)
            for left, right in zip(cells, cells[1:]):
                yield left, right

    # ------------------------------------------------------------------
    # Row geometry
    # ------------------------------------------------------------------
    def row_span_interval(self, row: int) -> Interval:
        """Horizontal extent of a row as an interval."""
        return self.rows[row].span

    # ------------------------------------------------------------------
    # Convenience / debug
    # ------------------------------------------------------------------
    def copy(self) -> "Layout":
        """Deep copy of the layout (cells are copied, indexes rebuilt)."""
        clone = Layout(
            self.num_rows,
            self.num_sites,
            (c.copy() for c in self.cells),
            site_width=self.site_width,
            row_height=self.row_height,
            name=self.name,
        )
        return clone

    def reset_positions(self) -> None:
        """Reset every movable cell back to its global placement position."""
        for cell in self.cells:
            if cell.fixed:
                continue
            cell.x = cell.gp_x
            cell.y = cell.gp_y
            cell.legalized = False
        self.rebuild_index()

    def summary(self) -> str:
        """One-line human readable summary of the design."""
        hist = self.height_histogram()
        hist_text = ", ".join(f"h{h}:{n}" for h, n in sorted(hist.items()))
        return (
            f"{self.name}: {len(self.movable_cells())} movable cells "
            f"({hist_text}), {len(self.fixed_cells())} fixed, "
            f"{self.num_rows} rows x {self.num_sites} sites, "
            f"density {self.density() * 100:.1f}%"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({self.summary()})"
