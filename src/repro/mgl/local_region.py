"""Step (c) of the MGL flow: define the localRegion of a target cell.

For every row of the target's search window the *longest* continuous run
of unblocked placement sites becomes the row's localSegment; legalized
cells fully contained in those segments become localCells; everything
else (fixed blockages and cells that only partially overlap the window)
is treated as a blockage that clips the segments.

FLEX keeps this step on the host and overlaps it with FOP on the FPGA
(paper Sec. 3.1.1).  The sliding-window processing ordering (Sec. 3.1.2)
does not read anything computed here: it estimates density from its own
coarse :class:`~repro.core.ordering.DensityGrid`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.cell import Cell
from repro.geometry.interval import Interval, longest_interval, subtract_intervals
from repro.geometry.layout import Layout
from repro.geometry.region import LocalRegion, LocalSegment, Window


def initial_window(
    layout: Layout,
    target: Cell,
    *,
    width_factor: float = 5.0,
    min_width: float = 24.0,
    extra_rows: int = 3,
) -> Window:
    """Open the initial search window around a (pre-moved) target cell.

    The window is centred on the target's current position; its width is
    ``max(min_width, width_factor * target.width)`` sites and it covers
    the target's rows plus ``extra_rows`` above and below, clipped to the
    chip.  FOP widens the window when no feasible insertion point exists.
    """
    half_width = max(min_width, width_factor * target.width) / 2.0
    centre = target.x + target.width / 2.0
    bottom = int(round(target.y))
    return Window(
        x_lo=max(0.0, centre - half_width),
        x_hi=min(layout.width, centre + half_width),
        row_lo=max(0, bottom - extra_rows),
        row_hi=min(layout.num_rows, bottom + target.height + extra_rows),
    )


class RegionBuilder:
    """Incremental localRegion extraction across one target's retry ladder.

    The expensive part of step (c) is the per-row obstacle scan.  A
    window *retry* strictly grows the window, so the builder caches each
    row's scanned cell list together with the x-extent it covers and, on
    the next build, scans only the newly exposed strips (new rows, and
    the left/right extensions of already-scanned rows).  Classification
    and demotion always rerun on the merged lists — window containment
    changes with the window — so the produced region is identical, cell
    order included, to a from-scratch :func:`build_local_region` call.
    Within one build each obstacle is classified once, and the demotion
    fixpoint re-segments only the rows that a demotion touched.

    The cache assumes the layout does not change between builds, which
    holds inside one target's retry ladder (nothing commits until the
    target is placed).  Use one builder per target.
    """

    def __init__(self, layout: Layout, target: Cell) -> None:
        self.layout = layout
        self.target = target
        #: row -> (scanned_x_lo, scanned_x_hi, cells sorted by (x, index)).
        self._scans: Dict[int, Tuple[float, float, List[Cell]]] = {}

    # ------------------------------------------------------------------
    def _scan_row(self, row: int, x_lo: float, x_hi: float) -> Tuple[List[Cell], int]:
        """Row scan covering ``[x_lo, x_hi)``, reusing the cached extent.

        Returns the merged cell list plus the number of cells examined by
        the *new* strip scans (the incremental work measure).
        """
        layout = self.layout
        cached = self._scans.get(row)
        if cached is None:
            cells = layout.obstacles_in_row_window(row, x_lo, x_hi)
            self._scans[row] = (x_lo, x_hi, cells)
            return cells, len(cells)
        old_lo, old_hi, cells = cached
        if x_lo >= old_lo and x_hi <= old_hi:
            return cells, 0
        scanned = 0
        merged = {cell.index: cell for cell in cells}
        if x_lo < old_lo:
            # Left strip: keep boundary cells (x == old_lo) so zero-width
            # markers sitting exactly on the old edge are not lost.
            for cell in layout.obstacles_in_row(row):
                if cell.x > old_lo:
                    break
                scanned += 1
                if cell.right > x_lo:
                    merged[cell.index] = cell
        if x_hi > old_hi:
            # Right strip: keep boundary cells (right == old_hi) so
            # zero-width markers sitting exactly on the old edge are not
            # lost (obstacles_in_row_window would drop right == x_lo).
            for cell in layout.obstacles_in_row(row):
                if cell.x >= x_hi:
                    break
                scanned += 1
                if cell.right >= old_hi:
                    merged[cell.index] = cell
        cells = sorted(merged.values(), key=lambda c: (c.x, c.index))
        self._scans[row] = (min(x_lo, old_lo), max(x_hi, old_hi), cells)
        return cells, scanned

    # ------------------------------------------------------------------
    def build(self, window: Window) -> Tuple[LocalRegion, int]:
        """Extract the localRegion of the target inside ``window``.

        Returns the region plus the number of obstacle cells examined by
        this build (only newly exposed strips for incremental rebuilds).
        """
        layout, target = self.layout, self.target
        x_lo, x_hi = window.x_lo, window.x_hi
        row_lo, row_hi = window.row_lo, window.row_hi
        window_x = Interval(x_lo, x_hi)
        scanned = 0

        # Gather the obstacle cells touching each window row and classify
        # each one once.  Obstacles that are not fully contained in the
        # window (or are fixed) always clip the free span of every row
        # they touch; fully-contained legalized cells start out as
        # localCell candidates.
        row_spans: Dict[int, Interval] = {}
        row_holes: Dict[int, List[Interval]] = {}
        inside: Dict[int, bool] = {}
        candidates: Dict[int, Tuple[Cell, Interval, range]] = {}
        for row in window.rows():
            row_interval = layout.row_span_interval(row).intersect(window_x)
            if row_interval.empty:
                continue
            cells_here, row_scanned = self._scan_row(row, x_lo, x_hi)
            scanned += row_scanned
            row_spans[row] = row_interval
            holes = row_holes[row] = []
            for cell in cells_here:
                index = cell.index
                if index == target.index:
                    continue
                cell_lo = cell.x
                cell_hi = cell_lo + cell.width
                if cell_hi <= x_lo or cell_lo >= x_hi:
                    continue  # cached scan wider than this window
                fully_inside = inside.get(index)
                if fully_inside is None:
                    rows = cell.rows_covered()
                    fully_inside = inside[index] = (
                        not cell.fixed
                        and window.contains_rect(cell_lo, cell.y, cell.width, cell.height)
                        and row_lo <= rows.start
                        and rows.stop <= row_hi
                    )
                    if fully_inside:
                        candidates[index] = (cell, Interval(cell_lo, cell_hi), rows)
                if not fully_inside:
                    holes.append(Interval(cell_lo, cell_hi))

        # Each row's localSegment is its longest free run, and depends only
        # on that row's holes.  A candidate that is not contained in the
        # segment of every row it covers must be demoted to a blockage —
        # otherwise it would be invisible to FOP and the target could be
        # placed on top of it.  Demotion adds holes, so each pass
        # re-segments only the rows the previous pass's demotions cover,
        # and re-checks the remaining candidates against the new segments.
        segments: Dict[int, Optional[Interval]] = {
            row: longest_interval(subtract_intervals(span, row_holes[row]))
            for row, span in row_spans.items()
        }
        pending = list(candidates.values())
        demoted: Set[int] = set()
        while pending:
            newly = [item for item in pending if not _contained(item[1], item[2], segments)]
            if not newly:
                break
            dirty: Set[int] = set()
            for cell, span, rows in newly:
                demoted.add(cell.index)
                for r in rows:
                    holes = row_holes.get(r)
                    if holes is not None:
                        holes.append(span)
                        dirty.add(r)
            for r in sorted(dirty):
                segments[r] = longest_interval(subtract_intervals(row_spans[r], row_holes[r]))
            pending = [item for item in pending if item[0].index not in demoted]

        region = LocalRegion(window=window, target=target)
        for row, longest in segments.items():
            if longest is not None:
                region.add_segment(LocalSegment(row=row, interval=longest))
        for index, (cell, _, _) in candidates.items():
            if index not in demoted:
                region.add_local_cell(cell)
        region.finalize()
        return region, scanned


def _contained(span: Interval, rows: range, segments: Dict[int, Optional[Interval]]) -> bool:
    """True when ``span`` lies in the segment of every one of ``rows``."""
    for r in rows:
        segment = segments.get(r)
        if segment is None or not segment.contains_interval(span):
            return False
    return True


def build_local_region(
    layout: Layout, target: Cell, window: Window
) -> Tuple[LocalRegion, int]:
    """Extract the localRegion of ``target`` inside ``window``.

    Returns the region together with the number of obstacle cells scanned
    (the work measure of step (c) consumed by the CPU cost model).  One-
    shot convenience over :class:`RegionBuilder`; the legalizer's retry
    ladder holds a builder per target to rescan only the window deltas.
    """
    return RegionBuilder(layout, target).build(window)


def region_transfer_words(region: LocalRegion) -> int:
    """Estimated number of 32-bit words transferred to the FPGA for a region.

    The FLEX host sends, per localCell, its position, width, height and
    segment membership (LCT + LCPT initial content), plus per-segment
    bounds and the target descriptor.  Used by the CPU–FPGA link model.
    """
    per_cell_words = 4
    per_segment_words = 3
    header_words = 8
    return (
        header_words
        + per_cell_words * len(region.local_cells)
        + per_segment_words * len(region.segments)
        + sum(len(lc.rows) for lc in region.local_cells)  # LSC entries
    )
