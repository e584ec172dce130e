"""Step (c) of the MGL flow: define the localRegion of a target cell.

For every row of the target's search window the *longest* continuous run
of unblocked placement sites becomes the row's localSegment; legalized
cells fully contained in those segments become localCells; everything
else (fixed blockages and cells that only partially overlap the window)
is treated as a blockage that clips the segments.

FLEX keeps this step on the host and overlaps it with FOP on the FPGA
(paper Sec. 3.1.1).  :func:`initial_window` is the one search-window
shape: the sliding-window processing ordering (Sec. 3.1.2) estimates
each target's density over it with a coarse
:class:`~repro.core.ordering.DensityGrid`, and the CPU-GPU baseline
batches targets whose initial windows do not overlap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.cell import Cell
from repro.geometry.interval import Interval, longest_interval, subtract_intervals
from repro.geometry.layout import Layout
from repro.geometry.region import LocalRegion, LocalSegment, Window


#: Initial window width in target widths, at least ``MIN_WINDOW_WIDTH`` sites.
WINDOW_WIDTH_FACTOR = 5.0
MIN_WINDOW_WIDTH = 24.0
#: Rows the initial window adds above and below the target.
EXTRA_ROWS = 3


def initial_window(layout: Layout, target: Cell) -> Window:
    """Open the initial search window around a (pre-moved) target cell.

    The window is centred on the target's current position; its width is
    ``max(MIN_WINDOW_WIDTH, WINDOW_WIDTH_FACTOR * target.width)`` sites
    and it covers the target's rows plus ``EXTRA_ROWS`` above and below,
    clipped to the chip.  FOP widens the window when no feasible
    insertion point exists.
    """
    half_width = max(MIN_WINDOW_WIDTH, WINDOW_WIDTH_FACTOR * target.width) / 2.0
    centre = target.x + target.width / 2.0
    bottom = int(round(target.y))
    return Window(
        x_lo=max(0.0, centre - half_width),
        x_hi=min(layout.width, centre + half_width),
        row_lo=max(0, bottom - EXTRA_ROWS),
        row_hi=min(layout.num_rows, bottom + target.height + EXTRA_ROWS),
    )


class RegionBuilder:
    """localRegion extraction for one target cell.

    Each build reads every window row with one bounded
    :meth:`Layout.obstacles_in_row_window` query, classifies each
    obstacle once, and reruns the demotion fixpoint only on the rows a
    demotion touched.  The builder keeps no state between builds, so a
    retry with a grown window sees the layout as it is then.
    """

    def __init__(self, layout: Layout, target: Cell) -> None:
        self.layout = layout
        self.target = target

    # ------------------------------------------------------------------
    def build(self, window: Window) -> LocalRegion:
        """Extract the localRegion of the target inside ``window``."""
        layout, target = self.layout, self.target
        x_lo, x_hi = window.x_lo, window.x_hi
        row_lo, row_hi = window.row_lo, window.row_hi
        window_x = Interval(x_lo, x_hi)

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
            row_spans[row] = row_interval
            holes = row_holes[row] = []
            for cell in layout.obstacles_in_row_window(row, x_lo, x_hi):
                index = cell.index
                if index == target.index:
                    continue
                cell_lo = cell.x
                cell_hi = cell_lo + cell.width
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
        return region


def _contained(span: Interval, rows: range, segments: Dict[int, Optional[Interval]]) -> bool:
    """True when ``span`` lies in the segment of every one of ``rows``."""
    for r in rows:
        segment = segments.get(r)
        if segment is None or not segment.contains_interval(span):
            return False
    return True


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
