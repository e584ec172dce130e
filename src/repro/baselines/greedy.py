"""A tetris-style greedy legalizer.

Cells are processed in size-descending order and each one is placed at
the free position closest (in Manhattan distance, with the vertical
component weighted by the row height) to its global-placement location.
No cell already placed is ever moved again, so quality is clearly worse
than MGL-family legalizers — which is exactly why it is useful as a
sanity baseline in the examples and ablations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.legality.metrics import DisplacementStats, PlacementMetrics
from repro.mgl.legalizer import nearest_free_slot
from repro.mgl.premove import premove
from repro.perf.counters import LegalizationTrace, TargetCellWork

#: Bottom rows tried, nearest first, before the best slot found is taken.
ROW_SEARCH_LIMIT = 24


def greedy_position(layout: Layout, cell: Cell) -> Optional[Tuple[float, int]]:
    """The greedy baseline's slot for ``cell``: the nearest free one."""
    return nearest_free_slot(layout, cell, ROW_SEARCH_LIMIT)


@dataclass
class GreedyResult:
    """Outcome of a greedy legalization run."""

    layout: Layout
    stats: DisplacementStats
    failed_cells: List[int]
    wall_seconds: float
    trace: LegalizationTrace

    @property
    def average_displacement(self) -> float:
        return self.stats.average_displacement

    @property
    def success(self) -> bool:
        return not self.failed_cells


class GreedyLegalizer:
    """Greedy (tetris-style) mixed-cell-height legalizer."""

    def __init__(self) -> None:
        self.metrics = PlacementMetrics()

    # ------------------------------------------------------------------
    def legalize(self, layout: Layout) -> GreedyResult:
        """Legalize every movable cell greedily, nearest free slot first."""
        start = time.perf_counter()
        trace = LegalizationTrace(
            design_name=layout.name, algorithm="greedy", num_cells=len(layout.cells),
            num_movable=len(layout.movable_cells()),
        )
        trace.premove_cells = premove(layout)
        layout.rebuild_index()
        cells = sorted(
            layout.unlegalized_cells(), key=lambda c: (-c.area, -c.height, c.index)
        )
        n = max(1, len(cells))
        trace.ordering_ops = int(n * max(1.0, math.log2(n)))
        failed: List[int] = []
        for cell in cells:
            work = TargetCellWork(cell_index=cell.index, height=cell.height, width=cell.width)
            position = greedy_position(layout, cell)
            if position is None:
                failed.append(cell.index)
            else:
                layout.mark_legalized(cell, position[0], float(position[1]))
            trace.add_target(work)
        stats = self.metrics.compute(layout)
        return GreedyResult(
            layout=layout,
            stats=stats,
            failed_cells=failed,
            wall_seconds=time.perf_counter() - start,
            trace=trace,
        )
