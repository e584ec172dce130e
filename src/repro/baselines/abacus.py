"""Abacus: single-row legalization by dynamic programming (Spindler et al.).

Abacus legalizes one row at a time: cells assigned to a row are processed
in x order and clustered; whenever two clusters overlap they are merged
and the merged cluster is placed at its weighted-average optimal
position, clamped to the row.  It is optimal per row for minimal total
(quadratic or weighted-linear) movement of single-row cells but, as the
paper's Related Work notes, it cannot handle multi-row cells — moving a
multi-deck cell drags overlaps into neighbouring rows.

This implementation follows the classic cluster formulation and handles
mixed-height designs by *fixing* multi-row cells first (placing them with
the greedy nearest-free-slot strategy and treating them as blockages),
then running Abacus on the remaining single-row cells.  It serves as an
additional baseline for the examples and the ablation benchmarks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.legality.metrics import DisplacementStats, PlacementMetrics
from repro.mgl.premove import premove
from repro.baselines.greedy import greedy_position


@dataclass
class _Cluster:
    """A maximal group of abutting cells placed as one block."""

    x: float = 0.0
    total_weight: float = 0.0
    q: float = 0.0
    width: float = 0.0
    cells: List[Cell] = field(default_factory=list)

    def add_cell(self, cell: Cell, desired_x: float, weight: float) -> None:
        self.cells.append(cell)
        self.q += weight * (desired_x - self.width)
        self.total_weight += weight
        self.width += cell.width

    def merge(self, other: "_Cluster") -> None:
        for cell in other.cells:
            self.cells.append(cell)
        self.q += other.q - other.total_weight * self.width
        self.total_weight += other.total_weight
        self.width += other.width

    def optimal_x(self) -> float:
        if self.total_weight <= 0:
            return self.x
        return self.q / self.total_weight


@dataclass
class AbacusResult:
    """Outcome of an Abacus run."""

    layout: Layout
    stats: DisplacementStats
    failed_cells: List[int]
    wall_seconds: float

    @property
    def average_displacement(self) -> float:
        return self.stats.average_displacement

    @property
    def success(self) -> bool:
        return not self.failed_cells


class AbacusLegalizer:
    """Row-based Abacus legalizer with greedy pre-placement of multi-row cells."""

    def __init__(self) -> None:
        self.metrics = PlacementMetrics()

    # ------------------------------------------------------------------
    def legalize(self, layout: Layout) -> AbacusResult:
        """Legalize the layout: multi-row cells greedily, single-row via Abacus."""
        start = time.perf_counter()
        premove(layout)
        layout.rebuild_index()

        failed: List[int] = []
        multi = [c for c in layout.unlegalized_cells() if c.height > 1]
        if multi:
            # Place multi-row cells directly in the main layout via the
            # greedy position search (reusing its free-slot logic).
            for cell in sorted(multi, key=lambda c: (-c.area, c.index)):
                position = greedy_position(layout, cell)
                if position is None:
                    failed.append(cell.index)
                else:
                    layout.mark_legalized(cell, position[0], float(position[1]))

        singles = [c for c in layout.unlegalized_cells() if c.height == 1]
        row_assignment = self._assign_rows(layout, singles)
        unplaced: List[int] = []
        for row, cells in row_assignment.items():
            unplaced.extend(self._legalize_row(layout, row, cells))

        # Cells whose assigned row had no segment wide enough fall back to a
        # direct nearest-free-slot search (the same repair a production
        # Abacus flow would apply before declaring failure).
        if unplaced:
            by_index = {c.index: c for c in layout.cells}
            for index in unplaced:
                cell = by_index[index]
                position = greedy_position(layout, cell)
                if position is None:
                    failed.append(index)
                else:
                    layout.mark_legalized(cell, position[0], float(position[1]))

        stats = self.metrics.compute(layout)
        return AbacusResult(
            layout=layout,
            stats=stats,
            failed_cells=failed,
            wall_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _assign_rows(self, layout: Layout, cells: List[Cell]) -> Dict[int, List[Cell]]:
        """Assign every single-row cell to its nearest row (greedy capacity-aware)."""
        capacity = {row: layout.width - sum(c.width for c in layout.obstacles_in_row(row))
                    for row in range(layout.num_rows)}
        assignment: Dict[int, List[Cell]] = {row: [] for row in range(layout.num_rows)}
        for cell in sorted(cells, key=lambda c: c.gp_x):
            best_row = None
            best_cost = math.inf
            base = int(round(cell.gp_y))
            for offset in range(layout.num_rows):
                for row in {base + offset, base - offset}:
                    if row < 0 or row >= layout.num_rows:
                        continue
                    if capacity[row] < cell.width:
                        continue
                    cost = abs(row - cell.gp_y)
                    if cost < best_cost:
                        best_cost, best_row = cost, row
                if best_row is not None and offset > best_cost + 1:
                    break
            if best_row is None:
                best_row = max(capacity, key=capacity.get)
            capacity[best_row] -= cell.width
            assignment[best_row].append(cell)
        return assignment

    # ------------------------------------------------------------------
    def _legalize_row(self, layout: Layout, row: int, cells: List[Cell]) -> List[int]:
        """Run the Abacus cluster DP for one row, around existing obstacles.

        Returns the indices of cells that could not be placed legally.
        """
        if not cells:
            return []
        # Free sub-intervals of the row between fixed obstacles / multi-row cells.
        obstacles = layout.obstacles_in_row(row)
        free: List[Tuple[float, float]] = []
        cursor = 0.0
        for obs in obstacles:
            if obs.x > cursor:
                free.append((cursor, obs.x))
            cursor = max(cursor, obs.right)
        if cursor < layout.width:
            free.append((cursor, layout.width))

        failed: List[int] = []
        remaining = sorted(cells, key=lambda c: c.gp_x)
        for seg_lo, seg_hi in free:
            seg_cells: List[Cell] = []
            seg_width = 0.0
            rest: List[Cell] = []
            for cell in remaining:
                centre = cell.gp_x + cell.width / 2.0
                if seg_lo <= centre <= seg_hi and seg_width + cell.width <= seg_hi - seg_lo:
                    seg_cells.append(cell)
                    seg_width += cell.width
                else:
                    rest.append(cell)
            remaining = rest
            self._place_segment(layout, row, seg_lo, seg_hi, seg_cells)
        for cell in remaining:
            # Cells that fit in no free segment of their assigned row.
            failed.append(cell.index)
        return failed

    def _place_segment(
        self, layout: Layout, row: int, seg_lo: float, seg_hi: float, cells: List[Cell]
    ) -> None:
        """Classic Abacus clustering inside one free segment of a row."""
        clusters: List[_Cluster] = []
        for cell in cells:
            desired = min(max(cell.gp_x, seg_lo), seg_hi - cell.width)
            cluster = _Cluster(x=desired)
            cluster.add_cell(cell, desired, weight=cell.width)
            clusters.append(cluster)
            # Collapse overlapping clusters.
            while len(clusters) > 1:
                last = clusters[-1]
                prev = clusters[-2]
                last.x = min(max(last.optimal_x(), seg_lo), seg_hi - last.width)
                if prev.x + prev.width <= last.x + 1e-9:
                    break
                prev.merge(last)
                clusters.pop()
                clusters[-1].x = min(
                    max(clusters[-1].optimal_x(), seg_lo), seg_hi - clusters[-1].width
                )
        # Commit positions, snapped to the site grid inside the segment.
        site_lo = math.ceil(seg_lo - 1e-9)
        for cluster in clusters:
            cluster.x = min(max(cluster.optimal_x(), seg_lo), seg_hi - cluster.width)
            site_hi = math.floor(seg_hi - cluster.width + 1e-9)
            x = float(min(max(round(cluster.x), site_lo), max(site_lo, site_hi)))
            for cell in cluster.cells:
                layout.mark_legalized(cell, x, float(row))
                x += cell.width
