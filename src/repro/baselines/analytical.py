"""An analytical mixed-cell-height legalizer (ISPD'25 LEGALM stand-in).

LEGALM formulates legalization as a continuous optimisation solved with a
linearized augmented Lagrangian method on a GPU.  The closed-source
system is substituted here by an analytical legalizer in the same family:

1. cells keep their pre-moved row assignment (vertical movement is
   penalised exactly as in the MGL-family legalizers);
2. horizontal overlap removal is solved per row-group with an iterative
   projected relaxation of the quadratic program

   .. math::

       \\min_x \\sum_i w_i (x_i - x_i^{gp})^2
       \\quad \\text{s.t.} \\quad x_{\\sigma(i)} + w_{\\sigma(i)} \\le x_{\\sigma(i+1)}

   where the ordering constraints couple rows through multi-row cells.
   Each iteration pulls cells toward their global-placement position and
   then projects out pairwise overlaps (a Gauss–Seidel sweep over the
   ordering constraints) — the standard structure of Lagrangian /
   splitting methods for this QP;
3. a final snapping pass rounds to sites and resolves residual overlaps.

Quality is *measured* by running this legalizer; its GPU runtime is
modeled from the iteration count and problem size via
:class:`AnalyticalGpuRuntimeModel` (an A800-class throughput assumption),
which is what the Acc(I) column of Table 1 consumes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List


from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.legality.metrics import DisplacementStats, PlacementMetrics
from repro.mgl.premove import premove
from repro.baselines.greedy import greedy_position


@dataclass
class AnalyticalResult:
    """Outcome of the analytical legalizer."""

    layout: Layout
    stats: DisplacementStats
    iterations: int
    num_cells: int
    failed_cells: List[int]
    wall_seconds: float

    @property
    def average_displacement(self) -> float:
        return self.stats.average_displacement

    @property
    def success(self) -> bool:
        return not self.failed_cells


@dataclass(frozen=True)
class AnalyticalGpuRuntimeModel:
    """Runtime model of the analytical legalizer on an A800-class GPU.

    Each iteration is a handful of vectorised kernels over all cells
    (gradient pull, pairwise projection sweep, bound clamping) plus a
    kernel-launch overhead; LEGALM-style methods need hundreds of
    iterations to converge on constrained designs, which is why the
    paper's Table 1 shows it losing to the heuristic-analytical methods
    on runtime despite the much larger GPU.
    """

    seconds_per_cell_iteration: float = 9.0e-8
    kernel_launch_seconds: float = 1.2e-4
    setup_seconds: float = 0.005

    def runtime_seconds(self, num_cells: int, iterations: int) -> float:
        per_iter = num_cells * self.seconds_per_cell_iteration + self.kernel_launch_seconds
        return self.setup_seconds + iterations * per_iter


class AnalyticalLegalizer:
    """Iterative quadratic-penalty legalizer for mixed-cell-height designs."""

    def __init__(
        self,
        *,
        max_iterations: int = 400,
        convergence_tol: float = 1e-3,
        pull_strength: float = 0.35,
    ) -> None:
        self.max_iterations = max_iterations
        self.convergence_tol = convergence_tol
        self.pull_strength = pull_strength
        self.metrics = PlacementMetrics()

    # ------------------------------------------------------------------
    def legalize(self, layout: Layout) -> AnalyticalResult:
        """Legalize the layout with the iterative analytical method."""
        start = time.perf_counter()
        premove(layout)
        layout.rebuild_index()
        movable = layout.unlegalized_cells()
        iterations = self._relax(layout, movable)
        failed = self._snap_and_commit(layout, movable)
        stats = self.metrics.compute(layout)
        return AnalyticalResult(
            layout=layout,
            stats=stats,
            iterations=iterations,
            num_cells=len(movable),
            failed_cells=failed,
            wall_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _row_groups(self, layout: Layout, cells: List[Cell]) -> Dict[int, List[Cell]]:
        """Cells per row (multi-row cells appear in each covered row)."""
        groups: Dict[int, List[Cell]] = {row: [] for row in range(layout.num_rows)}
        for cell in cells:
            for row in cell.rows_covered():
                if 0 <= row < layout.num_rows:
                    groups[row].append(cell)
        for row_cells in groups.values():
            row_cells.sort(key=lambda c: (c.gp_x, c.index))
        return groups

    def _relax(self, layout: Layout, cells: List[Cell]) -> int:
        """Projected relaxation sweeps until the overlap movement converges."""
        if not cells:
            return 0
        groups = self._row_groups(layout, cells)
        width = layout.width
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # Gradient pull toward the global-placement x.
            for cell in cells:
                cell.x += self.pull_strength * (cell.gp_x - cell.x)
            # Gauss-Seidel projection of the ordering constraints per row.
            max_move = 0.0
            for row_cells in groups.values():
                for left, right in zip(row_cells, row_cells[1:]):
                    overlap = (left.x + left.width) - right.x
                    if overlap > 0:
                        shift = overlap / 2.0
                        left.x -= shift
                        right.x += shift
                        max_move = max(max_move, shift)
            # Chip bounds.
            for cell in cells:
                clamped = min(max(cell.x, 0.0), width - cell.width)
                max_move = max(max_move, abs(clamped - cell.x))
                cell.x = clamped
            if max_move < self.convergence_tol:
                break
        return iterations

    # ------------------------------------------------------------------
    def _snap_and_commit(self, layout: Layout, cells: List[Cell]) -> List[int]:
        """Round to sites, resolve residual overlaps, and commit positions.

        Cells are committed in ascending relaxed-x order with a per-row
        packing cursor, which guarantees that movable cells never overlap
        each other after rounding; cells that would collide with a fixed
        blockage or overflow the chip fall back to the greedy
        nearest-free-slot search.
        """
        failed: List[int] = []
        deferred: List[Cell] = []
        cursor = [0.0] * layout.num_rows
        for cell in sorted(cells, key=lambda c: (c.x, c.index)):
            bottom = int(round(cell.y))
            rows = range(bottom, bottom + cell.height)
            lo = max(cursor[r] for r in rows)
            x = float(max(round(cell.x), math.ceil(lo - 1e-9)))
            if x + cell.width > layout.width + 1e-9:
                deferred.append(cell)
                continue
            blocked = False
            for r in rows:
                for obs in layout.obstacles_in_row_window(r, x, x + cell.width):
                    if obs.fixed:
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                deferred.append(cell)
                continue
            layout.mark_legalized(cell, x, float(bottom))
            for r in rows:
                cursor[r] = x + cell.width
        # Deferred cells fall back to the greedy nearest-free-slot search.
        for cell in deferred:
            position = greedy_position(layout, cell)
            if position is None:
                failed.append(cell.index)
            else:
                layout.mark_legalized(cell, position[0], float(position[1]))
        return failed
