"""Placement-quality metrics.

The primary quality measure of the paper (and of the ICCAD-2017 contest)
is the height-averaged average displacement ``S_am`` of Eq. 2:

.. math::

    S_{am} = \\frac{1}{H} \\sum_{h=1}^{H} \\frac{1}{|C_h|}
             \\sum_{c_i \\in C_h} \\delta_i

where ``H`` is the largest cell height, ``C_h`` the set of cells with
height ``h`` and ``\\delta_i`` the Manhattan displacement of cell ``i``
from its global placement position (Eq. 1).  Height classes that contain
no cells are skipped, matching the contest evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout

#: Sites per row height: one row of vertical displacement costs as much as
#: this many sites of horizontal displacement.  ICCAD-2017 designs have
#: sites much narrower than a row is tall; FOP's vertical cost, the
#: free-slot searches and the displacement metrics all use this ratio.
SITES_PER_ROW = 10.0
#: Row heights per site (the multiply is kept: ``x * 0.1`` and
#: ``x / 10.0`` are not the same double for every ``x``).
ROWS_PER_SITE = 1.0 / SITES_PER_ROW


@dataclass
class DisplacementStats:
    """Aggregate displacement statistics of a legalized design."""

    average_displacement: float
    """Height-averaged average displacement ``S_am`` (Eq. 2), in row heights."""

    mean_displacement: float
    """Plain mean Manhattan displacement over all cells, in row heights."""

    max_displacement: float
    """Largest single-cell Manhattan displacement, in row heights."""

    total_displacement: float
    """Sum of Manhattan displacements, in row heights."""

    per_height: Dict[int, float]
    """Average displacement per cell-height class, in row heights."""

    num_cells: int
    """Number of movable cells included."""

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the scalar statistics (for reports / JSON)."""
        return {
            "average_displacement": self.average_displacement,
            "mean_displacement": self.mean_displacement,
            "max_displacement": self.max_displacement,
            "total_displacement": self.total_displacement,
            "num_cells": float(self.num_cells),
        }


class PlacementMetrics:
    """Computes displacement metrics of a layout, in row heights.

    A vertical displacement of one row counts 1; a horizontal one of one
    site counts :data:`ROWS_PER_SITE`.  The ratio is the fixed
    :data:`SITES_PER_ROW`, the one FOP also costs with; the site width a
    layout records (:attr:`~repro.geometry.layout.Layout.site_width`) is
    not read.
    """

    # ------------------------------------------------------------------
    def cell_displacement(self, cell: Cell) -> float:
        """Manhattan displacement of one cell (Eq. 1), in row heights."""
        return abs(cell.x - cell.gp_x) * ROWS_PER_SITE + abs(cell.y - cell.gp_y)

    def displacements(self, layout: Layout) -> np.ndarray:
        """Vector of displacements of all movable cells."""
        movable = layout.movable_cells()
        if not movable:
            return np.zeros(0)
        dx = np.array([abs(c.x - c.gp_x) for c in movable]) * ROWS_PER_SITE
        dy = np.array([abs(c.y - c.gp_y) for c in movable])
        return dx + dy

    # ------------------------------------------------------------------
    def average_displacement(self, layout: Layout) -> float:
        """The ``S_am`` metric of Eq. 2, in row heights."""
        return self.compute(layout).average_displacement

    def compute(self, layout: Layout) -> DisplacementStats:
        """Compute all displacement statistics of a layout."""
        movable = layout.movable_cells()
        if not movable:
            return DisplacementStats(0.0, 0.0, 0.0, 0.0, {}, 0)
        disp = self.displacements(layout)
        heights = np.array([c.height for c in movable])
        max_height = int(heights.max())
        per_height: Dict[int, float] = {}
        class_means: List[float] = []
        for h in range(1, max_height + 1):
            mask = heights == h
            if not mask.any():
                continue
            mean_h = float(disp[mask].mean())
            per_height[h] = mean_h
            class_means.append(mean_h)
        s_am = float(np.mean(class_means)) if class_means else 0.0
        return DisplacementStats(
            average_displacement=s_am,
            mean_displacement=float(disp.mean()),
            max_displacement=float(disp.max()),
            total_displacement=float(disp.sum()),
            per_height=per_height,
            num_cells=len(movable),
        )

    # ------------------------------------------------------------------
    def compare(self, layouts: Sequence[Layout], labels: Optional[Sequence[str]] = None) -> str:
        """Format a small comparison table of several legalized layouts."""
        labels = list(labels) if labels is not None else [l.name for l in layouts]
        lines = [f"{'design':<24} {'AveDis':>10} {'MaxDis':>10} {'MeanDis':>10}"]
        for label, layout in zip(labels, layouts):
            stats = self.compute(layout)
            lines.append(
                f"{label:<24} {stats.average_displacement:>10.3f} "
                f"{stats.max_displacement:>10.3f} {stats.mean_displacement:>10.3f}"
            )
        return "\n".join(lines)
