"""Sliding-window target-cell processing ordering (paper Sec. 3.1.2).

The processing order of target cells strongly influences the quality of
heuristic legalization.  The common baseline sorts cells by size
(larger first); FLEX additionally accounts for the density of each cell's
localRegion: placing a cell into a dense region displaces more
neighbours, so dense regions should be handled while the layout is still
flexible.

The ordering works on an initial size-descending sequence ``S`` over
which a sliding window ``W_s`` moves:

* the first cell of ``W_s`` (``C_cur``) is processed next;
* the second cell (``C_next``) is kept fixed so that its localRegion can
  be preloaded into the free ping-pong RAM while ``C_cur`` is processed
  (the runtime model treats every region after the first as preloaded,
  see :mod:`repro.perf.timeline`);
* the remaining cells of ``W_s`` are reordered by their localRegion
  density, descending.

Region densities are estimated from a coarse occupancy grid built over
the pre-moved cell positions, each over the cell's initial search window
(:func:`repro.mgl.local_region.initial_window`, the same rectangle step
(c) starts from); the grid is cheap to evaluate per window
and is a faithful stand-in for the density computed by step (c), because
the cell area inside a window barely changes while legalization replaces
floating cells with legal ones in the same neighbourhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.geometry.region import Window
from repro.mgl.local_region import initial_window

#: Density-grid bin size in sites and rows.
BIN_SITES = 8.0
BIN_ROWS = 2.0


@dataclass
class OrderingStats:
    """Work and bookkeeping recorded by the ordering (for the CPU model)."""

    comparisons: int = 0
    window_slides: int = 0


class DensityGrid:
    """Coarse occupancy grid used to estimate localRegion densities."""

    def __init__(self, layout: Layout) -> None:
        self.nx = max(1, int(math.ceil(layout.width / BIN_SITES)))
        self.ny = max(1, int(math.ceil(layout.height / BIN_ROWS)))
        self.area = np.zeros((self.ny, self.nx))
        for cell in layout.cells:
            cx = min(self.nx - 1, max(0, int((cell.x + cell.width / 2.0) / BIN_SITES)))
            cy = min(self.ny - 1, max(0, int((cell.y + cell.height / 2.0) / BIN_ROWS)))
            self.area[cy, cx] += cell.area

    def window_density(self, window: Window) -> float:
        """Approximate cell-area density of a search window."""
        ix_lo = max(0, int(window.x_lo / BIN_SITES))
        ix_hi = min(self.nx, int(math.ceil(window.x_hi / BIN_SITES)))
        iy_lo = max(0, int(window.row_lo / BIN_ROWS))
        iy_hi = min(self.ny, int(math.ceil(window.row_hi / BIN_ROWS)))
        if ix_hi <= ix_lo or iy_hi <= iy_lo:
            return 0.0
        occupied = float(self.area[iy_lo:iy_hi, ix_lo:ix_hi].sum())
        covered = (ix_hi - ix_lo) * (iy_hi - iy_lo) * BIN_SITES * BIN_ROWS
        return occupied / covered


class SlidingWindowOrdering:
    """FLEX's processing ordering: size first, density-aware inside a window.

    Instances are callables compatible with the
    :data:`repro.mgl.legalizer.OrderingFn` protocol, so they plug directly
    into :class:`~repro.mgl.legalizer.MGLLegalizer`.

    Parameters
    ----------
    window_size:
        Number of cells in the sliding window ``W_s``.
    """

    def __init__(self, *, window_size: int = 8) -> None:
        if window_size < 2:
            raise ValueError("window_size must be at least 2")
        self.window_size = window_size
        self.stats = OrderingStats()

    # ------------------------------------------------------------------
    def _densities(self, layout: Layout, cells: Sequence[Cell]) -> dict:
        grid = DensityGrid(layout)
        return {cell.index: grid.window_density(initial_window(layout, cell)) for cell in cells}

    # ------------------------------------------------------------------
    def __call__(self, layout: Layout, cells: List[Cell]) -> List[Cell]:
        """Produce the full processing order for the given cells."""
        self.stats = OrderingStats()
        if not cells:
            return []
        n = len(cells)
        initial = sorted(cells, key=lambda c: (-c.area, -c.height, -c.width, c.index))
        self.stats.comparisons += int(n * max(1.0, math.log2(n)))
        densities = self._densities(layout, cells)

        window: List[Cell] = list(initial[: self.window_size])
        upcoming = initial[self.window_size :]
        upcoming_pos = 0
        order: List[Cell] = []

        while window:
            current = window.pop(0)
            order.append(current)
            self.stats.window_slides += 1
            # C_next (window[0]) stays fixed; the rest reorders by density.
            if len(window) > 2:
                tail = window[1:]
                tail.sort(key=lambda c: (-densities[c.index], -c.area, c.index))
                self.stats.comparisons += int(len(tail) * max(1.0, math.log2(len(tail))))
                window[1:] = tail
            # Refill the window from the remaining sequence.
            if upcoming_pos < len(upcoming):
                window.append(upcoming[upcoming_pos])
                upcoming_pos += 1
        return order

    @property
    def last_op_count(self) -> int:
        """Comparison count of the most recent ordering run."""
        return self.stats.comparisons
