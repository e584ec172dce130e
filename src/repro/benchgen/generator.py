"""Parametric mixed-cell-height design generator.

The generator produces a :class:`~repro.geometry.Layout` whose
global-placement input resembles the output of an analytical global
placer: cells are first packed into a *legal* seed placement that matches
the requested density, then perturbed with Gaussian noise.  The resulting
input has many small overlaps — exactly what a legalizer must clean up —
and the achievable average displacement is on the order of the
perturbation magnitude (a fraction of a row height), the same regime the
paper reports for the ICCAD-2017 designs.

The packing uses a per-row skyline (first-fit with randomized gaps), so
multi-row cells never overlap in the seed and the realized density equals
the requested density up to the discreteness of cell widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.geometry.row import legal_bottom_rows
from repro.legality.metrics import ROWS_PER_SITE


#: Default mixed-cell-height distribution (fractions per height in rows).
DEFAULT_HEIGHT_MIX: Dict[int, float] = {1: 0.78, 2: 0.14, 3: 0.05, 4: 0.03}


@dataclass
class DesignSpec:
    """Specification of a synthetic design.

    Attributes
    ----------
    name:
        Design name.
    num_cells:
        Number of movable cells to generate.
    density:
        Target design density (movable cell area / free core area),
        matching the "Den.(%)" column of Table 1 when multiplied by 100.
    height_mix:
        Mapping from cell height (rows) to the fraction of cells of that
        height.  Fractions are normalised automatically.
    mean_width:
        Mean cell width in sites; widths are sampled from a shifted
        geometric-like distribution in ``[1, 4 * mean_width]``.
    rows_to_sites_aspect:
        Ratio of the number of sites per row to the number of rows;
        row-based chips are much wider (in sites) than tall (in rows).
    perturbation_x / perturbation_y:
        Standard deviation of the global-placement noise, in sites and in
        rows respectively.
    fixed_blockage_fraction:
        Fraction of the core area covered by randomly placed fixed
        blockages (exercises segment clipping; default 0).
    seed:
        RNG seed; generation is fully deterministic given the spec.

    The generated layout records a site width of
    :data:`~repro.legality.metrics.ROWS_PER_SITE` row heights.
    """

    name: str
    num_cells: int
    density: float
    height_mix: Dict[int, float] = field(default_factory=lambda: dict(DEFAULT_HEIGHT_MIX))
    mean_width: float = 3.0
    rows_to_sites_aspect: float = 8.0
    perturbation_x: float = 4.0
    perturbation_y: float = 0.9
    fixed_blockage_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_cells <= 0:
            raise ValueError("num_cells must be positive")
        if not 0.0 < self.density < 0.98:
            raise ValueError(f"density must be in (0, 0.98), got {self.density}")
        total = sum(self.height_mix.values())
        if total <= 0:
            raise ValueError("height_mix must contain positive fractions")
        self.height_mix = {int(h): f / total for h, f in self.height_mix.items() if f > 0}

    def scaled(self, scale: float, *, suffix: Optional[str] = None) -> "DesignSpec":
        """Return a copy with the cell count multiplied by ``scale``.

        Density, height mix and perturbation magnitudes are preserved, so
        the scaled design exercises the same legalization behaviour at a
        fraction of the runtime.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return DesignSpec(
            name=self.name if suffix is None else f"{self.name}{suffix}",
            num_cells=max(8, int(round(self.num_cells * scale))),
            density=self.density,
            height_mix=dict(self.height_mix),
            mean_width=self.mean_width,
            rows_to_sites_aspect=self.rows_to_sites_aspect,
            perturbation_x=self.perturbation_x,
            perturbation_y=self.perturbation_y,
            fixed_blockage_fraction=self.fixed_blockage_fraction,
            seed=self.seed,
        )


# ----------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------
def _sample_heights(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    heights = np.array(sorted(spec.height_mix.keys()), dtype=np.int64)
    probs = np.array([spec.height_mix[int(h)] for h in heights])
    return rng.choice(heights, size=spec.num_cells, p=probs)


def _sample_widths(spec: DesignSpec, heights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Taller cells tend to be somewhat narrower in multi-deck libraries;
    # keep every width at least one site.
    base = rng.geometric(p=min(0.9, 1.0 / spec.mean_width), size=spec.num_cells)
    base = np.clip(base, 1, int(4 * spec.mean_width))
    shrink = np.maximum(1.0, heights.astype(float) * 0.5)
    widths = np.maximum(1, np.round(base / shrink)).astype(np.int64)
    return widths


def _chip_dimensions(spec: DesignSpec, total_area: float) -> Tuple[int, int]:
    """Choose (num_rows, num_sites) matching the target density and aspect."""
    core_area = total_area / spec.density
    # core_area = rows * sites, sites = aspect * rows  =>  rows = sqrt(area/aspect)
    rows = max(8, int(math.ceil(math.sqrt(core_area / spec.rows_to_sites_aspect))))
    # Even row count keeps the P/G pattern symmetric and guarantees even-height
    # cells always have candidate rows.
    if rows % 2:
        rows += 1
    sites = max(16, int(math.ceil(core_area / rows)))
    return rows, sites


# ----------------------------------------------------------------------
# Legal seed packing
# ----------------------------------------------------------------------
def _pack_seed(
    spec: DesignSpec,
    heights: np.ndarray,
    widths: np.ndarray,
    num_rows: int,
    num_sites: int,
    rng: np.random.Generator,
) -> List[Tuple[float, int]]:
    """Pack cells legally (no overlaps) and return seed (x, bottom_row) per cell.

    Uses a per-row skyline: for each cell a legal bottom row is chosen at
    random among those with enough remaining width; the cell is placed at
    the maximum cursor of the rows it spans plus a randomized gap so that
    free space is spread across the row rather than accumulating at the
    right edge.
    """
    cursors = np.zeros(num_rows)
    # Expected slack per cell used to size the random gaps.
    total_width_per_row = float(np.sum(widths * heights)) / num_rows
    slack_per_row = max(0.0, num_sites - total_width_per_row)
    cells_per_row = max(1.0, float(np.sum(heights)) / num_rows)
    mean_gap = slack_per_row / cells_per_row

    order = rng.permutation(spec.num_cells)
    positions: List[Optional[Tuple[float, int]]] = [None] * spec.num_cells
    for idx in order:
        h = int(heights[idx])
        w = float(widths[idx])
        candidates = list(legal_bottom_rows(h, num_rows))
        rng.shuffle(candidates)
        placed = False
        best_row = candidates[0] if candidates else 0
        best_x = float("inf")
        for attempt, bottom in enumerate(candidates):
            span = cursors[bottom : bottom + h]
            x0 = float(span.max())
            if x0 + w <= num_sites:
                gap = float(rng.exponential(mean_gap)) if mean_gap > 0 else 0.0
                x = min(x0 + gap, num_sites - w)
                x = float(int(x))
                positions[idx] = (x, bottom)
                cursors[bottom : bottom + h] = x + w
                placed = True
                break
            if x0 < best_x:
                best_x, best_row = x0, bottom
            if attempt >= 24 and best_x + w <= num_sites * 1.02:
                break
        if not placed:
            # Dense designs: fall back to the least-full candidate without a gap.
            x = float(int(min(best_x, max(0.0, num_sites - w))))
            positions[idx] = (x, best_row)
            cursors[best_row : best_row + h] = max(cursors[best_row : best_row + h].max(), x + w)
    return [p for p in positions if p is not None]


def _add_blockages(
    layout_cells: List[Cell], spec: DesignSpec, num_rows: int, num_sites: int, rng: np.random.Generator
) -> None:
    """Append fixed blockages covering roughly ``fixed_blockage_fraction`` of the core."""
    if spec.fixed_blockage_fraction <= 0:
        return
    target_area = spec.fixed_blockage_fraction * num_rows * num_sites
    area = 0.0
    while area < target_area:
        h = int(rng.integers(2, max(3, num_rows // 6)))
        w = int(rng.integers(4, max(6, num_sites // 8)))
        x = float(rng.integers(0, max(1, num_sites - w)))
        y = float(rng.integers(0, max(1, num_rows - h)))
        layout_cells.append(
            Cell(
                index=len(layout_cells),
                width=w,
                height=h,
                gp_x=x,
                gp_y=y,
                x=x,
                y=y,
                fixed=True,
                name=f"blk{len(layout_cells)}",
            )
        )
        area += w * h


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def generate_design(spec: DesignSpec) -> Layout:
    """Generate a synthetic design from a :class:`DesignSpec`.

    The returned layout's cells carry a *global placement* position (the
    perturbed seed) as both their ``gp`` and current coordinates; no cell
    is marked legalized.  Run a legalizer to obtain a legal placement.
    """
    rng = np.random.default_rng(spec.seed)
    heights = _sample_heights(spec, rng)
    widths = _sample_widths(spec, heights, rng)
    total_area = float(np.sum(widths * heights))
    num_rows, num_sites = _chip_dimensions(spec, total_area)

    seed_positions = _pack_seed(spec, heights, widths, num_rows, num_sites, rng)

    cells: List[Cell] = []
    noise_x = rng.normal(0.0, spec.perturbation_x, size=spec.num_cells)
    noise_y = rng.normal(0.0, spec.perturbation_y, size=spec.num_cells)
    for i, (x_seed, bottom) in enumerate(seed_positions):
        w = float(widths[i])
        h = int(heights[i])
        gp_x = float(np.clip(x_seed + noise_x[i], 0.0, num_sites - w))
        gp_y = float(np.clip(bottom + noise_y[i], 0.0, num_rows - h))
        cells.append(
            Cell(index=i, width=w, height=h, gp_x=gp_x, gp_y=gp_y, x=gp_x, y=gp_y, name=f"c{i}")
        )
    _add_blockages(cells, spec, num_rows, num_sites, rng)

    layout = Layout(
        num_rows,
        num_sites,
        cells,
        name=spec.name,
        site_width=ROWS_PER_SITE,
        row_height=1.0,
    )
    return layout


def describe_design(layout: Layout) -> Dict[str, float]:
    """Return scalar descriptors of a generated design (for reports)."""
    hist = layout.height_histogram()
    movable = len(layout.movable_cells())
    return {
        "num_cells": float(movable),
        "num_rows": float(layout.num_rows),
        "num_sites": float(layout.num_sites),
        "density": layout.density(),
        "multi_row_fraction": sum(n for h, n in hist.items() if h > 1) / max(1, movable),
        "tall_cell_fraction": layout.tall_cell_fraction(3),
        "max_height": float(layout.max_cell_height()),
    }
