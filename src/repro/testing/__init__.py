"""Importable test helpers shared by ``tests/`` and ``benchmarks/``.

Historically these lived in ``tests/conftest.py`` and test modules did
``from conftest import ...`` — which breaks as soon as more than one
``conftest.py`` is importable (Python resolves the bare module name to
whichever directory pytest put on ``sys.path`` first, e.g.
``benchmarks/conftest.py``).  Keeping the helpers inside the package
makes them importable from anywhere with a plain absolute import and
lets the two suites be collected together.

The pytest *fixtures* stay in the respective ``conftest.py`` files; only
plain helper functions live here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.benchgen import DesignSpec, generate_design
from repro.geometry import Cell, Layout, Window
from repro.mgl.local_region import RegionBuilder

__all__ = ["make_layout", "add_target", "region_for", "small_design"]


def make_layout(
    num_rows: int = 8,
    num_sites: int = 60,
    cells: Sequence[Tuple[float, float, float, int]] = (),
    *,
    legalized: bool = True,
    name: str = "test",
) -> Layout:
    """Build a layout from ``(x, y, width, height)`` tuples.

    All cells are created with their global-placement position equal to
    the given position and (by default) already legalized, so they act as
    obstacles for localRegion extraction.
    """
    layout = Layout(num_rows, num_sites, name=name)
    for i, (x, y, w, h) in enumerate(cells):
        cell = Cell(index=i, width=w, height=h, gp_x=x, gp_y=y, x=x, y=y, legalized=legalized)
        layout.add_cell(cell)
    layout.rebuild_index()
    return layout


def add_target(layout: Layout, x: float, y: float, w: float, h: int) -> Cell:
    """Append an unlegalized target cell to a layout."""
    cell = Cell(index=len(layout.cells), width=w, height=h, gp_x=x, gp_y=y, x=x, y=y)
    layout.add_cell(cell)
    return cell


def region_for(layout: Layout, target: Cell, window: Optional[Window] = None):
    """Build the localRegion of a target over the whole chip by default."""
    window = window or Window(0.0, layout.width, 0, layout.num_rows)
    return RegionBuilder(layout, target).build(window)


def small_design(num_cells: int = 80, density: float = 0.55, seed: int = 1,
                 height_mix: Optional[Dict[int, float]] = None) -> Layout:
    """Generate a small synthetic design for end-to-end tests."""
    spec = DesignSpec(
        name=f"tiny{seed}",
        num_cells=num_cells,
        density=density,
        seed=seed,
        height_mix=height_mix or {1: 0.7, 2: 0.18, 3: 0.08, 4: 0.04},
    )
    return generate_design(spec)
