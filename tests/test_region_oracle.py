"""Reference oracle for localRegion extraction (step (c)).

:class:`ReferenceRegionBuilder` keeps the plain from-scratch algorithm:
it classifies every obstacle again in every row it touches and
re-segments every row on every pass of the demotion fixpoint.  The
production :class:`~repro.mgl.local_region.RegionBuilder` classifies each
obstacle once and re-segments only the rows a demotion touched.  The
reference gathers each row's obstacles with its own linear filter over
:meth:`Layout.obstacles_in_row`, so agreement also checks the bounded
row query (:meth:`Layout.obstacles_in_row_window`) the production
builder reads, window by window across a retry ladder.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchgen import DesignSpec, generate_design
from repro.geometry import Interval, subtract_intervals
from repro.geometry.region import LocalRegion, LocalSegment, Window
from repro.mgl import RegionBuilder, initial_window
from repro.mgl.premove import premove


class ReferenceRegionBuilder(RegionBuilder):
    """The from-scratch region build, kept as the oracle."""

    def build(self, window: Window) -> LocalRegion:
        layout, target = self.layout, self.target
        window_x = Interval(window.x_lo, window.x_hi)

        row_obstacles: Dict[int, List] = {}
        forced_holes: Dict[int, List[Interval]] = {}
        candidates: Dict[int, object] = {}
        for row in window.rows():
            row_interval = layout.row_span_interval(row).intersect(window_x)
            if row_interval.empty:
                continue
            cells_here = [
                cell
                for cell in layout.obstacles_in_row(row)
                if cell.right > window.x_lo and cell.x < window.x_hi
            ]
            row_obstacles[row] = cells_here
            forced_holes[row] = []
            for cell in cells_here:
                if cell.index == target.index:
                    continue
                fully_inside = (
                    not cell.fixed
                    and window.contains_rect(cell.x, cell.y, cell.width, cell.height)
                    and all(r in window.rows() for r in cell.rows_covered())
                )
                if fully_inside:
                    candidates[cell.index] = cell
                else:
                    forced_holes[row].append(Interval(cell.x, cell.right))

        demoted: set = set()
        segments: Dict[int, LocalSegment] = {}
        for _ in range(1 + len(candidates)):
            segments = {}
            for row, cells_here in row_obstacles.items():
                row_interval = layout.row_span_interval(row).intersect(window_x)
                holes = list(forced_holes[row])
                holes.extend(
                    Interval(c.x, c.right) for c in cells_here if c.index in demoted
                )
                free = subtract_intervals(row_interval, holes)
                if not free:
                    continue
                longest = max(free, key=lambda iv: iv.length)
                segments[row] = LocalSegment(row=row, interval=longest)
            newly_demoted = False
            for index, cell in candidates.items():
                if index in demoted:
                    continue
                contained = True
                for r in cell.rows_covered():
                    seg_r = segments.get(r)
                    if seg_r is None or not seg_r.interval.contains_interval(
                        Interval(cell.x, cell.right)
                    ):
                        contained = False
                        break
                if not contained:
                    demoted.add(index)
                    newly_demoted = True
            if not newly_demoted:
                break

        region = LocalRegion(window=window, target=target)
        for segment in segments.values():
            region.add_segment(segment)
        for index, cell in candidates.items():
            if index not in demoted:
                region.add_local_cell(cell)
        region.finalize()
        return region


design_strategy = st.fixed_dictionaries(
    {
        "num_cells": st.integers(20, 90),
        "density": st.floats(0.3, 0.85),
        "seed": st.integers(0, 10_000),
        "tall_mix": st.booleans(),
        "blockages": st.sampled_from([0.0, 0.05, 0.15]),
        "placed": st.floats(0.2, 0.95),
    }
)


def build_design(params):
    """A premoved design with a random share of its cells marked legalized.

    The legalized cells keep their premoved (snapped, possibly
    overlapping) positions, so windows hold many localCell candidates
    that straddle segment boundaries and get demoted, often in cascades.
    """
    if params["tall_mix"]:
        mix = {1: 0.6, 2: 0.2, 3: 0.1, 4: 0.07, 5: 0.03}
    else:
        mix = {1: 0.8, 2: 0.15, 3: 0.05}
    layout = generate_design(
        DesignSpec(
            name=f"oracle{params['seed']}",
            num_cells=params["num_cells"],
            density=params["density"],
            seed=params["seed"],
            height_mix=mix,
            fixed_blockage_fraction=params["blockages"],
        )
    )
    premove(layout)
    layout.rebuild_index()
    movable = layout.movable_cells()
    for cell in movable[: int(len(movable) * params["placed"])]:
        layout.mark_legalized(cell, cell.x, cell.y)
    return layout


def region_key(region: LocalRegion):
    return (
        list(region.segments.items()),
        [(lc.cell.index, lc.x, lc.rows) for lc in region.local_cells],
        region.row_cells,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy, st.data())
def test_region_builder_matches_reference(params, data):
    layout = build_design(params)
    pending = layout.unlegalized_cells()
    if not pending:
        return
    target = pending[data.draw(st.integers(0, len(pending) - 1))]
    window = initial_window(layout, target)
    builder = RegionBuilder(layout, target)
    reference = ReferenceRegionBuilder(layout, target)
    for _ in range(4):  # the initial window plus three expansions
        assert region_key(builder.build(window)) == region_key(reference.build(window))
        window = window.expanded(
            dx=window.width * 0.4 + target.width,
            drows=2,
            layout_width=layout.width,
            layout_rows=layout.num_rows,
        )
