"""Tests of the occupancy-aware window planner and its counters.

Three layers:

* **free-space summary** — :meth:`Layout.row_free_capacity` /
  :meth:`Layout.window_free_capacity` must match a brute-force overlap
  scan on random layouts, including after incremental placements;
* **planner properties** (hypothesis over random layouts): the planned
  retry-0 window is a superset of the geometric base window, stays on
  the chip, and either provably contains the demanded free capacity or
  has exhausted its growth budget / the chip;
* **feasibility counters** — ``planner_growths`` / ``retry0_feasible``
  per target, the trace aggregates, and the report one-liner.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchgen import DesignSpec, generate_design
from repro.geometry import Cell, Layout
from repro.mgl import MGLLegalizer, RegionBuilder, build_local_region, initial_window
from repro.mgl.fop import FOPConfig
from repro.mgl.premove import premove
from repro.mgl.window_planner import (
    grow_window,
    plan_initial_window,
    window_is_promising,
)
from repro.core.sacs import SortAheadShifter
from repro.perf.counters import LegalizationTrace, TargetCellWork
from repro.perf.report import feasibility_summary
from repro.testing import make_layout, small_design


def build_design(num_cells, density, seed):
    layout = generate_design(
        DesignSpec(
            name=f"planner{seed}",
            num_cells=num_cells,
            density=density,
            seed=seed,
            height_mix={1: 0.6, 2: 0.2, 3: 0.12, 4: 0.08},
        )
    )
    premove(layout)
    layout.rebuild_index()
    return layout


def brute_force_free(layout, row, x_lo, x_hi):
    span = layout.row_span_interval(row)
    x_lo = max(x_lo, span.lo)
    x_hi = min(x_hi, span.hi)
    if x_hi <= x_lo:
        return 0.0
    occupied = 0.0
    for cell in layout.obstacles_in_row(row):
        lo, hi = max(cell.x, x_lo), min(cell.right, x_hi)
        if hi > lo:
            occupied += hi - lo
    return (x_hi - x_lo) - occupied


design_strategy = st.fixed_dictionaries(
    {
        "num_cells": st.integers(20, 90),
        "density": st.floats(0.25, 0.85),
        "seed": st.integers(0, 10_000),
    }
)


# ----------------------------------------------------------------------
# Free-space summary
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy, st.data())
def test_row_free_capacity_matches_brute_force(params, data):
    layout = build_design(**params)
    row = data.draw(st.integers(0, layout.num_rows - 1))
    x_lo = data.draw(st.floats(-5.0, layout.width))
    width = data.draw(st.floats(0.0, layout.width))
    got = layout.row_free_capacity(row, x_lo, x_lo + width)
    want = brute_force_free(layout, row, x_lo, x_lo + width)
    assert got == pytest.approx(want, abs=1e-9)


def test_free_capacity_tracks_placements_incrementally():
    layout = make_layout(4, 40, [(0.0, 0.0, 6.0, 1)])
    assert layout.row_free_capacity(0, 0.0, 40.0) == 34.0
    assert layout.window_free_capacity(0.0, 40.0, 0, 4) == 34.0 + 3 * 40.0
    target = Cell(index=1, width=5.0, height=2, gp_x=10.0, gp_y=1.0, x=10.0, y=1.0)
    layout.add_cell(target)
    layout.mark_legalized(target, 10.0, 1.0)
    assert layout.row_free_capacity(1, 0.0, 40.0) == 35.0
    assert layout.row_free_capacity(2, 0.0, 40.0) == 35.0
    layout.move_obstacle(target, 20.0)
    assert layout.row_free_capacity(1, 18.0, 28.0) == 5.0
    layout.unmark_legalized(target, 10.0, 1.0, was_legalized=False)
    assert layout.row_free_capacity(1, 0.0, 40.0) == 40.0
    # Boundary clipping: only the overlap of a crossing obstacle counts.
    assert layout.row_free_capacity(0, 3.0, 9.0) == 3.0


def test_occupancy_never_underestimates_with_overlapping_obstacles():
    """Nested/overlapping fixed blockages must not hide occupancy.

    Row layout: A covers [0, 10), B is nested inside it at [5, 6).  A
    query starting between B's right edge and A's right edge must still
    see A's overlap (a naive walk-back stops at B and reports 0).
    """
    layout = Layout(1, 40)
    layout.add_cell(Cell(index=0, width=10.0, height=1, gp_x=0.0, gp_y=0.0,
                         x=0.0, y=0.0, fixed=True))
    layout.add_cell(Cell(index=1, width=1.0, height=1, gp_x=5.0, gp_y=0.0,
                         x=5.0, y=0.0, fixed=True))
    layout.rebuild_index()
    # True occupancy of [8, 12) is A's [8, 10) = 2.0.
    assert layout.row_occupied_width(0, 8.0, 12.0) >= 2.0
    assert layout.row_free_capacity(0, 8.0, 12.0) <= 2.0
    # Non-overlapping queries stay exact.
    assert layout.row_occupied_width(0, 0.0, 40.0) == pytest.approx(11.0)
    assert layout.row_occupied_width(0, 12.0, 40.0) == 0.0


def test_region_builder_keeps_zero_width_markers_on_window_edges():
    """Zero-width fixed markers exactly on a cached scan edge survive
    the incremental delta-strip merge (left and right)."""
    from repro.geometry.region import Window

    layout = make_layout(2, 60, [(20.0, 0.0, 2.0, 1)])
    for x in (10.0, 40.0):  # markers at the future window edges
        idx = len(layout.cells)
        layout.add_cell(Cell(index=idx, width=0.0, height=1, gp_x=x, gp_y=0.0,
                             x=x, y=0.0, fixed=True))
    layout.rebuild_index()
    target = Cell(index=len(layout.cells), width=3.0, height=1, gp_x=25.0, gp_y=0.0,
                  x=25.0, y=0.0)
    layout.add_cell(target)

    builder = RegionBuilder(layout, target)
    builder.build(Window(10.0, 40.0, 0, 2))  # edges exactly on the markers
    grown = Window(5.0, 50.0, 0, 2)
    incremental, _ = builder.build(grown)
    fresh, _ = build_local_region(layout, target, grown)
    assert incremental.segments == fresh.segments
    assert [lc.cell.index for lc in incremental.local_cells] == [
        lc.cell.index for lc in fresh.local_cells
    ]


# ----------------------------------------------------------------------
# Planner properties
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy, st.data())
def test_planned_window_contains_sufficient_free_capacity(params, data):
    layout = build_design(**params)
    pending = layout.unlegalized_cells()
    if not pending:
        return
    target = pending[data.draw(st.integers(0, len(pending) - 1))]
    slack = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    max_growths = 8
    window, growths = plan_initial_window(
        layout, target, slack=slack, max_growths=max_growths
    )
    base = initial_window(layout, target)

    # Window stays on the chip and contains the geometric base window.
    assert 0.0 <= window.x_lo <= window.x_hi <= layout.width
    assert 0 <= window.row_lo <= window.row_hi <= layout.num_rows
    assert window.x_lo <= base.x_lo and window.x_hi >= base.x_hi
    assert window.row_lo <= base.row_lo and window.row_hi >= base.row_hi
    assert 0 <= growths <= max_growths

    whole_chip = (
        window.x_lo <= 0.0
        and window.x_hi >= layout.width
        and window.row_lo <= 0
        and window.row_hi >= layout.num_rows
    )
    if growths < max_growths and not whole_chip:
        # The planner stopped early: the window must provably contain the
        # demanded free capacity (band + area).
        assert window_is_promising(layout, target, window, slack)
        assert layout.window_free_capacity(
            window.x_lo, window.x_hi, window.row_lo, window.row_hi
        ) >= target.area * (1.0 + slack) - 1e-9


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy, st.data())
def test_planner_growth_is_monotone(params, data):
    layout = build_design(**params)
    pending = layout.unlegalized_cells()
    if not pending:
        return
    target = pending[data.draw(st.integers(0, len(pending) - 1))]
    window = initial_window(layout, target)
    for _ in range(4):
        grown = grow_window(window, 7.0, 2, layout)
        assert grown.x_lo <= window.x_lo and grown.x_hi >= window.x_hi
        assert grown.row_lo <= window.row_lo and grown.row_hi >= window.row_hi
        assert 0.0 <= grown.x_lo and grown.x_hi <= layout.width
        assert 0 <= grown.row_lo and grown.row_hi <= layout.num_rows
        window = grown


def test_grow_window_shifts_off_chip_boundary():
    layout = make_layout(10, 100)
    from repro.geometry.region import Window

    # Blocked on the left edge: the growth budget shifts right.
    grown = grow_window(Window(0.0, 10.0, 0, 2), 5.0, 1, layout)
    assert grown.x_lo == 0.0 and grown.x_hi == 20.0
    assert grown.row_lo == 0 and grown.row_hi == 4
    # Blocked on the right edge: the budget shifts left.
    grown = grow_window(Window(95.0, 100.0, 8, 10), 5.0, 1, layout)
    assert grown.x_hi == 100.0 and grown.x_lo == 85.0
    assert grown.row_hi == 10 and grown.row_lo == 6


# ----------------------------------------------------------------------
# Incremental region builder
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy, st.data())
def test_incremental_region_build_equals_fresh(params, data):
    layout = build_design(**params)
    pending = layout.unlegalized_cells()
    if not pending:
        return
    target = pending[data.draw(st.integers(0, len(pending) - 1))]
    window = initial_window(layout, target)
    builder = RegionBuilder(layout, target)
    for _ in range(3):
        incremental, _ = builder.build(window)
        fresh, _ = build_local_region(layout, target, window)
        assert incremental.window == fresh.window
        assert incremental.segments == fresh.segments
        assert [
            (lc.cell.index, lc.x, lc.rows) for lc in incremental.local_cells
        ] == [(lc.cell.index, lc.x, lc.rows) for lc in fresh.local_cells]
        assert incremental.row_cells == fresh.row_cells
        window = window.expanded(
            dx=window.width * 0.4 + target.width,
            drows=2,
            layout_width=layout.width,
            layout_rows=layout.num_rows,
        )


# ----------------------------------------------------------------------
# Feasibility counters
# ----------------------------------------------------------------------
def test_target_work_retry0_feasible_flag():
    work = TargetCellWork(cell_index=0)
    assert work.retry0_feasible
    work.window_retries = 1
    assert not work.retry0_feasible
    work.window_retries = 0
    work.fallback_used = True
    assert not work.retry0_feasible


def test_trace_feasibility_aggregates_and_summary():
    trace = LegalizationTrace(design_name="t")
    trace.add_target(TargetCellWork(cell_index=0, planner_growths=2))
    trace.add_target(TargetCellWork(cell_index=1, window_retries=3, planner_growths=1))
    trace.add_target(TargetCellWork(cell_index=2, fallback_used=True))
    assert trace.retry0_feasible_targets == 1
    assert trace.retry0_feasibility_rate == pytest.approx(1 / 3)
    assert trace.retries_total == 3
    assert trace.planner_growths_total == 3
    assert trace.fallback_targets == 1
    summary = feasibility_summary(trace)
    assert "retry0_feasible=1 (33.3%)" in summary
    assert "retries_total=3" in summary
    assert "planner_growths=3" in summary
    assert "fallbacks=1" in summary


def test_empty_trace_feasibility_rate_is_one():
    assert LegalizationTrace().retry0_feasibility_rate == 1.0


def test_planner_lifts_retry0_feasibility_on_dense_design(monkeypatch):
    """End to end: the planner must turn most retries into retry-0 hits."""

    def run():
        layout = small_design(num_cells=110, density=0.8, seed=9)
        legalizer = MGLLegalizer(
            FOPConfig(shifter=SortAheadShifter(), use_fwd_bwd_pipeline=True)
        )
        return legalizer.legalize(layout)

    planned = run()
    # The blind baseline: the geometric window, never grown by the planner.
    monkeypatch.setattr(
        "repro.mgl.legalizer.plan_initial_window",
        lambda layout, target: (initial_window(layout, target), 0),
    )
    blind = run()
    assert blind.trace.planner_growths_total == 0
    assert planned.trace.planner_growths_total > 0
    assert planned.trace.retry0_feasibility_rate >= 0.9
    assert planned.trace.retry0_feasibility_rate > blind.trace.retry0_feasibility_rate
    assert planned.trace.retries_total < blind.trace.retries_total
    assert planned.success
    # Quality must not regress (the larger planned windows can only add
    # candidate positions).
    assert planned.average_displacement <= blind.average_displacement * 1.05
