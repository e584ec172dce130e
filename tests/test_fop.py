"""Tests for region extraction, pre-move, FOP and insert & update."""

from __future__ import annotations

import math

import pytest

from repro.core.sacs import SortAheadShifter
from repro.geometry import Cell, Layout, Window
from repro.legality import LegalityChecker
from repro.mgl.fop import FOPConfig, build_curves, evaluate_point_list, find_optimal_position
from repro.mgl.insertion import enumerate_insertion_points
from repro.mgl.local_region import build_local_region, initial_window, region_transfer_words
from repro.mgl.premove import premove, premove_cell
from repro.mgl.shifting import OriginalShifter
from repro.mgl.update import commit_placement
from repro.perf.counters import TargetCellWork

from repro.testing import add_target, make_layout, region_for


# ----------------------------------------------------------------------
# Pre-move
# ----------------------------------------------------------------------
class TestPremove:
    def test_snaps_to_rows_and_sites(self):
        layout = Layout(8, 40)
        layout.add_cell(Cell(index=0, width=3, height=1, gp_x=5.4, gp_y=2.7))
        layout.add_cell(Cell(index=1, width=4, height=2, gp_x=10.6, gp_y=3.2))
        count = premove(layout)
        assert count == 2
        assert layout.cells[0].x == 5.0 and layout.cells[0].y == 3.0
        # Even-height cell must land on an even row.
        assert layout.cells[1].y in (2.0, 4.0)
        assert layout.cells[1].x == 11.0

    def test_keeps_cell_on_chip(self):
        layout = Layout(4, 20)
        layout.add_cell(Cell(index=0, width=6, height=1, gp_x=18.0, gp_y=1.0))
        premove_cell(layout, layout.cells[0])
        assert layout.cells[0].x == 14.0

    def test_skips_fixed_and_legalized(self):
        layout = Layout(4, 20)
        layout.add_cell(Cell(index=0, width=2, height=1, gp_x=1.2, gp_y=0.0, fixed=True))
        layout.add_cell(Cell(index=1, width=2, height=1, gp_x=3.3, gp_y=0.0, legalized=True, x=3.3, y=0.0))
        assert premove(layout) == 0
        assert layout.cells[0].x == 1.2
        assert layout.cells[1].x == 3.3

    def test_tolerates_overlaps(self):
        layout = Layout(2, 10)
        layout.add_cell(Cell(index=0, width=4, height=1, gp_x=2.2, gp_y=0.1))
        layout.add_cell(Cell(index=1, width=4, height=1, gp_x=2.4, gp_y=0.2))
        premove(layout)
        assert layout.cells[0].overlaps(layout.cells[1])


# ----------------------------------------------------------------------
# Window / localRegion extraction
# ----------------------------------------------------------------------
class TestLocalRegion:
    def test_initial_window_centred(self):
        layout = Layout(20, 200)
        cell = Cell(index=0, width=4, height=2, gp_x=100.0, gp_y=10.0, x=100.0, y=10.0)
        layout.add_cell(cell)
        window = initial_window(layout, cell)
        assert window.x_lo < 100.0 < window.x_hi
        assert window.row_lo <= 10 and window.row_hi >= 12

    def test_initial_window_clipped_to_chip(self):
        layout = Layout(6, 30)
        cell = Cell(index=0, width=4, height=1, gp_x=1.0, gp_y=0.0, x=1.0, y=0.0)
        layout.add_cell(cell)
        window = initial_window(layout, cell)
        assert window.x_lo == 0.0 and window.row_lo == 0

    def test_segments_are_longest_free_runs(self):
        layout = Layout(2, 40)
        layout.add_cell(Cell(index=0, width=10, height=1, gp_x=5.0, gp_y=0.0, x=5.0, y=0.0, fixed=True))
        target = add_target(layout, 20.0, 0.0, 3.0, 1)
        layout.rebuild_index()
        region = region_for(layout, target)
        assert region.segments[0].x_lo == pytest.approx(15.0)
        assert region.segments[0].x_hi == pytest.approx(40.0)
        assert region.segments[1].interval.length == pytest.approx(40.0)

    def test_partially_covered_cells_clip_segments(self, simple_layout):
        target = add_target(simple_layout, 15.0, 0.0, 3.0, 1)
        window = Window(6.0, 30.0, 0, 3)
        region, _ = build_local_region(simple_layout, target, window)
        # The 2-row cell at x=10 is inside; the cell at x=2 (row 0) is outside
        # the window and must not appear as a localCell.
        xs = {lc.x for lc in region.local_cells}
        assert 10.0 in xs and 2.0 not in xs

    def test_contained_cells_become_local_cells(self, simple_layout):
        target = add_target(simple_layout, 15.0, 0.0, 3.0, 1)
        region = region_for(simple_layout, target)
        assert len(region.local_cells) == 8
        assert region.total_subcells() == sum(c.height for c in simple_layout.cells[:-1])

    def test_fixed_blockage_clips_segment(self):
        layout = Layout(2, 40)
        layout.add_cell(Cell(index=0, width=6, height=1, gp_x=10.0, gp_y=1.0, x=10.0, y=1.0, legalized=True))
        layout.add_cell(Cell(index=1, width=30, height=1, gp_x=3.0, gp_y=0.0, x=3.0, y=0.0, fixed=True))
        # Row 0 free runs: [0,3) and [33,40); the longest ([33,40)) is the
        # localSegment.  The row-1 legalized cell stays a localCell.
        target = add_target(layout, 36.0, 0.0, 2.0, 1)
        layout.rebuild_index()
        region = region_for(layout, target)
        assert 0 in region.segments
        seg0 = region.segments[0]
        assert seg0.x_lo == pytest.approx(33.0)
        assert any(lc.cell.index == 0 for lc in region.local_cells)

    def test_uncontained_candidate_is_demoted_to_blockage(self):
        # A legalized cell that does not fit in the chosen (longest) segment
        # of one of its rows must clip the segments instead of becoming
        # invisible to FOP.
        layout = Layout(2, 40)
        # Fixed blockage splits row 0 into [0,12) and [24,40).
        layout.add_cell(Cell(index=0, width=12, height=1, gp_x=12.0, gp_y=0.0, x=12.0, y=0.0, fixed=True))
        # A 2-row legalized cell living in row 0's *shorter* free run.
        layout.add_cell(Cell(index=1, width=4, height=2, gp_x=2.0, gp_y=0.0, x=2.0, y=0.0, legalized=True))
        target = add_target(layout, 30.0, 0.0, 3.0, 1)
        layout.rebuild_index()
        region = region_for(layout, target)
        # Row 0's longest run is [24,40); the 2-row cell is not inside it, so
        # it must not be a localCell and must clip row 1's segment instead.
        assert region.segments[0].x_lo == pytest.approx(24.0)
        assert all(lc.cell.index != 1 for lc in region.local_cells)
        assert region.segments[1].x_lo >= 6.0

    def test_demotion_cascades_to_a_later_pass(self):
        # Demoting A in the first pass shrinks row 1's segment, which only
        # then leaves the 2-row cell B outside it: B is demoted in the
        # second pass, and that demotion clips rows 0 and 1 in turn.
        layout = Layout(4, 40)
        # Fixed blockage splits row 3 into [0,12) and [24,40).
        layout.add_cell(Cell(index=0, width=12, height=1, gp_x=12.0, gp_y=3.0, x=12.0, y=3.0, fixed=True))
        # A: 3-row cell in row 3's shorter free run.
        layout.add_cell(Cell(index=1, width=4, height=3, gp_x=2.0, gp_y=1.0, x=2.0, y=1.0, legalized=True))
        # B: 2-row cell inside every segment of the first pass.
        layout.add_cell(Cell(index=2, width=2, height=2, gp_x=0.0, gp_y=0.0, x=0.0, y=0.0, legalized=True))
        target = add_target(layout, 30.0, 0.0, 3.0, 1)
        layout.rebuild_index()
        region = region_for(layout, target)
        assert region.local_cells == []
        assert [(row, seg.x_lo, seg.x_hi) for row, seg in region.segments.items()] == [
            (0, 2.0, 40.0),
            (1, 6.0, 40.0),
            (2, 6.0, 40.0),
            (3, 24.0, 40.0),
        ]

    def test_demotion_can_remove_a_row_segment(self):
        # Row 1's only free run is exactly the 2-row cell C.  C lies outside
        # row 0's segment, so it is demoted and row 1 is left with no free
        # run: the row drops out of the region, and the other rows keep
        # their order.
        layout = Layout(3, 40)
        layout.add_cell(Cell(index=0, width=36, height=1, gp_x=4.0, gp_y=1.0, x=4.0, y=1.0, fixed=True))
        layout.add_cell(Cell(index=1, width=4, height=1, gp_x=4.0, gp_y=0.0, x=4.0, y=0.0, fixed=True))
        layout.add_cell(Cell(index=2, width=4, height=2, gp_x=0.0, gp_y=0.0, x=0.0, y=0.0, legalized=True))
        target = add_target(layout, 30.0, 0.0, 3.0, 1)
        layout.rebuild_index()
        region = region_for(layout, target)
        assert region.local_cells == []
        assert list(region.segments) == [0, 2]
        assert region.segments[0].x_lo == pytest.approx(8.0)
        assert 1 not in region.row_cells

    def test_transfer_words_scale_with_content(self, simple_layout):
        target = add_target(simple_layout, 15.0, 0.0, 3.0, 1)
        region = region_for(simple_layout, target)
        words = region_transfer_words(region)
        assert words > 4 * len(region.local_cells)


# ----------------------------------------------------------------------
# FOP
# ----------------------------------------------------------------------
class TestFOP:
    def _simple_case(self):
        layout = make_layout(2, 40, [(2.0, 0.0, 4.0, 1), (12.0, 0.0, 4.0, 1)])
        target = add_target(layout, 7.0, 0.0, 3.0, 1)
        region = region_for(layout, target)
        return layout, target, region

    def test_finds_zero_cost_gap(self):
        _, target, region = self._simple_case()
        result = find_optimal_position(region, target, FOPConfig())
        assert result.feasible
        assert result.bottom_row == 0
        assert result.x == pytest.approx(7.0)
        assert result.cost == pytest.approx(0.0)

    def test_result_is_integer_site(self):
        layout = make_layout(2, 40, [(2.0, 0.0, 4.0, 1), (12.0, 0.0, 4.0, 1)])
        target = add_target(layout, 7.4, 0.0, 3.0, 1)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig())
        assert result.feasible
        assert result.x == round(result.x)

    def test_prefers_shifting_over_large_displacement(self):
        # Dense row: the best position requires pushing a neighbour slightly
        # rather than jumping to the far free space.
        layout = make_layout(2, 60, [(0.0, 0.0, 10.0, 1), (12.0, 0.0, 10.0, 1), (40.0, 0.0, 4.0, 1)])
        target = add_target(layout, 10.0, 0.0, 4.0, 1)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig())
        assert result.feasible
        # Placing at x=10 forces a 2-site push of the cell at 12; total cost 2.
        assert result.cost <= 4.0
        assert result.x <= 14.0

    def test_vertical_cost_weighting(self):
        # Same free gap in row 0 and row 2; the target's GP row is 0.
        layout = make_layout(4, 30, [])
        target = add_target(layout, 10.0, 0.0, 3.0, 1)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig())
        assert result.bottom_row == 0

    def test_sacs_and_original_give_same_choice(self):
        layout = make_layout(
            4, 50, [(2.0, 0.0, 6.0, 2), (14.0, 0.0, 5.0, 1), (10.0, 1.0, 6.0, 1), (26.0, 0.0, 4.0, 3)]
        )
        target = add_target(layout, 12.0, 0.0, 4.0, 2)
        region_a = region_for(layout, target)
        region_b = region_for(layout, target)
        res_orig = find_optimal_position(region_a, target, FOPConfig(shifter=OriginalShifter()))
        res_sacs = find_optimal_position(
            region_b, target, FOPConfig(shifter=SortAheadShifter(), use_fwd_bwd_pipeline=True)
        )
        assert res_orig.feasible and res_sacs.feasible
        assert res_orig.cost == pytest.approx(res_sacs.cost, abs=1e-6)
        assert res_orig.x == pytest.approx(res_sacs.x)
        assert res_orig.bottom_row == res_sacs.bottom_row

    def test_infeasible_region(self):
        layout = make_layout(1, 10, [(0.0, 0.0, 5.0, 1), (5.0, 0.0, 5.0, 1)])
        target = add_target(layout, 3.0, 0.0, 3.0, 1)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig())
        assert not result.feasible

    def test_work_recording(self):
        _, target, region = self._simple_case()
        work = TargetCellWork(cell_index=target.index)
        result = find_optimal_position(region, target, FOPConfig(), work)
        assert work.n_insertion_points == result.n_points_evaluated
        assert all(ip.n_breakpoints >= 1 for ip in work.insertion_points if ip.feasible)

    def test_evaluate_single_point_matches_brute_force(self):
        layout = make_layout(2, 40, [(2.0, 0.0, 4.0, 1), (10.0, 0.0, 4.0, 1)])
        target = add_target(layout, 8.0, 0.0, 3.0, 1)
        region = region_for(layout, target)
        point = enumerate_insertion_points(region, target, 0)[1]
        config = FOPConfig()
        [(_, best_x, cost, outcome, _)] = evaluate_point_list(region, target, [point], config)
        # Brute force over integer positions inside the feasibility interval.
        from repro.mgl.curves import evaluate_piecewise

        pieces, const = build_curves(region, target, 0, outcome, config.vertical_cost_factor)
        xs = range(math.ceil(outcome.xt_lo), math.floor(outcome.xt_hi) + 1)
        brute = min(evaluate_piecewise(pieces, const, float(x)) for x in xs)
        assert cost == pytest.approx(brute, abs=1e-9)


# ----------------------------------------------------------------------
# Insert & update
# ----------------------------------------------------------------------
class TestCommit:
    def test_commit_places_target_and_moves_chain(self):
        layout = make_layout(2, 30, [(0.0, 0.0, 6.0, 1), (6.0, 0.0, 6.0, 1), (20.0, 0.0, 4.0, 1)])
        target = add_target(layout, 8.0, 0.0, 4.0, 1)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig())
        assert result.feasible
        moved = commit_placement(layout, region, target, result)
        assert moved is not None
        assert target.legalized
        report = LegalityChecker().check(layout)
        assert report.legal, report.summary()

    def test_commit_infeasible_returns_none(self):
        layout = make_layout(1, 10, [(0.0, 0.0, 5.0, 1), (5.0, 0.0, 5.0, 1)])
        target = add_target(layout, 3.0, 0.0, 3.0, 1)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig())
        assert commit_placement(layout, region, target, result) is None
        assert not target.legalized

    def test_commit_multirow_target(self):
        layout = make_layout(4, 30, [(4.0, 0.0, 5.0, 2), (12.0, 0.0, 5.0, 3), (20.0, 2.0, 4.0, 1)])
        target = add_target(layout, 9.0, 0.0, 4.0, 2)
        region = region_for(layout, target)
        result = find_optimal_position(region, target, FOPConfig(shifter=SortAheadShifter()))
        assert result.feasible
        assert commit_placement(layout, region, target, result) is not None
        assert LegalityChecker().check(layout).legal
        assert int(target.y) % 2 == 0  # P/G alignment of the 2-row target
