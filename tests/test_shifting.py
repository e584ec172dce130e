"""Tests for insertion-point enumeration, cell shifting and SACS.

The central invariant of the reproduction: the single-pass Sort-Ahead
Cell Shifting algorithm (the paper's contribution) produces *exactly* the
same push thresholds and feasibility bounds as the original multi-pass
algorithm, while doing strictly less traversal work.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import DesignSpec, generate_design
from repro.core.sacs import SortAheadShifter, build_sacs_context, shift_cells_sacs
from repro.geometry import Cell, Window
from repro.mgl.insertion import (
    candidate_bottom_rows,
    enumerate_all_insertion_points,
    enumerate_insertion_points,
)
from repro.mgl.local_region import build_local_region
from repro.mgl.premove import premove
from repro.mgl.shifting import (
    OriginalShifter,
    shift_cells_original,
    shifted_positions,
    verify_no_overlap,
)

from repro.testing import add_target, make_layout, region_for


# ----------------------------------------------------------------------
# Fixtures: a region with a multi-row chain
# ----------------------------------------------------------------------
def chain_region():
    """Region where pushing in row 0 propagates through a 2-row cell into row 1."""
    layout = make_layout(
        num_rows=4,
        num_sites=40,
        cells=[
            (2.0, 0.0, 4.0, 1),    # idx 0, row 0
            (8.0, 0.0, 5.0, 2),    # idx 1, rows 0-1 (the coupling cell)
            (3.0, 1.0, 4.0, 1),    # idx 2, row 1, left of the coupling cell
            (20.0, 0.0, 4.0, 1),   # idx 3, row 0, right side
            (16.0, 1.0, 3.0, 1),   # idx 4, row 1, right side
        ],
    )
    target = add_target(layout, 14.0, 0.0, 4.0, 1)
    region = region_for(layout, target)
    return layout, target, region


class TestInsertionEnumeration:
    def test_candidate_rows_respect_pg(self):
        layout = make_layout(6, 40, [])
        target = add_target(layout, 10.0, 2.0, 3.0, 2)
        region = region_for(layout, target)
        rows = candidate_bottom_rows(region, target)
        assert rows and all(r % 2 == 0 for r in rows)

    def test_candidate_rows_require_width(self):
        from repro.geometry import Layout

        layout = Layout(2, 10)
        layout.add_cell(
            Cell(index=0, width=9, height=1, gp_x=0.0, gp_y=1.0, x=0.0, y=1.0, fixed=True)
        )
        layout.rebuild_index()
        target = add_target(layout, 1.0, 0.0, 4.0, 1)
        region = region_for(layout, target)
        # Row 1 only has a 1-site segment fragment (the rest is a fixed
        # blockage): the target cannot be anchored there.
        assert candidate_bottom_rows(region, target) == [0]

    def test_single_row_point_count(self):
        _, target, region = chain_region()
        points = enumerate_insertion_points(region, target, 0)
        # Row 0 has three subcells -> four split positions, all feasible here.
        assert len(points) == 4
        splits = [dict(p.split)[0] for p in points]
        assert splits == [0, 1, 2, 3]

    def test_multirow_cell_switches_sides_consistently(self):
        layout = make_layout(4, 60, [(10.0, 0.0, 5.0, 2), (30.0, 0.0, 5.0, 2)])
        target = add_target(layout, 20.0, 0.0, 4.0, 2)
        region = region_for(layout, target)
        for point in enumerate_insertion_points(region, target, 0):
            split = point.split_map()
            assert split[0] == split[1]

    def test_left_right_sets_disjoint(self):
        _, target, region = chain_region()
        for point in enumerate_all_insertion_points(region, target):
            left = set(point.left_cell_indices(region))
            right = set(point.right_cell_indices(region))
            assert not (left & right)

    def test_infeasible_width_filtered(self):
        layout = make_layout(2, 12, [(0.0, 0.0, 5.0, 1), (6.0, 0.0, 5.0, 1)])
        target = add_target(layout, 5.0, 0.0, 6.0, 1)
        region = region_for(layout, target)
        # 10 of 12 sites are occupied: no split can host a 6-wide target.
        assert enumerate_insertion_points(region, target, 0) == []


class TestOriginalShifting:
    def test_no_affected_cells_when_gap_is_huge(self):
        layout = make_layout(2, 100, [(0.0, 0.0, 4.0, 1), (90.0, 0.0, 4.0, 1)])
        target = add_target(layout, 50.0, 0.0, 4.0, 1)
        region = region_for(layout, target)
        point = enumerate_insertion_points(region, target, 0)[1]
        outcome = shift_cells_original(region, target, point)
        assert outcome.feasible
        # Thresholds exist but only bind for extreme target positions.
        moves = shifted_positions(outcome, region, 50.0, target.width)
        assert moves == {}

    def test_left_chain_thresholds(self):
        _, target, region = chain_region()
        # Insert between the 2-row cell (x=8) and the cell at x=20 in row 0.
        point = enumerate_insertion_points(region, target, 0)[2]
        outcome = shift_cells_original(region, target, point)
        assert outcome.feasible
        by_x = {region.local_cells[i].x: t for i, t in outcome.left_thresholds.items()}
        # Direct constraint on the boundary cell at x=8 (right edge 13).
        assert by_x[8.0] == pytest.approx(13.0)
        # Its left neighbour in row 0 (x=2, right edge 6, gap 2) and in row 1
        # (x=3, right edge 7, gap 1) inherit threshold - gap.
        assert by_x[2.0] == pytest.approx(11.0)
        assert by_x[3.0] == pytest.approx(12.0)

    def test_multi_pass_needed_for_cross_row_chain(self):
        # Target in row 1: the left-move constraint enters through the
        # single-row cell at x=16 (row 1), reaches the 2-row cell at x=8 in
        # the same pass, but the 2-row cell's row-0 neighbour was already
        # traversed (rows go bottom-to-top), so it is only pushed in the
        # next pass -- the unpredictable multi-pass behaviour of Fig. 6.
        layout, _, _ = chain_region()
        target = add_target(layout, 22.0, 1.0, 4.0, 1)
        region = region_for(layout, target)
        points = enumerate_insertion_points(region, target, 1)
        point = points[-1]  # everything in row 1 on the target's left
        outcome = shift_cells_original(region, target, point)
        assert outcome.passes > 2
        assert outcome.cell_visits >= (outcome.passes - 1) * region.total_subcells()
        # SACS reaches the same thresholds in a single pass per phase.
        sacs = shift_cells_sacs(region, target, point)
        assert sacs.left_thresholds == pytest.approx(outcome.left_thresholds)
        # The row-0 neighbour of the 2-row cell did get pushed.
        pushed_xs = {region.local_cells[i].x for i in outcome.left_thresholds}
        assert 2.0 in pushed_xs

    def test_right_chain_thresholds(self):
        _, target, region = chain_region()
        point = enumerate_insertion_points(region, target, 0)[0]  # everything on the right
        outcome = shift_cells_original(region, target, point)
        assert outcome.feasible
        by_x = {region.local_cells[i].x: t for i, t in outcome.right_thresholds.items()}
        assert by_x[2.0] == pytest.approx(2.0)
        # Chain: cell at 2 (right edge 6), gap to cell at 8 is 2 -> threshold 4...
        assert by_x[8.0] == pytest.approx(2.0 + (8.0 - 6.0))

    def test_feasibility_bounds_respect_segment(self):
        layout = make_layout(1, 20, [(0.0, 0.0, 8.0, 1), (12.0, 0.0, 8.0, 1)])
        target = add_target(layout, 9.0, 0.0, 4.0, 1)
        region = region_for(layout, target)
        point = enumerate_insertion_points(region, target, 0)[1]
        outcome = shift_cells_original(region, target, point)
        assert outcome.feasible
        assert outcome.xt_lo == pytest.approx(8.0)
        assert outcome.xt_hi == pytest.approx(12.0 - 4.0)

    def test_infeasible_when_no_room(self):
        layout = make_layout(1, 12, [(0.0, 0.0, 5.0, 1), (6.0, 0.0, 5.0, 1)])
        target = add_target(layout, 5.0, 0.0, 3.0, 1)
        region = region_for(layout, target)
        points = enumerate_insertion_points(region, target, 0)
        outcomes = [shift_cells_original(region, target, p) for p in points]
        # Only 2 free sites exist in total: every insertion point is infeasible.
        assert all(not o.feasible for o in outcomes)

    def test_shifted_positions_and_verification(self):
        _, target, region = chain_region()
        point = enumerate_insertion_points(region, target, 0)[3]
        outcome = shift_cells_original(region, target, point)
        xt = 9.0  # forces the left chain to compress
        moves = shifted_positions(outcome, region, xt, target.width)
        assert moves  # some cells moved
        assert verify_no_overlap(region, moves, xt, target.width, point)

    def test_original_shifter_object(self):
        _, target, region = chain_region()
        shifter = OriginalShifter()
        shifter.prepare(region)
        point = enumerate_insertion_points(region, target, 0)[3]
        a = shifter.shift(region, target, point)
        b = shift_cells_original(region, target, point)
        assert a.left_thresholds == b.left_thresholds
        assert a.right_thresholds == b.right_thresholds


class TestSacsEquivalence:
    def test_same_thresholds_on_chain_region(self):
        _, target, region = chain_region()
        for point in enumerate_all_insertion_points(region, target):
            a = shift_cells_original(region, target, point)
            b = shift_cells_sacs(region, target, point)
            assert a.feasible == b.feasible
            assert a.left_thresholds == pytest.approx(b.left_thresholds)
            assert a.right_thresholds == pytest.approx(b.right_thresholds)
            if a.feasible:
                assert a.xt_lo == pytest.approx(b.xt_lo)
                assert a.xt_hi == pytest.approx(b.xt_hi)

    def test_sacs_single_pass(self):
        _, target, region = chain_region()
        point = enumerate_insertion_points(region, target, 0)[3]
        outcome = shift_cells_sacs(region, target, point)
        assert outcome.passes == 2  # one per phase
        assert outcome.cell_visits == 2 * len(region.local_cells)

    def test_sacs_does_less_work_than_original(self):
        _, target, region = chain_region()
        point = enumerate_insertion_points(region, target, 0)[3]
        original = shift_cells_original(region, target, point)
        sacs = shift_cells_sacs(region, target, point)
        assert sacs.cell_visits < original.cell_visits

    def test_sort_reported_once_per_region(self):
        _, target, region = chain_region()
        context = build_sacs_context(region)
        points = enumerate_insertion_points(region, target, 0)
        first = shift_cells_sacs(region, target, points[0], context)
        second = shift_cells_sacs(region, target, points[1], context)
        assert first.sorted_cells == len(region.local_cells)
        assert second.sorted_cells == 0

    def test_shifter_object_reprepares_on_new_region(self):
        layout, target, region = chain_region()
        shifter = SortAheadShifter()
        point = enumerate_insertion_points(region, target, 0)[0]
        shifter.shift(region, target, point)
        # New region object: the shifter must rebuild its context.
        region2 = region_for(layout, target)
        point2 = enumerate_insertion_points(region2, target, 0)[0]
        outcome = shifter.shift(region2, target, point2)
        assert outcome.sorted_cells == len(region2.local_cells)

    @settings(max_examples=40, deadline=None)
    @given(
        num_cells=st.integers(20, 70),
        density=st.floats(0.35, 0.85),
        seed=st.integers(0, 10_000),
        target_height=st.integers(1, 3),
        target_width=st.integers(2, 6),
    )
    def test_equivalence_on_random_regions(self, num_cells, density, seed, target_height, target_width):
        """SACS == original on randomly generated legalized neighbourhoods."""
        spec = DesignSpec(
            name="prop",
            num_cells=num_cells,
            density=density,
            seed=seed,
            perturbation_x=0.0,
            perturbation_y=0.0,
        )
        layout = generate_design(spec)
        premove(layout)
        # Accept cells as legalized obstacles only while they stay mutually
        # non-overlapping (very dense random packings may contain a few
        # forced overlaps, which a real obstacle set never has).
        accepted: list = []
        for cell in layout.movable_cells():
            if any(cell.overlaps(other) for other in accepted):
                continue
            cell.legalized = True
            accepted.append(cell)
        layout.rebuild_index()
        target = Cell(
            index=len(layout.cells),
            width=float(target_width),
            height=target_height,
            gp_x=layout.width / 2,
            gp_y=layout.height / 2,
        )
        layout.add_cell(target)
        window = Window(0.0, layout.width, 0, layout.num_rows)
        region, _ = build_local_region(layout, target, window)
        checked = 0
        for point in enumerate_all_insertion_points(region, target):
            a = shift_cells_original(region, target, point)
            b = shift_cells_sacs(region, target, point)
            assert a.feasible == b.feasible
            assert set(a.left_thresholds) == set(b.left_thresholds)
            assert set(a.right_thresholds) == set(b.right_thresholds)
            for key, value in a.left_thresholds.items():
                assert b.left_thresholds[key] == pytest.approx(value, abs=1e-9)
            for key, value in a.right_thresholds.items():
                assert b.right_thresholds[key] == pytest.approx(value, abs=1e-9)
            if a.feasible:
                assert a.xt_lo == pytest.approx(b.xt_lo, abs=1e-9)
                assert a.xt_hi == pytest.approx(b.xt_hi, abs=1e-9)
                # Any concrete committed position must remain overlap-free.
                xt = float(math.floor((a.xt_lo + a.xt_hi) / 2))
                if a.xt_lo <= xt <= a.xt_hi:
                    moves = shifted_positions(a, region, xt, target.width)
                    assert verify_no_overlap(region, moves, xt, target.width, point)
            checked += 1
            if checked >= 60:
                break
