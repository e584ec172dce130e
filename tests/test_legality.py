"""Tests for repro.legality: checker and displacement metrics."""

from __future__ import annotations

import pytest

from repro.geometry import Cell, Layout
from repro.legality import LegalityChecker, PlacementMetrics, ViolationKind

from repro.testing import make_layout


def _legal_pair() -> Layout:
    return make_layout(4, 20, [(0.0, 0.0, 4.0, 2), (6.0, 0.0, 4.0, 1)])


class TestLegalityChecker:
    def test_legal_layout(self):
        report = LegalityChecker().check(_legal_pair())
        assert report.legal
        assert report.cells_checked == 2
        assert "legal" in report.summary()

    def test_overlap_detected(self):
        layout = make_layout(4, 20, [(0.0, 0.0, 6.0, 1), (4.0, 0.0, 4.0, 1)])
        report = LegalityChecker().check(layout)
        assert not report.legal
        assert report.count(ViolationKind.OVERLAP) == 1

    def test_overlap_reported_once_for_multirow_pair(self):
        layout = make_layout(4, 20, [(0.0, 0.0, 6.0, 3), (4.0, 0.0, 4.0, 3)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OVERLAP) == 1

    def test_out_of_bounds(self):
        layout = make_layout(4, 20, [(18.0, 0.0, 4.0, 1)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OUT_OF_BOUNDS) == 1

    def test_out_of_bounds_vertical(self):
        layout = make_layout(4, 20, [(0.0, 3.0, 2.0, 2)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OUT_OF_BOUNDS) == 1

    def test_off_site(self):
        layout = make_layout(4, 20, [(1.5, 0.0, 2.0, 1)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OFF_SITE) == 1

    def test_off_row(self):
        layout = make_layout(4, 20, [(1.0, 0.5, 2.0, 1)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OFF_ROW) == 1

    def test_pg_misalignment(self):
        layout = make_layout(6, 20, [(0.0, 1.0, 2.0, 2)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.PG_MISALIGNED) == 1

    def test_pg_alignment_ok_on_even_row(self):
        layout = make_layout(6, 20, [(0.0, 2.0, 2.0, 2)])
        assert LegalityChecker().check(layout).legal

    def test_unlegalized_cells_flagged(self):
        layout = Layout(4, 20)
        layout.add_cell(Cell(index=0, width=2, height=1, gp_x=0, gp_y=0))
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.NOT_LEGALIZED) == 1

    def test_unlegalized_ignored_when_relaxed(self):
        layout = Layout(4, 20)
        layout.add_cell(Cell(index=0, width=2, height=1, gp_x=0, gp_y=0))
        report = LegalityChecker(require_all_legalized=False).check(layout)
        assert report.legal

    def test_fixed_cells_only_checked_for_bounds(self):
        layout = Layout(4, 20)
        layout.add_cell(
            Cell(index=0, width=2.5, height=1, gp_x=1.3, gp_y=0.2, x=1.3, y=0.2, fixed=True)
        )
        assert LegalityChecker().check(layout).legal

    def test_total_overlap_area(self):
        layout = make_layout(4, 20, [(0.0, 0.0, 6.0, 2), (4.0, 0.0, 4.0, 1)])
        assert LegalityChecker().total_overlap_area(layout) == pytest.approx(2.0)

    def test_total_overlap_area_zero_when_legal(self):
        assert LegalityChecker().total_overlap_area(_legal_pair()) == 0.0

    def test_violation_string(self):
        layout = make_layout(4, 20, [(0.0, 0.0, 6.0, 1), (4.0, 0.0, 4.0, 1)])
        report = LegalityChecker().check(layout)
        assert "overlap" in str(report.violations[0])


class TestPlacementMetrics:
    def test_zero_displacement(self):
        metrics = PlacementMetrics()
        stats = metrics.compute(_legal_pair())
        assert stats.average_displacement == 0.0
        assert stats.max_displacement == 0.0
        assert stats.num_cells == 2

    def test_cell_displacement_units(self):
        metrics = PlacementMetrics()
        cell = Cell(index=0, width=2, height=1, gp_x=0.0, gp_y=0.0)
        cell.move_to(10.0, 2.0)
        assert metrics.cell_displacement(cell) == pytest.approx(3.0)

    def test_average_displacement_is_height_averaged(self):
        # Two height classes: the single-row cell moved 2 rows worth, the
        # double-row cell not at all -> S_am = (2 + 0) / 2 = 1.
        layout = make_layout(6, 30, [(0.0, 0.0, 2.0, 1), (10.0, 0.0, 3.0, 2)])
        layout.cells[0].y = 2.0
        metrics = PlacementMetrics()
        stats = metrics.compute(layout)
        assert stats.per_height[1] == pytest.approx(2.0)
        assert stats.per_height[2] == pytest.approx(0.0)
        assert stats.average_displacement == pytest.approx(1.0)
        assert stats.mean_displacement == pytest.approx(1.0)

    def test_average_skips_missing_height_classes(self):
        layout = make_layout(8, 30, [(0.0, 0.0, 2.0, 1), (10.0, 0.0, 3.0, 4)])
        layout.cells[0].x += 10.0
        metrics = PlacementMetrics()
        stats = metrics.compute(layout)
        # Heights 2 and 3 have no cells and must not dilute the average.
        assert set(stats.per_height) == {1, 4}
        assert stats.average_displacement == pytest.approx((1.0 + 0.0) / 2)

    def test_max_and_total(self):
        layout = make_layout(6, 30, [(0.0, 0.0, 2.0, 1), (10.0, 0.0, 2.0, 1)])
        layout.cells[0].x += 5.0
        layout.cells[1].x += 15.0
        stats = PlacementMetrics().compute(layout)
        # 15 and 5 sites at SITES_PER_ROW = 10 sites per row height.
        assert stats.max_displacement == pytest.approx(1.5)
        assert stats.total_displacement == pytest.approx(2.0)

    def test_empty_layout(self):
        metrics = PlacementMetrics()
        stats = metrics.compute(Layout(4, 10))
        assert stats.num_cells == 0
        assert stats.average_displacement == 0.0

    def test_fixed_cells_excluded(self):
        layout = Layout(4, 20)
        layout.add_cell(Cell(index=0, width=2, height=1, gp_x=0, gp_y=0, x=5, y=0, fixed=True))
        layout.add_cell(Cell(index=1, width=2, height=1, gp_x=0, gp_y=0, x=0, y=0, legalized=True))
        stats = PlacementMetrics().compute(layout)
        assert stats.num_cells == 1
        assert stats.total_displacement == 0.0

    def test_as_dict_and_compare(self):
        metrics = PlacementMetrics()
        layout = _legal_pair()
        stats = metrics.compute(layout)
        d = stats.as_dict()
        assert d["num_cells"] == 2.0
        table = metrics.compare([layout], labels=["demo"])
        assert "demo" in table and "AveDis" in table


class TestCheckerEdgeCases:
    """Edge cases: zero-width cells, row boundaries, fixed macros, empty layouts."""

    def test_empty_layout_is_legal(self):
        report = LegalityChecker().check(Layout(4, 20))
        assert report.legal
        assert report.cells_checked == 0

    def test_degenerate_layout_rejected_at_construction(self):
        with pytest.raises(ValueError, match="positive"):
            Layout(0, 20)
        with pytest.raises(ValueError, match="positive"):
            Layout(4, 0)

    def test_zero_width_movable_cell_rejected(self):
        with pytest.raises(ValueError, match="width must be positive"):
            Cell(index=0, width=0.0, height=1, gp_x=4.0, gp_y=0.0)

    def test_zero_width_fixed_marker_never_overlaps(self):
        # Fixed zero-footprint markers (blockage pins) are allowed and must
        # not be reported as overlapping the cell they sit inside.
        layout = make_layout(4, 20, [(2.0, 0.0, 6.0, 1)])
        marker = Cell(index=1, width=0.0, height=1, gp_x=4.0, gp_y=0.0,
                      x=4.0, y=0.0, fixed=True)
        layout.add_cell(marker)
        layout.rebuild_index()
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OVERLAP) == 0
        assert report.legal
        assert LegalityChecker().total_overlap_area(layout) == 0.0

    def test_zero_width_marker_still_bounds_checked(self):
        layout = make_layout(2, 10, [])
        marker = Cell(index=0, width=0.0, height=1, gp_x=1.0, gp_y=0.0,
                      x=-1.0, y=0.0, fixed=True)
        layout.add_cell(marker)
        layout.rebuild_index()
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OUT_OF_BOUNDS) == 1

    def test_cell_flush_against_chip_boundaries_is_legal(self):
        # Right/top edges exactly on the chip boundary must not trip the
        # bounds check (closed-interval boundary).
        layout = make_layout(4, 20, [(16.0, 2.0, 4.0, 2), (0.0, 0.0, 4.0, 1)])
        report = LegalityChecker().check(layout)
        assert report.legal

    def test_cell_crossing_top_row_boundary(self):
        layout = make_layout(4, 20, [(0.0, 3.0, 4.0, 2)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OUT_OF_BOUNDS) == 1

    def test_adjacent_cells_at_shared_row_boundary(self):
        # Cells meeting exactly edge-to-edge (right == neighbour.x) are legal.
        layout = make_layout(4, 20, [(0.0, 0.0, 5.0, 1), (5.0, 0.0, 5.0, 1)])
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OVERLAP) == 0

    def test_overlapping_fixed_macros_reported_once(self):
        layout = Layout(6, 30)
        layout.add_cell(Cell(index=0, width=10.0, height=4, gp_x=2.0, gp_y=0.0,
                             x=2.0, y=0.0, fixed=True))
        layout.add_cell(Cell(index=1, width=10.0, height=4, gp_x=6.0, gp_y=1.0,
                             x=6.0, y=1.0, fixed=True))
        layout.rebuild_index()
        report = LegalityChecker().check(layout)
        # One violation for the pair even though they overlap in 3 rows.
        assert report.count(ViolationKind.OVERLAP) == 1
        # Fixed macros are exempt from grid/P-G checks.
        assert report.count(ViolationKind.OFF_SITE) == 0
        assert report.count(ViolationKind.PG_MISALIGNED) == 0

    def test_fixed_macro_overlapping_movable_cell(self):
        layout = make_layout(4, 30, [(4.0, 0.0, 6.0, 1)])
        layout.add_cell(Cell(index=1, width=8.0, height=2, gp_x=8.0, gp_y=0.0,
                             x=8.0, y=0.0, fixed=True))
        layout.rebuild_index()
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OVERLAP) == 1

    def test_fractional_fixed_macro_rows_bucketed(self):
        # A fixed macro anchored off the row grid still blocks the rows it
        # geometrically covers.
        layout = make_layout(4, 30, [(4.0, 1.0, 6.0, 1)])
        layout.add_cell(Cell(index=1, width=8.0, height=1, gp_x=4.0, gp_y=0.5,
                             x=4.0, y=0.5, fixed=True))
        layout.rebuild_index()
        report = LegalityChecker().check(layout)
        assert report.count(ViolationKind.OVERLAP) == 1
