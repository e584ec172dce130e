"""Tests for repro.geometry: intervals, cells, rows, layouts, regions."""

from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    Cell,
    Interval,
    Layout,
    LocalRegion,
    LocalSegment,
    Row,
    Window,
    intersect_interval_lists,
    intersect_many,
    merge_intervals,
    pg_compatible,
    subtract_intervals,
)
from repro.geometry.interval import gaps_between, longest_interval, total_length
from repro.geometry.row import PowerRail, legal_bottom_rows, nearest_legal_row

from repro.testing import make_layout


# ----------------------------------------------------------------------
# Interval
# ----------------------------------------------------------------------
class TestInterval:
    def test_length(self):
        assert Interval(2.0, 5.0).length == 3.0

    def test_empty_when_inverted(self):
        assert Interval(5.0, 2.0).empty
        assert Interval(5.0, 2.0).length == 0.0

    def test_empty_when_degenerate(self):
        assert Interval(3.0, 3.0).empty

    def test_contains(self):
        assert Interval(1.0, 4.0).contains(1.0)
        assert Interval(1.0, 4.0).contains(4.0)
        assert not Interval(1.0, 4.0).contains(4.5)

    def test_contains_with_tolerance(self):
        assert Interval(1.0, 4.0).contains(4.0000001, tol=1e-3)

    def test_contains_interval(self):
        assert Interval(0.0, 10.0).contains_interval(Interval(2.0, 8.0))
        assert not Interval(0.0, 10.0).contains_interval(Interval(2.0, 11.0))

    def test_overlaps(self):
        assert Interval(0.0, 5.0).overlaps(Interval(4.0, 8.0))
        assert not Interval(0.0, 5.0).overlaps(Interval(5.0, 8.0))

    def test_intersect(self):
        assert Interval(0.0, 5.0).intersect(Interval(3.0, 8.0)) == Interval(3.0, 5.0)

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0.0, 2.0).intersect(Interval(3.0, 8.0)).empty

    def test_clamp(self):
        assert Interval(0.0, 5.0).clamp(7.0) == 5.0
        assert Interval(0.0, 5.0).clamp(-1.0) == 0.0
        assert Interval(0.0, 5.0).clamp(2.5) == 2.5

    def test_clamp_empty_raises(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0).clamp(3.0)

    def test_shifted(self):
        assert Interval(1.0, 2.0).shifted(3.0) == Interval(4.0, 5.0)

    def test_merge_intervals(self):
        merged = merge_intervals([Interval(0, 2), Interval(1, 3), Interval(5, 6)])
        assert merged == [Interval(0, 3), Interval(5, 6)]

    def test_merge_drops_empty(self):
        assert merge_intervals([Interval(3, 1), Interval(0, 1)]) == [Interval(0, 1)]

    def test_merge_touching(self):
        assert merge_intervals([Interval(0, 2), Interval(2, 4)]) == [Interval(0, 4)]

    def test_subtract_intervals(self):
        free = subtract_intervals(Interval(0, 10), [Interval(2, 4), Interval(6, 7)])
        assert free == [Interval(0, 2), Interval(4, 6), Interval(7, 10)]

    def test_subtract_hole_covering_all(self):
        assert subtract_intervals(Interval(0, 10), [Interval(-1, 11)]) == []

    def test_subtract_no_holes(self):
        assert subtract_intervals(Interval(0, 10), []) == [Interval(0, 10)]

    def test_intersect_many(self):
        assert intersect_many([Interval(0, 5), Interval(2, 8), Interval(1, 4)]) == Interval(2, 4)

    def test_intersect_many_empty(self):
        assert intersect_many([Interval(0, 1), Interval(2, 3)]) is None
        assert intersect_many([]) is None

    def test_intersect_interval_lists(self):
        a = [Interval(0, 3), Interval(5, 9)]
        b = [Interval(2, 6), Interval(8, 12)]
        assert intersect_interval_lists(a, b) == [Interval(2, 3), Interval(5, 6), Interval(8, 9)]

    def test_intersect_interval_lists_empty(self):
        assert intersect_interval_lists([], [Interval(0, 1)]) == []

    def test_gaps_between(self):
        gaps = gaps_between([(2.0, 4.0), (6.0, 8.0)], Interval(0.0, 10.0))
        assert gaps == [Interval(0, 2), Interval(4, 6), Interval(8, 10)]

    def test_gaps_between_full(self):
        assert gaps_between([(0.0, 10.0)], Interval(0.0, 10.0)) == []

    def test_longest_interval(self):
        assert longest_interval([Interval(0, 1), Interval(3, 9), Interval(10, 12)]) == Interval(3, 9)
        assert longest_interval([]) is None

    def test_total_length(self):
        assert total_length([Interval(0, 2), Interval(1, 3), Interval(5, 6)]) == 4.0

    @given(
        st.lists(
            st.tuples(st.floats(-50, 50), st.floats(0.1, 20)).map(lambda t: Interval(t[0], t[0] + t[1])),
            max_size=12,
        )
    )
    def test_merge_produces_disjoint_sorted(self, intervals):
        merged = merge_intervals(intervals)
        for a, b in zip(merged, merged[1:]):
            assert a.hi < b.lo
        assert total_length(intervals) == pytest.approx(sum(iv.length for iv in merged))


# ----------------------------------------------------------------------
# Cell
# ----------------------------------------------------------------------
class TestCell:
    def test_basic_geometry(self):
        cell = Cell(index=0, width=4, height=2, gp_x=3.0, gp_y=1.0)
        assert cell.right == 7.0
        assert cell.top == 3.0
        assert cell.area == 8.0
        assert cell.row_span == (1, 3)
        assert list(cell.rows_covered()) == [1, 2]

    def test_initial_position_defaults_to_gp(self):
        cell = Cell(index=0, width=2, height=1, gp_x=5.0, gp_y=2.0)
        assert (cell.x, cell.y) == (5.0, 2.0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Cell(index=0, width=0, height=1, gp_x=0, gp_y=0)

    def test_invalid_height(self):
        with pytest.raises(ValueError):
            Cell(index=0, width=1, height=0, gp_x=0, gp_y=0)

    def test_default_name(self):
        assert Cell(index=7, width=1, height=1, gp_x=0, gp_y=0).name == "c7"

    def test_overlap(self):
        a = Cell(index=0, width=4, height=2, gp_x=0, gp_y=0)
        b = Cell(index=1, width=4, height=1, gp_x=3, gp_y=1)
        c = Cell(index=2, width=2, height=1, gp_x=4, gp_y=0)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_overlap_area(self):
        a = Cell(index=0, width=4, height=2, gp_x=0, gp_y=0)
        b = Cell(index=1, width=4, height=2, gp_x=2, gp_y=1)
        assert a.overlap_area(b) == pytest.approx(2.0)
        assert a.overlap_area(Cell(index=2, width=1, height=1, gp_x=10, gp_y=0)) == 0.0

    def test_displacement(self):
        cell = Cell(index=0, width=2, height=1, gp_x=3.0, gp_y=2.0)
        cell.move_to(6.0, 4.0)
        assert cell.displacement() == pytest.approx(5.0)

    def test_displacement_with_units(self):
        cell = Cell(index=0, width=2, height=1, gp_x=0.0, gp_y=0.0)
        cell.move_to(10.0, 1.0)
        assert cell.displacement(site_width=0.1, row_height=1.0) == pytest.approx(2.0)

    def test_move_fixed_raises(self):
        cell = Cell(index=0, width=2, height=1, gp_x=0, gp_y=0, fixed=True)
        with pytest.raises(ValueError):
            cell.move_to(1.0, 0.0)

    def test_copy_is_independent(self):
        cell = Cell(index=0, width=2, height=1, gp_x=0, gp_y=0)
        clone = cell.copy()
        clone.move_to(5.0, 0.0)
        assert cell.x == 0.0 and clone.x == 5.0


# ----------------------------------------------------------------------
# Rows and P/G alignment
# ----------------------------------------------------------------------
class TestRows:
    def test_default_rail_alternates(self):
        assert Row.default_rail(0) is PowerRail.VSS
        assert Row.default_rail(1) is PowerRail.VDD
        assert Row.default_rail(2) is PowerRail.VSS

    def test_rail_flip(self):
        assert PowerRail.VDD.flipped() is PowerRail.VSS

    def test_row_properties(self):
        row = Row(index=3, x_lo=0.0, x_hi=50.0, bottom_rail=PowerRail.VDD)
        assert row.y == 3.0
        assert row.num_sites == 50
        assert row.span == Interval(0.0, 50.0)

    def test_pg_odd_heights_anywhere(self):
        assert all(pg_compatible(1, r) for r in range(6))
        assert all(pg_compatible(3, r) for r in range(6))

    def test_pg_even_heights_even_rows_only(self):
        assert pg_compatible(2, 0)
        assert not pg_compatible(2, 1)
        assert pg_compatible(4, 2)
        assert not pg_compatible(4, 3)

    def test_legal_bottom_rows_single(self):
        assert list(legal_bottom_rows(1, 4)) == [0, 1, 2, 3]

    def test_legal_bottom_rows_even_height(self):
        assert list(legal_bottom_rows(2, 6)) == [0, 2, 4]

    def test_legal_bottom_rows_too_tall(self):
        assert list(legal_bottom_rows(5, 4)) == []

    def test_nearest_legal_row_simple(self):
        assert nearest_legal_row(2.4, 1, 8) == 2
        assert nearest_legal_row(2.6, 1, 8) == 3

    def test_nearest_legal_row_even_height(self):
        assert nearest_legal_row(3.0, 2, 8) in (2, 4)
        assert nearest_legal_row(3.0, 2, 8) % 2 == 0

    def test_nearest_legal_row_clamps(self):
        assert nearest_legal_row(100.0, 2, 8) == 6
        assert nearest_legal_row(-5.0, 1, 8) == 0

    def test_nearest_legal_row_unfittable(self):
        with pytest.raises(ValueError):
            nearest_legal_row(0.0, 9, 8)

    @given(st.integers(1, 5), st.integers(6, 40), st.floats(-10, 50))
    def test_nearest_legal_row_always_legal(self, height, num_rows, y):
        row = nearest_legal_row(y, height, num_rows)
        assert 0 <= row <= num_rows - height
        assert pg_compatible(height, row)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
class TestLayout:
    def test_dimensions(self, simple_layout):
        assert simple_layout.width == 40.0
        assert simple_layout.height == 6.0
        assert simple_layout.core_area == 240.0

    def test_add_cell_index_mismatch(self):
        layout = Layout(4, 10)
        with pytest.raises(ValueError):
            layout.add_cell(Cell(index=3, width=1, height=1, gp_x=0, gp_y=0))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Layout(0, 10)

    def test_cell_classification(self, simple_layout):
        assert len(simple_layout.movable_cells()) == 8
        assert simple_layout.fixed_cells() == []
        assert len(simple_layout.legalized_cells()) == 8
        assert simple_layout.unlegalized_cells() == []

    def test_density(self):
        layout = make_layout(4, 10, [(0, 0, 5, 2), (5, 2, 5, 2)])
        assert layout.density() == pytest.approx(20.0 / 40.0)

    def test_height_histogram(self, simple_layout):
        hist = simple_layout.height_histogram()
        assert hist[1] == 5
        assert hist[2] == 2
        assert hist[3] == 1

    def test_max_cell_height(self, simple_layout):
        assert simple_layout.max_cell_height() == 3

    def test_tall_cell_fraction(self):
        layout = make_layout(8, 20, [(0, 0, 2, 1), (4, 0, 2, 4), (8, 0, 2, 5), (12, 0, 2, 2)])
        assert layout.tall_cell_fraction(3) == pytest.approx(0.5)

    def test_obstacles_in_row_sorted(self, simple_layout):
        xs = [c.x for c in simple_layout.obstacles_in_row(0)]
        assert xs == sorted(xs)

    def test_multirow_cell_appears_in_every_row(self, simple_layout):
        # Cell at (8, 2) is 3 rows tall: must appear in rows 2, 3 and 4.
        for row in (2, 3, 4):
            assert any(c.x == 8.0 for c in simple_layout.obstacles_in_row(row))
        assert not any(c.x == 8.0 for c in simple_layout.obstacles_in_row(1))

    def test_obstacles_in_row_window(self, simple_layout):
        cells = simple_layout.obstacles_in_row_window(0, 0.0, 12.0)
        assert [c.x for c in cells] == [2.0, 10.0]
        # A wide cell starting far left of the window still reaches it.
        layout = make_layout(1, 60, [(0.0, 0.0, 25.0, 1), (30.0, 0.0, 2.0, 1)])
        got = layout.obstacles_in_row_window(0, 20.0, 40.0)
        assert [c.index for c in got] == [0, 1]
        assert layout.obstacles_in_row_window(0, 25.0, 30.0) == []
        assert [c.index for c in layout.obstacles_in_row_window(0, 5.0, 5.0)] == [0]

    def test_mark_legalized_adds_to_index(self):
        layout = make_layout(4, 20, [])
        target = Cell(index=0, width=3, height=2, gp_x=5.0, gp_y=1.0)
        layout.add_cell(target)
        assert layout.obstacles_in_row(0) == []
        layout.mark_legalized(target, 6.0, 0.0)
        assert target.legalized and target.x == 6.0
        assert layout.obstacles_in_row(0) == [target]
        assert layout.obstacles_in_row(1) == [target]

    def test_move_obstacle_updates_index(self, simple_layout):
        cell = simple_layout.obstacles_in_row(0)[0]
        simple_layout.move_obstacle(cell, 0.0)
        assert simple_layout.obstacles_in_row(0)[0] is cell
        assert cell.x == 0.0

    def test_move_obstacle_requires_obstacle(self):
        layout = make_layout(4, 20, [])
        floating = Cell(index=0, width=2, height=1, gp_x=0, gp_y=0)
        layout.add_cell(floating)
        with pytest.raises(ValueError):
            layout.move_obstacle(floating, 5.0)

    def test_iter_obstacle_pairs_no_overlap(self, simple_layout):
        for left, right in simple_layout.iter_obstacle_pairs():
            assert left.right <= right.x + 1e-9

    def test_copy_independent(self, simple_layout):
        clone = simple_layout.copy()
        clone.cells[0].x = 99.0
        assert simple_layout.cells[0].x != 99.0

    def test_reset_positions(self, simple_layout):
        cell = simple_layout.cells[0]
        simple_layout.move_obstacle(cell, 30.0)
        simple_layout.reset_positions()
        assert cell.x == cell.gp_x
        assert not cell.legalized

    def test_summary_mentions_name(self, simple_layout):
        assert "test" in simple_layout.summary()


# ----------------------------------------------------------------------
# Window / LocalRegion dataclasses
# ----------------------------------------------------------------------
class TestWindowAndRegion:
    def test_window_geometry(self):
        window = Window(2.0, 12.0, 1, 5)
        assert window.width == 10.0
        assert window.num_rows == 4
        assert window.area == 40.0
        assert list(window.rows()) == [1, 2, 3, 4]

    def test_window_expand_clips(self):
        window = Window(2.0, 12.0, 1, 5)
        grown = window.expanded(100.0, 100, layout_width=40.0, layout_rows=6)
        assert grown == Window(0.0, 40.0, 0, 6)

    def test_window_contains_rect(self):
        window = Window(0.0, 10.0, 0, 4)
        assert window.contains_rect(1.0, 1.0, 3.0, 2.0)
        assert not window.contains_rect(8.0, 1.0, 3.0, 2.0)
        assert not window.contains_rect(1.0, 3.0, 3.0, 2.0)

    def test_region_construction(self, simple_layout):
        target = Cell(index=100, width=3, height=1, gp_x=15.0, gp_y=0.0)
        region = LocalRegion(window=Window(0, 40, 0, 6), target=target)
        region.add_segment(LocalSegment(row=0, interval=Interval(0, 40)))
        region.add_segment(LocalSegment(row=1, interval=Interval(0, 40)))
        cell = simple_layout.cells[1]  # 2-row cell at x=10
        local = region.add_local_cell(cell)
        region.finalize()
        assert local.rows == (0, 1)
        assert region.total_subcells() == 2
        assert region.cell_indices_in_row(0) == [local.local_index]

    def test_region_sorted_by_x(self, simple_layout):
        target = Cell(index=100, width=3, height=1, gp_x=15.0, gp_y=0.0)
        region = LocalRegion(window=Window(0, 40, 0, 1), target=target)
        region.add_segment(LocalSegment(row=0, interval=Interval(0, 40)))
        for cell in simple_layout.obstacles_in_row(0):
            region.add_local_cell(cell)
        region.finalize()
        xs = [lc.x for lc in region.sorted_by_x()]
        assert xs == sorted(xs)
        xs_desc = [lc.x for lc in region.sorted_by_x(descending=True)]
        assert xs_desc == sorted(xs, reverse=True)

    def test_window_overlaps(self):
        a = Window(0, 10, 0, 4)
        b = Window(8, 20, 2, 6)
        c = Window(12, 20, 0, 4)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)
        # Windows that share only an edge (a column or a row boundary)
        # leave no common area, so they do not overlap.
        assert not a.overlaps(Window(10, 20, 0, 4))
        assert not a.overlaps(Window(0, 10, 4, 8))
        assert not a.overlaps(Window(10, 20, 4, 8))


# ----------------------------------------------------------------------
# Free-space summary consistency under arbitrary mutation sequences
# ----------------------------------------------------------------------
class TestSummaryInvalidation:
    """The lazily cached per-row free-space summary must always agree
    with a from-scratch rebuild, no matter which incremental mutation
    hooks ran in which order — in particular, mutations that change a
    cell's row span (relocate/resize) must invalidate the *union* of the
    old and new spans, not just one of them."""

    ROWS, SITES = 6, 40

    @staticmethod
    def all_summaries(layout):
        return [layout._row_summary(r) for r in range(layout.num_rows)]

    def assert_summary_matches_rebuild(self, layout):
        cached = self.all_summaries(layout)
        rebuilt = layout.copy()  # copy() re-derives index + summary from cells
        assert cached == self.all_summaries(rebuilt)
        for row in range(layout.num_rows):
            assert layout._row_index[row] == rebuilt._row_index[row], f"row {row}"

    def build(self, specs):
        layout = Layout(self.ROWS, self.SITES)
        for i, (x, y, w, h, fixed) in enumerate(specs):
            layout.add_cell(Cell(
                index=i, width=w, height=h, gp_x=x, gp_y=y, x=x, y=y,
                fixed=fixed, legalized=not fixed,
            ))
        return layout

    @given(
        data=st.data(),
        n_cells=st.integers(2, 6),
        n_ops=st.integers(1, 12),
    )
    def test_summary_matches_rebuild_after_mutations(self, data, n_cells, n_ops):
        specs = [
            (
                float(data.draw(st.integers(0, self.SITES - 6))),
                float(data.draw(st.integers(0, self.ROWS - 3))),
                float(data.draw(st.sampled_from([1.0, 2.0, 4.0]))),
                data.draw(st.sampled_from([1, 1, 2, 3])),
                data.draw(st.booleans()),
            )
            for _ in range(n_cells)
        ]
        layout = self.build(specs)
        # Warm every row's summary cache so stale entries would survive a
        # missing invalidation.
        self.all_summaries(layout)
        for _ in range(n_ops):
            cell = layout.cells[data.draw(st.integers(0, n_cells - 1))]
            op = data.draw(st.sampled_from(
                ["resize", "relocate", "unlegalize", "toggle_fixed",
                 "retire", "mark", "move_obstacle"]
            ))
            if layout.is_retired(cell):
                continue
            x = float(data.draw(st.integers(0, self.SITES - 8)))
            y = float(data.draw(st.integers(0, self.ROWS - 3)))
            try:
                if op == "resize":
                    layout.resize_cell(
                        cell,
                        width=float(data.draw(st.sampled_from([1.0, 3.0, 6.0]))),
                        height=data.draw(st.sampled_from([1, 2, 3])),
                    )
                elif op == "relocate" and cell.fixed:
                    layout.relocate_fixed(cell, x, y)
                elif op == "unlegalize" and not cell.fixed:
                    layout.unlegalize_cell(cell)
                elif op == "toggle_fixed":
                    layout.set_cell_fixed(cell, not cell.fixed)
                elif op == "retire":
                    layout.retire_cell(cell)
                elif op == "mark" and not cell.fixed:
                    layout.mark_legalized(cell, x, y)
                elif op == "move_obstacle" and cell.legalized and not cell.fixed:
                    layout.move_obstacle(cell, x)
            except ValueError:
                continue  # rejected mutations must leave state consistent
            # Mix of warm and cold cache entries between mutations.
            self.all_summaries(layout)
            self.assert_summary_matches_rebuild(layout)

    def test_relocate_invalidates_union_of_old_and_new_spans(self):
        layout = self.build([(2.0, 0.0, 4.0, 2, True)])
        # Warm rows 0..5.
        warm = [layout.row_free_capacity(r, 0.0, self.SITES) for r in range(self.ROWS)]
        assert warm[0] == self.SITES - 4.0 and warm[4] == self.SITES
        layout.relocate_fixed(layout.cells[0], 10.0, 4.0)
        # Old rows (0,1) freed, new rows (4,5) occupied — both must see it.
        fresh = [layout.row_free_capacity(r, 0.0, self.SITES) for r in range(self.ROWS)]
        assert fresh[0] == self.SITES and fresh[1] == self.SITES
        assert fresh[4] == self.SITES - 4.0 and fresh[5] == self.SITES - 4.0

    def test_fragmentation_metric(self):
        layout = Layout(1, 20)
        assert layout.free_space_fragmentation(min_gap=4.0) == 0.0  # one big gap
        # Obstacles at 4..6 and 10..12: gaps of 4, 4 and 8 sites.
        for i, x in enumerate((4.0, 10.0)):
            layout.add_cell(Cell(index=i, width=2.0, height=1, gp_x=x, gp_y=0,
                                 x=x, y=0, fixed=True))
        assert layout.free_space_fragmentation(min_gap=4.0) == 0.0
        frag = layout.free_space_fragmentation(min_gap=5.0)
        assert frag == pytest.approx(8.0 / 16.0)  # the two 4-wide gaps trapped
        assert layout.free_space_fragmentation(min_gap=100.0) == 1.0


# ----------------------------------------------------------------------
# Bounded row query against its linear definition
# ----------------------------------------------------------------------
class TestBoundedRowQuery:
    """:meth:`Layout.obstacles_in_row_window` reads only a bounded strip
    of the row index.  It must return exactly the cells the linear
    definition does, in index order, on any layout the mutators can
    produce, including malformed ones with overlapping obstacles."""

    ROWS, SITES = 4, 30

    coord = st.one_of(
        st.integers(0, 30).map(float),
        st.floats(0.0, 30.0, allow_nan=False),
        st.integers(0, 120).map(lambda q: q / 4.0),
    )
    width = st.one_of(
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
        st.floats(0.1, 8.0, allow_nan=False),
        st.floats(20.0, 30.0, allow_nan=False),  # macros wider than windows
    )

    @staticmethod
    def linear(layout, row, x_lo, x_hi):
        return [
            cell
            for cell in layout.obstacles_in_row(row)
            if cell.x < x_hi and cell.right > x_lo
        ]

    def assert_keys_track_positions(self, layout):
        for row in range(layout.num_rows):
            for key, idx in layout._row_index[row]:
                assert key == layout.cells[idx].x, f"row {row}, cell {idx}"

    def assert_queries_match(self, layout, data):
        for _ in range(4):
            row = data.draw(st.integers(0, self.ROWS - 1))
            x_lo = data.draw(st.one_of(self.coord, st.floats(-10.0, 0.0)))
            x_hi = data.draw(st.one_of(
                st.just(x_lo), self.coord, st.floats(30.0, 45.0)
            ))
            got = layout.obstacles_in_row_window(row, x_lo, x_hi)
            assert got == self.linear(layout, row, x_lo, x_hi), (row, x_lo, x_hi)

    @given(data=st.data(), n_cells=st.integers(0, 10), n_ops=st.integers(0, 10))
    def test_query_matches_linear_filter_under_mutations(self, data, n_cells, n_ops):
        layout = Layout(self.ROWS, self.SITES)
        for i in range(n_cells):
            fixed = data.draw(st.booleans())
            w = 0.0 if fixed and data.draw(st.integers(0, 5)) == 0 else data.draw(self.width)
            x = data.draw(self.coord)
            y = float(data.draw(st.integers(0, self.ROWS - 1)))
            h = data.draw(st.integers(1, self.ROWS - int(y)))
            layout.add_cell(Cell(
                index=i, width=w, height=h, gp_x=x, gp_y=y, x=x, y=y,
                fixed=fixed, legalized=not fixed and data.draw(st.booleans()),
            ))
        self.assert_keys_track_positions(layout)
        self.assert_queries_match(layout, data)
        for _ in range(n_ops if n_cells else 0):
            cell = layout.cells[data.draw(st.integers(0, n_cells - 1))]
            op = data.draw(st.sampled_from([
                "move_obstacle", "resize", "relocate", "retire",
                "toggle_fixed", "unlegalize", "mark",
            ]))
            x = data.draw(self.coord)
            try:
                if op == "move_obstacle" and cell.legalized:
                    layout.move_obstacle(cell, x)
                elif op == "resize":
                    layout.resize_cell(cell, width=data.draw(self.width))
                elif op == "relocate" and cell.fixed:
                    y = data.draw(st.integers(0, self.ROWS - cell.height))
                    layout.relocate_fixed(cell, x, float(y))
                elif op == "retire":
                    layout.retire_cell(cell)
                elif op == "toggle_fixed":
                    layout.set_cell_fixed(cell, not cell.fixed)
                elif op == "unlegalize" and not cell.fixed:
                    layout.unlegalize_cell(cell)
                elif op == "mark" and not cell.fixed:
                    y = data.draw(st.integers(0, self.ROWS - cell.height))
                    layout.mark_legalized(cell, x, float(y))
            except ValueError:
                pass  # a rejected mutation must leave the index intact
            self.assert_keys_track_positions(layout)
            self.assert_queries_match(layout, data)
