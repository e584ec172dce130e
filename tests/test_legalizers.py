"""End-to-end tests of the MGL and FLEX legalizers and the orderings."""

from __future__ import annotations

import pytest

from repro.core import FlexConfig, FlexLegalizer, SlidingWindowOrdering
from repro.core.ordering import DensityGrid
from repro.core.pipeline import PipelineOrganization
from repro.core.sacs import SortAheadShifter
from repro.legality import LegalityChecker
from repro.mgl import MGLLegalizer, initial_window, local_region
from repro.mgl.fop import FOPConfig
from repro.mgl.legalizer import size_descending_order

from repro.baselines import region_batch_order
from repro.geometry import Cell, Window
from repro.mgl.premove import premove
from repro.testing import add_target, make_layout, small_design


class TestMGLLegalizer:
    def test_legalizes_small_design(self, tiny_design):
        result = MGLLegalizer().legalize(tiny_design)
        assert result.success
        report = LegalityChecker().check(tiny_design)
        assert report.legal, report.summary()

    def test_legalizes_dense_design(self, dense_design):
        result = MGLLegalizer().legalize(dense_design)
        report = LegalityChecker().check(dense_design)
        assert report.legal, report.summary()
        assert result.success

    def test_displacement_reasonable(self, tiny_design):
        result = MGLLegalizer().legalize(tiny_design)
        # The perturbation is ~1 row + a few sites, so the average
        # displacement must land in the same ballpark, not explode.
        assert 0.0 < result.average_displacement < 5.0

    def test_trace_records_every_target(self, tiny_design):
        result = MGLLegalizer().legalize(tiny_design)
        movable = len(tiny_design.movable_cells())
        assert len(result.trace.targets) == movable
        assert result.trace.premove_cells == movable
        assert result.trace.total_insertion_points > movable
        assert result.trace.shift_algorithm == "original"

    def test_multirow_cells_pg_aligned(self, tiny_design):
        MGLLegalizer().legalize(tiny_design)
        for cell in tiny_design.movable_cells():
            if cell.height % 2 == 0:
                assert int(round(cell.y)) % 2 == 0

    def test_sacs_configuration_gives_same_quality_class(self):
        layout_a = small_design(seed=21)
        layout_b = small_design(seed=21)
        res_orig = MGLLegalizer().legalize(layout_a)
        res_sacs = MGLLegalizer(FOPConfig(shifter=SortAheadShifter())).legalize(layout_b)
        assert LegalityChecker().check(layout_b).legal
        # Same ordering + equivalent shifting => identical placements.
        assert res_sacs.average_displacement == pytest.approx(
            res_orig.average_displacement, rel=1e-9
        )
        # But strictly less shifting work is recorded.
        assert res_sacs.trace.total_shift_visits < res_orig.trace.total_shift_visits

    def test_size_descending_order(self, tiny_design):
        cells = tiny_design.movable_cells()
        ordered = size_descending_order(tiny_design, cells)
        areas = [c.area for c in ordered]
        assert areas == sorted(areas, reverse=True)

    def test_result_reports_wall_time(self, tiny_design):
        result = MGLLegalizer().legalize(tiny_design)
        assert result.wall_seconds > 0.0


class TestSlidingWindowOrdering:
    def test_returns_all_cells_once(self, tiny_design):
        ordering = SlidingWindowOrdering(window_size=6)
        cells = tiny_design.movable_cells()
        ordered = ordering(tiny_design, cells)
        assert sorted(c.index for c in ordered) == sorted(c.index for c in cells)

    def test_first_cell_is_largest(self, tiny_design):
        ordering = SlidingWindowOrdering(window_size=6)
        ordered = ordering(tiny_design, tiny_design.movable_cells())
        max_area = max(c.area for c in tiny_design.movable_cells())
        assert ordered[0].area == max_area

    def test_differs_from_pure_size_order(self):
        layout = small_design(num_cells=120, density=0.7, seed=33)
        cells = layout.movable_cells()
        by_size = [c.index for c in size_descending_order(layout, cells)]
        by_window = [c.index for c in SlidingWindowOrdering(window_size=8)(layout, cells)]
        assert by_size != by_window

    def test_records_ops_and_stats(self, tiny_design):
        ordering = SlidingWindowOrdering(window_size=6)
        ordering(tiny_design, tiny_design.movable_cells())
        assert ordering.last_op_count > 0
        assert ordering.stats.window_slides == len(tiny_design.movable_cells())

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowOrdering(window_size=1)

    def test_empty_input(self, tiny_design):
        assert SlidingWindowOrdering()(tiny_design, []) == []

    def test_density_grid_matches_layout_density(self, dense_design):
        grid = DensityGrid(dense_design)
        estimate = grid.window_density(Window(0, dense_design.width, 0, dense_design.num_rows))
        assert estimate == pytest.approx(dense_design.density(), rel=0.3)


class TestSharedInitialWindow:
    """The ordering and the CPU-GPU baseline size windows with ``initial_window``."""

    @pytest.fixture
    def whole_chip_windows(self, monkeypatch):
        layout = small_design(120, 0.7, seed=33)
        premove(layout)
        # Every target's initial window now covers the whole chip.
        monkeypatch.setattr(local_region, "WINDOW_WIDTH_FACTOR", 2.0 * layout.width)
        monkeypatch.setattr(local_region, "EXTRA_ROWS", layout.num_rows)
        return layout

    def test_batch_order_follows_window_constants(self, whole_chip_windows):
        # All windows overlap, so every batch holds one cell and the
        # batches come out in plain size order.
        layout = whole_chip_windows
        cells = layout.movable_cells()
        batched = [c.index for c in region_batch_order(layout, cells)]
        assert batched == [c.index for c in size_descending_order(layout, cells)]

    def test_density_windows_follow_window_constants(self, whole_chip_windows):
        layout = whole_chip_windows
        chip = DensityGrid(layout).window_density(Window(0.0, layout.width, 0, layout.num_rows))
        densities = SlidingWindowOrdering()._densities(layout, layout.movable_cells())
        assert set(densities.values()) == {chip}


class TestFlexLegalizer:
    def test_end_to_end(self, tiny_design):
        result = FlexLegalizer().legalize(tiny_design)
        assert LegalityChecker().check(tiny_design).legal
        assert result.legalization.success
        assert result.modeled_runtime_seconds > 0.0
        assert result.fpga.total_cycles > 0.0
        assert result.trace.shift_algorithm == "sacs"

    def test_quality_not_worse_than_mgl(self):
        layout_a = small_design(num_cells=150, density=0.72, seed=41)
        layout_b = small_design(num_cells=150, density=0.72, seed=41)
        mgl = MGLLegalizer().legalize(layout_a)
        flex = FlexLegalizer().legalize(layout_b)
        # The sliding-window ordering should not degrade quality by more
        # than a few percent (the paper reports a ~1% improvement).
        assert flex.average_displacement <= mgl.average_displacement * 1.05

    def test_faster_than_cpu_baseline(self, tiny_design):
        from repro.perf import MultiThreadModel

        flex = FlexLegalizer().legalize(tiny_design)
        cpu_8t = MultiThreadModel(threads=8).runtime_seconds(flex.trace)
        assert flex.modeled_runtime_seconds < cpu_8t

    def test_visible_transfer_is_small(self, tiny_design):
        result = FlexLegalizer().legalize(tiny_design)
        # Ping-pong preloading hides all but (roughly) the first transfer.
        assert result.timeline.visible_transfer < 0.1 * result.modeled_runtime_seconds + 1e-4

    def test_invalid_configuration_rejected(self):
        config = FlexConfig(use_sacs=False, pipeline=PipelineOrganization.MULTI_GRANULARITY)
        with pytest.raises(ValueError):
            FlexLegalizer(config)

    def test_normal_pipeline_configuration_runs(self, tiny_design):
        from repro.core.config import NORMAL_PIPELINE_CONFIG

        result = FlexLegalizer(NORMAL_PIPELINE_CONFIG).legalize(tiny_design)
        assert LegalityChecker().check(tiny_design).legal
        assert result.trace.shift_algorithm == "original"

    def test_model_run_reuses_existing_legalization(self, tiny_design):
        flex = FlexLegalizer()
        first = flex.legalize(tiny_design)
        again = FlexLegalizer(FlexConfig(fop_pe_parallelism=1)).model_run(first.legalization)
        # One PE must not be faster than two PEs on the same trace.
        assert again.fpga.total_cycles >= first.fpga.total_cycles

    def test_resources_attached(self, tiny_design):
        result = FlexLegalizer().legalize(tiny_design)
        assert result.resources.totals.luts > 0
        assert result.resources.fits()

    def test_summary_text(self, tiny_design):
        result = FlexLegalizer().legalize(tiny_design)
        text = result.summary()
        assert "AveDis" in text and "ms" in text


# ----------------------------------------------------------------------
# Why a target fell back or failed
# ----------------------------------------------------------------------
class TestFailReason:
    """``TargetCellWork.fail_reason``, pinned on hand-built layouts with a
    single window attempt (no retries, no planner growth)."""

    @pytest.fixture(autouse=True)
    def _single_attempt(self, monkeypatch):
        monkeypatch.setattr("repro.mgl.legalizer.MAX_RETRIES", 0)
        monkeypatch.setattr(
            "repro.mgl.legalizer.plan_initial_window",
            lambda layout, target: (initial_window(layout, target), 0),
        )

    @staticmethod
    def _work(layout, target):
        result = MGLLegalizer().legalize(layout)
        (work,) = [w for w in result.trace.targets if w.cell_index == target.index]
        return result, work

    @staticmethod
    def _fixed(layout, x, width, row=0, height=1):
        layout.add_cell(Cell(
            index=len(layout.cells), width=width, height=height, gp_x=x, gp_y=float(row),
            x=x, y=float(row), fixed=True,
        ))

    def test_placed_in_its_window_has_no_reason(self):
        layout = make_layout(1, 60, [(10.0, 0.0, 4.0, 1)])
        target = add_target(layout, 30.0, 0.0, 3.0, 1)
        result, work = self._work(layout, target)
        assert result.success and not work.fallback_used and work.fail_reason is None

    def test_no_candidate_row(self):
        # The window lies inside a macro; the only free space is far away.
        layout = make_layout(1, 200, [])
        self._fixed(layout, 0.0, 100.0)
        target = add_target(layout, 50.0, 0.0, 3.0, 1)
        result, work = self._work(layout, target)
        assert result.success and work.fallback_used
        assert work.fail_reason == "no_candidate_row"

    def test_no_feasible_point(self):
        # The window's segment is wide enough for the target but already
        # holds 15 of its 20 sites: no split passes the capacity filter.
        layout = make_layout(1, 200, [(40.0, 0.0, 5.0, 1), (47.0, 0.0, 5.0, 1), (54.0, 0.0, 5.0, 1)])
        self._fixed(layout, 0.0, 40.0)
        self._fixed(layout, 60.0, 90.0)
        target = add_target(layout, 50.0, 0.0, 6.0, 1)
        result, work = self._work(layout, target)
        assert result.success and work.fallback_used and work.n_insertion_points == 0
        assert work.fail_reason == "no_feasible_point"

    def test_commit_rejected(self):
        # Two localCells already overlap, so the commit check refuses any
        # winner that leaves them in place.
        layout = make_layout(1, 100, [(30.0, 0.0, 4.0, 1), (32.0, 0.0, 4.0, 1)])
        target = add_target(layout, 25.0, 0.0, 2.0, 1)
        result, work = self._work(layout, target)
        assert result.success and work.fallback_used
        assert work.fail_reason == "commit_rejected"

    def test_no_free_slot(self):
        layout = make_layout(1, 20, [])
        self._fixed(layout, 0.0, 20.0)
        target = add_target(layout, 5.0, 0.0, 3.0, 1)
        result, work = self._work(layout, target)
        assert not result.success and target.index in result.failed_cells
        assert work.fail_reason == "no_free_slot"
