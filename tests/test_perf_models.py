"""Tests for the performance models (repro.perf)."""

from __future__ import annotations

import math

import pytest

from repro.perf import (
    CoExecutionTimeline,
    CpuCostModel,
    CpuCostParameters,
    CpuGpuModel,
    GpuModelParameters,
    InsertionPointWork,
    LegalizationTrace,
    MultiThreadModel,
    PointColumns,
    SpeedupReport,
    TargetCellWork,
    TimelineEntry,
    format_table,
)
from repro.perf.report import geometric_mean
from repro.perf.thread_model import interpolate_speedup


def make_trace(n_targets: int = 10, ips_per_target: int = 5, **ip_kwargs) -> LegalizationTrace:
    """Build a synthetic trace with uniform insertion-point work."""
    trace = LegalizationTrace(design_name="synthetic", num_cells=n_targets, num_movable=n_targets)
    trace.premove_cells = n_targets
    trace.ordering_ops = n_targets * 4
    defaults = dict(
        n_local_cells=20,
        n_subcells=26,
        shift_passes=4,
        shift_cell_visits=104,
        chain_left=3,
        chain_right=2,
        n_breakpoints=12,
        n_merged_breakpoints=10,
        multirow_accesses=12,
        tall_accesses=2,
    )
    defaults.update(ip_kwargs)
    for t in range(n_targets):
        work = TargetCellWork(cell_index=t, height=1, width=3.0)
        work.n_local_cells = defaults["n_local_cells"]
        work.region_transfer_words = 120
        work.update_moved_cells = 2
        work.points = PointColumns.of(
            InsertionPointWork(**defaults) for _ in range(ips_per_target)
        )
        trace.add_target(work)
        trace.update_ops += 3
    return trace


class TestCounters:
    def test_aggregates(self):
        trace = make_trace(4, 3)
        assert trace.total_insertion_points == 12
        assert trace.total_shift_visits == 12 * 104
        assert trace.total_breakpoints == 12 * 12
        assert trace.total_transfer_words == 4 * 120
        assert trace.total_update_moves == 8

    def test_fop_stage_workload_keys(self):
        work = make_trace(2, 2).fop_stage_workload()
        assert set(work) == {
            "cell_shift", "sort_bp", "merge_bp", "sum_slopesR", "sum_slopesL", "calculate_value",
        }

    def test_cell_shift_fraction_dominates(self):
        trace = make_trace(3, 4)
        assert trace.cell_shift_fraction() > 0.5

    def test_empty_trace(self):
        trace = LegalizationTrace()
        assert trace.total_insertion_points == 0
        assert trace.cell_shift_fraction() == 0.0
        assert "0 targets" in trace.summary()


class TestCpuCostModel:
    def test_total_positive_and_additive(self):
        model = CpuCostModel()
        small = model.total_seconds(make_trace(5, 5))
        large = model.total_seconds(make_trace(10, 5))
        assert 0 < small < large
        assert large == pytest.approx(2 * small, rel=0.05)

    def test_breakdown_sums_to_total(self):
        model = CpuCostModel()
        trace = make_trace(6, 4)
        breakdown = model.breakdown(trace)
        assert breakdown.total == pytest.approx(
            breakdown.premove + breakdown.ordering + breakdown.region + breakdown.fop + breakdown.update
        )
        assert breakdown.fop > breakdown.premove
        assert set(breakdown.fop_stages) == set(trace.fop_stage_workload())

    def test_shift_dominates_fop(self):
        stages = CpuCostModel().fop_stage_seconds(make_trace(4, 4))
        assert stages["cell_shift"] / sum(stages.values()) > 0.6

    def test_custom_parameters(self):
        cheap = CpuCostModel(CpuCostParameters(shift_per_visit_ns=1.0))
        default = CpuCostModel()
        trace = make_trace(4, 4)
        assert cheap.total_seconds(trace) < default.total_seconds(trace)

    def test_per_target_host_times(self):
        model = CpuCostModel()
        trace = make_trace(3, 3)
        per_target = model.per_target_host_times(trace)
        assert set(per_target) == {0, 1, 2}
        for entry in per_target.values():
            assert entry["fop"] > 0 and entry["region"] > 0 and entry["update"] > 0

    def test_as_dict(self):
        d = CpuCostModel().breakdown(make_trace(2, 2)).as_dict()
        assert "total" in d and "fop.cell_shift" in d


class TestThreadModel:
    def test_published_points(self):
        assert interpolate_speedup(1) == 1.0
        assert interpolate_speedup(2) == 1.25
        assert interpolate_speedup(8) == 1.8

    def test_interpolation_between_points(self):
        assert 1.25 < interpolate_speedup(3) < 1.55

    def test_saturation(self):
        assert interpolate_speedup(64) == pytest.approx(1.83)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            interpolate_speedup(0)

    def test_runtime_scales(self):
        trace = make_trace(5, 5)
        model = MultiThreadModel()
        t1 = model.runtime_seconds(trace, threads=1)
        t8 = model.runtime_seconds(trace, threads=8)
        assert t8 == pytest.approx(t1 / 1.8)

    def test_scaling_curve_monotone(self):
        curve = MultiThreadModel().scaling_curve(make_trace(5, 5))
        times = [curve[t] for t in sorted(curve)]
        assert all(a >= b for a, b in zip(times, times[1:]))


class TestCpuGpuModel:
    def test_tough_split(self):
        trace = make_trace(10, 3)
        for i, target in enumerate(trace.targets):
            target.height = 3 if i < 3 else 1
        tough, easy = CpuGpuModel().split_targets(trace)
        assert len(tough) == 3 and len(easy) == 7

    def test_breakdown_components(self):
        trace = make_trace(12, 4)
        for i, target in enumerate(trace.targets):
            target.height = 2 if i % 4 == 0 else 1
        breakdown = CpuGpuModel().breakdown(trace)
        assert breakdown.total > 0
        assert breakdown.n_tough_cells + breakdown.n_easy_cells == 12
        assert breakdown.total >= breakdown.serial_host

    def test_slower_than_flex_style_times(self):
        # The CPU-GPU model must not be faster than an ideal zero-overhead
        # GPU: it includes synchronisation and the tough-cell serial path.
        trace = make_trace(20, 4)
        for i, target in enumerate(trace.targets):
            target.height = 4 if i % 3 == 0 else 1
        model = CpuGpuModel()
        breakdown = model.breakdown(trace)
        assert breakdown.cpu_tough > 0
        assert breakdown.gpu_sync > 0

    def test_parallelism_capped(self):
        params = GpuModelParameters(max_parallel_regions=8)
        model = CpuGpuModel(params)
        assert model.achievable_parallelism(make_trace(50, 2)) == 8

    def test_more_tall_cells_slower(self):
        trace_flat = make_trace(20, 4)
        trace_tall = make_trace(20, 4)
        for i, target in enumerate(trace_tall.targets):
            target.height = 3 if i % 2 == 0 else 1
        model = CpuGpuModel()
        assert model.runtime_seconds(trace_tall) > model.runtime_seconds(trace_flat)


class TestTimeline:
    def _entries(self, n=5, fpga=10e-6, prep=2e-6, post=1e-6, xfer=1e-6):
        return [
            TimelineEntry(
                cell_index=i,
                cpu_prep=prep,
                transfer_in=xfer,
                fpga_compute=fpga,
                transfer_out=xfer / 4,
                cpu_post=post,
            )
            for i in range(n)
        ]

    def test_overlap_hides_host_work(self):
        timeline = CoExecutionTimeline()
        entries = self._entries(n=20)
        result = timeline.run(entries)
        serial = timeline.run_serialized(entries)
        assert result.total < serial.total
        # FPGA-bound: the total is close to the FPGA busy time.
        assert result.total == pytest.approx(result.fpga_busy, rel=0.2)

    def test_first_transfer_visible(self):
        timeline = CoExecutionTimeline()
        result = timeline.run(self._entries(n=10, xfer=5e-6))
        assert result.visible_transfer == pytest.approx(5e-6, rel=0.01)

    def test_serialized_when_prep_depends_on_results(self):
        entries = self._entries(n=10)
        overlapped = CoExecutionTimeline().run(entries)
        serialized = CoExecutionTimeline(prep_depends_on_results=True).run(entries)
        assert serialized.total > overlapped.total

    def test_serial_front_added(self):
        result = CoExecutionTimeline(serial_front_seconds=1.0).run(self._entries(n=1))
        assert result.total > 1.0

    def test_empty_entries(self):
        result = CoExecutionTimeline(serial_front_seconds=0.5).run([])
        assert result.total == 0.5
        assert result.fpga_busy == 0.0

    def test_utilisation_bounds(self):
        result = CoExecutionTimeline().run(self._entries(n=8))
        assert 0.0 < result.fpga_utilisation <= 1.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yyyy", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.500" in text

    def test_speedup_report(self):
        report = SpeedupReport(design="d", ours_label="flex")
        report.add("flex", 1.0, quality=0.70)
        report.add("cpu", 3.0, quality=0.71)
        assert report.speedup_over("cpu") == pytest.approx(3.0)
        row = report.row(["cpu"])
        assert row[0] == "d" and row[-1] == pytest.approx(3.0)

    def test_speedup_report_missing_label(self):
        report = SpeedupReport(design="d")
        report.add("flex", 1.0)
        assert math.isnan(report.speedup_over("unknown"))

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert math.isnan(geometric_mean([]))
        assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)
