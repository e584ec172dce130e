"""Tests for the FPGA behavioral models (repro.fpga)."""

from __future__ import annotations

import pytest

from repro.core import FlexLegalizer
from repro.core.config import FlexConfig, NORMAL_PIPELINE_CONFIG
from repro.core.pipeline import PipelineOrganization
from repro.fpga import (
    ALVEO_U50,
    BramBank,
    ClockDomain,
    FpgaPipelineModel,
    HostLink,
    InsertionSorter,
    MergeSorter,
    OddEvenRam,
    PingPongRam,
    ResourceEstimator,
    SacsCycleModel,
    SacsPreSorter,
    StreamingBreakpointSorter,
)
from repro.fpga.clock import pe_clock
from repro.fpga.pe import FopPeModel
from repro.fpga.resources import ResourceVector
from repro.perf.counters import InsertionPointWork
from repro.testing import small_design

from test_perf_models import make_trace


class TestClock:
    def test_cycles_to_seconds_roundtrip(self):
        clk = pe_clock(285.0)
        assert clk.cycles_to_seconds(1234) * 285e6 == pytest.approx(1234)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain("bad", 0.0)


class TestBram:
    def test_bank_count_scales_with_capacity(self):
        small = BramBank("t", depth=512, width_bits=32)
        large = BramBank("t", depth=4096, width_bits=32)
        assert large.bram36_count() > small.bram36_count()

    def test_access_cycles(self):
        bank = BramBank("t", depth=64, width_bits=32, read_ports=2)
        assert bank.access_cycles(1) == 1
        assert bank.access_cycles(4) == 2
        assert bank.access_cycles(0) == 0

    def test_odd_even_doubles_bandwidth(self):
        bank = BramBank("LSC", depth=128, width_bits=16, read_ports=2)
        split = OddEvenRam(bank)
        assert split.access_cycles(4) == 1
        assert bank.access_cycles(4) == 2

    def test_ping_pong_doubles_brams(self):
        bank = BramBank("LCPT", depth=512, width_bits=32)
        assert PingPongRam(bank).bram36_count() == 2 * bank.bram36_count()


class TestSorters:
    def test_insertion_sorter_linear(self):
        sorter = InsertionSorter(capacity=64)
        assert sorter.cycles(10) < sorter.cycles(60)
        assert sorter.cycles(0) == 0.0

    def test_merge_sorter_levels(self):
        sorter = MergeSorter(ways=4)
        assert sorter.cycles(256, blocks=16) > sorter.cycles(256, blocks=4)
        assert sorter.cycles(100, blocks=1) == 0.0

    def test_presorter_combines(self):
        pre = SacsPreSorter()
        assert pre.cycles(40) >= InsertionSorter().cycles(40)
        assert pre.cycles(300) > pre.cycles(100)

    def test_breakpoint_sorter_stream(self):
        sorter = StreamingBreakpointSorter()
        assert sorter.cycles(20) == pytest.approx(26.0)

    def test_sorting_is_small_share_of_fop(self):
        # Fig. 6(g): the pre-sort must stay a modest fraction of region work.
        pre = SacsPreSorter()
        model = FopPeModel()
        ip = InsertionPointWork(
            n_local_cells=40, n_subcells=52, shift_passes=2, shift_cell_visits=80,
            chain_left=4, chain_right=4, n_breakpoints=18, n_merged_breakpoints=15,
            multirow_accesses=20, tall_accesses=4,
        )
        region_cycles = 30 * model.insertion_point_cycles(ip)  # ~30 insertion points
        assert pre.cycles(40) < 0.25 * region_cycles


class TestSacsCycleModel:
    def _work(self, tall=0):
        return InsertionPointWork(
            n_local_cells=30, n_subcells=40, shift_passes=2, shift_cell_visits=60,
            chain_left=3, chain_right=3, n_breakpoints=14, n_merged_breakpoints=12,
            multirow_accesses=16, tall_accesses=tall,
        )

    def test_architecture_opt_speeds_up(self):
        base, ar, _, _ = SacsCycleModel.figure9_series()
        assert ar.shift_cycles(self._work()) < base.shift_cycles(self._work())

    def test_bandwidth_opt_only_helps_tall_cells(self):
        _, ar, bw, _ = SacsCycleModel.figure9_series()
        no_tall = self._work(tall=0)
        assert bw.shift_cycles(no_tall) == pytest.approx(ar.shift_cycles(no_tall), rel=0.02)
        tall = self._work(tall=12)
        assert bw.shift_cycles(tall) < ar.shift_cycles(tall) * 0.95

    def test_parallel_moves_speedup(self):
        _, _, bw, par = SacsCycleModel.figure9_series()
        work = self._work(tall=4)
        assert bw.shift_cycles(work) / par.shift_cycles(work) == pytest.approx(1.85, rel=0.01)

    def test_total_ladder_in_paper_range(self):
        base, _, _, par = SacsCycleModel.figure9_series()
        work = self._work(tall=6)
        ratio = base.shift_cycles(work) / par.shift_cycles(work)
        assert 1.5 <= ratio <= 3.5

    def test_labels(self):
        labels = [m.label() for m in SacsCycleModel.figure9_series()]
        assert labels == ["SACS", "SACS-Ar", "SACS-ImpBW", "SACS-Paral"]


class TestFopPeModel:
    def _ip(self):
        return InsertionPointWork(
            n_local_cells=25, n_subcells=32, shift_passes=2, shift_cell_visits=50,
            chain_left=4, chain_right=3, n_breakpoints=16, n_merged_breakpoints=14,
            multirow_accesses=12, tall_accesses=2,
        )

    def test_organisation_ordering(self):
        ip = self._ip()
        normal = FopPeModel(PipelineOrganization.NORMAL, use_sacs=False)
        sacs = FopPeModel(PipelineOrganization.SACS_ONLY, use_sacs=True)
        mg = FopPeModel(PipelineOrganization.MULTI_GRANULARITY, use_sacs=True)
        c_normal = normal.insertion_point_cycles(ip)
        c_sacs = sacs.insertion_point_cycles(ip)
        c_mg = mg.insertion_point_cycles(ip)
        assert c_normal > c_sacs > c_mg

    def test_sacs_gain_in_paper_range(self):
        ip = self._ip()
        normal = FopPeModel(PipelineOrganization.NORMAL, use_sacs=False)
        sacs = FopPeModel(PipelineOrganization.SACS_ONLY, use_sacs=True)
        gain = normal.insertion_point_cycles(ip) / sacs.insertion_point_cycles(ip)
        assert 1.5 <= gain <= 3.5

    def test_stage_cycles_keys(self):
        stages = FopPeModel().stage_cycles(self._ip())
        assert set(stages) == {
            "cell_shift", "sort_bp", "merge_bp", "sum_slopesR", "sum_slopesL", "calculate_value",
        }

    def test_original_visits_estimated_from_sacs_trace(self):
        model = FopPeModel(use_sacs=False, trace_used_sacs=True)
        est = model._estimated_original_visits(self._ip())
        assert est >= 2 * 32  # at least one pass per phase over all subcells


class TestPipelineModel:
    def test_estimate_totals(self):
        trace = make_trace(8, 6)
        estimate = FpgaPipelineModel(FlexConfig()).estimate(trace)
        assert estimate.total_cycles > 0
        assert len(estimate.per_target_cycles) == 8
        assert estimate.total_seconds == pytest.approx(
            estimate.total_cycles / (285e6), rel=1e-6
        )

    def test_two_pes_faster(self):
        trace = make_trace(8, 6)
        one = FpgaPipelineModel(FlexConfig(fop_pe_parallelism=1)).estimate(trace)
        two = FpgaPipelineModel(FlexConfig(fop_pe_parallelism=2)).estimate(trace)
        gain = one.total_cycles / two.total_cycles
        assert 1.5 <= gain <= 2.0

    def test_speedup_ladder_ranges(self):
        # make_trace() produces original-engine visit counts (4 passes over
        # all subcells), so tell the model the trace did not come from SACS.
        trace = make_trace(10, 8)
        ladder = FpgaPipelineModel(FlexConfig(), trace_used_sacs=False).speedup_ladder(trace)
        assert ladder["normal-pipeline"] == pytest.approx(1.0)
        assert 1.8 <= ladder["sacs"] <= 3.5
        assert 1.1 <= ladder["multi-granularity"] / ladder["sacs"] <= 2.2
        assert 1.5 <= ladder["2-parallel-fop-pe"] / ladder["multi-granularity"] <= 2.0

    def test_normal_config_slower(self):
        trace = make_trace(6, 5)
        flex = FpgaPipelineModel(FlexConfig()).estimate(trace)
        normal = FpgaPipelineModel(NORMAL_PIPELINE_CONFIG).estimate(trace)
        assert normal.total_cycles > flex.total_cycles

    def test_stage_fractions(self):
        trace = make_trace(6, 5)
        estimate = FpgaPipelineModel(FlexConfig()).estimate(trace)
        assert 0.0 < estimate.stage_fraction("cell_shift") < 1.0
        assert estimate.stage_fraction("nonexistent") == 0.0

    @pytest.mark.parametrize(
        "config",
        [FlexConfig(), FlexConfig(fop_pe_parallelism=2), NORMAL_PIPELINE_CONFIG],
        ids=["flex", "two-pes", "normal"],
    )
    def test_estimate_equals_per_point_folds(self, config):
        # estimate() splits each insertion point into stages once and
        # feeds that split to both totals; the figures must equal, bit
        # for bit, the separate per-target and per-stage folds.
        legalizer = FlexLegalizer(config)
        result = legalizer.legalize(small_design(60, 0.7, seed=5))
        trace = result.legalization.trace
        model = FpgaPipelineModel(config, trace_used_sacs=trace.shift_algorithm == "sacs")
        estimate = model.estimate(trace)
        assert estimate.per_target_cycles == {
            work.cell_index: model.target_cycles(work)["total"] for work in trace.targets
        }
        stages: dict = {}
        presort = 0.0
        for work in trace.targets:
            presort += model.target_cycles(work)["presort"]
            for ip in work.insertion_points:
                for stage, cycles in model._pe_model.stage_cycles(ip).items():
                    stages[stage] = stages.get(stage, 0.0) + cycles
        if presort:
            stages["presort"] = presort
        assert estimate.stage_cycles == stages
        assert result.fpga == estimate
        assert result.cpu_breakdown == legalizer.cpu_model.breakdown(trace).as_dict()


class TestHostLink:
    def test_transfer_time_components(self):
        link = HostLink(bandwidth_gbps=10.0, latency_us=5.0)
        assert link.transfer_seconds(0) == 0.0
        t = link.transfer_seconds(1000)
        assert t > 5e-6
        assert t == pytest.approx(5e-6 + 1000 * 32 / 10e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostLink(bandwidth_gbps=0.0)


class TestResources:
    def test_table2_matches_paper(self):
        reports = ResourceEstimator().table2()
        one, two = reports
        assert (one.totals.luts, one.totals.ffs, one.totals.brams, one.totals.dsps) == (
            59837, 67326, 391, 8,
        )
        assert (two.totals.luts, two.totals.ffs, two.totals.brams, two.totals.dsps) == (
            86632, 91603, 738, 12,
        )

    def test_sublinear_growth_because_sorter_not_duplicated(self):
        one, two = ResourceEstimator().table2()
        assert two.totals.luts < 2 * one.totals.luts
        assert two.totals.ffs < 2 * one.totals.ffs

    def test_fits_on_u50(self):
        for report in ResourceEstimator().table2():
            assert report.fits()
            util = report.utilisation()
            assert all(0.0 < v < 1.0 for v in util.values())

    def test_bram_is_the_binding_resource(self):
        estimator = ResourceEstimator()
        max_pes = estimator.max_pe_count()
        assert 2 <= max_pes < 8
        too_big = estimator.estimate(FlexConfig(fop_pe_parallelism=max_pes + 1))
        assert too_big.totals.brams > ALVEO_U50.brams

    def test_resource_vector_ops(self):
        a = ResourceVector(1, 2, 3, 4)
        b = ResourceVector(10, 20, 30, 40)
        assert (a + b).luts == 11
        assert a.scaled(3).dsps == 12
        assert a.fits(b)
        assert not b.fits(a)

    def test_report_row(self):
        report = ResourceEstimator().estimate(FlexConfig())
        row = report.as_row()
        assert row[0].startswith("2 parallelism")
        assert row[1] == report.totals.luts
