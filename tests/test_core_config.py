"""Tests for FlexConfig, the task assignment and the pipeline descriptions."""

from __future__ import annotations

import pytest

from repro.core.config import DEFAULT_FLEX_CONFIG, FlexConfig, NORMAL_PIPELINE_CONFIG
from repro.core.pipeline import FOP_STAGES_SPEC, PipelineOrganization
from repro.core.task_assignment import (
    FOP_RESULT_WORDS,
    TaskAssignment,
    TaskPartition,
    UPDATE_WORDS_PER_MOVED_CELL,
)
from repro.perf.counters import TargetCellWork

from test_perf_models import make_trace


class TestFlexConfig:
    def test_default_is_full_flex(self):
        cfg = DEFAULT_FLEX_CONFIG
        assert cfg.fop_pe_parallelism == 2
        assert cfg.use_sacs
        assert cfg.pipeline is PipelineOrganization.MULTI_GRANULARITY
        assert cfg.task_partition is TaskPartition.FOP_ON_FPGA
        cfg.validate()

    def test_normal_pipeline_config(self):
        NORMAL_PIPELINE_CONFIG.validate()
        assert not NORMAL_PIPELINE_CONFIG.use_sacs
        assert NORMAL_PIPELINE_CONFIG.fop_pe_parallelism == 1

    def test_with_updates_returns_copy(self):
        cfg = FlexConfig()
        other = cfg.with_updates(fop_pe_parallelism=4)
        assert cfg.fop_pe_parallelism == 2
        assert other.fop_pe_parallelism == 4

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FlexConfig(fop_pe_parallelism=0).validate()

    def test_multigranularity_requires_sacs(self):
        with pytest.raises(ValueError):
            FlexConfig(use_sacs=False, pipeline=PipelineOrganization.MULTI_GRANULARITY).validate()

    def test_label(self):
        assert "2PE" in FlexConfig().label()
        assert "sacs" in FlexConfig().label()


class TestPipelineDescription:
    def test_stage_names_order(self):
        assert [spec.name for spec in FOP_STAGES_SPEC] == [
            "cell_shift", "sort_bp", "merge_bp", "sum_slopesR", "sum_slopesL", "calculate_value",
        ]

    def test_stage_spec_positive(self):
        for spec in FOP_STAGES_SPEC:
            assert spec.per_item_cycles > 0
            assert spec.fixed_cycles >= 0


class TestTaskAssignment:
    def test_default_partition_steps(self):
        assignment = TaskAssignment()
        assert assignment.steps_on_fpga() == ("fop",)
        assert "update" in assignment.steps_on_cpu()
        assert "premove" in assignment.steps_on_cpu()

    def test_all_cpu_partition(self):
        assignment = TaskAssignment(TaskPartition.ALL_CPU)
        assert assignment.steps_on_fpga() == ()
        assert "fop" in assignment.steps_on_cpu()

    def test_fop_and_update_partition(self):
        assignment = TaskAssignment(TaskPartition.FOP_AND_UPDATE_ON_FPGA)
        assert assignment.steps_on_fpga() == ("fop", "update")
        assert "update" not in assignment.steps_on_cpu()

    def test_transfer_words_fop_only(self):
        work = TargetCellWork(cell_index=0)
        work.region_transfer_words = 200
        work.update_moved_cells = 5
        ta = TaskAssignment(TaskPartition.FOP_ON_FPGA).assign_target(work)
        assert ta.host_to_fpga_words == 200
        assert ta.fpga_to_host_words == FOP_RESULT_WORDS

    def test_transfer_words_with_update_offloaded(self):
        work = TargetCellWork(cell_index=0)
        work.region_transfer_words = 200
        work.update_moved_cells = 5
        ta = TaskAssignment(TaskPartition.FOP_AND_UPDATE_ON_FPGA).assign_target(work)
        assert ta.fpga_to_host_words == FOP_RESULT_WORDS + 6 * UPDATE_WORDS_PER_MOVED_CELL

    def test_all_cpu_has_no_transfers(self):
        work = TargetCellWork(cell_index=0)
        work.region_transfer_words = 200
        ta = TaskAssignment(TaskPartition.ALL_CPU).assign_target(work)
        assert ta.host_to_fpga_words == 0 and ta.fpga_to_host_words == 0

    def test_assign_trace_totals(self):
        trace = make_trace(5, 2)
        summary = TaskAssignment().assign_trace(trace)
        assert len(summary.targets) == 5
        assert summary.total_host_to_fpga_words == 5 * 120
        assert summary.total_fpga_to_host_words == 5 * FOP_RESULT_WORDS
        assert summary.total_transfer_words == summary.total_host_to_fpga_words + summary.total_fpga_to_host_words
