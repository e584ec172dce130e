"""Exactness oracle for the FPGA and CPU models.

The models reduce a trace's insertion-point work to cycle and second
estimates.  The reference functions below are the object-walking model
bodies the column reductions replaced: one
:class:`~repro.perf.counters.InsertionPointWork` at a time, every float
folded in enumeration order.  The live models must reproduce them
*exactly* (``repr``-equal, so float order and dict key order both count)
on SACS and original-shifter traces, under every pipeline organisation
and with one and two FOP PEs.
"""

from __future__ import annotations

import math
from typing import Dict

import pytest

from repro.benchgen import iccad2017_design
from repro.core import FlexConfig, FlexLegalizer
from repro.core.pipeline import PipelineOrganization
from repro.designio.serialize import layout_from_dict
from repro.fpga.clock import pe_clock
from repro.fpga.pipeline_sim import FpgaEstimate, FpgaPipelineModel
from repro.perf.cost_model import CpuCostModel, CpuTimeBreakdown
from repro.perf.counters import FOP_STAGES, InsertionPointWork
from test_golden import FIXTURE_NAMES, golden_regenerate, load_fixture


# ----------------------------------------------------------------------
# Reference model bodies (one InsertionPointWork at a time)
# ----------------------------------------------------------------------
def ref_sacs_shift_cycles(sacs_model, work):
    p = sacs_model.params
    per_cell = p.arch_cycles_per_cell if sacs_model.architecture_opt else p.base_cycles_per_cell
    if sacs_model.bandwidth_opt:
        multirow_pen = p.multirow_penalty_optimised
        tall_pen = p.tall_penalty_optimised
    else:
        multirow_pen = p.multirow_penalty
        tall_pen = p.tall_penalty
    visits = max(work.shift_cell_visits, work.n_local_cells)
    cycles = (
        visits * per_cell
        + work.multirow_accesses * multirow_pen
        + work.tall_accesses * tall_pen
        + 2 * p.phase_fixed_cycles
    )
    if sacs_model.parallel_moves:
        cycles = cycles / p.parallel_move_speedup
    return cycles


def ref_estimated_original_visits(pe, work):
    if not pe.trace_used_sacs:
        return float(work.shift_cell_visits)
    subcells = max(work.n_subcells, work.n_local_cells, 1)
    multirow_share = work.multirow_accesses / max(1, work.shift_cell_visits)
    passes_per_phase = 1.0 + min(1.0, 1.5 * multirow_share)
    return 2.0 * passes_per_phase * subcells


def ref_sacs_work(pe, work):
    if pe.trace_used_sacs:
        return work
    cells = max(1, work.n_local_cells)
    scale = (2.0 * cells) / max(1, work.shift_cell_visits)
    return InsertionPointWork(
        n_local_cells=work.n_local_cells,
        n_subcells=work.n_subcells,
        shift_passes=2,
        shift_cell_visits=2 * cells,
        chain_left=work.chain_left,
        chain_right=work.chain_right,
        n_breakpoints=work.n_breakpoints,
        n_merged_breakpoints=work.n_merged_breakpoints,
        sort_size=work.sort_size,
        multirow_accesses=int(round(work.multirow_accesses * scale)),
        tall_accesses=int(round(work.tall_accesses * scale)),
        feasible=work.feasible,
    )


def ref_shift_cycles(pe, work):
    p = pe.params
    if pe.use_sacs:
        return ref_sacs_shift_cycles(pe.sacs_model, ref_sacs_work(pe, work))
    visits = ref_estimated_original_visits(pe, work)
    return (
        visits * p.orig_shift_cycles_per_visit
        + work.multirow_accesses * p.orig_multirow_penalty
        + work.tall_accesses * p.orig_tall_penalty
        + p.orig_fixed_cycles
    )


def ref_stage_cycles(pe, work):
    p = pe.params
    n_bp = max(1, work.n_breakpoints)
    n_m = max(1, work.n_merged_breakpoints)
    return {
        "cell_shift": ref_shift_cycles(pe, work),
        "sort_bp": pe.bp_sorter.cycles(n_bp),
        "merge_bp": n_bp + p.merge_fixed_cycles,
        "sum_slopesR": n_m + p.slope_fixed_cycles,
        "sum_slopesL": n_m + p.slope_fixed_cycles,
        "calculate_value": n_m + p.value_fixed_cycles,
    }


def ref_point_cycles(pe, work):
    p = pe.params
    stages = ref_stage_cycles(pe, work)
    n_bp = max(1, work.n_breakpoints)
    n_m = max(1, work.n_merged_breakpoints)
    if pe.organisation in (PipelineOrganization.NORMAL, PipelineOrganization.SACS_ONLY):
        roundtrip = p.memory_roundtrip_per_item * (2 * n_bp + 3 * n_m)
        return (
            sum(stages.values())
            + roundtrip
            + 6 * p.operation_start_overhead
            + p.per_ip_control_cycles
        ), stages
    fwd_chain = p.stream_fill_cycles + max(stages["cell_shift"], float(n_bp)) + 0.5 * n_bp
    bwd_chain = n_m + p.value_fixed_cycles + p.slope_fixed_cycles
    return fwd_chain + bwd_chain + p.per_ip_control_cycles, stages


def ref_target_breakdown(model, work, ip_cycles):
    p = model.params
    compute = sum(ip_cycles)
    parallelism = max(1, model.config.fop_pe_parallelism)
    if parallelism > 1 and ip_cycles:
        compute = compute / parallelism * (1.0 + p.pe_load_imbalance)
    sync = p.pe_sync_cycles * math.ceil(len(ip_cycles) / parallelism) if parallelism > 1 else 0.0
    presort = 0.0
    if model.config.use_sacs:
        sort_items = sum(ip.sort_size for ip in work.insertion_points)
        if sort_items == 0 and work.insertion_points:
            sort_items = work.n_local_cells
        presort = model.presorter.cycles(sort_items) * (1.0 - p.presort_overlap_fraction)
    total = compute + sync + presort + p.region_setup_cycles * (1 + work.window_retries)
    return {"compute": compute, "sync": sync, "presort": presort, "total": total}


def ref_estimate(model, trace):
    estimate = FpgaEstimate(clock=pe_clock(model.config.fpga_clock_mhz))
    stage_totals: Dict[str, float] = {}
    pe = model._pe_model
    for work in trace.targets:
        points = [ref_point_cycles(pe, ip) for ip in work.insertion_points]
        breakdown = ref_target_breakdown(model, work, [total for total, _ in points])
        estimate.per_target_cycles[work.cell_index] = breakdown["total"]
        estimate.total_cycles += breakdown["total"]
        estimate.presort_cycles += breakdown["presort"]
        estimate.sync_cycles += breakdown["sync"]
        for _, stages in points:
            for stage, cycles in stages.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + cycles
    if estimate.presort_cycles:
        stage_totals["presort"] = estimate.presort_cycles
    estimate.stage_cycles = stage_totals
    return estimate


def ref_speedup_ladder(model, trace):
    ladder = {
        "normal-pipeline": dict(
            pipeline=PipelineOrganization.NORMAL, use_sacs=False, fop_pe_parallelism=1
        ),
        "sacs": dict(pipeline=PipelineOrganization.SACS_ONLY, use_sacs=True, fop_pe_parallelism=1),
        "multi-granularity": dict(
            pipeline=PipelineOrganization.MULTI_GRANULARITY, use_sacs=True, fop_pe_parallelism=1
        ),
        "2-parallel-fop-pe": dict(
            pipeline=PipelineOrganization.MULTI_GRANULARITY, use_sacs=True, fop_pe_parallelism=2
        ),
    }
    cycles = {}
    for label, updates in ladder.items():
        rung = FpgaPipelineModel(
            model.config.with_updates(**updates),
            params=model.params,
            pe_params=model.pe_params,
            trace_used_sacs=model.trace_used_sacs,
        )
        cycles[label] = ref_estimate(rung, trace).total_cycles
    base = cycles["normal-pipeline"]
    return {label: base / c if c > 0 else float("inf") for label, c in cycles.items()}


def ref_fop_stage_seconds(params, trace):
    seconds = {stage: 0.0 for stage in FOP_STAGES}
    for ip in trace.iter_insertion_points():
        n_bp = max(1, ip.n_breakpoints)
        n_merged = max(1, ip.n_merged_breakpoints)
        seconds["cell_shift"] += ip.shift_cell_visits * params.shift_per_visit_ns
        seconds["sort_bp"] += n_bp * max(1.0, math.log2(n_bp)) * params.sort_per_item_log_ns
        seconds["merge_bp"] += n_bp * params.bp_per_item_ns
        seconds["sum_slopesR"] += n_merged * params.bp_per_item_ns
        seconds["sum_slopesL"] += n_merged * params.bp_per_item_ns
        seconds["calculate_value"] += n_merged * params.bp_per_item_ns
    return {k: v * 1e-9 for k, v in seconds.items()}


def ref_breakdown(params, trace):
    out = CpuTimeBreakdown()
    out.premove = trace.premove_cells * params.premove_per_cell_ns * 1e-9
    out.ordering = trace.ordering_ops * params.ordering_per_comparison_ns * 1e-9
    out.region = trace.total_transfer_words * params.region_per_word_ns * 1e-9
    out.fop_stages = ref_fop_stage_seconds(params, trace)
    n_points = sum(len(t.insertion_points) for t in trace.targets)
    overheads = (
        n_points * params.insertion_point_overhead_ns + len(trace.targets) * params.target_overhead_ns
    ) * 1e-9
    out.fop = sum(out.fop_stages.values()) + overheads
    out.update = (trace.total_update_moves + len(trace.targets)) * params.update_per_move_ns * 1e-9
    return out


def ref_per_target_host_times(params, trace):
    out = {}
    for work in trace.targets:
        region_s = work.region_transfer_words * params.region_per_word_ns * 1e-9
        update_s = (work.update_moved_cells + 1) * params.update_per_move_ns * 1e-9
        fop_s = 0.0
        for ip in work.insertion_points:
            n_bp = max(1, ip.n_breakpoints)
            n_merged = max(1, ip.n_merged_breakpoints)
            fop_s += (
                ip.shift_cell_visits * params.shift_per_visit_ns
                + n_bp * max(1.0, math.log2(n_bp)) * params.sort_per_item_log_ns
                + n_bp * params.bp_per_item_ns
                + 3 * n_merged * params.bp_per_item_ns
                + params.insertion_point_overhead_ns
            ) * 1e-9
        fop_s += params.target_overhead_ns * 1e-9
        out[work.cell_index] = {"region": region_s, "update": update_s, "fop": fop_s}
    return out


def ref_fop_stage_workload(trace):
    work = {stage: 0.0 for stage in FOP_STAGES}
    for ip in trace.iter_insertion_points():
        n_bp = max(1, ip.n_breakpoints)
        n_merged = max(1, ip.n_merged_breakpoints)
        work["cell_shift"] += ip.shift_cell_visits
        work["sort_bp"] += n_bp * max(1.0, math.log2(n_bp))
        work["merge_bp"] += n_bp
        work["sum_slopesR"] += n_merged
        work["sum_slopesL"] += n_merged
        work["calculate_value"] += n_merged
    return work


# ----------------------------------------------------------------------
# Traces: the golden designs plus one dense_full-shaped design
# ----------------------------------------------------------------------
TRACE_NAMES = [*FIXTURE_NAMES, "dense_full_shape"]


@pytest.fixture(scope="module")
def legalizations():
    runs = {}
    for name in FIXTURE_NAMES:
        fixture = load_fixture(name)
        legalizer = golden_regenerate.build_legalizer(fixture["config"], backend="numpy")
        runs[name] = legalizer.legalize(layout_from_dict(fixture["layout"]))
    # The perfbench dense_full shape: des_perf_1 at scale 0.002, FLEX defaults.
    layout = iccad2017_design("des_perf_1", scale=0.002, seed=11)
    runs["dense_full_shape"] = FlexLegalizer(FlexConfig(kernel_backend="numpy")).legalize(
        layout
    ).legalization
    return runs


def test_traces_cover_both_shifters(legalizations):
    algorithms = {run.trace.shift_algorithm for run in legalizations.values()}
    assert algorithms == {"sacs", "original"}
    assert all(run.trace.total_insertion_points > 0 for run in legalizations.values())


CONFIGS = {
    "normal": dict(pipeline=PipelineOrganization.NORMAL, use_sacs=False),
    "normal+sacs": dict(pipeline=PipelineOrganization.NORMAL, use_sacs=True),
    "sacs-only": dict(pipeline=PipelineOrganization.SACS_ONLY, use_sacs=True),
    "sacs-only-plain": dict(
        pipeline=PipelineOrganization.SACS_ONLY, use_sacs=True, sacs_architecture_opt=False,
        sacs_bandwidth_opt=False, sacs_parallel_moves=False,
    ),
    "multi-granularity": dict(pipeline=PipelineOrganization.MULTI_GRANULARITY, use_sacs=True),
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("trace_name", TRACE_NAMES)
def test_fpga_estimate_matches_the_object_walk(legalizations, trace_name, config_name, parallelism):
    trace = legalizations[trace_name].trace
    config = FlexConfig(fop_pe_parallelism=parallelism, **CONFIGS[config_name])
    model = FpgaPipelineModel(config, trace_used_sacs=trace.shift_algorithm == "sacs")
    reference = ref_estimate(model, trace)
    assert repr(model.estimate(trace)) == repr(reference)
    pe = model._pe_model
    for work in trace.targets[:: max(1, len(trace.targets) // 7)]:
        ip_cycles = [ref_point_cycles(pe, ip)[0] for ip in work.insertion_points]
        assert repr(model.target_cycles(work)) == repr(ref_target_breakdown(model, work, ip_cycles))
        for ip in work.insertion_points[:3]:
            assert repr(pe.insertion_point_cycles(ip)) == repr(ref_point_cycles(pe, ip)[0])
            assert repr(pe.stage_cycles(ip)) == repr(ref_stage_cycles(pe, ip))


@pytest.mark.parametrize("trace_name", TRACE_NAMES)
def test_speedup_ladder_matches_the_object_walk(legalizations, trace_name):
    trace = legalizations[trace_name].trace
    for used_sacs in (True, False):
        model = FpgaPipelineModel(FlexConfig(), trace_used_sacs=used_sacs)
        assert repr(model.speedup_ladder(trace)) == repr(ref_speedup_ladder(model, trace))


@pytest.mark.parametrize("trace_name", TRACE_NAMES)
def test_cpu_model_matches_the_object_walk(legalizations, trace_name):
    trace = legalizations[trace_name].trace
    model = CpuCostModel()
    assert repr(model.fop_stage_seconds(trace)) == repr(ref_fop_stage_seconds(model.params, trace))
    assert repr(model.breakdown(trace)) == repr(ref_breakdown(model.params, trace))
    assert repr(model.per_target_host_times(trace)) == repr(
        ref_per_target_host_times(model.params, trace)
    )
    assert repr(trace.fop_stage_workload()) == repr(ref_fop_stage_workload(trace))
    points = list(trace.iter_insertion_points())
    assert trace.total_insertion_points == len(points)
    assert trace.total_shift_visits == sum(ip.shift_cell_visits for ip in points)
    assert trace.total_breakpoints == sum(ip.n_breakpoints for ip in points)
    assert trace.total_sort_items == sum(ip.sort_size for ip in points)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("config_name", ["normal", "sacs-only", "multi-granularity"])
@pytest.mark.parametrize("trace_name", TRACE_NAMES)
def test_model_run_matches_the_object_walk(
    legalizations, trace_name, config_name, parallelism, monkeypatch
):
    legalization = legalizations[trace_name]
    trace = legalization.trace
    config = FlexConfig(fop_pe_parallelism=parallelism, **CONFIGS[config_name])
    legalizer = FlexLegalizer(config)
    run = legalizer.model_run(legalization)

    fpga_model = FpgaPipelineModel(config, trace_used_sacs=trace.shift_algorithm == "sacs")
    fpga = ref_estimate(fpga_model, trace)
    breakdown = ref_breakdown(legalizer.cpu_model.params, trace)
    monkeypatch.setattr(
        legalizer.cpu_model,
        "per_target_host_times",
        lambda t: ref_per_target_host_times(legalizer.cpu_model.params, t),
    )
    timeline = legalizer.build_timeline(trace, fpga, breakdown)
    assert repr(run.fpga) == repr(fpga)
    assert repr(run.cpu_breakdown) == repr(breakdown.as_dict())
    assert repr(run.timeline) == repr(timeline)
