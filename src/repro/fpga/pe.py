"""FOP processing-element cycle composition.

A FOP PE evaluates one insertion point at a time: it runs the cell-shift
engine (SACS PE or the original multi-pass engine), the breakpoint
sorter, and the traversal units (FWDT/BWDT PEs in Fig. 4).  This module
computes the cycles one PE spends on each insertion point of a
:class:`~repro.perf.counters.PointColumns` block under each pipeline
organisation; :mod:`repro.fpga.pipeline_sim` aggregates PEs, regions and
whole runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.core.pipeline import PipelineOrganization
from repro.fpga.sacs_dataflow import SacsCycleModel
from repro.fpga.sorter import StreamingBreakpointSorter
from repro.perf.counters import (
    FOP_STAGES,
    InsertionPointWork,
    PointColumns,
    PointRun,
)


@dataclass(frozen=True)
class FopPeParameters:
    """Cycle constants of one FOP PE."""

    # Original (multi-pass) cell shifting mapped on the FPGA.
    orig_shift_cycles_per_visit: float = 3.0
    """Cycles per subcell visit of the original engine: the data-dependent
    control flow and RAM accesses prevent an initiation interval of 1."""

    orig_multirow_penalty: float = 1.0
    orig_tall_penalty: float = 2.0
    orig_fixed_cycles: float = 16.0

    # Breakpoint stages.
    merge_fixed_cycles: float = 4.0
    slope_fixed_cycles: float = 4.0
    value_fixed_cycles: float = 6.0

    # Pipeline plumbing.
    memory_roundtrip_per_item: float = 1.0
    """Extra cycles per intermediate element written to and read back from
    RAM between operations of the normal / SACS-only organisations."""

    operation_start_overhead: float = 4.0
    """Control cycles to launch each of the six operations sequentially."""

    stream_fill_cycles: float = 20.0
    """Fill/flush latency of the fine-grained streaming chain."""

    per_ip_control_cycles: float = 40.0
    """Per-insertion-point control: reading the insertion-point RAM,
    feasibility checks, result collection and comparison."""


@dataclass
class FopPeModel:
    """Per-insertion-point cycle model of one FOP PE."""

    organisation: PipelineOrganization = PipelineOrganization.MULTI_GRANULARITY
    use_sacs: bool = True
    sacs_model: SacsCycleModel = field(default_factory=SacsCycleModel)
    bp_sorter: StreamingBreakpointSorter = field(default_factory=StreamingBreakpointSorter)
    params: FopPeParameters = field(default_factory=FopPeParameters)
    trace_used_sacs: bool = True
    """Whether the work counters were recorded by a SACS run; needed to
    translate visit counts when modeling the *other* shifting engine."""

    # ------------------------------------------------------------------
    def _estimated_original_visits(self, work: Union[PointRun, InsertionPointWork]) -> float:
        """Original-engine subcell visits, estimated when the trace is SACS."""
        if not self.trace_used_sacs:
            return float(work.shift_cell_visits)
        # The original engine traverses every subcell once per pass per
        # phase; multi-row coupling adds extra passes roughly in proportion
        # to the multi-row share of the region.
        subcells = max(work.n_subcells, work.n_local_cells, 1)
        multirow_share = work.multirow_accesses / max(1, work.shift_cell_visits)
        passes_per_phase = 1.0 + min(1.0, 1.5 * multirow_share)
        return 2.0 * passes_per_phase * subcells

    def _sacs_work(self, run: PointRun) -> PointRun:
        """SACS-engine region constants, derived when the trace used the original."""
        if self.trace_used_sacs:
            return run
        cells = max(1, run.n_local_cells)
        scale = (2.0 * cells) / max(1, run.shift_cell_visits)
        return run._replace(
            shift_passes=2,
            shift_cell_visits=2 * cells,
            multirow_accesses=int(round(run.multirow_accesses * scale)),
            tall_accesses=int(round(run.tall_accesses * scale)),
        )

    # ------------------------------------------------------------------
    def shift_cycles(self, run: PointRun) -> float:
        """Cycles of the cell-shift stage of each insertion point of ``run``."""
        p = self.params
        if self.use_sacs:
            return self.sacs_model.shift_cycles(self._sacs_work(run))
        visits = self._estimated_original_visits(run)
        return (
            visits * p.orig_shift_cycles_per_visit
            + run.multirow_accesses * p.orig_multirow_penalty
            + run.tall_accesses * p.orig_tall_penalty
            + p.orig_fixed_cycles
        )

    def point_cycles(self, points: PointColumns) -> Tuple[List[float], Dict[str, List[float]]]:
        """Per-point PE cycles of ``points``: the totals under the
        organisation, and the cycles of each FOP operation (assuming
        sequential execution) keyed by stage, all in enumeration order.

        The shift cycles are computed once per run and every count-only
        term once per distinct breakpoint count.
        """
        p = self.params
        shifts = points.by_run(self.shift_cycles)
        bps, ms = points.n_breakpoints, points.n_merged_breakpoints
        # Each point's counts are clamped to at least one breakpoint.
        n_bp = {b: max(1, b) for b in set(bps)}
        n_m = {m: max(1, m) for m in set(ms)}
        sort = {b: self.bp_sorter.cycles(n) for b, n in n_bp.items()}
        merge = {b: n + p.merge_fixed_cycles for b, n in n_bp.items()}
        slope = {m: n + p.slope_fixed_cycles for m, n in n_m.items()}
        value = {m: n + p.value_fixed_cycles for m, n in n_m.items()}
        slopes = list(map(slope.__getitem__, ms))
        stages = dict(zip(FOP_STAGES, (
            shifts,
            list(map(sort.__getitem__, bps)),
            list(map(merge.__getitem__, bps)),
            slopes,
            slopes,
            list(map(value.__getitem__, ms)),
        )))
        if self.organisation in (PipelineOrganization.NORMAL, PipelineOrganization.SACS_ONLY):
            # The six operations run one after another, with a RAM round
            # trip per intermediate element.
            starts = 6 * p.operation_start_overhead
            totals = [
                sum(operations)
                + p.memory_roundtrip_per_item * (2 * n_bp[b] + 3 * n_m[m])
                + starts
                + p.per_ip_control_cycles
                for operations, b, m in zip(zip(*stages.values()), bps, ms)
            ]
        else:
            # Multi-granularity: cell shift, sort and fwdtraverse stream
            # into each other (fine-grained); bwdtraverse runs after the
            # forward sweep has seen every breakpoint (coarse-grained).
            fill, control = p.stream_fill_cycles, p.per_ip_control_cycles
            floats = {b: float(n) for b, n in n_bp.items()}
            bwd_chain = {m: n + p.value_fixed_cycles + p.slope_fixed_cycles for m, n in n_m.items()}
            totals = [
                # fwd_chain = fill + max(shift, n_bp) + 0.5 * n_bp
                fill + (floats[b] if floats[b] > shift else shift) + 0.5 * n_bp[b]
                + bwd_chain[m]
                + control
                for shift, b, m in zip(shifts, bps, ms)
            ]
        return totals, stages

    # ------------------------------------------------------------------
    def stage_cycles(self, work: InsertionPointWork) -> Dict[str, float]:
        """Cycles per FOP operation of one insertion point (sequential)."""
        _, stages = self.point_cycles(PointColumns.of([work]))
        return {stage: column[0] for stage, column in stages.items()}

    def insertion_point_cycles(self, work: InsertionPointWork) -> float:
        """Total PE cycles for one insertion point under the organisation."""
        totals, _ = self.point_cycles(PointColumns.of([work]))
        return totals[0]
