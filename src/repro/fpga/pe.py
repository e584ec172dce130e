"""FOP processing-element cycle composition.

A FOP PE evaluates one insertion point at a time: it runs the cell-shift
engine (SACS PE or the original multi-pass engine), the breakpoint
sorter, and the traversal units (FWDT/BWDT PEs in Fig. 4).  This module
computes the cycles one PE spends on one insertion point under each
pipeline organisation; :mod:`repro.fpga.pipeline_sim` aggregates PEs,
regions and whole runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.pipeline import PipelineOrganization
from repro.fpga.sacs_dataflow import SacsCycleModel
from repro.fpga.sorter import StreamingBreakpointSorter
from repro.perf.counters import InsertionPointWork


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
    def _estimated_original_visits(self, work: InsertionPointWork) -> float:
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

    def _sacs_work(self, work: InsertionPointWork) -> InsertionPointWork:
        """SACS-engine work record, derived when the trace used the original."""
        if self.trace_used_sacs:
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

    # ------------------------------------------------------------------
    def shift_cycles(self, work: InsertionPointWork) -> float:
        """Cycles of the cell-shift stage for one insertion point."""
        p = self.params
        if self.use_sacs:
            return self.sacs_model.shift_cycles(self._sacs_work(work))
        visits = self._estimated_original_visits(work)
        return (
            visits * p.orig_shift_cycles_per_visit
            + work.multirow_accesses * p.orig_multirow_penalty
            + work.tall_accesses * p.orig_tall_penalty
            + p.orig_fixed_cycles
        )

    def stage_cycles(self, work: InsertionPointWork) -> Dict[str, float]:
        """Cycles per FOP operation assuming sequential execution."""
        p = self.params
        n_bp = max(1, work.n_breakpoints)
        n_m = max(1, work.n_merged_breakpoints)
        return {
            "cell_shift": self.shift_cycles(work),
            "sort_bp": self.bp_sorter.cycles(n_bp),
            "merge_bp": n_bp + p.merge_fixed_cycles,
            "sum_slopesR": n_m + p.slope_fixed_cycles,
            "sum_slopesL": n_m + p.slope_fixed_cycles,
            "calculate_value": n_m + p.value_fixed_cycles,
        }

    # ------------------------------------------------------------------
    def insertion_point_cycles(self, work: InsertionPointWork) -> float:
        """Total PE cycles for one insertion point under the organisation."""
        return self._point_cycles(work)[0]

    def _point_cycles(self, work: InsertionPointWork) -> Tuple[float, Dict[str, float]]:
        """``(total PE cycles, stage_cycles)`` of one insertion point, with
        the stage split computed once for callers that need both."""
        p = self.params
        stages = self.stage_cycles(work)
        n_bp = max(1, work.n_breakpoints)
        n_m = max(1, work.n_merged_breakpoints)
        if self.organisation in (PipelineOrganization.NORMAL, PipelineOrganization.SACS_ONLY):
            roundtrip = p.memory_roundtrip_per_item * (2 * n_bp + 3 * n_m)
            return (
                sum(stages.values())
                + roundtrip
                + 6 * p.operation_start_overhead
                + p.per_ip_control_cycles
            ), stages
        # Multi-granularity: cell shift, sort and fwdtraverse stream into
        # each other (fine-grained); bwdtraverse runs after the forward
        # sweep has seen every breakpoint (coarse-grained).
        fwd_chain = p.stream_fill_cycles + max(stages["cell_shift"], float(n_bp)) + 0.5 * n_bp
        bwd_chain = n_m + p.value_fixed_cycles + p.slope_fixed_cycles
        return fwd_chain + bwd_chain + p.per_ip_control_cycles, stages
