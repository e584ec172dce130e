"""Cycle model of the SACS PE dataflow (paper Fig. 7) and its optimisations.

For every processed localCell the SACS PE executes the stage sequence of
Fig. 7(b): fetch the next sorted cell (Cs→LCT), load its features
(LCT→PE), query the per-segment cursors (PE→CST), fetch the adjacent
cells (CST→LSC, LSC→LCT, LCT→PE), compute the new positions and write
them back (Cal pos, WB pos).  With pipelining the steady-state cost is a
couple of cycles per cell, *except* when a multi-row cell needs several
CST/LSC/LCT accesses in the same step — that is where BRAM bandwidth
becomes the bottleneck and where the odd/even split, the LCT duplication
and the doubled memory clock pay off (Fig. 9).

The model exposes three switches matching the Fig. 9 series:

* ``architecture_opt`` ("SACS-Ar"): the dedicated table dataflow with
  pipelining, instead of a straightforward sequential mapping;
* ``bandwidth_opt`` ("SACS-ImpBW"): odd/even RAM + LCT duplication +
  doubled memory clock;
* ``parallel_moves`` ("SACS-Paral"): left-move and right-move phases
  executed by two engine halves concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.perf.counters import InsertionPointWork, PointRun


@dataclass(frozen=True)
class SacsCycleParameters:
    """Cycle constants of the SACS PE."""

    base_cycles_per_cell: float = 3.0
    """Steady-state cycles per processed localCell for the plain mapping
    (sequential table accesses, no dedicated dataflow)."""

    arch_cycles_per_cell: float = 2.0
    """Steady-state cycles per cell with the dedicated dataflow of
    Fig. 7(c) (SACS-Ar)."""

    multirow_penalty: float = 0.3
    """Extra cycles per access to a cell spanning more than one row: with
    two read ports per bank, two or three adjacent rows are served in at
    most two cycles, so the penalty is small with or without the
    bandwidth optimisation."""

    tall_penalty: float = 2.2
    """Additional extra cycles per access to a cell taller than three rows
    without the bandwidth optimisation (more adjacent-row reads than the
    bank ports can serve per cycle)."""

    multirow_penalty_optimised: float = 0.3
    """Multi-row penalty with odd/even RAM, LCT duplication and the
    doubled memory clock (unchanged: it was not port-bound)."""

    tall_penalty_optimised: float = 0.45
    """Tall-cell penalty with the bandwidth optimisation — the Fig. 9
    benefit that scales with the proportion of >3-row cells."""

    parallel_move_speedup: float = 1.85
    """Effective speedup from running left-move and right-move in
    parallel (slightly below 2 because of the shared result collector)."""

    phase_fixed_cycles: float = 10.0
    """Pipeline fill/flush cycles per shifting phase."""


@dataclass(frozen=True)
class SacsCycleModel:
    """Computes SACS cell-shift cycles for one insertion point."""

    architecture_opt: bool = True
    bandwidth_opt: bool = True
    parallel_moves: bool = True
    params: SacsCycleParameters = SacsCycleParameters()

    # ------------------------------------------------------------------
    def shift_cycles(self, work: Union[PointRun, InsertionPointWork]) -> float:
        """Cycles spent in the cell-shift stage for one insertion point.

        ``work`` is the point's work, or the :class:`PointRun` it belongs
        to (the shift counters are region constants).  It must come from
        a SACS run (one visit per cell per phase);
        the pre-sort cycles are accounted separately per region by
        :class:`repro.fpga.pipeline_sim.FpgaPipelineModel`.
        """
        p = self.params
        per_cell = p.arch_cycles_per_cell if self.architecture_opt else p.base_cycles_per_cell
        if self.bandwidth_opt:
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
        if self.parallel_moves:
            cycles = cycles / p.parallel_move_speedup
        return cycles

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Label matching the Fig. 9 series names."""
        if self.parallel_moves:
            return "SACS-Paral"
        if self.bandwidth_opt:
            return "SACS-ImpBW"
        if self.architecture_opt:
            return "SACS-Ar"
        return "SACS"

    @staticmethod
    def figure9_series() -> tuple:
        """The four cumulative configurations of Fig. 9, in order."""
        return (
            SacsCycleModel(architecture_opt=False, bandwidth_opt=False, parallel_moves=False),
            SacsCycleModel(architecture_opt=True, bandwidth_opt=False, parallel_moves=False),
            SacsCycleModel(architecture_opt=True, bandwidth_opt=True, parallel_moves=False),
            SacsCycleModel(architecture_opt=True, bandwidth_opt=True, parallel_moves=True),
        )
