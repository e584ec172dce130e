"""Whole-run FPGA cycle estimation.

:class:`FpgaPipelineModel` aggregates the per-insertion-point cycle model
of :class:`~repro.fpga.pe.FopPeModel` over a recorded
:class:`~repro.perf.counters.LegalizationTrace` by reducing the run's
insertion-point columns:

* insertion points of one localRegion are distributed over the configured
  number of FOP PEs (two PEs process two insertion points of the *same*
  region concurrently and synchronise with a few-cycle comparison, which
  is why FLEX scales without the heavy region-level synchronisation of
  the GPU baseline — paper Sec. 5.4);
* the SACS Ahead Sorter runs once per region and overlaps the first
  insertion point's evaluation only partially, so its cycles are added
  per region;
* region loading into the ping-pong BRAMs is hidden behind the previous
  region's compute and therefore does not appear here (it is part of the
  host/transfer timeline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, List, Optional

from repro.core.config import FlexConfig
from repro.core.pipeline import PipelineOrganization
from repro.fpga.clock import ClockDomain, pe_clock
from repro.fpga.pe import FopPeModel, FopPeParameters
from repro.fpga.sacs_dataflow import SacsCycleModel
from repro.fpga.sorter import SacsPreSorter
from repro.perf.counters import LegalizationTrace, TargetCellWork


@dataclass(frozen=True)
class FpgaCycleParameters:
    """Run-level cycle constants (beyond the per-PE constants)."""

    pe_sync_cycles: float = 5.0
    """Cycles to compare the displacement results of the parallel FOP PEs
    and keep the smaller one (paper Sec. 5.4: "several clock cycles")."""

    pe_load_imbalance: float = 0.06
    """Fractional cycle overhead from uneven insertion-point splitting
    across PEs."""

    region_setup_cycles: float = 40.0
    """Per-region control: target descriptor decode, table pointer swap
    (ping/pong), result writeback to the host-visible buffer."""

    presort_overlap_fraction: float = 0.35
    """Fraction of the Ahead Sorter's cycles hidden under the first
    insertion points of the region (the sorter streams its output)."""


@dataclass
class FpgaEstimate:
    """FPGA cycle estimate of a whole legalization run."""

    total_cycles: float = 0.0
    per_target_cycles: Dict[int, float] = field(default_factory=dict)
    stage_cycles: Dict[str, float] = field(default_factory=dict)
    presort_cycles: float = 0.0
    sync_cycles: float = 0.0
    clock: ClockDomain = field(default_factory=pe_clock)

    @property
    def total_seconds(self) -> float:
        """FPGA busy time in seconds."""
        return self.clock.cycles_to_seconds(self.total_cycles)

    def per_target_seconds(self) -> Dict[int, float]:
        return {k: self.clock.cycles_to_seconds(v) for k, v in self.per_target_cycles.items()}

    def stage_fraction(self, stage: str) -> float:
        total = sum(self.stage_cycles.values())
        if total <= 0:
            return 0.0
        return self.stage_cycles.get(stage, 0.0) / total


class FpgaPipelineModel:
    """Estimates FPGA cycles of a legalization run under a configuration."""

    def __init__(
        self,
        config: Optional[FlexConfig] = None,
        *,
        params: Optional[FpgaCycleParameters] = None,
        pe_params: Optional[FopPeParameters] = None,
        trace_used_sacs: bool = True,
    ) -> None:
        self.config = config or FlexConfig()
        self.params = params or FpgaCycleParameters()
        self.pe_params = pe_params or FopPeParameters()
        self.trace_used_sacs = trace_used_sacs
        self.presorter = SacsPreSorter()
        self._pe_model = FopPeModel(
            organisation=self.config.pipeline,
            use_sacs=self.config.use_sacs,
            sacs_model=SacsCycleModel(
                architecture_opt=self.config.sacs_architecture_opt,
                bandwidth_opt=self.config.sacs_bandwidth_opt,
                parallel_moves=self.config.sacs_parallel_moves,
            ),
            params=self.pe_params,
            trace_used_sacs=trace_used_sacs,
        )

    # ------------------------------------------------------------------
    def target_cycles(self, work: TargetCellWork) -> Dict[str, float]:
        """Cycle breakdown of one target cell's FOP execution."""
        ip_cycles, _ = self._pe_model.point_cycles(work.points)
        return self._target_breakdown(work, ip_cycles)

    def _target_breakdown(
        self, work: TargetCellWork, ip_cycles: List[float]
    ) -> Dict[str, float]:
        """Fold one target's per-insertion-point PE cycles into its breakdown."""
        p = self.params
        compute = sum(ip_cycles)
        parallelism = max(1, self.config.fop_pe_parallelism)
        if parallelism > 1 and ip_cycles:
            compute = compute / parallelism * (1.0 + p.pe_load_imbalance)
        sync = p.pe_sync_cycles * math.ceil(len(ip_cycles) / parallelism) if parallelism > 1 else 0.0

        presort = 0.0
        if self.config.use_sacs:
            sort_items = work.total_sort_items
            if sort_items == 0 and ip_cycles:
                sort_items = work.n_local_cells
            presort = self.presorter.cycles(sort_items) * (1.0 - p.presort_overlap_fraction)

        total = compute + sync + presort + p.region_setup_cycles * (1 + work.window_retries)
        return {"compute": compute, "sync": sync, "presort": presort, "total": total}

    # ------------------------------------------------------------------
    def estimate(self, trace: LegalizationTrace) -> FpgaEstimate:
        """Estimate the FPGA cycles of a whole run."""
        estimate = FpgaEstimate(clock=pe_clock())
        # One stage split per insertion point feeds both the targets'
        # totals and the run's per-stage totals.
        ip_cycles, stages = self._pe_model.point_cycles(trace.point_columns())
        start = 0
        for work in trace.targets:
            stop = start + work.n_insertion_points
            breakdown = self._target_breakdown(work, ip_cycles[start:stop])
            start = stop
            estimate.per_target_cycles[work.cell_index] = breakdown["total"]
            estimate.total_cycles += breakdown["total"]
            estimate.presort_cycles += breakdown["presort"]
            estimate.sync_cycles += breakdown["sync"]
        # Each stage total is a left fold over every point in enumeration order.
        stage_totals: Dict[str, float] = {}
        if ip_cycles:
            stage_totals = {stage: reduce(add, column, 0.0) for stage, column in stages.items()}
        if estimate.presort_cycles:
            stage_totals["presort"] = estimate.presort_cycles
        estimate.stage_cycles = stage_totals
        return estimate

    # ------------------------------------------------------------------
    def speedup_ladder(self, trace: LegalizationTrace) -> Dict[str, float]:
        """Normalized speedups of the Fig. 8 optimisation ladder.

        Returns cycles normalised to the normal-pipeline configuration for:
        ``normal`` → ``sacs`` → ``multi-granularity`` → ``2 FOP PEs``.
        """
        ladder = {
            "normal-pipeline": self.config.with_updates(
                pipeline=PipelineOrganization.NORMAL,
                use_sacs=False,
                fop_pe_parallelism=1,
            ),
            "sacs": self.config.with_updates(
                pipeline=PipelineOrganization.SACS_ONLY,
                use_sacs=True,
                fop_pe_parallelism=1,
            ),
            "multi-granularity": self.config.with_updates(
                pipeline=PipelineOrganization.MULTI_GRANULARITY,
                use_sacs=True,
                fop_pe_parallelism=1,
            ),
            "2-parallel-fop-pe": self.config.with_updates(
                pipeline=PipelineOrganization.MULTI_GRANULARITY,
                use_sacs=True,
                fop_pe_parallelism=2,
            ),
        }
        cycles = {}
        for label, cfg in ladder.items():
            model = FpgaPipelineModel(
                cfg,
                params=self.params,
                pe_params=self.pe_params,
                trace_used_sacs=self.trace_used_sacs,
            )
            cycles[label] = model.estimate(trace).total_cycles
        base = cycles["normal-pipeline"]
        return {label: base / c if c > 0 else float("inf") for label, c in cycles.items()}
