"""The DATE'22 CPU-GPU legalizer baseline.

The CPU-GPU legalizer keeps the MGL quality machinery but changes *when*
cells are processed: to expose region-level parallelism it repeatedly
forms batches of target cells whose localRegions do not overlap and
legalizes each batch "in parallel".  Within a batch the intended
size-descending priority is not preserved — lower-priority cells in other
parts of the chip are legalized before higher-priority cells that had to
wait for a conflicting region (paper Fig. 2(e)) — which is why its
average displacement is slightly worse than the sequential CPU baseline
(Table 1: ratio 1.04 vs 1.01).

Quality is measured by running MGL with exactly this batch order
(:func:`region_batch_order`); runtime comes from the
:class:`~repro.perf.gpu_model.CpuGpuModel` which reproduces the
GPU-compute / synchronisation / tough-cell-on-CPU structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.geometry.region import Window
from repro.mgl.fop import FOPConfig
from repro.mgl.legalizer import LegalizationResult, MGLLegalizer
from repro.mgl.local_region import initial_window
from repro.perf.cost_model import CpuCostModel
from repro.perf.gpu_model import CpuGpuBreakdown, CpuGpuModel, GpuModelParameters


def region_batch_order(
    layout: Layout,
    cells: List[Cell],
    *,
    max_batch: int = 448,
) -> List[Cell]:
    """Region-level parallel processing order of the CPU-GPU legalizer.

    Starting from the size-descending sequence, cells are greedily packed
    into batches whose initial search windows
    (:func:`~repro.mgl.local_region.initial_window`, the same base window
    the FLEX ordering and step (c) use) do not overlap; batches are emitted
    one after another.  Within a batch the original priority is only a
    tie-break, so the resulting global order deviates from strict
    size-descending priority — the quality effect the paper highlights.
    """
    pending = sorted(cells, key=lambda c: (-c.area, -c.height, -c.width, c.index))
    order: List[Cell] = []
    while pending:
        batch: List[Cell] = []
        batch_windows: List[Window] = []
        remaining: List[Cell] = []
        for cell in pending:
            window = initial_window(layout, cell)
            if len(batch) < max_batch and not any(window.overlaps(w) for w in batch_windows):
                batch.append(cell)
                batch_windows.append(window)
            else:
                remaining.append(cell)
        order.extend(batch)
        pending = remaining
    return order


class _BatchOrdering:
    """Callable ordering object recording its comparison count."""

    def __init__(self, max_batch: int) -> None:
        self.max_batch = max_batch
        self.last_op_count = 0

    def __call__(self, layout: Layout, cells: List[Cell]) -> List[Cell]:
        n = max(1, len(cells))
        # Sorting plus the pairwise window-overlap checks of batch forming.
        self.last_op_count = int(n * max(1.0, math.log2(n)) + 4 * n)
        return region_batch_order(layout, cells, max_batch=self.max_batch)


@dataclass
class CpuGpuRunResult:
    """Quality + modeled runtime of the CPU-GPU baseline."""

    legalization: LegalizationResult
    modeled_runtime_seconds: float
    breakdown: CpuGpuBreakdown
    achievable_parallelism: int

    @property
    def average_displacement(self) -> float:
        return self.legalization.average_displacement


class CpuGpuBaseline:
    """Runs the DATE'22-style legalizer and models its runtime."""

    def __init__(
        self,
        *,
        gpu_params: Optional[GpuModelParameters] = None,
    ) -> None:
        self.gpu_params = gpu_params or GpuModelParameters()
        self.cost_model = CpuCostModel()
        self.gpu_model = CpuGpuModel(self.gpu_params, self.cost_model)

    def legalize(self, layout: Layout) -> CpuGpuRunResult:
        """Legalize with the region-batch order and model the runtime."""
        ordering = _BatchOrdering(self.gpu_params.max_parallel_regions)
        legalizer = MGLLegalizer(
            FOPConfig(),
            ordering=ordering,
            algorithm_name="cpu-gpu-date22",
        )
        result = legalizer.legalize(layout)
        return self.model_run(result)

    def model_run(self, result: LegalizationResult) -> CpuGpuRunResult:
        """Attach the runtime model to an existing run."""
        breakdown = self.gpu_model.breakdown(result.trace)
        return CpuGpuRunResult(
            legalization=result,
            modeled_runtime_seconds=breakdown.total,
            breakdown=breakdown,
            achievable_parallelism=self.gpu_model.achievable_parallelism(result.trace),
        )
