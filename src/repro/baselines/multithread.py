"""The TCAD'22 multi-threaded CPU legalizer baseline.

Quality-wise this baseline *is* the MGL algorithm with the plain
size-descending processing order and the original multi-pass cell
shifting — exactly what :class:`~repro.mgl.legalizer.MGLLegalizer`
implements.  Runtime-wise, the published implementation processes several
unlegalized cells concurrently on up to 8 CPU threads with the scaling
saturation of Fig. 2(a); :class:`~repro.perf.thread_model.MultiThreadModel`
converts the recorded single-thread work into the multi-threaded runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.geometry.layout import Layout
from repro.mgl.fop import FOPConfig
from repro.mgl.legalizer import LegalizationResult, MGLLegalizer
from repro.perf.cost_model import CpuCostModel
from repro.perf.thread_model import MultiThreadModel


@dataclass
class MultiThreadedRunResult:
    """Quality + modeled runtime of the multi-threaded CPU baseline."""

    legalization: LegalizationResult
    threads: int
    modeled_runtime_seconds: float
    single_thread_seconds: float
    scaling_curve: Dict[int, float] = field(default_factory=dict)

    @property
    def average_displacement(self) -> float:
        return self.legalization.average_displacement


class MultiThreadedMglBaseline:
    """Runs MGL and models its multi-threaded CPU runtime (TCAD'22)."""

    def __init__(self, *, threads: int = 8) -> None:
        self.threads = threads
        self.cost_model = CpuCostModel()
        self.thread_model = MultiThreadModel(threads=threads, cost_model=self.cost_model)

    def legalize(self, layout: Layout) -> MultiThreadedRunResult:
        """Legalize with MGL and attach the modeled multi-threaded runtime."""
        legalizer = MGLLegalizer(FOPConfig(), algorithm_name="mgl-tcad22")
        result = legalizer.legalize(layout)
        return self.model_run(result)

    def model_run(self, result: LegalizationResult) -> MultiThreadedRunResult:
        """Attach the runtime model to an existing MGL run."""
        single = self.cost_model.total_seconds(result.trace)
        return MultiThreadedRunResult(
            legalization=result,
            threads=self.threads,
            modeled_runtime_seconds=self.thread_model.runtime_seconds(result.trace),
            single_thread_seconds=single,
            scaling_curve=self.thread_model.scaling_curve(result.trace),
        )
