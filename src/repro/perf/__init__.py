"""Performance modeling: work counters, cost models and timelines.

The reproduction cannot run on the paper's hardware (Alveo U50 FPGA,
Intel CPUs, NVIDIA GPUs), so runtimes are *modeled*: every legalizer
records the work it performs (insertion points evaluated, subcells
traversed during cell shifting, breakpoints processed, regions built,
cells updated) in a :class:`~repro.perf.counters.LegalizationTrace`, and
the models in this package convert those measured work items into
estimated runtimes:

* :class:`~repro.perf.cost_model.CpuCostModel` — single-thread CPU time;
* :class:`~repro.perf.thread_model.MultiThreadModel` — the multi-threaded
  CPU legalizer of TCAD'22 with its thread-scaling saturation (Fig. 2(a));
* :class:`~repro.perf.gpu_model.CpuGpuModel` — the DATE'22 CPU-GPU
  legalizer with region-level parallelism and synchronization overhead;
* :class:`~repro.perf.timeline.CoExecutionTimeline` — the FLEX CPU+FPGA
  overlap schedule (ping-pong preloading, visible transfer of the first
  region only).

All model constants are documented in :mod:`repro.perf.cost_model` and
can be overridden for sensitivity studies.
"""

from repro.perf.counters import (
    FOP_STAGES,
    IncrementalStats,
    InsertionPointWork,
    LegalizationTrace,
    PointColumns,
    PointRun,
    TargetCellWork,
)
from repro.perf.cost_model import CpuCostModel, CpuCostParameters
from repro.perf.thread_model import MultiThreadModel
from repro.perf.gpu_model import CpuGpuModel, GpuModelParameters
from repro.perf.timeline import CoExecutionTimeline, TimelineEntry
from repro.perf.report import SpeedupReport, format_table

__all__ = [
    "FOP_STAGES",
    "IncrementalStats",
    "InsertionPointWork",
    "PointColumns",
    "PointRun",
    "TargetCellWork",
    "LegalizationTrace",
    "CpuCostModel",
    "CpuCostParameters",
    "MultiThreadModel",
    "CpuGpuModel",
    "GpuModelParameters",
    "CoExecutionTimeline",
    "TimelineEntry",
    "SpeedupReport",
    "format_table",
]
