"""repro — a full Python reproduction of FLEX (ICPP 2025).

FLEX: Leveraging FPGA-CPU Synergy for Mixed-Cell-Height Legalization
Acceleration.

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.geometry``
    Layout data model: cells, rows, windows, local regions, intervals.
``repro.legality``
    Legality checking (overlap / boundary / site / power-rail alignment)
    and placement-quality metrics (average displacement, Eq. 2).
``repro.benchgen``
    Synthetic mixed-cell-height benchmark generation, including an
    ICCAD-2017-contest-like suite matching Table 1 of the paper.
``repro.designio``
    Simple text / JSON serialization of designs and results.
``repro.mgl``
    The Multi-row Global Legalization (MGL) algorithm substrate:
    pre-move, localRegion extraction, insertion-point enumeration,
    displacement-curve math and the FOP (find-optimal-position) kernel.
``repro.kernels``
    Pluggable kernel backends for the numeric hot paths (curve
    construction/minimization, SACS chains): the pure-Python reference
    oracle and a bit-for-bit fused native (C) scorer of SACS regions,
    selected via ``FlexConfig.kernel_backend`` /
    ``MGLLegalizer(backend=...)``.
``repro.testing``
    Importable helpers shared by the ``tests/`` and ``benchmarks/``
    suites (layout builders, benchmark constants).
``repro.core``
    The FLEX contributions: Sort-Ahead Cell Shifting (SACS), sliding
    window processing ordering, CPU/FPGA task assignment, the
    multi-granularity pipeline schedule, and the end-to-end
    :class:`~repro.core.flex_legalizer.FlexLegalizer`.
``repro.fpga``
    Cycle-approximate behavioral model of the FLEX FPGA datapath
    (BRAM banks, sorters, PEs, pipelines, CPU<->FPGA link, resources).
``repro.perf``
    Operation counters, CPU/GPU cost models and co-execution timelines
    used to derive modeled hardware runtimes from measured work.
``repro.baselines``
    Reimplementations / runtime models of the comparison points:
    multi-threaded-CPU MGL (TCAD'22), CPU-GPU legalizer (DATE'22),
    analytical legalizer (ISPD'25 stand-in), Abacus and greedy.
``repro.experiments``
    One module per paper table / figure regenerating its rows or series.
"""

from repro.geometry import Cell, Layout, Row, Window
from repro.legality import LegalityChecker, PlacementMetrics
from repro.benchgen import DesignSpec, generate_design, iccad2017_suite
from repro.mgl import MGLLegalizer
from repro.core import FlexConfig, FlexLegalizer

__all__ = [
    "Cell",
    "Layout",
    "Row",
    "Window",
    "LegalityChecker",
    "PlacementMetrics",
    "DesignSpec",
    "generate_design",
    "iccad2017_suite",
    "MGLLegalizer",
    "FlexConfig",
    "FlexLegalizer",
]

__version__ = "1.0.0"
