"""Shared experiment plumbing.

:func:`run_design_suite` generates (scaled) ICCAD-2017-like designs and
runs every legalizer configuration an experiment may need, returning one
:class:`DesignBundle` per design.  Bundles are cached per
``(name, scale, seed)`` so that the Table 1 harness and the figure
harnesses executed in the same process do not repeat the (Python-slow)
legalization runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.analytical import AnalyticalGpuRuntimeModel, AnalyticalLegalizer, AnalyticalResult
from repro.baselines.cpu_gpu import CpuGpuBaseline, CpuGpuRunResult
from repro.baselines.multithread import MultiThreadedMglBaseline, MultiThreadedRunResult
from repro.benchgen.iccad2017 import BenchmarkInfo, benchmark_names, get_benchmark, iccad2017_design
from repro.core.flex_legalizer import FlexLegalizer, FlexRunResult
from repro.core.config import FlexConfig
from repro.geometry.layout import Layout
from repro.legality.checker import LegalityChecker
from repro.perf.report import format_table


#: Default subset of benchmarks used by the figure experiments (full
#: Table 1 uses all 16); chosen to span densities and height mixes.
DEFAULT_FIGURE_BENCHMARKS: Tuple[str, ...] = (
    "des_perf_1",
    "des_perf_b_md1",
    "edit_dist_a_md3",
    "fft_a_md2",
    "pci_b_a_md2",
    "pci_b_b_md3",
)

#: Default cell-count scale applied to the published benchmark sizes so
#: that the pure-Python harness finishes in minutes.
DEFAULT_SCALE = 0.004


@dataclass
class DesignBundle:
    """All per-design results an experiment may need."""

    info: BenchmarkInfo
    scale: float
    layout_input: Layout
    mgl: Optional[MultiThreadedRunResult] = None
    flex: Optional[FlexRunResult] = None
    cpu_gpu: Optional[CpuGpuRunResult] = None
    analytical: Optional[AnalyticalResult] = None
    analytical_runtime_seconds: float = 0.0
    legal: Dict[str, bool] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def num_cells(self) -> int:
        return len(self.layout_input.movable_cells())


@dataclass
class ExperimentResult:
    """Formatted output of one experiment."""

    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def format(self, float_format: str = "{:.3f}") -> str:
        text = [self.title, format_table(self.headers, self.rows, float_format=float_format)]
        for note in self.notes:
            text.append(f"note: {note}")
        return "\n".join(text)

    def column(self, header: str) -> List[object]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


_BUNDLE_CACHE: Dict[Tuple[str, float, Optional[int], Tuple[str, ...]], DesignBundle] = {}


def run_design(
    name: str,
    *,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    algorithms: Sequence[str] = ("mgl", "flex", "cpu_gpu", "analytical"),
    flex_config: Optional[FlexConfig] = None,
    check_legality: bool = True,
) -> DesignBundle:
    """Run the requested legalizers on one (scaled) benchmark.

    Results are cached per ``(name, scale, seed, algorithms)`` within the
    process; each legalizer receives its own copy of the generated input
    layout so quality numbers are independent.
    """
    key = (name, scale, seed, tuple(sorted(algorithms)))
    if key in _BUNDLE_CACHE:
        return _BUNDLE_CACHE[key]
    info = get_benchmark(name)
    layout = iccad2017_design(name, scale=scale, seed=seed)
    bundle = DesignBundle(info=info, scale=scale, layout_input=layout)
    checker = LegalityChecker()

    if "mgl" in algorithms:
        mgl_layout = layout.copy()
        bundle.mgl = MultiThreadedMglBaseline().legalize(mgl_layout)
        if check_legality:
            bundle.legal["mgl"] = checker.check(mgl_layout).legal
    if "flex" in algorithms:
        flex_layout = layout.copy()
        bundle.flex = FlexLegalizer(flex_config).legalize(flex_layout)
        if check_legality:
            bundle.legal["flex"] = checker.check(flex_layout).legal
    if "cpu_gpu" in algorithms:
        gpu_layout = layout.copy()
        bundle.cpu_gpu = CpuGpuBaseline().legalize(gpu_layout)
        if check_legality:
            bundle.legal["cpu_gpu"] = checker.check(gpu_layout).legal
    if "analytical" in algorithms:
        ana_layout = layout.copy()
        bundle.analytical = AnalyticalLegalizer().legalize(ana_layout)
        bundle.analytical_runtime_seconds = AnalyticalGpuRuntimeModel().runtime_seconds(
            bundle.analytical.num_cells, bundle.analytical.iterations
        )
        if check_legality:
            bundle.legal["analytical"] = checker.check(ana_layout).legal

    _BUNDLE_CACHE[key] = bundle
    return bundle


def run_design_suite(
    names: Optional[Iterable[str]] = None,
    *,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    algorithms: Sequence[str] = ("mgl", "flex", "cpu_gpu", "analytical"),
    flex_config: Optional[FlexConfig] = None,
) -> List[DesignBundle]:
    """Run the requested legalizers over a set of benchmarks."""
    selected = list(names) if names is not None else benchmark_names()
    return [
        run_design(
            name,
            scale=scale,
            seed=seed,
            algorithms=algorithms,
            flex_config=flex_config,
        )
        for name in selected
    ]
