"""The end-to-end FLEX accelerator.

:class:`FlexLegalizer` combines the two halves of the reproduction:

* **the algorithm side** — the MGL quality machinery configured with the
  FLEX contributions: Sort-Ahead Cell Shifting, the reorganised
  fwdtraverse/bwdtraverse curve pipeline and the sliding-window
  processing ordering.  This half actually legalizes the layout and
  produces the quality numbers (AveDis) reported in Table 1;
* **the runtime side** — the cycle-approximate FPGA model, the CPU cost
  model and the CPU/FPGA co-execution timeline, which together turn the
  recorded work counters into the modeled accelerator runtime (and its
  breakdown: FPGA busy time, host time, visible transfer time).

The returned :class:`FlexRunResult` carries both halves plus the
resource estimate of the configured accelerator instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import FlexConfig
from repro.core.ordering import SlidingWindowOrdering
from repro.core.pipeline import PipelineOrganization
from repro.core.sacs import SortAheadShifter
from repro.core.task_assignment import TaskAssignment, TaskPartition
from repro.geometry.layout import Layout
from repro.legality.metrics import PlacementMetrics
from repro.mgl.fop import FOPConfig
from repro.mgl.legalizer import LegalizationResult, MGLLegalizer, size_descending_order
from repro.mgl.shifting import OriginalShifter
from repro.perf.cost_model import CpuCostModel, CpuCostParameters, CpuTimeBreakdown
from repro.perf.counters import LegalizationTrace
from repro.perf.timeline import CoExecutionTimeline, TimelineEntry, TimelineResult
from repro.fpga.link import HostLink
from repro.fpga.pipeline_sim import FpgaEstimate, FpgaPipelineModel
from repro.fpga.resources import ResourceEstimator, ResourceReport


@dataclass
class FlexRunResult:
    """Quality and modeled-runtime outcome of one FLEX run."""

    legalization: LegalizationResult
    config: FlexConfig
    fpga: FpgaEstimate
    timeline: TimelineResult
    cpu_breakdown: Dict[str, float]
    resources: ResourceReport

    @property
    def average_displacement(self) -> float:
        """The S_am quality metric of the run (Eq. 2)."""
        return self.legalization.average_displacement

    @property
    def modeled_runtime_seconds(self) -> float:
        """End-to-end modeled runtime of the accelerator."""
        return self.timeline.total

    @property
    def trace(self) -> LegalizationTrace:
        return self.legalization.trace

    def summary(self) -> str:
        return (
            f"{self.legalization.layout.name}: AveDis={self.average_displacement:.3f}, "
            f"modeled time={self.modeled_runtime_seconds * 1e3:.2f} ms "
            f"(FPGA busy {self.timeline.fpga_busy * 1e3:.2f} ms, "
            f"CPU busy {self.timeline.cpu_busy * 1e3:.2f} ms, "
            f"visible transfer {self.timeline.visible_transfer * 1e3:.3f} ms)"
        )


class FlexLegalizer:
    """FPGA-CPU accelerated mixed-cell-height legalizer.

    Parameters
    ----------
    config:
        Accelerator configuration (PE count, pipeline organisation, SACS
        options, task partition, ordering).
    cpu_params:
        Host CPU cost constants shared with the baseline models so that
        speedups are computed on a common scale.
    metrics:
        Quality metric converter (defaults to the same unit conventions
        as the MGL baseline).
    """

    def __init__(
        self,
        config: Optional[FlexConfig] = None,
        *,
        cpu_params: Optional[CpuCostParameters] = None,
        metrics: Optional[PlacementMetrics] = None,
    ) -> None:
        self.config = config or FlexConfig()
        self.config.validate()
        self.cpu_model = CpuCostModel(cpu_params)
        self.metrics = metrics
        self.link = HostLink(bandwidth_gbps=self.config.pcie_gbps)
        # Result records stream back through a pre-posted buffer, so their
        # per-target latency is far below a full descriptor round-trip.
        self.result_link = HostLink(bandwidth_gbps=self.config.pcie_gbps, latency_us=0.4)
        self.resource_estimator = ResourceEstimator()

    # ------------------------------------------------------------------
    def _build_algorithm(self) -> MGLLegalizer:
        """Instantiate the MGL machinery with the FLEX algorithm choices."""
        shifter = (
            SortAheadShifter(backend=self.config.kernel_backend)
            if self.config.use_sacs
            else OriginalShifter()
        )
        fop_config = FOPConfig(
            shifter=shifter,
            use_fwd_bwd_pipeline=self.config.pipeline is PipelineOrganization.MULTI_GRANULARITY,
            backend=self.config.kernel_backend,
        )
        ordering = (
            SlidingWindowOrdering(window_size=self.config.ordering_window_size)
            if self.config.sliding_window_ordering
            else size_descending_order
        )
        return MGLLegalizer(
            fop_config,
            ordering=ordering,
            metrics=self.metrics,
            algorithm_name="flex",
        )

    # ------------------------------------------------------------------
    def legalize(self, layout: Layout) -> FlexRunResult:
        """Legalize a layout and model the accelerator's runtime."""
        algorithm = self._build_algorithm()
        legalization = algorithm.legalize(layout)
        return self.model_run(legalization)

    # ------------------------------------------------------------------
    def model_run(self, legalization: LegalizationResult) -> FlexRunResult:
        """Model the accelerator runtime of an already-executed run."""
        trace = legalization.trace
        fpga_model = FpgaPipelineModel(
            self.config, trace_used_sacs=trace.shift_algorithm == "sacs"
        )
        fpga = fpga_model.estimate(trace)
        breakdown = self.cpu_model.breakdown(trace)
        timeline = self.build_timeline(trace, fpga, breakdown)
        cpu_breakdown = breakdown.as_dict()
        resources = self.resource_estimator.estimate(self.config)
        return FlexRunResult(
            legalization=legalization,
            config=self.config,
            fpga=fpga,
            timeline=timeline,
            cpu_breakdown=cpu_breakdown,
            resources=resources,
        )

    # ------------------------------------------------------------------
    def build_timeline(
        self, trace: LegalizationTrace, fpga: FpgaEstimate, breakdown: CpuTimeBreakdown
    ) -> TimelineResult:
        """Replay the CPU/FPGA co-execution schedule for a recorded run.

        ``breakdown`` is the run's :meth:`CpuCostModel.breakdown`; its
        premove and ordering times form the schedule's serial front.
        """
        assignment = TaskAssignment(self.config.task_partition)
        summary = assignment.assign_trace(trace)
        host_times = self.cpu_model.per_target_host_times(trace)
        per_target_fpga = fpga.per_target_seconds()

        entries: List[TimelineEntry] = []
        on_fpga = assignment.steps_on_fpga()
        for work, target_assignment in zip(trace.targets, summary.targets):
            host = host_times[work.cell_index]
            if not on_fpga:
                # Pure-CPU partition: everything is host work, no transfers.
                entries.append(
                    TimelineEntry(
                        cell_index=work.cell_index,
                        cpu_prep=host["region"] + host["fop"],
                        transfer_in=0.0,
                        fpga_compute=0.0,
                        transfer_out=0.0,
                        cpu_post=host["update"],
                        preloadable=True,
                    )
                )
                continue
            fpga_seconds = per_target_fpga.get(work.cell_index, 0.0)
            cpu_post = host["update"]
            if "update" in on_fpga:
                # Insert & update executes on the card: the device spends the
                # equivalent update time, and the host only ingests the
                # returned positions (folded into the transfer).
                fpga_seconds += host["update"] * 0.5
                cpu_post = host["update"] * 0.2
            entries.append(
                TimelineEntry(
                    cell_index=work.cell_index,
                    cpu_prep=host["region"],
                    transfer_in=self.link.transfer_seconds(target_assignment.host_to_fpga_words),
                    fpga_compute=fpga_seconds,
                    transfer_out=self.result_link.transfer_seconds(
                        target_assignment.fpga_to_host_words
                    ),
                    cpu_post=cpu_post,
                    preloadable=target_assignment.preloadable and self.config.ping_pong_preload,
                )
            )
        timeline = CoExecutionTimeline(
            serial_front_seconds=breakdown.premove + breakdown.ordering,
            prep_depends_on_results=(
                self.config.task_partition is TaskPartition.FOP_AND_UPDATE_ON_FPGA
            ),
        )
        return timeline.run(entries)
