"""CPU / FPGA task assignment (paper Sec. 3.1.1, evaluated in Fig. 10).

The MGL flow has five steps (Fig. 3(e)).  FLEX assigns

* step (a) *input & pre-move* — CPU (inherently serial),
* step (b) *process ordering* — CPU (dynamic scheduling),
* step (c) *define localRegion* — CPU (only ~3 % of runtime, and its
  density output feeds step (b); keeping it on the CPU avoids a
  round-trip),
* step (d) *FOP* — FPGA (the irregular, compute-dominant kernel),
* step (e) *insert & update* — CPU (offloading it would require
  streaming every updated cell position back to the host).

:class:`TaskAssignment` turns a recorded
:class:`~repro.perf.counters.LegalizationTrace` into per-target work
items for the host and the device under a chosen partition, including the
data that must cross the link — the quantities the co-execution timeline
needs to model Fig. 10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.perf.counters import LegalizationTrace, TargetCellWork


class TaskPartition(enum.Enum):
    """Which steps execute on the FPGA."""

    ALL_CPU = "all-cpu"
    """Everything on the CPU — the software MGL baseline."""

    FOP_ON_FPGA = "fop-on-fpga"
    """Step (d) on the FPGA, steps (a)(b)(c)(e) on the CPU — FLEX's choice."""

    FOP_AND_UPDATE_ON_FPGA = "fop+update-on-fpga"
    """Steps (d) and (e) on the FPGA — the alternative compared in Fig. 10."""


#: Estimated words returned by the FPGA per moved cell when insert &
#: update runs on the device (position writes that must reach the host).
UPDATE_WORDS_PER_MOVED_CELL = 2
#: Result words per target when only FOP runs on the device (winning row,
#: x position, cost and the per-cell shift summary header).
FOP_RESULT_WORDS = 6


@dataclass(frozen=True)
class TargetAssignment:
    """Host/device split of the work for one target cell."""

    cell_index: int
    cpu_steps: Tuple[str, ...]
    fpga_steps: Tuple[str, ...]
    host_to_fpga_words: int
    fpga_to_host_words: int


@dataclass
class AssignmentSummary:
    """Aggregate link traffic and step placement for a whole run."""

    partition: TaskPartition
    targets: List[TargetAssignment]

    @property
    def total_host_to_fpga_words(self) -> int:
        return sum(t.host_to_fpga_words for t in self.targets)

    @property
    def total_fpga_to_host_words(self) -> int:
        return sum(t.fpga_to_host_words for t in self.targets)

    @property
    def total_transfer_words(self) -> int:
        return self.total_host_to_fpga_words + self.total_fpga_to_host_words


class TaskAssignment:
    """Maps a legalization trace onto a CPU/FPGA partition."""

    def __init__(self, partition: TaskPartition = TaskPartition.FOP_ON_FPGA) -> None:
        self.partition = partition

    # ------------------------------------------------------------------
    def steps_on_cpu(self) -> Tuple[str, ...]:
        """Step labels executed by the host under this partition."""
        if self.partition is TaskPartition.ALL_CPU:
            return ("premove", "ordering", "region", "fop", "update")
        if self.partition is TaskPartition.FOP_ON_FPGA:
            return ("premove", "ordering", "region", "update")
        return ("premove", "ordering", "region")

    def steps_on_fpga(self) -> Tuple[str, ...]:
        """Step labels executed by the device under this partition."""
        if self.partition is TaskPartition.ALL_CPU:
            return ()
        if self.partition is TaskPartition.FOP_ON_FPGA:
            return ("fop",)
        return ("fop", "update")

    # ------------------------------------------------------------------
    def assign_target(self, work: TargetCellWork) -> TargetAssignment:
        """Host/device split for one target cell."""
        cpu_steps = self.steps_on_cpu()
        fpga_steps = self.steps_on_fpga()
        if self.partition is TaskPartition.ALL_CPU:
            to_fpga = 0
            to_host = 0
        else:
            to_fpga = work.region_transfer_words
            if self.partition is TaskPartition.FOP_ON_FPGA:
                to_host = FOP_RESULT_WORDS
            else:
                # The device owns the committed positions: every moved cell's
                # final location must be returned to keep the host layout and
                # the ordering/density bookkeeping coherent.
                to_host = FOP_RESULT_WORDS + UPDATE_WORDS_PER_MOVED_CELL * (
                    work.update_moved_cells + 1
                )
        return TargetAssignment(
            cell_index=work.cell_index,
            cpu_steps=cpu_steps,
            fpga_steps=fpga_steps,
            host_to_fpga_words=to_fpga,
            fpga_to_host_words=to_host,
        )

    def assign_trace(self, trace: LegalizationTrace) -> AssignmentSummary:
        """Host/device split for every target of a run."""
        targets = [self.assign_target(work) for work in trace.targets]
        return AssignmentSummary(partition=self.partition, targets=targets)
