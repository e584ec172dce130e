"""CPU + FPGA co-execution timeline of FLEX.

FLEX overlaps host and device work: while the FPGA runs FOP for target
``i``, the CPU commits the update of target ``i-1`` and builds the region
of target ``i+1`` and preloads it into the free ping-pong RAM.  The
sliding-window ordering keeps ``C_next`` fixed so that region is known in
advance (Sec. 3.1.2), and the model assumes every region after the first
is preloaded: the visible communication cost is the transfer of the
*first* region only (paper Sec. 5.3).

:class:`CoExecutionTimeline` replays this schedule from per-target CPU
times, per-target FPGA times and per-target transfer times, producing the
total wall-clock time and its breakdown.  The same machinery also models
the Fig. 10 alternative where insert & update runs on the FPGA (the
update time moves to the device and its results must be shipped back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass(frozen=True)
class TimelineEntry:
    """Per-target work items fed to the co-execution schedule (seconds)."""

    cell_index: int
    cpu_prep: float
    """Host time to build (and serialise) the target's localRegion."""
    transfer_in: float
    """Host-to-device transfer time of the region data."""
    fpga_compute: float
    """Device time of the work assigned to the FPGA for this target."""
    transfer_out: float
    """Device-to-host transfer time of the results."""
    cpu_post: float
    """Host time to commit the results (insert & update, when on the CPU)."""


@dataclass
class TimelineResult:
    """Outcome of the co-execution schedule (seconds)."""

    total: float
    serial_front: float
    fpga_busy: float
    cpu_busy: float
    visible_transfer: float
    fpga_idle: float
    cpu_idle: float
    per_target_finish: List[float] = field(default_factory=list)

    @property
    def fpga_utilisation(self) -> float:
        span = self.total - self.serial_front
        if span <= 0:
            return 1.0
        return min(1.0, self.fpga_busy / span)


class CoExecutionTimeline:
    """Replays the FLEX host/device schedule.

    Parameters
    ----------
    serial_front_seconds:
        Time spent before the pipelined phase starts: pre-move and the
        initial processing-order computation.
    prep_depends_on_results:
        When False (FLEX's partition: insert & update on the host) the CPU
        builds the next target's region *while* the FPGA processes the
        current one, so host work overlaps device work.  When True (the
        Fig. 10 alternative with insert & update on the device) the host
        must receive the device's position updates before it can build the
        next region, which serialises the two sides — the "interference
        with steps b) and c)" the paper describes.
    """

    def __init__(
        self,
        *,
        serial_front_seconds: float = 0.0,
        prep_depends_on_results: bool = False,
    ) -> None:
        self.serial_front_seconds = serial_front_seconds
        self.prep_depends_on_results = prep_depends_on_results

    # ------------------------------------------------------------------
    def run(self, entries: Sequence[TimelineEntry]) -> TimelineResult:
        """Compute the pipelined makespan of the per-target entries.

        The schedule enforces, for target ``i``:

        * the FPGA can start once the device is free, the region data is on
          the card, and the host has finished building that region;
        * every region after the first was preloaded: its transfer
          overlapped the previous FPGA run and does not delay the device;
        * the host commits the results after the FPGA finishes and the
          (small) result transfer completes; commits never block the device
          unless ``prep_depends_on_results`` is set.
        """
        front = self.serial_front_seconds
        fpga_free = front
        prep_free = front  # host cursor for region building (prioritised)
        results_ready = front  # when the previous target's results reached the host
        fpga_busy = 0.0
        cpu_busy = 0.0
        visible_transfer = 0.0
        post_backlog = 0.0
        finishes: List[float] = []

        for i, entry in enumerate(entries):
            # Host builds the region (step c); with update on the device the
            # build must additionally wait for the previous results.
            prep_start = prep_free
            if self.prep_depends_on_results:
                prep_start = max(prep_start, results_ready)
            prep_done = prep_start + entry.cpu_prep
            prep_free = prep_done
            cpu_busy += entry.cpu_prep

            # Region transfer: hidden by ping-pong preloading except for the
            # first region.
            if i == 0:
                data_ready = prep_done + entry.transfer_in
                visible_transfer += entry.transfer_in
            else:
                data_ready = prep_done

            start = max(fpga_free, data_ready)
            fpga_free = start + entry.fpga_compute
            fpga_busy += entry.fpga_compute

            # Result transfer + host-side commit (step e).  Commits are
            # absorbed into the host's idle time while the device runs, so
            # they only extend the makespan through the total host load.
            # Result transfers overlap the next region's compute and are
            # therefore not counted as visible communication.
            results_ready = fpga_free + entry.transfer_out
            cpu_busy += entry.cpu_post
            post_backlog += entry.cpu_post
            finishes.append(results_ready + entry.cpu_post)

        cpu_total = front + cpu_busy
        device_total = fpga_free
        if entries:
            # The last target's results must still be committed.
            device_total = results_ready + entries[-1].cpu_post
        total = max(device_total, cpu_total)
        span = max(0.0, total - front)
        return TimelineResult(
            total=total,
            serial_front=front,
            fpga_busy=fpga_busy,
            cpu_busy=cpu_busy,
            visible_transfer=visible_transfer,
            fpga_idle=max(0.0, span - fpga_busy),
            cpu_idle=max(0.0, span - cpu_busy),
            per_target_finish=finishes,
        )

    # ------------------------------------------------------------------
    def run_serialized(self, entries: Sequence[TimelineEntry]) -> TimelineResult:
        """Makespan without any host/device overlap (for ablations)."""
        total = self.serial_front_seconds
        fpga_busy = cpu_busy = transfer = 0.0
        finishes = []
        for entry in entries:
            total += (
                entry.cpu_prep
                + entry.transfer_in
                + entry.fpga_compute
                + entry.transfer_out
                + entry.cpu_post
            )
            fpga_busy += entry.fpga_compute
            cpu_busy += entry.cpu_prep + entry.cpu_post
            transfer += entry.transfer_in + entry.transfer_out
            finishes.append(total)
        span = max(0.0, total - self.serial_front_seconds)
        return TimelineResult(
            total=total,
            serial_front=self.serial_front_seconds,
            fpga_busy=fpga_busy,
            cpu_busy=cpu_busy,
            visible_transfer=transfer,
            fpga_idle=max(0.0, span - fpga_busy),
            cpu_idle=max(0.0, span - cpu_busy),
            per_target_finish=finishes,
        )
