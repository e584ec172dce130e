"""Single-thread CPU cost model.

Converts the hardware-independent work counters of a
:class:`~repro.perf.counters.LegalizationTrace` into an estimated
single-thread CPU runtime.  The per-operation costs are engineering
estimates for a ~3 GHz out-of-order core running the pointer-heavy MGL
implementation (Ripple-style C++): tens of nanoseconds per touched cell
or breakpoint, which includes the cache misses caused by the irregular
access patterns the paper highlights.

The absolute values only set the overall time scale; every experiment in
the harness reports *ratios* between configurations evaluated with the
same constants, which is also how the paper reports its results.  All
constants can be overridden through :class:`CpuCostParameters` for
sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, Optional

from repro.perf.counters import FOP_STAGES, LegalizationTrace, sort_work


@dataclass(frozen=True)
class CpuCostParameters:
    """Per-operation CPU costs, in nanoseconds."""

    premove_per_cell_ns: float = 150.0
    """Snapping one cell to its nearest row/site (step a)."""

    ordering_per_comparison_ns: float = 12.0
    """One comparison inside the processing-order sort (step b)."""

    region_per_word_ns: float = 10.0
    """Building the localRegion, per descriptor word produced (step c)."""

    shift_per_visit_ns: float = 7.0
    """One subcell visit of cell shifting (compare + conditional move on
    cached row data; the multi-pass re-traversals are what make this the
    dominant FOP cost, not the per-visit price)."""

    sort_per_item_log_ns: float = 6.0
    """Breakpoint sorting, per ``item * log2(items)`` unit."""

    bp_per_item_ns: float = 4.0
    """Merging, slope accumulation and value computation, per breakpoint."""

    insertion_point_overhead_ns: float = 60.0
    """Fixed overhead per insertion point (loop control, bound checks)."""

    target_overhead_ns: float = 400.0
    """Fixed overhead per target cell (window setup, bookkeeping)."""

    update_per_move_ns: float = 120.0
    """Committing one moved cell during insert & update (step e)."""


@dataclass
class CpuTimeBreakdown:
    """Modeled single-thread CPU time split by MGL step (seconds)."""

    premove: float = 0.0
    ordering: float = 0.0
    region: float = 0.0
    fop: float = 0.0
    update: float = 0.0
    fop_stages: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.premove + self.ordering + self.region + self.fop + self.update

    def as_dict(self) -> Dict[str, float]:
        out = {
            "premove": self.premove,
            "ordering": self.ordering,
            "region": self.region,
            "fop": self.fop,
            "update": self.update,
            "total": self.total,
        }
        out.update({f"fop.{k}": v for k, v in self.fop_stages.items()})
        return out


class CpuCostModel:
    """Estimates single-thread CPU runtimes from a legalization trace."""

    def __init__(self, params: Optional[CpuCostParameters] = None) -> None:
        self.params = params or CpuCostParameters()

    # ------------------------------------------------------------------
    def fop_stage_seconds(self, trace: LegalizationTrace) -> Dict[str, float]:
        """Modeled CPU seconds per FOP stage (drives Fig. 2(g)).

        Each stage is a left fold over every insertion point in
        enumeration order; a point's nanoseconds are a function of its
        run's visits or of its clamped breakpoint counts, evaluated once
        per distinct count.
        """
        p = self.params
        points = trace.point_columns()
        bps, ms = points.n_breakpoints, points.n_merged_breakpoints
        shift_ns = points.by_run(lambda run: run.shift_cell_visits * p.shift_per_visit_ns)
        sort_ns = {b: sort_work(b) * p.sort_per_item_log_ns for b in set(bps)}
        merge_ns = {b: max(1, b) * p.bp_per_item_ns for b in set(bps)}
        merged_ns = {m: max(1, m) * p.bp_per_item_ns for m in set(ms)}
        shift = reduce(add, shift_ns, 0.0)
        sort = reduce(add, map(sort_ns.__getitem__, bps), 0.0)
        merge = reduce(add, map(merge_ns.__getitem__, bps), 0.0)
        merged = reduce(add, map(merged_ns.__getitem__, ms), 0.0)
        # The three merged-breakpoint stages cost the same per point.
        seconds = dict(zip(FOP_STAGES, (shift, sort, merge, merged, merged, merged)))
        return {k: v * 1e-9 for k, v in seconds.items()}

    def breakdown(self, trace: LegalizationTrace) -> CpuTimeBreakdown:
        """Full per-step CPU time breakdown of a run."""
        p = self.params
        out = CpuTimeBreakdown()
        out.premove = trace.premove_cells * p.premove_per_cell_ns * 1e-9
        out.ordering = trace.ordering_ops * p.ordering_per_comparison_ns * 1e-9
        out.region = trace.total_transfer_words * p.region_per_word_ns * 1e-9
        out.fop_stages = self.fop_stage_seconds(trace)
        overheads = (
            trace.total_insertion_points * p.insertion_point_overhead_ns
            + len(trace.targets) * p.target_overhead_ns
        ) * 1e-9
        out.fop = sum(out.fop_stages.values()) + overheads
        out.update = (
            (trace.total_update_moves + len(trace.targets)) * p.update_per_move_ns * 1e-9
        )
        return out

    def total_seconds(self, trace: LegalizationTrace) -> float:
        """Modeled single-thread CPU runtime of the whole run."""
        return self.breakdown(trace).total

    # ------------------------------------------------------------------
    def per_target_host_times(self, trace: LegalizationTrace) -> Dict[int, Dict[str, float]]:
        """Per-target CPU times of the host-side steps (c) and (e).

        Used by the co-execution timeline: while the FPGA runs FOP for
        target ``i`` the CPU builds the region of target ``i+1`` and
        commits the update of target ``i-1``.
        """
        p = self.params
        points = trace.point_columns()
        sort_ns = {b: sort_work(b) * p.sort_per_item_log_ns for b in set(points.n_breakpoints)}
        merge_ns = {b: max(1, b) * p.bp_per_item_ns for b in sort_ns}
        merged_ns = {m: 3 * max(1, m) * p.bp_per_item_ns for m in set(points.n_merged_breakpoints)}
        fop_seconds = [
            (shift_ns + sort_ns[b] + merge_ns[b] + merged_ns[m] + p.insertion_point_overhead_ns)
            * 1e-9
            for shift_ns, b, m in zip(
                points.by_run(lambda run: run.shift_cell_visits * p.shift_per_visit_ns),
                points.n_breakpoints,
                points.n_merged_breakpoints,
            )
        ]
        out: Dict[int, Dict[str, float]] = {}
        start = 0
        for work in trace.targets:
            region_s = work.region_transfer_words * p.region_per_word_ns * 1e-9
            update_s = (work.update_moved_cells + 1) * p.update_per_move_ns * 1e-9
            stop = start + work.n_insertion_points
            fop_s = reduce(add, fop_seconds[start:stop], 0.0)
            start = stop
            fop_s += p.target_overhead_ns * 1e-9
            out[work.cell_index] = {"region": region_s, "update": update_s, "fop": fop_s}
        return out
