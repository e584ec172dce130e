"""Work counters recorded while a legalizer runs.

Every legalizer in this repository (MGL, FLEX, and the baselines built on
them) records *what it did* rather than how long the Python interpreter
took to do it: the number of insertion points evaluated per target cell,
the number of subcell traversals performed by cell shifting, the number
of breakpoints pushed through the FOP pipeline, and so on.  These counts
are hardware-independent; the CPU cost models and the FPGA cycle models
consume them to produce the modeled runtimes reported in the experiment
harness.

The granularity mirrors the decomposition of the paper:

* :class:`InsertionPointWork` — the work of one insertion point evaluated
  inside FOP (paper Fig. 3(e), the body of loop3);
* :class:`PointColumns` — the insertion points of one region search or
  one target cell, stored as columns: the per-point counts plus one
  :class:`PointRun` of region constants per run of points that share
  them.  The native FOP kernel's per-point output extends it directly,
  and the CPU cost and FPGA cycle models reduce over its columns;
  :class:`InsertionPointWork` objects are only built on demand, as
  read-only views;
* :class:`TargetCellWork` — one entry per legalized target cell, covering
  steps (b)–(e) for that cell;
* :class:`LegalizationTrace` — the whole run, including the serial
  pre-move step (a).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


#: The six operations inside the FOP inner loop, in paper order (Fig. 3(e)).
FOP_STAGES: Tuple[str, ...] = (
    "cell_shift",
    "sort_bp",
    "merge_bp",
    "sum_slopesR",
    "sum_slopesL",
    "calculate_value",
)


def sort_work(n_breakpoints: int) -> float:
    """``n log n`` work units of sorting a point's breakpoints (at least one)."""
    n_bp = max(1, n_breakpoints)
    return n_bp * max(1.0, math.log2(n_bp))


@dataclass
class InsertionPointWork:
    """Work performed to evaluate one insertion point.

    Attributes
    ----------
    n_local_cells:
        Number of localCells in the region when the point was evaluated.
    n_subcells:
        Total number of subcells in the region (one per row a localCell
        covers); the traversal unit of the original cell shifting.
    shift_passes:
        Number of full-region passes the *original* multi-pass cell
        shifting algorithm needed (always 1 for SACS).
    shift_cell_visits:
        Number of cell/subcell visits performed by the shifting algorithm
        actually used (original: ``passes * n_subcells``; SACS: one visit
        per localCell plus one per touched segment pointer).
    chain_left / chain_right:
        Number of cells that actually receive a left-move / right-move
        threshold (the cells whose displacement curves are emitted).
    n_breakpoints:
        Number of elementary breakpoint pieces pushed through the
        sort/merge/slope/value pipeline.
    n_merged_breakpoints:
        Number of distinct breakpoint x-coordinates after merging.
    sort_size:
        Number of localCells pre-sorted by SACS (0 when the original
        algorithm is used; the sort is shared across the insertion points
        of one region, so only the first point of a region reports it).
    multirow_accesses:
        Number of accesses to localCells spanning more than one row
        during shifting (drives the BRAM bandwidth model).
    tall_accesses:
        Number of accesses to localCells taller than three rows (drives
        the Fig. 9 bandwidth-optimisation benefit).
    feasible:
        Whether the insertion point admitted any legal target position.
    """

    n_local_cells: int = 0
    n_subcells: int = 0
    shift_passes: int = 0
    shift_cell_visits: int = 0
    chain_left: int = 0
    chain_right: int = 0
    n_breakpoints: int = 0
    n_merged_breakpoints: int = 0
    sort_size: int = 0
    multirow_accesses: int = 0
    tall_accesses: int = 0
    feasible: bool = True


class PointRun(NamedTuple):
    """The region constants of a run of consecutive insertion points.

    The fields carry :class:`InsertionPointWork`'s names, so the cycle
    models take a run wherever they take one point's work.  A SACS
    region search is one run: its shifting counters are the same at
    every point.  The original shifter's pass counts vary per point, so
    its runs are shorter.  ``sort_size`` belongs to the run's first
    point only (the region is pre-sorted once).
    """

    n_points: int
    n_local_cells: int
    n_subcells: int
    shift_passes: int
    shift_cell_visits: int
    multirow_accesses: int
    tall_accesses: int
    sort_size: int


def _int_column() -> array:
    return array("i")


@dataclass
class PointColumns:
    """Insertion-point work in enumeration order, as columns.

    ``feasible`` (0/1), ``chain_left``, ``chain_right``,
    ``n_breakpoints`` and ``n_merged_breakpoints`` hold one entry per
    point; ``runs`` covers the same points with their region constants.
    Runs are kept maximal (a run is merged into the one before it when
    its constants match and it reports no sort), so equal point
    sequences compare equal however they were appended.  Iterating
    yields :class:`InsertionPointWork` views.
    """

    feasible: array = field(default_factory=_int_column)
    chain_left: array = field(default_factory=_int_column)
    chain_right: array = field(default_factory=_int_column)
    n_breakpoints: array = field(default_factory=_int_column)
    n_merged_breakpoints: array = field(default_factory=_int_column)
    runs: List[PointRun] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.feasible)

    def add_run(self, run: PointRun) -> None:
        """Cover the next ``run.n_points`` points (their columns are
        appended separately)."""
        if self.runs and run.sort_size == 0 and self.runs[-1][1:-1] == run[1:-1]:
            last = self.runs[-1]
            self.runs[-1] = last._replace(n_points=last.n_points + run.n_points)
        elif run.n_points:
            self.runs.append(run)

    def append(self, work: InsertionPointWork) -> None:
        """Append one point (the reference search and the worker transport)."""
        self.feasible.append(1 if work.feasible else 0)
        self.chain_left.append(work.chain_left)
        self.chain_right.append(work.chain_right)
        self.n_breakpoints.append(work.n_breakpoints)
        self.n_merged_breakpoints.append(work.n_merged_breakpoints)
        self.add_run(PointRun(
            1, work.n_local_cells, work.n_subcells, work.shift_passes, work.shift_cell_visits,
            work.multirow_accesses, work.tall_accesses, work.sort_size,
        ))

    def extend(self, other: "PointColumns") -> None:
        """Append every point of ``other``."""
        self.feasible.extend(other.feasible)
        self.chain_left.extend(other.chain_left)
        self.chain_right.extend(other.chain_right)
        self.n_breakpoints.extend(other.n_breakpoints)
        self.n_merged_breakpoints.extend(other.n_merged_breakpoints)
        for run in other.runs:
            self.add_run(run)

    def by_run(self, fn: Callable[[PointRun], Any]) -> List[Any]:
        """``fn(run)`` for every point, in order (evaluated once per run)."""
        column: List[Any] = []
        for run in self.runs:
            column += [fn(run)] * run.n_points
        return column

    def __iter__(self) -> Iterator[InsertionPointWork]:
        stop = 0
        for run in self.runs:
            start, stop = stop, stop + run.n_points
            for i in range(start, stop):
                yield InsertionPointWork(
                    run.n_local_cells, run.n_subcells, run.shift_passes,
                    run.shift_cell_visits, self.chain_left[i], self.chain_right[i],
                    self.n_breakpoints[i], self.n_merged_breakpoints[i],
                    run.sort_size if i == start else 0, run.multirow_accesses,
                    run.tall_accesses, self.feasible[i] == 1,
                )

    @classmethod
    def of(cls, works: Iterable[InsertionPointWork]) -> "PointColumns":
        """Columns holding ``works``, in order."""
        columns = cls()
        for work in works:
            columns.append(work)
        return columns


@dataclass
class TargetCellWork:
    """Work performed to legalize one target cell (steps b–e)."""

    cell_index: int
    height: int = 1
    width: float = 1.0
    n_local_cells: int = 0
    n_subcells: int = 0
    n_rows: int = 0
    window_retries: int = 0
    planner_growths: int = 0
    """Number of growth steps the occupancy-aware window planner applied
    to the geometric base window before retry 0 (0 when the base window
    already held enough free capacity, or the planner was disabled)."""
    fallback_used: bool = False
    fail_reason: Optional[str] = None
    """Why the window retries did not place the cell, or ``None`` when
    one did: the last retry's ``"no_candidate_row"`` (no bottom row of the
    region could host the target), ``"no_feasible_point"`` (no insertion
    point admitted a legal position) or ``"commit_rejected"`` (the commit
    check refused the winner); ``"no_free_slot"`` when the whole-chip
    fallback then found no free slot either (the cell stays unplaced)."""
    region_transfer_words: int = 0
    update_moved_cells: int = 0
    points: PointColumns = field(default_factory=PointColumns)
    """Every insertion point evaluated for the cell, over all retries."""

    # ------------------------------------------------------------------
    @property
    def n_insertion_points(self) -> int:
        return len(self.points)

    @property
    def insertion_points(self) -> List[InsertionPointWork]:
        """The points as :class:`InsertionPointWork` views (built on each access)."""
        return list(self.points)

    @property
    def retry0_feasible(self) -> bool:
        """True when the planned retry-0 window already admitted the cell
        (no window-expansion retry and no whole-chip fallback)."""
        return self.window_retries == 0 and not self.fallback_used

    @property
    def total_shift_visits(self) -> int:
        """Total shifting visits across the cell's insertion points."""
        return sum(run.n_points * run.shift_cell_visits for run in self.points.runs)

    @property
    def total_breakpoints(self) -> int:
        """Total breakpoint pieces across the cell's insertion points."""
        return sum(self.points.n_breakpoints)

    @property
    def total_sort_items(self) -> int:
        """Total items pre-sorted for this cell's region(s)."""
        return sum(run.sort_size for run in self.points.runs)


@dataclass
class IncrementalStats:
    """Dirty-set and reuse counters of one incremental (ECO) call.

    Recorded by :class:`repro.incremental.IncrementalLegalizer` next to
    the :class:`LegalizationTrace` of the re-legalization it ran.  The
    point of the incremental engine is *work avoided*, which the trace
    alone cannot show — these counters do.
    """

    deltas_applied: int = 0
    """Number of deltas in the applied batch."""

    dirty_direct: int = 0
    """Cells dirtied because a delta targeted them directly."""

    dirty_overlap: int = 0
    """Legalized cells dirtied because a new/changed footprint (a fixed
    macro move/resize/insert, or a frozen cell) overlaps them — found by
    the spatial sweep over the persistent per-row occupancy index."""

    dirty_total: int = 0
    """Size of the dirty set actually re-legalized."""

    num_movable: int = 0
    """Movable (non-tombstoned) cells in the post-delta layout."""

    reused_cells: int = 0
    """Legalized cells left untouched (their placements were reused)."""

    rows_touched: int = 0
    """Distinct rows whose occupancy index / free-space summary entries
    were invalidated while applying the batch."""

    mode: str = "incremental"
    """``"incremental"`` (dirty subset re-legalized), ``"full"`` (the
    dirtiness threshold was exceeded and the whole layout was reset and
    re-legalized from scratch), ``"repack"`` (a quality repack ran — see
    ``repack_reason``) or ``"noop"`` (empty delta batch)."""

    full_threshold: float = 1.0
    """Dirty fraction above which the engine falls back to a full run."""

    wall_seconds: float = 0.0
    """End-to-end wall time of the incremental call (apply + legalize)."""

    # --- displacement-bounded (quality-governed) mode -----------------
    avedis: float = 0.0
    """AveDis (``S_am``) of the layout at the end of the call."""

    baseline_avedis: float = 0.0
    """AveDis of the quality baseline snapshot in effect after the call
    (refreshed whenever a full run or a repack re-derives every movable
    placement from its global position)."""

    avedis_drift: float = 0.0
    """Relative AveDis drift vs the baseline snapshot at the end of the
    call: ``avedis / baseline_avedis - 1`` (0.0 when the baseline is 0)."""

    fragmentation: float = 0.0
    """Free-space fragmentation of the layout at the end of the call
    (:meth:`repro.geometry.layout.Layout.free_space_fragmentation`);
    0.0 when fragmentation tracking is disabled."""

    fragmentation_tracked: bool = False
    """Whether the engine measured fragmentation this call (a real 0.0
    reading is distinguishable from tracking-off)."""

    baseline_fragmentation: float = 0.0
    """Fragmentation of the quality baseline snapshot in effect after the
    call (0.0 when fragmentation tracking is disabled)."""

    repack_reason: str = ""
    """Why a repack ran this call: ``"scheduled"`` (``repack_every``
    batches elapsed), ``"drift"`` (AveDis drift exceeded the budget) or
    ``"fragmentation"`` (fragmentation growth exceeded the budget).
    Empty when no repack ran."""

    repacks_total: int = 0
    """Cumulative repacks the engine has performed over its lifetime
    (monotonically non-decreasing across a delta stream)."""

    batches_since_repack: int = 0
    """Non-empty batches applied since the last baseline refresh (a full
    run, a repack, or ``begin()``)."""

    @property
    def dirty_fraction(self) -> float:
        """Dirty cells as a fraction of the movable population."""
        if self.num_movable <= 0:
            return 0.0
        return self.dirty_total / self.num_movable

    def as_dict(self) -> Dict[str, Any]:
        """Flat dictionary for JSON reports."""
        return {
            "deltas_applied": self.deltas_applied,
            "dirty_direct": self.dirty_direct,
            "dirty_overlap": self.dirty_overlap,
            "dirty_total": self.dirty_total,
            "num_movable": self.num_movable,
            "dirty_fraction": self.dirty_fraction,
            "reused_cells": self.reused_cells,
            "rows_touched": self.rows_touched,
            "mode": self.mode,
            "full_threshold": self.full_threshold,
            "wall_seconds": self.wall_seconds,
            "avedis": self.avedis,
            "baseline_avedis": self.baseline_avedis,
            "avedis_drift": self.avedis_drift,
            "fragmentation": self.fragmentation,
            "fragmentation_tracked": self.fragmentation_tracked,
            "baseline_fragmentation": self.baseline_fragmentation,
            "repack_reason": self.repack_reason,
            "repacks_total": self.repacks_total,
            "batches_since_repack": self.batches_since_repack,
        }


@dataclass
class LegalizationTrace:
    """Complete work record of one legalization run."""

    design_name: str = "design"
    algorithm: str = "mgl"
    shift_algorithm: str = "original"
    """Which cell-shifting engine recorded the per-insertion-point visit
    counts (``"original"`` or ``"sacs"``); the FPGA cycle models need this
    to translate visit counts when modeling the other engine."""
    kernel_backend: str = "python"
    """Which :mod:`repro.kernels` backend executed the numeric hot paths
    when the trace was recorded.  Backends are bit-for-bit equivalent, so
    the recorded work is backend-independent; the field lets benchmark
    and experiment reports label measured wall times per backend."""
    worker_count: int = 1
    """Number of OS processes that executed FOP work (1 for every
    sequential backend and for ``multiprocess`` runs that farmed out no
    region; otherwise the ``multiprocess`` pool size).  Results are
    worker-count independent."""
    parallel_regions: int = 0
    """localRegions whose FOP candidate loop was chunked across worker
    processes (always 0 for sequential backends)."""
    num_cells: int = 0
    num_movable: int = 0
    # Step (a): input & pre-move — one unit of work per movable cell.
    premove_cells: int = 0
    # Step (b): process ordering — comparisons performed by the ordering.
    ordering_ops: int = 0
    # Step (c): define localRegion — region transfer words, a proxy for its work.
    region_build_ops: int = 0
    # Step (e): insert & update — cells whose committed position changed.
    update_ops: int = 0
    targets: List[TargetCellWork] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregations used by the cost / cycle models
    # ------------------------------------------------------------------
    def add_target(self, work: TargetCellWork) -> None:
        self.targets.append(work)

    @property
    def total_insertion_points(self) -> int:
        return sum(t.n_insertion_points for t in self.targets)

    @property
    def total_shift_visits(self) -> int:
        return sum(t.total_shift_visits for t in self.targets)

    @property
    def total_breakpoints(self) -> int:
        return sum(t.total_breakpoints for t in self.targets)

    @property
    def total_sort_items(self) -> int:
        return sum(t.total_sort_items for t in self.targets)

    # --- window-planning feasibility counters -------------------------
    @property
    def retry0_feasible_targets(self) -> int:
        """Targets legalized inside their planned retry-0 window."""
        return sum(1 for t in self.targets if t.retry0_feasible)

    @property
    def retry0_feasibility_rate(self) -> float:
        """Fraction of targets whose planned window held at retry 0."""
        if not self.targets:
            return 1.0
        return self.retry0_feasible_targets / len(self.targets)

    @property
    def retries_total(self) -> int:
        """Total window-expansion retries paid across all targets."""
        return sum(t.window_retries for t in self.targets)

    @property
    def planner_growths_total(self) -> int:
        """Total growth steps applied by the window planner."""
        return sum(t.planner_growths for t in self.targets)

    @property
    def fallback_targets(self) -> int:
        """Targets that escaped to the whole-chip free-space fallback."""
        return sum(1 for t in self.targets if t.fallback_used)

    @property
    def total_transfer_words(self) -> int:
        return sum(t.region_transfer_words for t in self.targets)

    @property
    def total_update_moves(self) -> int:
        return sum(t.update_moved_cells for t in self.targets)

    def point_columns(self) -> PointColumns:
        """Every insertion point of the run, in enumeration order."""
        points = PointColumns()
        for target in self.targets:
            points.extend(target.points)
        return points

    def iter_insertion_points(self) -> Iterable[InsertionPointWork]:
        """Every insertion point as an :class:`InsertionPointWork` view."""
        for target in self.targets:
            yield from target.points

    # ------------------------------------------------------------------
    def fop_stage_workload(self) -> Dict[str, float]:
        """Abstract work units per FOP stage (used for the Fig. 2(g) split).

        Each stage's work unit is the quantity its runtime is proportional
        to on a CPU: subcell visits for cell shifting, ``n log n`` for the
        breakpoint sort, and the number of (merged) breakpoints for the
        remaining stages.
        """
        points = self.point_columns()
        bps, ms = points.n_breakpoints, points.n_merged_breakpoints
        # Left folds in enumeration order; a point's units are a function
        # of its counts (clamped to one breakpoint), computed once per count.
        sorts = {b: sort_work(b) for b in set(bps)}
        clamped = {n: max(1, n) for n in {*bps, *ms}}
        merged = reduce(add, map(clamped.__getitem__, ms), 0.0)
        # The three merged-breakpoint stages do the same work per point.
        return dict(zip(FOP_STAGES, (
            reduce(add, points.by_run(lambda run: run.shift_cell_visits), 0.0),
            reduce(add, map(sorts.__getitem__, bps), 0.0),
            reduce(add, map(clamped.__getitem__, bps), 0.0),
            merged, merged, merged,
        )))

    def cell_shift_fraction(self) -> float:
        """Fraction of abstract FOP work spent in cell shifting (Fig. 2(g))."""
        work = self.fop_stage_workload()
        total = sum(work.values())
        if total <= 0:
            return 0.0
        return work["cell_shift"] / total

    def summary(self) -> str:
        """One-line description of the recorded work."""
        return (
            f"{self.design_name}/{self.algorithm}"
            f"[{self.shift_algorithm}/{self.kernel_backend}]: {len(self.targets)} targets, "
            f"{self.total_insertion_points} insertion points, "
            f"{self.total_shift_visits} shift visits, "
            f"{self.total_breakpoints} breakpoints"
        )
