"""The incremental (ECO) legalization engine.

A production legalizer rarely sees a design once: after the first full
legalization, engineering change orders (ECOs) keep arriving as small
deltas — cells move, resize, appear and disappear, macros shift — and
each time the layout must be legal again.  Re-running the full legalizer
rebuilds the world from scratch for every batch; this module instead
tracks *dirty state across calls*:

1. :func:`apply_deltas` edits the layout in place through the
   :class:`~repro.geometry.layout.Layout` incremental mutation hooks, so
   the persistent per-row occupancy index and the free-space summary are
   updated (and invalidated) only for the rows a delta actually touches.
2. While applying, it computes the **minimal dirty set**: cells a delta
   targets directly, plus legalized cells whose rectangles overlap a
   new/changed footprint — found by a spatial sweep over the occupancy
   index, never by a full-layout scan.
3. :class:`IncrementalLegalizer` then re-legalizes *only* the dirty set
   through :meth:`repro.mgl.legalizer.MGLLegalizer.legalize_subset`,
   reusing the existing processing ordering, occupancy-aware window
   planner and whatever kernel backend is registered (including
   ``multiprocess``) completely unchanged.  When dirtiness exceeds a
   configurable threshold it falls back to a full re-legalization, where
   a from-scratch run is cheaper than chasing a huge dirty set.

Exactness contract
------------------
For every delta batch the incremental result is **bit-for-bit
identical** to running the full legalizer on the post-delta layout (the
full run's pending set *is* the dirty set, and ordering, window planning
and kernels all restrict naturally).  :func:`reference_relegalize`
implements that oracle — it replays the same deltas onto a copy, rebuilds
every index from scratch and runs the plain full legalizer — and the
property suite in ``tests/test_incremental.py`` holds the engine to it
on every backend.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.incremental.deltas import (
    Delta,
    DeltaBatch,
    DeleteCell,
    InsertCell,
    MoveCell,
    ResizeCell,
    SetFixed,
)
from repro.kernels import BackendSpec
from repro.mgl.legalizer import LegalizationResult, MGLLegalizer
from repro.obs import event as obs_event
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.perf.counters import IncrementalStats, LegalizationTrace

#: Default dirty fraction above which a full re-legalization is cheaper
#: than an incremental pass (the dirty set is most of the design anyway,
#: and the full run amortises its world rebuild over every cell).
DEFAULT_FULL_THRESHOLD = 0.5


def _relative_drift(value: float, baseline: float) -> float:
    """Relative drift of ``value`` over ``baseline`` (0.0 for baseline 0)."""
    if baseline <= 0.0:
        return 0.0
    return value / baseline - 1.0


# ----------------------------------------------------------------------
# Delta application + dirty-set tracking
# ----------------------------------------------------------------------
@dataclass
class AppliedDeltas:
    """Outcome of applying one delta batch to a layout."""

    dirty: List[int] = field(default_factory=list)
    """Sorted indices of the movable cells that must be re-legalized."""

    dirty_direct: int = 0
    dirty_overlap: int = 0
    deltas_applied: int = 0
    rows_touched: int = 0


def _live_cell(layout: Layout, index: int) -> Cell:
    """The cell a delta addresses; rejects bad indices and tombstones."""
    if not 0 <= index < len(layout.cells):
        raise ValueError(f"delta targets unknown cell index {index}")
    cell = layout.cells[index]
    if layout.is_retired(cell):
        raise ValueError(f"delta targets deleted cell {cell.name} (index {index})")
    return cell


def _require_fits_chip(layout: Layout, width: float, height: int, *, what: str) -> None:
    """Reject dimensions no position on the chip can host.

    The old clamp silently parked an oversized cell at the origin with
    its rectangle hanging off the chip — an out-of-chip "placement" that
    every later query (occupancy, legality, search windows) mishandles in
    its own way.  Degenerate geometry is a caller error; raise it.
    """
    if width > layout.width or height > layout.num_rows:
        raise ValueError(
            f"{what}: cell of width {width} x height {height} does not fit "
            f"the chip ({layout.width:g} sites x {layout.num_rows} rows)"
        )


def _clip_position(layout: Layout, x: float, y: float, width: float, height: int):
    """Clamp a desired position so the cell's rectangle stays on-chip.

    Raises :class:`ValueError` when the cell is wider or taller than the
    chip itself (no clamp can make it fit); negative origins and
    past-the-edge positions clamp to the nearest in-chip position,
    including exactly onto the chip boundary (zero clearance is legal).
    """
    _require_fits_chip(layout, width, height, what="clip")
    x = min(max(0.0, float(x)), layout.width - width)
    y = min(max(0.0, float(y)), float(layout.num_rows - height))
    return x, y


def _snap_fixed_position(layout: Layout, x: float, y: float, width: float, height: int):
    """Snap a fixed cell's position to the site/row grid, then clip.

    The per-row obstacle index registers a cell in the rows of its
    *rounded* bottom coordinate, so an off-grid blockage would physically
    overhang rows the legalizer cannot see.  Every design source places
    blockages on-grid; ECO macro deltas must land there too.  Clipping
    must preserve the grid: for a fractional-width macro the raw clamp
    bound ``chip_width - width`` is itself off-grid, so the upper bounds
    are floored to the last on-grid position that keeps the rectangle
    on-chip.
    """
    _require_fits_chip(layout, width, height, what="snap")
    x = min(max(0.0, float(round(x))), float(math.floor(layout.width - width)))
    y = min(max(0.0, float(round(y))), float(layout.num_rows - height))
    return x, y


class _DirtyTracker:
    """Accumulates the dirty set and the touched-row accounting."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self.cause: Dict[int, str] = {}  # cell index -> "direct" | "overlap"
        self.rows: Set[int] = set()

    def touch_rows(self, cell: Cell) -> None:
        bottom, top = cell.row_span
        self.rows.update(range(max(0, bottom), min(self.layout.num_rows, top)))

    def mark_direct(self, cell: Cell) -> None:
        self.cause.setdefault(cell.index, "direct")

    def drop(self, cell: Cell) -> None:
        self.cause.pop(cell.index, None)

    def sweep_overlaps(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float,
                       exclude: int) -> None:
        """Dirty every legalized cell overlapping the given rectangle.

        Walks only the occupancy-index rows the rectangle intersects —
        this is the spatial dirty query, O(rows x obstacles-in-span),
        never a full-layout scan.  Overlapped cells are unlegalized
        immediately (removing them from the index) so later deltas and
        the re-legalization see a consistent world.
        """
        layout = self.layout
        row_lo = max(0, int(math.floor(y_lo)))
        row_hi = min(layout.num_rows, int(math.ceil(y_hi)))
        hits: Dict[int, Cell] = {}
        for row in range(row_lo, row_hi):
            for cell in layout.obstacles_in_row_window(row, x_lo, x_hi):
                if cell.fixed or cell.index == exclude or cell.index in hits:
                    continue
                if (cell.x < x_hi and cell.right > x_lo
                        and cell.y < y_hi and cell.top > y_lo):
                    hits[cell.index] = cell
        for cell in hits.values():
            self.touch_rows(cell)
            layout.unlegalize_cell(cell)
            self.cause.setdefault(cell.index, "overlap")

    def result(self, deltas_applied: int) -> AppliedDeltas:
        direct = sum(1 for v in self.cause.values() if v == "direct")
        return AppliedDeltas(
            dirty=sorted(self.cause),
            dirty_direct=direct,
            dirty_overlap=len(self.cause) - direct,
            deltas_applied=deltas_applied,
            rows_touched=len(self.rows),
        )


def validate_deltas(layout: Layout, deltas: Sequence[Delta]) -> None:
    """Reject an invalid batch *before* any mutation happens.

    Simulates just enough state (cell count, tombstones, fixed flags,
    widths) to catch every error :func:`apply_deltas` could otherwise
    raise mid-batch — bad indices, deltas against deleted cells, invalid
    resize dimensions, freeing a zero-width marker, unknown delta types.
    A batch that passes validation applies atomically; one that fails
    leaves the layout (and the engine's persistent state) untouched.
    """
    n = len(layout.cells)
    retired = {c.index for c in layout.cells if layout.is_retired(c)}
    fixed: Dict[int, bool] = {}
    widths: Dict[int, float] = {}
    heights: Dict[int, int] = {}

    def live(index: int, op: str) -> None:
        if not 0 <= index < n:
            raise ValueError(f"{op} delta targets unknown cell index {index}")
        if index in retired:
            raise ValueError(f"{op} delta targets deleted cell index {index}")

    def is_fixed(index: int) -> bool:
        return fixed.get(index, layout.cells[index].fixed if index < len(layout.cells) else False)

    def width_of(index: int) -> float:
        return widths.get(index, layout.cells[index].width if index < len(layout.cells) else 1.0)

    def height_of(index: int) -> int:
        return heights.get(index, layout.cells[index].height if index < len(layout.cells) else 1)

    def fits(width: float, height: int, op: str) -> None:
        if width > layout.width or height > layout.num_rows:
            raise ValueError(
                f"{op} delta: cell of width {width} x height {height} does not "
                f"fit the chip ({layout.width:g} sites x {layout.num_rows} rows)"
            )

    for delta in deltas:
        if isinstance(delta, MoveCell):
            live(delta.index, "move")
            # A base layout may hold a cell larger than the chip (a
            # malformed import); moving it would otherwise raise deep in
            # apply_deltas, after earlier deltas already mutated state.
            fits(width_of(delta.index), height_of(delta.index), "move")
        elif isinstance(delta, ResizeCell):
            live(delta.index, "resize")
            width = width_of(delta.index) if delta.width is None else float(delta.width)
            height = height_of(delta.index) if delta.height is None else int(delta.height)
            if width < 0 or (width == 0 and not is_fixed(delta.index)):
                raise ValueError(f"resize delta: width must be positive, got {width}")
            if delta.height is not None and int(delta.height) < 1:
                raise ValueError(f"resize delta: height must be >= 1, got {delta.height}")
            fits(width, height, "resize")
            widths[delta.index] = width
            heights[delta.index] = height
        elif isinstance(delta, InsertCell):
            if delta.width < 0 or (delta.width == 0 and not delta.fixed):
                raise ValueError(f"insert delta: width must be positive, got {delta.width}")
            if int(delta.height) < 1:
                raise ValueError(f"insert delta: height must be >= 1, got {delta.height}")
            fits(float(delta.width), int(delta.height), "insert")
            fixed[n] = delta.fixed
            widths[n] = float(delta.width)
            heights[n] = int(delta.height)
            if delta.fixed and delta.width == 0.0:
                # A zero-width fixed marker is indistinguishable from a
                # tombstone; later deltas must not address it.
                retired.add(n)
            n += 1
        elif isinstance(delta, DeleteCell):
            live(delta.index, "delete")
            retired.add(delta.index)
        elif isinstance(delta, SetFixed):
            live(delta.index, "set_fixed")
            if delta.fixed:
                # Freezing a floating cell snaps it to the grid, which
                # rejects cells larger than the chip — check here so the
                # batch stays atomic.
                fits(width_of(delta.index), height_of(delta.index), "set_fixed")
            if not delta.fixed and width_of(delta.index) == 0.0:
                raise ValueError(
                    f"set_fixed delta: cell index {delta.index} has zero width "
                    "and cannot become movable"
                )
            fixed[delta.index] = delta.fixed
        else:
            raise TypeError(f"unknown delta type {type(delta).__name__}")


def apply_deltas(layout: Layout, deltas: Sequence[Delta]) -> AppliedDeltas:
    """Apply one ECO delta batch to ``layout`` in place.

    The batch is validated up front (:func:`validate_deltas`) so it
    applies atomically: an invalid batch raises without touching the
    layout.  Maintains the per-row occupancy index incrementally (no
    rebuild) and returns the minimal dirty set: exactly the movable
    cells that are unlegalized afterwards and must be re-placed.
    Deterministic — the same batch applied to equal layouts yields
    identical layouts and identical dirty sets, which is what makes the
    incremental and the from-scratch reference paths comparable bit for
    bit.
    """
    validate_deltas(layout, deltas)
    tracker = _DirtyTracker(layout)
    for delta in deltas:
        if isinstance(delta, MoveCell):
            cell = _live_cell(layout, delta.index)
            if cell.fixed:
                x, y = _snap_fixed_position(
                    layout, delta.gp_x, delta.gp_y, cell.width, cell.height
                )
                tracker.touch_rows(cell)
                layout.relocate_fixed(cell, x, y)
                cell.gp_x, cell.gp_y = x, y
                tracker.touch_rows(cell)
                tracker.sweep_overlaps(cell.x, cell.right, cell.y, cell.top, cell.index)
            else:
                x, y = _clip_position(
                    layout, delta.gp_x, delta.gp_y, cell.width, cell.height
                )
                if cell.legalized:
                    tracker.touch_rows(cell)
                layout.unlegalize_cell(cell)
                cell.gp_x, cell.gp_y = x, y
                cell.x, cell.y = x, y
                tracker.mark_direct(cell)
        elif isinstance(delta, ResizeCell):
            cell = _live_cell(layout, delta.index)
            tracker.touch_rows(cell)
            if cell.fixed:
                layout.resize_cell(cell, delta.width, delta.height)
                x, y = _snap_fixed_position(layout, cell.x, cell.y, cell.width, cell.height)
                if (x, y) != (cell.x, cell.y):
                    layout.relocate_fixed(cell, x, y)
                    cell.gp_x, cell.gp_y = x, y
                tracker.touch_rows(cell)
                tracker.sweep_overlaps(cell.x, cell.right, cell.y, cell.top, cell.index)
            else:
                layout.unlegalize_cell(cell)
                layout.resize_cell(cell, delta.width, delta.height)
                cell.gp_x, cell.gp_y = _clip_position(
                    layout, cell.gp_x, cell.gp_y, cell.width, cell.height
                )
                cell.x, cell.y = cell.gp_x, cell.gp_y
                tracker.mark_direct(cell)
        elif isinstance(delta, InsertCell):
            index = len(layout.cells)
            snap = _snap_fixed_position if delta.fixed else _clip_position
            x, y = snap(layout, delta.gp_x, delta.gp_y, delta.width, delta.height)
            cell = Cell(
                index=index,
                width=delta.width,
                height=delta.height,
                gp_x=x,
                gp_y=y,
                x=x,
                y=y,
                fixed=delta.fixed,
                name=delta.name or f"eco{index}",
            )
            layout.add_cell(cell)
            if cell.fixed:
                tracker.touch_rows(cell)
                tracker.sweep_overlaps(cell.x, cell.right, cell.y, cell.top, cell.index)
            else:
                tracker.mark_direct(cell)
        elif isinstance(delta, DeleteCell):
            cell = _live_cell(layout, delta.index)
            tracker.touch_rows(cell)
            layout.retire_cell(cell)
            tracker.drop(cell)
        elif isinstance(delta, SetFixed):
            cell = _live_cell(layout, delta.index)
            if delta.fixed and not cell.fixed:
                was_floating = not cell.legalized
                if was_floating:
                    # Not in the index yet, so the position can be edited
                    # directly: freeze on the placement grid.
                    cell.x, cell.y = _snap_fixed_position(
                        layout, cell.x, cell.y, cell.width, cell.height
                    )
                tracker.touch_rows(cell)
                layout.set_cell_fixed(cell, True)
                tracker.drop(cell)
                if was_floating:
                    # Frozen at an unlegalized position: the new blockage
                    # may overlap committed placements.
                    tracker.sweep_overlaps(
                        cell.x, cell.right, cell.y, cell.top, cell.index
                    )
            elif not delta.fixed and cell.fixed:
                tracker.touch_rows(cell)
                layout.set_cell_fixed(cell, False)
                tracker.mark_direct(cell)
        else:
            raise TypeError(f"unknown delta type {type(delta).__name__}")
    return tracker.result(len(deltas))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class IncrementalResult:
    """Outcome of one incremental call: the run plus its reuse counters."""

    legalization: LegalizationResult
    stats: IncrementalStats

    @property
    def layout(self) -> Layout:
        return self.legalization.layout

    @property
    def trace(self):
        return self.legalization.trace

    @property
    def success(self) -> bool:
        return self.legalization.success

    @property
    def average_displacement(self) -> float:
        return self.legalization.average_displacement


class IncrementalLegalizer:
    """Keeps one layout legal across a stream of ECO delta batches.

    Parameters
    ----------
    legalizer:
        The wrapped :class:`~repro.mgl.legalizer.MGLLegalizer` (or a
        compatible object exposing ``legalize`` / ``legalize_subset``).
        Defaults to an ``MGLLegalizer`` with default parameters.
    backend:
        Convenience kernel-backend override applied to the legalizer
        (any :mod:`repro.kernels` spec, e.g. ``"numpy"`` or
        ``"multiprocess:4"``).
    full_threshold:
        Dirty fraction (dirty cells / movable cells) above which the
        engine resets every movable cell and runs a full legalization
        instead of an incremental pass.  ``0.0`` forces the full path on
        *any* dirt (every non-empty batch); ``1.0`` never takes it.
    max_avedis_drift:
        Displacement budget of the quality governor: the maximum
        *relative* AveDis drift tolerated over the quality baseline
        snapshot (e.g. ``0.05`` = 5 %).  After an incremental pass whose
        AveDis exceeds ``baseline * (1 + max_avedis_drift)`` the engine
        **repacks** — resets every movable cell to its global placement
        position and runs one full legalization — and refreshes the
        baseline from the repacked layout.  ``None`` (default) disables
        the reactive repack, preserving the pure incremental semantics
        (bit-for-bit equal to :func:`reference_relegalize`).
    repack_every:
        Scheduled repack period: every ``repack_every``-th non-empty
        batch runs a repack instead of an incremental pass, regardless
        of measured drift.  ``None`` (default) disables the schedule.
    max_fragmentation_drift:
        Fragmentation budget: maximum *absolute* increase of
        :meth:`~repro.geometry.layout.Layout.free_space_fragmentation`
        over the baseline snapshot before a repack fires (fragmentation
        is already a 0–1 fraction, so the budget is an absolute delta,
        e.g. ``0.15``).  ``None`` (default) disables the check.
    fragmentation_min_gap:
        Gap width below which free space counts as fragmented; defaults
        to the layout's mean movable-cell width.
    track_fragmentation:
        Record the fragmentation trajectory in the per-call stats even
        when no fragmentation budget is set (the soak harness wants the
        curve without the governor).  Defaults to "only when
        ``max_fragmentation_drift`` is set".

    Long ECO streams are where the budgets matter: each incremental pass
    is locally optimal, but AveDis can ratchet upward batch over batch
    (the paper's "repeated local legalization degrades global quality"
    failure mode).  The governor bounds that drift at the cost of an
    occasional full repack; ``repacks_total`` / ``batches_since_repack``
    on the engine and the per-call :class:`IncrementalStats` expose when
    and why it intervened.  Repack decisions depend only on placements,
    which are bit-for-bit identical across kernel backends, so a
    governed stream still ends in the same layout on every backend and
    worker count.

    Usage::

        engine = IncrementalLegalizer(backend="numpy", max_avedis_drift=0.05)
        engine.begin(layout)               # full legalization if needed
        result = engine.apply(deltas)      # one ECO batch
        print(incremental_summary(result.stats))
    """

    def __init__(
        self,
        legalizer: Optional[MGLLegalizer] = None,
        *,
        backend: BackendSpec = None,
        full_threshold: float = DEFAULT_FULL_THRESHOLD,
        max_avedis_drift: Optional[float] = None,
        repack_every: Optional[int] = None,
        max_fragmentation_drift: Optional[float] = None,
        fragmentation_min_gap: Optional[float] = None,
        track_fragmentation: Optional[bool] = None,
    ) -> None:
        if legalizer is None:
            legalizer = MGLLegalizer(backend=backend)
        elif backend is not None:
            legalizer = legalizer.with_backend(backend)
        if not 0.0 <= full_threshold <= 1.0:
            raise ValueError(f"full_threshold must be in [0, 1], got {full_threshold}")
        if max_avedis_drift is not None and max_avedis_drift < 0.0:
            raise ValueError(
                f"max_avedis_drift must be >= 0, got {max_avedis_drift}"
            )
        if repack_every is not None and int(repack_every) < 1:
            raise ValueError(f"repack_every must be >= 1, got {repack_every}")
        if max_fragmentation_drift is not None and max_fragmentation_drift < 0.0:
            raise ValueError(
                f"max_fragmentation_drift must be >= 0, got {max_fragmentation_drift}"
            )
        if max_fragmentation_drift is not None and track_fragmentation is False:
            # An untracked baseline would freeze at 0.0, silently turning
            # the relative budget into an absolute cap that repacks every
            # batch once fragmentation exceeds it.
            raise ValueError(
                "max_fragmentation_drift requires fragmentation tracking; "
                "leave track_fragmentation unset (or True)"
            )
        self.legalizer = legalizer
        self.full_threshold = full_threshold
        self.max_avedis_drift = max_avedis_drift
        self.repack_every = None if repack_every is None else int(repack_every)
        self.max_fragmentation_drift = max_fragmentation_drift
        self.fragmentation_min_gap = fragmentation_min_gap
        self.track_fragmentation = (
            max_fragmentation_drift is not None
            if track_fragmentation is None
            else bool(track_fragmentation)
        )
        self.layout: Optional[Layout] = None
        #: Per-call reuse counters, most recent last.
        self.history: List[IncrementalStats] = []
        #: Repacks performed over the engine's lifetime.
        self.repacks_total = 0
        #: Non-empty batches since the last baseline refresh.
        self.batches_since_repack = 0
        self._baseline_avedis: float = 0.0
        self._baseline_frag: float = 0.0
        self._last_displacement = None  # DisplacementStats of the layout

    # ------------------------------------------------------------------
    def begin(self, layout: Layout) -> Optional[LegalizationResult]:
        """Adopt ``layout`` as the persistent design.

        If the layout still has unlegalized movable cells they are
        legalized now (one full run); an already-legal layout is adopted
        as-is after one index build — the last full rebuild the engine
        ever pays.  Either way the adopted state becomes the quality
        baseline the drift budgets are measured against.
        """
        self.layout = layout
        self.history = []
        self.repacks_total = 0
        result: Optional[LegalizationResult] = None
        if layout.unlegalized_cells():
            result = self.legalizer.legalize(layout)
            self._last_displacement = result.stats
        else:
            layout.rebuild_index()
            self._last_displacement = self.legalizer.metrics.compute(layout)
        self._refresh_baseline(self._last_displacement.average_displacement)
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release resources held by the underlying legalizer.

        ECO engines are long-lived by design, which is exactly how a
        persistent multiprocess worker pool outlives its usefulness —
        soak drivers should ``close()`` (or use the engine as a context
        manager) when the stream ends.  Safe on custom legalizer objects
        without a ``close`` method, idempotent, and non-terminal: the
        next batch recreates whatever the backend needs.
        """
        closer = getattr(self.legalizer, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "IncrementalLegalizer":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def _fragmentation(self) -> float:
        assert self.layout is not None
        return self.layout.free_space_fragmentation(self.fragmentation_min_gap)

    def _refresh_baseline(self, avedis: float) -> None:
        """Snapshot the current layout as the quality baseline."""
        self._baseline_avedis = avedis
        if self.track_fragmentation:
            self._baseline_frag = self._fragmentation()
        self.batches_since_repack = 0

    def _repack(self) -> LegalizationResult:
        """Reset every movable cell and re-legalize the whole design."""
        assert self.layout is not None
        self.layout.reset_positions()
        result = self.legalizer.legalize(self.layout)
        self.repacks_total += 1
        self._refresh_baseline(result.stats.average_displacement)
        return result

    def _drift_reason(self, avedis: float, fragmentation: float) -> str:
        """Which budget (if any) the post-pass layout state exceeds."""
        if self.max_avedis_drift is not None:
            allowed = self._baseline_avedis * (1.0 + self.max_avedis_drift)
            if avedis > allowed + 1e-12:
                return "drift"
        if self.max_fragmentation_drift is not None:
            if fragmentation > self._baseline_frag + self.max_fragmentation_drift:
                return "fragmentation"
        return ""

    def _noop_result(self, start: float) -> IncrementalResult:
        """An empty batch: nothing changed, so nothing runs.

        No validation sweep, no dirty-set computation, no subset
        machinery, no metric recomputation — the previous displacement
        statistics are still exact because the layout is untouched.
        """
        assert self.layout is not None
        layout = self.layout
        displacement = self._last_displacement
        if displacement is None:  # begin() always sets it; stay safe
            displacement = self.legalizer.metrics.compute(layout)
            self._last_displacement = displacement
        trace = LegalizationTrace(
            design_name=layout.name,
            algorithm=getattr(self.legalizer, "algorithm_name", "mgl"),
            num_cells=len(layout.cells),
            num_movable=displacement.num_cells,
        )
        legalization = LegalizationResult(layout=layout, trace=trace, stats=displacement)
        prev = self.history[-1] if self.history else None
        stats = IncrementalStats(
            num_movable=displacement.num_cells,
            reused_cells=displacement.num_cells,
            mode="noop",
            full_threshold=self.full_threshold,
            wall_seconds=time.perf_counter() - start,
            avedis=displacement.average_displacement,
            baseline_avedis=self._baseline_avedis,
            avedis_drift=_relative_drift(
                displacement.average_displacement, self._baseline_avedis
            ),
            fragmentation=prev.fragmentation if prev else self._baseline_frag,
            fragmentation_tracked=self.track_fragmentation,
            baseline_fragmentation=self._baseline_frag,
            repacks_total=self.repacks_total,
            batches_since_repack=self.batches_since_repack,
        )
        self.history.append(stats)
        return IncrementalResult(legalization=legalization, stats=stats)

    # ------------------------------------------------------------------
    def apply(self, deltas: Sequence[Delta]) -> IncrementalResult:
        """Apply one ECO delta batch and restore legality.

        Returns the re-legalization result together with the dirty-set /
        reuse counters.  The placements of all non-dirty cells are
        reused unchanged — unless this call triggered a repack, in which
        case every movable cell was re-derived from its global placement
        position.
        """
        if self.layout is None:
            raise RuntimeError(
                "IncrementalLegalizer.apply() called before begin(); adopt a "
                "layout with begin(layout) first"
            )
        layout = self.layout
        start = time.perf_counter()
        if len(deltas) == 0:
            return self._noop_result(start)
        # An invalid batch raises here, before any mutation: the layout
        # is untouched and the engine stays usable.
        validate_deltas(layout, deltas)
        try:
            applied = apply_deltas(layout, deltas)
        except Exception:
            # Validation passed yet application failed: internal error.
            # The layout may be half-mutated, so force a fresh begin()
            # (which fully re-adopts and, if needed, re-legalizes).
            self.layout = None
            raise
        num_movable = len(layout.movable_cells())
        dirty_cells = [layout.cells[i] for i in applied.dirty]
        dirty_fraction = len(dirty_cells) / max(1, num_movable)
        self.batches_since_repack += 1
        repack_reason = ""

        force_full = bool(dirty_cells) and (
            dirty_fraction > self.full_threshold or self.full_threshold == 0.0
        )
        fragmentation = 0.0
        with span(
            "eco.batch",
            deltas=applied.deltas_applied,
            dirty=len(dirty_cells),
            movable=num_movable,
        ) as sp:
            if force_full:
                mode = "full"
                layout.reset_positions()
                result = self.legalizer.legalize(layout)
                # A full reset re-derives every placement from its global
                # position — exactly what a repack produces — so it refreshes
                # the baseline (but is not counted as a governor repack).
                self._refresh_baseline(result.stats.average_displacement)
                fragmentation = self._baseline_frag  # just snapshotted from this state
            elif (
                self.repack_every is not None
                and self.batches_since_repack >= self.repack_every
            ):
                mode, repack_reason = "repack", "scheduled"
                obs_event(
                    "eco.governor",
                    decision="scheduled",
                    batches_since_repack=self.batches_since_repack,
                    repack_every=self.repack_every,
                )
                result = self._repack()
                fragmentation = self._baseline_frag
            else:
                mode = "incremental"
                result = self.legalizer.legalize_subset(layout, dirty_cells)
                if self.track_fragmentation:
                    fragmentation = self._fragmentation()
                reason = self._drift_reason(
                    result.stats.average_displacement, fragmentation
                )
                if reason:
                    mode, repack_reason = "repack", reason
                    # The governor decision record: the drift/fragmentation
                    # values that tripped the budget, alongside the budgets.
                    obs_event(
                        "eco.governor",
                        decision=reason,
                        avedis=result.stats.average_displacement,
                        baseline_avedis=self._baseline_avedis,
                        fragmentation=fragmentation,
                        baseline_fragmentation=self._baseline_frag,
                        max_avedis_drift=self.max_avedis_drift,
                        max_fragmentation_drift=self.max_fragmentation_drift,
                    )
                    result = self._repack()
                    fragmentation = self._baseline_frag
            sp.set(mode=mode, repack_reason=repack_reason)
        obs_metrics.inc("repro_eco_batches_total", mode=mode)
        if repack_reason:
            obs_metrics.inc("repro_eco_repacks_total", reason=repack_reason)

        self._last_displacement = result.stats
        avedis = result.stats.average_displacement
        stats = IncrementalStats(
            deltas_applied=applied.deltas_applied,
            dirty_direct=applied.dirty_direct,
            dirty_overlap=applied.dirty_overlap,
            dirty_total=len(dirty_cells),
            num_movable=num_movable,
            reused_cells=num_movable - len(dirty_cells) if mode == "incremental" else 0,
            rows_touched=applied.rows_touched,
            mode=mode,
            full_threshold=self.full_threshold,
            wall_seconds=time.perf_counter() - start,
            avedis=avedis,
            baseline_avedis=self._baseline_avedis,
            avedis_drift=_relative_drift(avedis, self._baseline_avedis),
            fragmentation=fragmentation,
            fragmentation_tracked=self.track_fragmentation,
            baseline_fragmentation=self._baseline_frag,
            repack_reason=repack_reason,
            repacks_total=self.repacks_total,
            batches_since_repack=self.batches_since_repack,
        )
        obs_metrics.observe("repro_eco_batch_seconds", stats.wall_seconds, mode=mode)
        self.history.append(stats)
        return IncrementalResult(legalization=result, stats=stats)

    # ------------------------------------------------------------------
    def repack(self) -> IncrementalResult:
        """Explicitly reset every movable cell and re-legalize the design.

        The service layer (and any other long-lived driver) can schedule
        repacks off its hot path instead of waiting for a governor budget
        to trip; an explicit repack runs the same reset-and-legalize as a
        governor repack, counts in ``repacks_total`` and refreshes the
        quality baseline.  Recorded in :attr:`history` with
        ``repack_reason="requested"`` so replay ledgers can reproduce it
        at the same point in the stream.
        """
        if self.layout is None:
            raise RuntimeError(
                "IncrementalLegalizer.repack() called before begin(); adopt a "
                "layout with begin(layout) first"
            )
        start = time.perf_counter()
        num_movable = len(self.layout.movable_cells())
        with span("eco.repack", reason="requested"):
            result = self._repack()
        obs_metrics.inc("repro_eco_repacks_total", reason="requested")
        self._last_displacement = result.stats
        avedis = result.stats.average_displacement
        stats = IncrementalStats(
            num_movable=num_movable,
            mode="repack",
            full_threshold=self.full_threshold,
            wall_seconds=time.perf_counter() - start,
            avedis=avedis,
            baseline_avedis=self._baseline_avedis,
            avedis_drift=_relative_drift(avedis, self._baseline_avedis),
            fragmentation=self._baseline_frag,
            fragmentation_tracked=self.track_fragmentation,
            baseline_fragmentation=self._baseline_frag,
            repack_reason="requested",
            repacks_total=self.repacks_total,
            batches_since_repack=self.batches_since_repack,
        )
        self.history.append(stats)
        return IncrementalResult(legalization=result, stats=stats)

    # ------------------------------------------------------------------
    def lifetime_summary(self) -> Dict[str, object]:
        """Aggregate counters over the engine's whole history.

        The session layer of the service daemon reports this from its
        ``stats`` / ``close_session`` responses; it is equally handy for
        soak drivers that only want the end-of-stream picture.
        """
        modes: Dict[str, int] = {}
        for entry in self.history:
            modes[entry.mode] = modes.get(entry.mode, 0) + 1
        last = self.history[-1] if self.history else None
        return {
            "batches": len(self.history),
            "modes": modes,
            "deltas_applied": sum(s.deltas_applied for s in self.history),
            "cells_relegalized": sum(s.dirty_total for s in self.history),
            "repacks_total": self.repacks_total,
            "batches_since_repack": self.batches_since_repack,
            "wall_seconds": sum(s.wall_seconds for s in self.history),
            "avedis": last.avedis if last else 0.0,
            "avedis_drift": last.avedis_drift if last else 0.0,
        }

    # ------------------------------------------------------------------
    def replay(self, batches: Sequence[DeltaBatch]) -> List[IncrementalResult]:
        """Apply a whole delta stream, one :meth:`apply` per batch."""
        return [self.apply(batch) for batch in batches]


# ----------------------------------------------------------------------
# The exactness oracle
# ----------------------------------------------------------------------
def reference_relegalize(
    base_layout: Layout,
    batches: Sequence[DeltaBatch],
    *,
    legalizer: Optional[MGLLegalizer] = None,
    backend: BackendSpec = None,
) -> Layout:
    """From-scratch oracle for the incremental engine.

    Replays ``batches`` onto a copy of ``base_layout``; after each batch
    every index and summary is rebuilt from scratch and the plain *full*
    legalizer runs on the post-delta layout — whose pending set is
    exactly the dirty set, so this is "the full legalizer with the same
    ordering restricted to the dirty set".  The returned layout must
    match the engine's persistent layout bit for bit.
    """
    if legalizer is None:
        legalizer = MGLLegalizer(backend=backend)
    elif backend is not None:
        legalizer = legalizer.with_backend(backend)
    layout = base_layout.copy()
    if layout.unlegalized_cells():
        legalizer.legalize(layout)
    for batch in batches:
        apply_deltas(layout, batch)
        layout.rebuild_index()
        legalizer.legalize(layout)
    return layout
