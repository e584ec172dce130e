"""Cell shifting: resolving the overlaps a target insertion would cause.

Cell shifting is the dominant operation inside FOP (paper Fig. 2(g):
more than 60 % of FOP runtime).  Given an insertion point, it determines
how far every localCell would have to move — to the left for cells on the
target's left, to the right for cells on its right — as a *function of
the target position* ``x_t``.

Because the localCells of a region are mutually non-overlapping before
the insertion, the displacement of every affected cell is a hinge in
``x_t``:

* a left-side cell ``c`` moves only when ``x_t`` drops below its *push
  threshold* ``b_c`` and then by exactly ``b_c - x_t``;
* a right-side cell ``c`` moves only when the target's right edge
  ``x_t + w_t`` exceeds its threshold ``r_c`` and then by
  ``(x_t + w_t) - r_c``.

The thresholds obey a simple propagation rule along each row: a cell
inherits its neighbour's threshold minus the free gap between them.
Multi-row cells couple the rows, which is exactly why the original
algorithm (Fig. 6, Algorithm 3) needs an unpredictable number of passes:
it traverses subcells bottom-to-top / right-to-left and a constraint that
propagates "down" into an already-visited row is only discovered in the
next pass.  The Sort-Ahead Cell Shifting algorithm
(:mod:`repro.core.sacs`) pre-sorts cells by x so a single pass suffices;
both produce identical thresholds.

This module provides the shared data structures, the original multi-pass
algorithm, and helpers to turn a :class:`ShiftOutcome` into displacement
curves and into concrete committed positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geometry.cell import Cell
from repro.geometry.region import LocalCell, LocalRegion
from repro.mgl.insertion import InsertionPoint

_INF = math.inf
_EPS = 1e-9


@dataclass
class ShiftOutcome:
    """Result of cell shifting for one insertion point.

    ``left_thresholds`` maps a localCell index to its push threshold
    ``b_c`` (the cell moves left by ``max(0, b_c - x_t)``);
    ``right_thresholds`` maps to ``r_c`` (the cell moves right by
    ``max(0, x_t + w_t - r_c)``).  ``xt_lo``/``xt_hi`` bound the target
    positions for which every cell stays inside its localSegments.
    """

    left_thresholds: Dict[int, float] = field(default_factory=dict)
    right_thresholds: Dict[int, float] = field(default_factory=dict)
    xt_lo: float = -_INF
    xt_hi: float = _INF
    feasible: bool = True
    passes: int = 0
    cell_visits: int = 0
    multirow_accesses: int = 0
    tall_accesses: int = 0
    sorted_cells: int = 0


# ----------------------------------------------------------------------
# Shared geometry helpers
# ----------------------------------------------------------------------
def _segment_bounds_for_cell(region: LocalRegion, cell: LocalCell) -> Tuple[float, float]:
    """Tightest segment bounds over the rows a localCell covers."""
    lo = max(region.segments[row].x_lo for row in cell.rows)
    hi = min(region.segments[row].x_hi for row in cell.rows)
    return lo, hi


def target_position_bounds(
    region: LocalRegion, target: Cell, insertion: InsertionPoint
) -> Tuple[float, float]:
    """Target x bounds imposed by the spanned segments alone."""
    lo = max(region.segments[row].x_lo for row in insertion.rows)
    hi = min(region.segments[row].x_hi for row in insertion.rows) - target.width
    return lo, hi


def _feasibility_bounds(
    region: LocalRegion,
    target: Cell,
    insertion: InsertionPoint,
    left: Dict[int, float],
    right: Dict[int, float],
) -> Tuple[float, float]:
    """Combine segment bounds with the push-limits of every affected cell."""
    lo, hi = target_position_bounds(region, target, insertion)
    for idx, b in left.items():
        cell = region.local_cells[idx]
        seg_lo, _ = _segment_bounds_for_cell(region, cell)
        lo = max(lo, b - (cell.x - seg_lo))
    for idx, r in right.items():
        cell = region.local_cells[idx]
        _, seg_hi = _segment_bounds_for_cell(region, cell)
        hi = min(hi, r + (seg_hi - cell.right) - target.width)
    return lo, hi


@dataclass
class RegionRowView:
    """Flattened, per-region snapshot of the row/cell structure.

    Built once per localRegion and shared by every insertion point's
    shifting call, so the hot propagation loops work on plain lists
    instead of repeatedly dereferencing the dataclass graph.
    """

    rows: List[int] = field(default_factory=list)
    row_indices: Dict[int, List[int]] = field(default_factory=dict)
    row_x: Dict[int, List[float]] = field(default_factory=dict)
    row_right: Dict[int, List[float]] = field(default_factory=dict)
    total_subcells: int = 0
    multirow_subcells: int = 0
    tall_subcells: int = 0
    n_cells: int = 0
    multirow_cells: int = 0
    tall_cells: int = 0


def build_row_view(region: LocalRegion) -> RegionRowView:
    """Precompute the flattened row view of a region."""
    view = RegionRowView()
    view.rows = region.rows()
    for row in view.rows:
        indices = region.cell_indices_in_row(row)
        view.row_indices[row] = indices
        view.row_x[row] = [region.local_cells[i].x for i in indices]
        view.row_right[row] = [region.local_cells[i].right for i in indices]
        view.total_subcells += len(indices)
        view.multirow_subcells += sum(1 for i in indices if region.local_cells[i].height > 1)
        view.tall_subcells += sum(1 for i in indices if region.local_cells[i].height > 3)
    view.n_cells = len(region.local_cells)
    view.multirow_cells = sum(1 for lc in region.local_cells if lc.height > 1)
    view.tall_cells = sum(1 for lc in region.local_cells if lc.height > 3)
    return view


# ----------------------------------------------------------------------
# Original multi-pass cell shifting (Fig. 6, Algorithm 3)
# ----------------------------------------------------------------------
def shift_cells_original(
    region: LocalRegion,
    target: Cell,
    insertion: InsertionPoint,
    view: Optional[RegionRowView] = None,
) -> ShiftOutcome:
    """The original iterative cell-shifting algorithm.

    Both the left-move and the right-move phase traverse all subcells of
    the region in a fixed order (rows bottom-to-top; right-to-left within
    a row for the left move, left-to-right for the right move) and repeat
    until a full pass makes no change (the ``finish`` flag of the paper).
    The number of passes is unpredictable — it depends on how constraints
    propagate across rows through multi-row cells — which is what makes
    this algorithm hard to pipeline and motivates SACS.

    The traversal work (every subcell touched once per pass) is accounted
    in bulk per pass; the Python loop itself only performs the constraint
    propagation, which touches the affected cells.
    """
    view = view or build_row_view(region)
    outcome = ShiftOutcome()
    split = insertion.split_map()
    local_cells = region.local_cells

    # --- left-move phase ------------------------------------------------
    left: Dict[int, float] = {}
    for row in insertion.rows:
        indices = view.row_indices[row]
        k = split[row]
        if k > 0:
            boundary = local_cells[indices[k - 1]]
            prev = left.get(boundary.local_index, -_INF)
            left[boundary.local_index] = max(prev, boundary.right)
    changed = bool(left) or True
    while changed:
        changed = False
        outcome.passes += 1
        outcome.cell_visits += view.total_subcells
        outcome.multirow_accesses += view.multirow_subcells
        outcome.tall_accesses += view.tall_subcells
        if not left:
            break
        for row in view.rows:
            indices = view.row_indices[row]
            xs = view.row_x[row]
            rights = view.row_right[row]
            limit = split.get(row)
            for pos in range(len(indices) - 1, 0, -1):
                idx = indices[pos]
                b = left.get(idx)
                if b is None:
                    continue
                # Right-side cells of spanned rows never push anything left.
                if limit is not None and pos >= limit:
                    continue
                neighbour_idx = indices[pos - 1]
                candidate = b - (xs[pos] - rights[pos - 1])
                if candidate > left.get(neighbour_idx, -_INF) + _EPS:
                    left[neighbour_idx] = candidate
                    changed = True

    # --- right-move phase -----------------------------------------------
    right: Dict[int, float] = {}
    for row in insertion.rows:
        indices = view.row_indices[row]
        k = split[row]
        if k < len(indices):
            boundary = local_cells[indices[k]]
            prev = right.get(boundary.local_index, _INF)
            right[boundary.local_index] = min(prev, boundary.x)
    changed = True
    while changed:
        changed = False
        outcome.passes += 1
        outcome.cell_visits += view.total_subcells
        outcome.multirow_accesses += view.multirow_subcells
        outcome.tall_accesses += view.tall_subcells
        if not right:
            break
        for row in view.rows:
            indices = view.row_indices[row]
            xs = view.row_x[row]
            rights = view.row_right[row]
            limit = split.get(row)
            last = len(indices) - 1
            for pos in range(0, last):
                idx = indices[pos]
                r = right.get(idx)
                if r is None:
                    continue
                if limit is not None and pos < limit:
                    continue
                neighbour_idx = indices[pos + 1]
                candidate = r + (xs[pos + 1] - rights[pos])
                if candidate < right.get(neighbour_idx, _INF) - _EPS:
                    right[neighbour_idx] = candidate
                    changed = True

    return _finalize_outcome(outcome, region, target, insertion, left, right)


def _finalize_outcome(
    outcome: ShiftOutcome,
    region: LocalRegion,
    target: Cell,
    insertion: InsertionPoint,
    left: Dict[int, float],
    right: Dict[int, float],
) -> ShiftOutcome:
    """Common post-processing shared by the original and SACS algorithms."""
    outcome.left_thresholds = left
    outcome.right_thresholds = right
    if set(left) & set(right):
        # A cell constrained from both sides means the insertion point
        # cannot host the target at any position.
        outcome.feasible = False
        return outcome
    # A cell on the target's right side of a spanned row must never be
    # pushed left (it would collide with the target), and vice versa; if a
    # cross-row chain forces that, the insertion point is contradictory.
    split = insertion.split_map()
    for row in insertion.rows:
        indices = region.cell_indices_in_row(row)
        k = split[row]
        if any(idx in left for idx in indices[k:]) or any(idx in right for idx in indices[:k]):
            outcome.feasible = False
            return outcome
    lo, hi = _feasibility_bounds(region, target, insertion, left, right)
    outcome.xt_lo, outcome.xt_hi = lo, hi
    outcome.feasible = hi >= lo - _EPS and math.ceil(lo - _EPS) <= math.floor(hi + _EPS)
    return outcome


class OriginalShifter:
    """Shifter object wrapping :func:`shift_cells_original`.

    The FOP driver accepts any object with this interface; FLEX supplies
    :class:`repro.core.sacs.SortAheadShifter` instead.  A flattened
    :class:`RegionRowView` is cached per region so that the per-insertion-
    point calls do not rebuild it.
    """

    name = "original"

    def __init__(self) -> None:
        self._view: Optional[RegionRowView] = None
        self._region_id: Optional[int] = None

    def prepare(self, region: LocalRegion) -> None:
        """Precompute the flattened row view of the region."""
        self._view = build_row_view(region)
        # Identity token for cache invalidation only — never ordered,
        # iterated or persisted, so the address is safe here.
        self._region_id = id(region)  # repro: allow[det-id-key]

    def shift(self, region: LocalRegion, target: Cell, insertion: InsertionPoint) -> ShiftOutcome:
        """Run the multi-pass cell-shifting algorithm for one insertion point."""
        if self._view is None or self._region_id != id(region):  # repro: allow[det-id-key]
            self.prepare(region)
        return shift_cells_original(region, target, insertion, self._view)


# ----------------------------------------------------------------------
# Applying a shift outcome
# ----------------------------------------------------------------------
def shifted_positions(outcome: ShiftOutcome, region: LocalRegion, target_x: float, target_width: float) -> Dict[int, float]:
    """Concrete new x positions of the affected cells for a chosen target x.

    Only cells that actually move appear in the returned mapping.
    """
    moves: Dict[int, float] = {}
    for idx, b in outcome.left_thresholds.items():
        shift = max(0.0, b - target_x)
        if shift > _EPS:
            moves[idx] = region.local_cells[idx].x - shift
    target_right = target_x + target_width
    for idx, r in outcome.right_thresholds.items():
        shift = max(0.0, target_right - r)
        if shift > _EPS:
            moves[idx] = region.local_cells[idx].x + shift
    return moves


def verify_no_overlap(
    region: LocalRegion,
    moves: Dict[int, float],
    target_x: float,
    target_width: float,
    insertion: InsertionPoint,
) -> bool:
    """Check that the proposed moves leave the region overlap-free.

    This is a defensive verification used by tests and by the insert &
    update step before committing; it is cheap (linear in the number of
    subcells of the region).
    """
    spans: Dict[int, List[Tuple[float, float]]] = {}
    for row in region.rows():
        row_spans: List[Tuple[float, float]] = []
        for idx in region.cell_indices_in_row(row):
            cell = region.local_cells[idx]
            x = moves.get(idx, cell.x)
            row_spans.append((x, x + cell.width))
        if row in insertion.rows:
            row_spans.append((target_x, target_x + target_width))
        row_spans.sort()
        spans[row] = row_spans
    for row_spans in spans.values():
        for (lo1, hi1), (lo2, hi2) in zip(row_spans, row_spans[1:]):
            if lo2 < hi1 - 1e-6:
                return False
    return True
