"""Sort-Ahead Cell Shifting (SACS) — paper Section 4.2, Algorithm 4.

The original cell shifting resolves overlaps by repeatedly traversing all
subcells of the localRegion until a full pass makes no change; the number
of passes is unpredictable because constraints propagate across rows
through multi-row cells (Fig. 6(a)–(f)).

SACS removes the multi-pass loop by *pre-sorting* the localCells by their
x-coordinates.  Cells are then processed right-to-left for the left-move
phase (left-to-right for the right-move phase); because every cell that
could constrain the current one lies strictly to its right (left), its
push threshold is already final when it is visited, so a single pass
suffices and each cell's result can be streamed out immediately — the
property that enables the fine-grained pipeline between cell shifting and
``sort bp`` on the FPGA.

The per-segment cursor structures of the paper (``CurSegPtr`` /
``CurSegEnd``, CSP/CSE) are modelled explicitly so that the behavioural
FPGA model can count the BRAM accesses they generate, but the algorithm's
results are identical to :func:`repro.mgl.shifting.shift_cells_original`
(a property enforced by the test-suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geometry.cell import Cell
from repro.geometry.region import LocalRegion
from repro.mgl.insertion import InsertionPoint
from repro.mgl.shifting import ShiftOutcome, _finalize_outcome

_INF = math.inf
_EPS = 1e-9


@dataclass
class SACSContext:
    """Pre-sorted view of a localRegion, shared by its insertion points.

    Attributes
    ----------
    order_desc / order_asc:
        LocalCell indices sorted by snapshot x, descending / ascending
        (the left-move and right-move processing orders).
    position_in_row:
        ``(local_index, row) -> position`` of the cell's subcell in the
        row's x-sorted list (the information CSP provides in hardware).
    row_indices:
        Per-row x-sorted localCell indices (a shared reference, not a
        per-call copy).
    sort_size:
        Number of cells sorted (reported once per region in the work
        counters; pre-sorting is ~10 % of FOP runtime, Fig. 6(g)).
    multirow_cells / tall_cells:
        Number of localCells spanning more than one row / more than three
        rows; used to account the per-phase BRAM accesses in bulk.
    """

    order_desc: List[int] = field(default_factory=list)
    order_asc: List[int] = field(default_factory=list)
    position_in_row: Dict[Tuple[int, int], int] = field(default_factory=dict)
    row_indices: Dict[int, List[int]] = field(default_factory=dict)
    sort_size: int = 0
    multirow_cells: int = 0
    tall_cells: int = 0
    consumed_sort_report: bool = False


def build_sacs_context(region: LocalRegion) -> SACSContext:
    """Pre-sort the localCells of a region (the "Ahead Sorter" input)."""
    ctx = SACSContext()
    ctx.order_asc = [lc.local_index for lc in region.sorted_by_x()]
    ctx.order_desc = list(reversed(ctx.order_asc))
    for row, indices in region.row_cells.items():
        ctx.row_indices[row] = indices
        for pos, idx in enumerate(indices):
            ctx.position_in_row[(idx, row)] = pos
    ctx.sort_size = len(region.local_cells)
    ctx.multirow_cells = sum(1 for lc in region.local_cells if lc.height > 1)
    ctx.tall_cells = sum(1 for lc in region.local_cells if lc.height > 3)
    return ctx


# ----------------------------------------------------------------------
def shift_cells_sacs(
    region: LocalRegion,
    target: Cell,
    insertion: InsertionPoint,
    context: Optional[SACSContext] = None,
) -> ShiftOutcome:
    """Single-pass cell shifting using the sort-ahead order.

    Produces exactly the same thresholds and feasibility interval as the
    original multi-pass algorithm, in one left-move pass plus one
    right-move pass over the sorted cells.
    """
    ctx = context or build_sacs_context(region)
    outcome = ShiftOutcome()
    outcome.passes = 2  # one pass per phase, by construction
    if not ctx.consumed_sort_report:
        outcome.sorted_cells = ctx.sort_size
        ctx.consumed_sort_report = True
    split = insertion.split_map()
    local_cells = region.local_cells
    # Each phase touches every (sorted) localCell exactly once; multi-row
    # cells additionally require one CST/LSC access per covered row.
    outcome.cell_visits = 2 * ctx.sort_size
    outcome.multirow_accesses = 2 * ctx.multirow_cells
    outcome.tall_accesses = 2 * ctx.tall_cells

    # ------------------------------------------------------------------
    # Left-move phase: process cells right-to-left.  In hardware CSP[row]
    # tracks the next unprocessed cell per segment and CSE[row] flags a
    # fully-processed segment; here the pre-computed per-row positions
    # provide the same adjacency information.
    # ------------------------------------------------------------------
    left: Dict[int, float] = {}
    for row in insertion.rows:
        indices = ctx.row_indices.get(row, [])
        k = split[row]
        if k > 0:
            boundary = local_cells[indices[k - 1]]
            left[boundary.local_index] = max(left.get(boundary.local_index, -_INF), boundary.right)
    if left:
        for idx in ctx.order_desc:
            b = left.get(idx)
            if b is None:
                continue
            cell = local_cells[idx]
            for row in cell.rows:
                pos = ctx.position_in_row[(idx, row)]
                if pos == 0:
                    continue
                limit = split.get(row)
                if limit is not None and pos >= limit:
                    # Right-side subcell of a spanned row: never pushes left.
                    continue
                neighbour_idx = ctx.row_indices[row][pos - 1]
                neighbour = local_cells[neighbour_idx]
                candidate = b - (cell.x - neighbour.right)
                if candidate > left.get(neighbour_idx, -_INF) + _EPS:
                    left[neighbour_idx] = candidate

    # ------------------------------------------------------------------
    # Right-move phase: process cells left-to-right.
    # ------------------------------------------------------------------
    right: Dict[int, float] = {}
    for row in insertion.rows:
        indices = ctx.row_indices.get(row, [])
        k = split[row]
        if k < len(indices):
            boundary = local_cells[indices[k]]
            right[boundary.local_index] = min(right.get(boundary.local_index, _INF), boundary.x)
    if right:
        for idx in ctx.order_asc:
            r = right.get(idx)
            if r is None:
                continue
            cell = local_cells[idx]
            for row in cell.rows:
                indices = ctx.row_indices[row]
                pos = ctx.position_in_row[(idx, row)]
                if pos == len(indices) - 1:
                    continue
                limit = split.get(row)
                if limit is not None and pos < limit:
                    continue
                neighbour_idx = indices[pos + 1]
                neighbour = local_cells[neighbour_idx]
                candidate = r + (neighbour.x - cell.right)
                if candidate < right.get(neighbour_idx, _INF) - _EPS:
                    right[neighbour_idx] = candidate

    return _finalize_outcome(outcome, region, target, insertion, left, right)


class SortAheadShifter:
    """Shifter object plugging SACS into the FOP driver.

    Selecting it is what routes a region to the native search: on the
    ``numpy`` backend (with a C compiler) FOP hands every SACS region to
    the kernel, which sorts the cells itself and returns the winner's
    shift outcome, so neither :meth:`prepare` nor :meth:`shift` runs.
    They are the Python reference path (the ``python`` backend, and
    hosts without a compiler): ``prepare`` builds the sorted context
    once per localRegion (the sort is shared by all insertion points of
    the region, as in the hardware where the Ahead Sorter runs once per
    region), and ``shift`` runs one point's chains against it.

    ``backend`` selects the kernel backend executing the chain
    evaluation (a :mod:`repro.kernels` name or instance; ``None`` means
    the default ``"python"`` reference).  All backends produce
    bit-identical :class:`~repro.mgl.shifting.ShiftOutcome` records.
    """

    name = "sacs"

    def __init__(self, backend: object = None) -> None:
        self._backend_spec = backend
        self._backend = None
        self._context: Optional[SACSContext] = None
        self._region_id: Optional[int] = None

    def set_backend(self, backend: object) -> None:
        """Switch the kernel backend (drops any cached region context)."""
        self._backend_spec = backend
        self._backend = None
        self._context = None
        self._region_id = None

    def _resolve(self):
        if self._backend is None:
            # Imported lazily: repro.kernels' backends import this module.
            from repro.kernels import resolve_backend

            self._backend = resolve_backend(self._backend_spec)
        return self._backend

    def prepare(self, region: LocalRegion) -> None:
        """Pre-sort the localCells of the region about to be processed."""
        self._context = self._resolve().build_sacs_context(region)
        # Identity token for cache invalidation only — never ordered,
        # iterated or persisted, so the address is safe here.
        self._region_id = id(region)  # repro: allow[det-id-key]

    def shift(self, region: LocalRegion, target: Cell, insertion: InsertionPoint) -> ShiftOutcome:
        """Run single-pass SACS for one insertion point (preparing
        ``region`` first when it is not the prepared one)."""
        if self._context is None or self._region_id != id(region):  # repro: allow[det-id-key]
            self.prepare(region)
        assert self._context is not None
        return self._resolve().shift_sacs(region, target, insertion, self._context)
