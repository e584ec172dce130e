"""FOP: finding the optimal placement position of a target cell (step d).

FOP is the computational bottleneck of MGL (and the part FLEX offloads to
the FPGA).  For a given localRegion it traverses all candidate insertion
points (paper Fig. 3(e), the triple loop), and for each one runs cell
shifting followed by the displacement-curve pipeline to obtain the best
target position and its cost.  The insertion point with the overall
lowest cost wins.  The curves are minimized in the fwdtraverse/bwdtraverse
organisation (:func:`~repro.mgl.curves.minimize_curves_fwd_bwd`), the
only one the host runs; the paper's five-stage form gives the same
optimum up to epsilon ties and stays as the reference the tests hold it
to.

The work performed per insertion point is recorded in the target's
:class:`~repro.perf.counters.PointColumns` so that the CPU cost models
and the FPGA cycle models can replay it.

The numeric inner loops (curve construction, minimization, snapping) are
delegated to a kernel backend (:mod:`repro.kernels`) selected
through :attr:`FOPConfig.backend`; the reference ``build_curves`` below
is the pure-Python oracle the backends must match bit for bit.  A
backend may also take over the whole search of a region — enumeration,
scoring and reduction — in one step
(:meth:`~repro.kernels.base.KernelBackend.search_region`; the ``numpy``
backend's native kernel does so for SACS and returns the winner's shift
outcome with it, as the FPGA returns only the winner to the host, and
the ``multiprocess`` backend chunks heavy original-shifter regions
across its worker pool); :func:`search_points` is the Python reference
of that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.geometry.cell import Cell
from repro.geometry.region import LocalRegion
from repro.kernels import BackendSpec, KernelBackend, resolve_backend
from repro.kernels.base import RegionSearch
from repro.legality.metrics import SITES_PER_ROW
from repro.mgl.curves import (
    BreakpointPiece,
    left_shift_curve,
    right_shift_curve,
    target_curve,
)
from repro.mgl.insertion import (
    InsertionPoint,
    candidate_bottom_rows,
    enumerate_insertion_points,
)
from repro.mgl.shifting import OriginalShifter, ShiftOutcome
from repro.perf.counters import InsertionPointWork, PointColumns, TargetCellWork

_EPS = 1e-9

#: One scored insertion point: ``(insertion, best_x, cost, outcome, work)``
#: (``best_x`` is ``None`` for an infeasible point; ``outcome`` may be
#: ``None`` for points scored in a worker process).
ScoredPoint = Tuple[
    InsertionPoint, Optional[float], float, Optional[ShiftOutcome], InsertionPointWork
]


@dataclass
class FOPConfig:
    """Configuration of the FOP kernel.

    Attributes
    ----------
    shifter:
        The cell-shifting implementation: :class:`OriginalShifter` (the
        baseline multi-pass algorithm) or
        :class:`repro.core.sacs.SortAheadShifter` (FLEX).
    backend:
        Kernel backend evaluating the numeric hot paths (curve
        construction, minimization, snapping): a backend name
        (``"python"``, ``"numpy"``, ``"multiprocess[:N]"``), a
        :class:`~repro.kernels.base.KernelBackend` instance, or ``None``
        for the default (``"python"``).  All backends are bit-for-bit
        equivalent; see :mod:`repro.kernels`.
    """

    shifter: object = field(default_factory=OriginalShifter)
    backend: BackendSpec = None


@dataclass
class FOPResult:
    """Best placement found for a target cell inside its localRegion."""

    feasible: bool
    bottom_row: Optional[int] = None
    x: Optional[float] = None
    cost: float = math.inf
    insertion: Optional[InsertionPoint] = None
    outcome: Optional[ShiftOutcome] = None
    n_points_evaluated: int = 0
    n_points_feasible: int = 0
    n_candidate_rows: int = 0


# ----------------------------------------------------------------------
def build_curves(
    region: LocalRegion,
    target: Cell,
    bottom_row: int,
    outcome: ShiftOutcome,
) -> Tuple[List[BreakpointPiece], float]:
    """Assemble the displacement curves of one insertion point.

    Returns the elementary breakpoint pieces plus the constant term (the
    target's vertical displacement and the shifted cells' constants).
    Costs are expressed in site widths; a row of vertical displacement
    costs :data:`~repro.legality.metrics.SITES_PER_ROW` sites.
    """
    vertical_cost = abs(bottom_row - target.gp_y) * SITES_PER_ROW
    pieces, constant = target_curve(target.gp_x, vertical_cost)
    pieces = list(pieces)
    for idx, threshold in outcome.left_thresholds.items():
        cell = region.local_cells[idx]
        cell_pieces, cell_const = left_shift_curve(threshold, cell.x, cell.gp_x)
        pieces.extend(cell_pieces)
        constant += cell_const
    for idx, threshold in outcome.right_thresholds.items():
        cell = region.local_cells[idx]
        cell_pieces, cell_const = right_shift_curve(threshold, target.width, cell.x, cell.gp_x)
        pieces.extend(cell_pieces)
        constant += cell_const
    return pieces, constant


def _site_candidates(best_x: float, lo: float, hi: float) -> List[int]:
    """Floor/ceiling sites of the continuous optimum inside ``[lo, hi]``.

    Returns an empty list when no site fits in the interval.
    """
    site_lo = math.ceil(lo - _EPS)
    site_hi = math.floor(hi + _EPS)
    if site_lo > site_hi:
        return []
    return sorted({min(max(math.floor(best_x), site_lo), site_hi),
                   min(max(math.ceil(best_x), site_lo), site_hi)})


def _pick_site(
    candidates: Sequence[int], values: Sequence[float]
) -> Tuple[Optional[float], float]:
    """Select the lowest-value site candidate (ties keep the first)."""
    best: Tuple[Optional[float], float] = (None, math.inf)
    for x, value in zip(candidates, values):
        if value < best[1] - _EPS:
            best = (float(x), value)
    return best


def find_optimal_position(
    region: LocalRegion,
    target: Cell,
    config: Optional[FOPConfig] = None,
    work: Optional[TargetCellWork] = None,
) -> FOPResult:
    """Run FOP for one target cell inside its localRegion.

    ``work`` (when given) receives the work counts of every evaluated
    insertion point; the caller owns the record.
    """
    config = config or FOPConfig()
    backend = resolve_backend(config.backend)
    bottom_rows = candidate_bottom_rows(region, target)
    # A backend with a whole-region search (the native kernel) enumerates,
    # scores and reduces the points in one call, before any Python
    # enumeration, and needs no prepared shifter.
    search = backend.search_region(region, target, bottom_rows, config)
    if search is None:
        config.shifter.prepare(region)
        search = search_points(region, target, bottom_rows, config, backend)
    if work is not None:
        work.points.extend(search.points)
    result = FOPResult(
        feasible=search.winner is not None,
        n_points_evaluated=len(search.points),
        n_points_feasible=search.n_feasible,
        n_candidate_rows=len(bottom_rows),
    )
    if search.winner is not None:
        insertion, result.x, result.cost, outcome = search.winner
        if outcome is None:
            # Scored in a multiprocess worker: re-derive the winning
            # point's shift outcome (the shifting chains are pure
            # functions of the region state).
            outcome = config.shifter.shift(region, target, insertion)
        result.bottom_row = insertion.bottom_row
        result.insertion = insertion
        result.outcome = outcome
    return result


def search_points(
    region: LocalRegion,
    target: Cell,
    bottom_rows: Sequence[int],
    config: FOPConfig,
    backend: KernelBackend,
) -> RegionSearch:
    """The reference whole-region search: enumerate, score, reduce.

    Scores the points of :func:`region_points` with the staged kernels
    (:func:`evaluate_point_list`) and reduces them with
    :func:`reduce_points`.
    """
    points = region_points(region, target, bottom_rows)
    scored = evaluate_point_list(region, target, points, config, backend)
    return reduce_points(scored, target.gp_x)


def region_points(
    region: LocalRegion, target: Cell, bottom_rows: Sequence[int]
) -> List[InsertionPoint]:
    """The insertion points of every bottom row in ``bottom_rows``
    (loop1 x loop2), in enumeration order."""
    points: List[InsertionPoint] = []
    for bottom_row in bottom_rows:
        points.extend(enumerate_insertion_points(region, target, bottom_row))
    return points


def reduce_points(scored: Sequence[ScoredPoint], gp_x: float) -> RegionSearch:
    """Reduce scored points to the winner, in enumeration order.

    A strictly lower cost (beyond the epsilon) wins; an equal cost wins
    only when its site is strictly closer to the target's global x.
    """
    points = PointColumns()
    sites: List[float] = []
    costs: List[float] = []
    n_feasible = 0
    winner = None
    best_cost = math.inf
    for insertion, best_x, cost, outcome, ip_work in scored:
        points.append(ip_work)
        sites.append(math.nan if best_x is None else best_x)
        costs.append(cost)
        if best_x is None:
            continue
        n_feasible += 1
        better = cost < best_cost - _EPS
        tie = abs(cost - best_cost) <= _EPS and winner is not None and abs(
            best_x - gp_x
        ) < abs(winner[1] - gp_x)
        if better or tie:
            best_cost = cost
            winner = (insertion, best_x, cost, outcome)
    return RegionSearch(points, sites, costs, n_feasible, winner)


def evaluate_point_list(
    region: LocalRegion,
    target: Cell,
    points: Sequence[InsertionPoint],
    config: FOPConfig,
    backend: Optional[KernelBackend] = None,
) -> List[ScoredPoint]:
    """Run the FOP stages over an explicit insertion-point list.

    Returns one ``(insertion, best_x, best_cost, outcome, work)`` entry
    per point, in input order (``best_x`` is ``None`` for infeasible
    points).  This is the unit the multiprocess backend chunks across
    workers; the caller owns the reduction.
    """
    backend = backend or resolve_backend(config.backend)

    # Stage 1 — cell shifting for every candidate insertion point, in
    # enumeration order (the shifter's once-per-region counters and the
    # work records depend on this order).
    staged: List[Tuple[InsertionPoint, ShiftOutcome, InsertionPointWork]] = []
    for insertion in points:
        outcome = config.shifter.shift(region, target, insertion)
        ip_work = InsertionPointWork(
            n_local_cells=len(region.local_cells),
            n_subcells=region.total_subcells(),
            shift_passes=outcome.passes,
            shift_cell_visits=outcome.cell_visits,
            chain_left=len(outcome.left_thresholds),
            chain_right=len(outcome.right_thresholds),
            sort_size=outcome.sorted_cells,
            multirow_accesses=outcome.multirow_accesses,
            tall_accesses=outcome.tall_accesses,
            feasible=outcome.feasible,
        )
        staged.append((insertion, outcome, ip_work))

    # Stage 2 — curve construction and batched minimization over every
    # feasible point (the batch entry points let a backend score the
    # whole population at once; the reference loops point by point).
    feasible = [entry for entry in staged if entry[1].feasible]
    curve_sets = [
        backend.build_curves(region, target, insertion.bottom_row, outcome)
        for insertion, outcome, _ in feasible
    ]
    evaluations = backend.minimize_batch(
        curve_sets,
        [(outcome.xt_lo, outcome.xt_hi) for _, outcome, _ in feasible],
        preferred_x=target.gp_x,
    )

    # Stage 3 — batched snapping of every continuous optimum to the grid.
    candidate_lists: List[List[int]] = []
    for (_, outcome, ip_work), evaluation in zip(feasible, evaluations):
        ip_work.n_breakpoints = evaluation.n_breakpoints
        ip_work.n_merged_breakpoints = evaluation.n_merged
        candidate_lists.append(
            _site_candidates(evaluation.best_x, outcome.xt_lo, outcome.xt_hi)
        )
    value_lists = backend.evaluate_batch(
        curve_sets, [[float(x) for x in sites] for sites in candidate_lists]
    )

    snapped = iter(zip(candidate_lists, value_lists))
    results = []
    for insertion, outcome, ip_work in staged:
        if not outcome.feasible:
            results.append((insertion, None, math.inf, outcome, ip_work))
            continue
        candidates, values = next(snapped)
        best_x, cost = _pick_site(candidates, values)
        if best_x is None:
            ip_work.feasible = False
        results.append((insertion, best_x, cost, outcome, ip_work))
    return results
