"""FOP: finding the optimal placement position of a target cell (step d).

FOP is the computational bottleneck of MGL (and the part FLEX offloads to
the FPGA).  For a given localRegion it traverses all candidate insertion
points (paper Fig. 3(e), the triple loop), and for each one runs cell
shifting followed by the displacement-curve pipeline to obtain the best
target position and its cost.  The insertion point with the overall
lowest cost wins.

The work performed per insertion point is recorded into
:class:`~repro.perf.counters.InsertionPointWork` entries so that the
CPU cost models and the FPGA cycle models can replay it.

The numeric inner loops (curve construction, minimization, snapping) are
delegated to a pluggable kernel backend (:mod:`repro.kernels`) selected
through :attr:`FOPConfig.backend`; the reference ``build_curves`` below
is the pure-Python oracle the backends must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.geometry.cell import Cell
from repro.geometry.region import LocalRegion
from repro.kernels import BackendSpec, KernelBackend, resolve_backend
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
from repro.perf.counters import InsertionPointWork, TargetCellWork

_EPS = 1e-9


@dataclass
class FOPConfig:
    """Configuration of the FOP kernel.

    Attributes
    ----------
    shifter:
        The cell-shifting implementation: :class:`OriginalShifter` (the
        baseline multi-pass algorithm) or
        :class:`repro.core.sacs.SortAheadShifter` (FLEX).
    use_fwd_bwd_pipeline:
        Select the reorganised fwdtraverse/bwdtraverse curve evaluation
        (FLEX) instead of the original five-stage organisation.  Both
        produce identical optima.
    vertical_cost_factor:
        Cost of one row of vertical displacement expressed in site widths
        (rows are several sites tall in physical units), so that FOP
        trades off vertical against horizontal displacement consistently.
    max_points_per_row:
        Optional cap on the number of insertion points enumerated per
        candidate bottom row (used only by approximate baseline models).
    backend:
        Kernel backend evaluating the numeric hot paths (curve
        construction, minimization, snapping): a registered backend name
        (``"python"``, ``"numpy"``), a
        :class:`~repro.kernels.base.KernelBackend` instance, or ``None``
        for the default (``"python"``).  All backends are bit-for-bit
        equivalent; see :mod:`repro.kernels`.
    """

    shifter: object = field(default_factory=OriginalShifter)
    use_fwd_bwd_pipeline: bool = False
    vertical_cost_factor: float = 10.0
    max_points_per_row: Optional[int] = None
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


# ----------------------------------------------------------------------
def build_curves(
    region: LocalRegion,
    target: Cell,
    bottom_row: int,
    outcome: ShiftOutcome,
    vertical_cost_factor: float,
) -> Tuple[List[BreakpointPiece], float]:
    """Assemble the displacement curves of one insertion point.

    Returns the elementary breakpoint pieces plus the constant term (the
    target's vertical displacement and the shifted cells' constants).
    Costs are expressed in site widths.
    """
    vertical_cost = abs(bottom_row - target.gp_y) * vertical_cost_factor
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


def _snap_to_sites(
    backend: KernelBackend,
    curves: object,
    best_x: float,
    lo: float,
    hi: float,
) -> Tuple[Optional[float], float]:
    """Snap the continuous optimum to the site grid inside ``[lo, hi]``.

    Evaluates the summed curve exactly at the floor and ceiling sites of
    the continuous optimum and returns the better one.
    """
    candidates = _site_candidates(best_x, lo, hi)
    if not candidates:
        return None, math.inf
    values = backend.evaluate(curves, [float(x) for x in candidates])
    return _pick_site(candidates, values)


def evaluate_insertion_point(
    region: LocalRegion,
    target: Cell,
    insertion: InsertionPoint,
    config: FOPConfig,
    backend: Optional[KernelBackend] = None,
) -> Tuple[Optional[float], float, ShiftOutcome, InsertionPointWork]:
    """Evaluate one insertion point: shift, build curves, minimize, snap.

    Returns ``(best_x, best_cost, shift_outcome, work_record)`` with
    ``best_x = None`` when the point is infeasible.  ``backend`` lets
    callers pass an already-resolved kernel backend; otherwise
    ``config.backend`` is resolved per call.
    """
    backend = backend or resolve_backend(config.backend)
    outcome = config.shifter.shift(region, target, insertion)
    work = InsertionPointWork(
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
    if not outcome.feasible:
        return None, math.inf, outcome, work

    curves = backend.build_curves(
        region, target, insertion.bottom_row, outcome, config.vertical_cost_factor
    )
    evaluation = backend.minimize(
        curves,
        outcome.xt_lo,
        outcome.xt_hi,
        preferred_x=target.gp_x,
        fwd_bwd=config.use_fwd_bwd_pipeline,
    )
    work.n_breakpoints = evaluation.n_breakpoints
    work.n_merged_breakpoints = evaluation.n_merged
    best_x, best_cost = _snap_to_sites(
        backend, curves, evaluation.best_x, outcome.xt_lo, outcome.xt_hi
    )
    if best_x is None:
        work.feasible = False
        return None, math.inf, outcome, work
    return best_x, best_cost, outcome, work


def find_optimal_position(
    region: LocalRegion,
    target: Cell,
    config: Optional[FOPConfig] = None,
    work: Optional[TargetCellWork] = None,
) -> FOPResult:
    """Run FOP for one target cell inside its localRegion.

    ``work`` (when given) receives one :class:`InsertionPointWork` entry
    per evaluated insertion point; the caller owns the record.
    """
    config = config or FOPConfig()
    backend = resolve_backend(config.backend)
    config.shifter.prepare(region)
    result = FOPResult(feasible=False)

    points: List[InsertionPoint] = []
    for bottom_row in candidate_bottom_rows(region, target):
        points.extend(
            enumerate_insertion_points(
                region, target, bottom_row, max_points=config.max_points_per_row
            )
        )

    # A fused backend scores the whole region in one call, which costs
    # less than shipping the region to worker processes.
    scored = backend.score_points(region, target, points, config)
    if scored is None:
        if backend.supports_point_parallel and backend.should_parallelize_fop(
            region, points, config
        ):
            # Intra-region parallelism (the paper's FOP-PE axis): the point
            # loop is chunked across worker processes; each chunk runs the
            # exact sequential stages below, and the reduction replays the
            # full per-point sequence in enumeration order, so results and
            # work records are bit-for-bit identical.  Outcomes are not
            # shipped back; the winner's is recomputed locally.
            scored = backend.evaluate_points_parallel(region, target, points, config)
        else:
            scored = evaluate_point_list(region, target, points, config, backend)

    # Reduction to the winning point, in enumeration order.
    for insertion, best_x, cost, outcome, ip_work in scored:
        result.n_points_evaluated += 1
        if work is not None:
            work.add_insertion_point(ip_work)
        if best_x is None:
            continue
        result.n_points_feasible += 1
        better = cost < result.cost - _EPS
        tie = abs(cost - result.cost) <= _EPS and result.x is not None and abs(
            best_x - target.gp_x
        ) < abs(result.x - target.gp_x)
        if better or tie:
            result.feasible = True
            result.cost = cost
            result.x = best_x
            result.bottom_row = insertion.bottom_row
            result.insertion = insertion
            result.outcome = outcome
    if result.feasible and result.outcome is None:
        # Parallel and fused paths: re-derive the winning point's shift
        # outcome (the shifting chains are pure functions of the region
        # state).
        result.outcome = config.shifter.shift(region, target, result.insertion)
    return result


def evaluate_point_list(
    region: LocalRegion,
    target: Cell,
    points: Sequence[InsertionPoint],
    config: FOPConfig,
    backend: Optional[KernelBackend] = None,
) -> List[Tuple[InsertionPoint, Optional[float], float, Optional[ShiftOutcome], InsertionPointWork]]:
    """Run the FOP stages over an explicit insertion-point list.

    Returns one ``(insertion, best_x, best_cost, outcome, work)`` entry
    per point, in input order (``best_x`` is ``None`` for infeasible
    points).  This is the unit the multiprocess backend chunks across
    workers; the caller owns the reduction.  Backends with a fused path
    (:meth:`~repro.kernels.base.KernelBackend.score_points`) score the
    whole list in one step and leave the outcomes ``None``.
    """
    backend = backend or resolve_backend(config.backend)
    fused = backend.score_points(region, target, points, config)
    if fused is not None:
        return fused

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
    # feasible point (one array pipeline on vectorized backends, a plain
    # loop on the reference).
    feasible = [entry for entry in staged if entry[1].feasible]
    curve_sets = [
        backend.build_curves(
            region, target, insertion.bottom_row, outcome, config.vertical_cost_factor
        )
        for insertion, outcome, _ in feasible
    ]
    evaluations = backend.minimize_batch(
        curve_sets,
        [(outcome.xt_lo, outcome.xt_hi) for _, outcome, _ in feasible],
        preferred_x=target.gp_x,
        fwd_bwd=config.use_fwd_bwd_pipeline,
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
