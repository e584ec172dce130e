"""The complete MGL legalizer (the TCAD'22 baseline algorithm).

:class:`MGLLegalizer` strings together the five steps of paper Fig. 3(e):
pre-move, processing ordering, localRegion extraction, FOP and insert &
update, retrying each target with progressively larger windows and
falling back to a direct free-space search when even the expanded window
has no feasible insertion point.

The legalizer is parameterised by

* the *cell-shifting implementation* (original multi-pass vs SACS),
* the *processing ordering* (size-descending — the baseline — or any
  callable; FLEX plugs in the sliding-window ordering),

so that every configuration evaluated in the paper can be expressed as a
parameterisation of this one class, and all of them share the same
quality-relevant machinery.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.geometry.cell import Cell
from repro.geometry.interval import Interval, gaps_between, intersect_interval_lists
from repro.geometry.layout import Layout
from repro.geometry.row import legal_bottom_rows
from repro.kernels import BackendSpec, resolve_backend
from repro.legality.metrics import SITES_PER_ROW, DisplacementStats, PlacementMetrics
from repro.mgl.fop import FOPConfig, find_optimal_position
from repro.mgl.local_region import RegionBuilder, region_transfer_words
from repro.mgl.premove import premove, premove_cell
from repro.mgl.window_planner import plan_initial_window
from repro.mgl.update import commit_placement
from repro.obs import enabled as obs_enabled
from repro.obs import span
from repro.perf.counters import LegalizationTrace, TargetCellWork

#: Multiplicative growth applied to the search window on each retry.
WINDOW_EXPANSION = 1.8
#: Window expansions tried before the free-space fallback.
MAX_RETRIES = 4

#: Type of a processing-ordering function: receives the layout and the
#: unlegalized cells and yields them in processing order.
OrderingFn = Callable[[Layout, List[Cell]], List[Cell]]


def size_descending_order(layout: Layout, cells: List[Cell]) -> List[Cell]:
    """The baseline ordering: larger cells first (paper Sec. 3.1.2).

    Cells are sorted by area, then height, then width, all descending;
    ties are broken by the cell index for determinism.
    """
    return sorted(cells, key=lambda c: (-c.area, -c.height, -c.width, c.index))


def fast_mgl_legalizer(backend: BackendSpec = None) -> "MGLLegalizer":
    """An :class:`MGLLegalizer` in the fast host configuration.

    SACS shifting — the configuration the CLI, the incremental/ECO
    tooling and the host benchmarks all run.  Keeping the construction in
    one place means a future FOP knob change cannot leave those surfaces
    on silently different configurations.
    """
    from repro.core.sacs import SortAheadShifter  # deferred: core imports mgl

    return MGLLegalizer(FOPConfig(shifter=SortAheadShifter()), backend=backend)


@dataclass
class LegalizationResult:
    """Outcome of one legalization run."""

    layout: Layout
    trace: LegalizationTrace
    stats: DisplacementStats
    failed_cells: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def success(self) -> bool:
        """True when every movable cell received a legal position."""
        return not self.failed_cells

    @property
    def average_displacement(self) -> float:
        """The S_am quality metric of the run (Eq. 2), in row heights."""
        return self.stats.average_displacement


class MGLLegalizer:
    """Multi-row Global Legalization.

    Parameters
    ----------
    fop_config:
        FOP kernel configuration (shifter choice, kernel backend).
    backend:
        Convenience override of the kernel backend (:mod:`repro.kernels`
        name or instance).  When given it is applied to ``fop_config``
        and — when the shifter supports it — to the shifter, so a single
        argument switches every kernel of the run.
    ordering:
        Processing-ordering function; defaults to size-descending.
    algorithm_name:
        Label recorded in the trace (``"mgl"`` for the baseline).

    The search-window policy is fixed: each target's retry-0 window is
    planned by :func:`~repro.mgl.window_planner.plan_initial_window`
    (the occupancy-aware planner with its default slack and growth),
    then grown by ``WINDOW_EXPANSION`` on each failed attempt, at most
    ``MAX_RETRIES`` times, before the free-space fallback.
    """

    def __init__(
        self,
        fop_config: Optional[FOPConfig] = None,
        *,
        backend: BackendSpec = None,
        ordering: Optional[OrderingFn] = None,
        algorithm_name: str = "mgl",
    ) -> None:
        config = fop_config or FOPConfig()
        if backend is not None:
            # Never write through to a caller-owned config or shifter: a
            # config shared between legalizers must keep its own backend.
            shifter = config.shifter
            if hasattr(shifter, "set_backend"):
                shifter = copy.copy(shifter)
                shifter.set_backend(backend)
            config = replace(config, backend=backend, shifter=shifter)
        self.fop_config = config
        self.ordering: OrderingFn = ordering or size_descending_order
        self.metrics = PlacementMetrics()
        self.algorithm_name = algorithm_name

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend-held resources (worker pools).

        The ``multiprocess`` backend keeps a persistent worker pool for
        the legalizer's lifetime; ``close()`` hands the release through
        to it.  Sequential backends hold nothing and this is a no-op.
        Idempotent, and not terminal — a later ``legalize`` call simply
        re-creates what it needs.  ``with MGLLegalizer(...) as leg:``
        closes automatically.
        """
        backend = self.fop_config.backend
        if backend is not None:
            backend = resolve_backend(backend)
        closer = getattr(backend, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "MGLLegalizer":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def legalize(self, layout: Layout) -> LegalizationResult:
        """Legalize every movable cell of the layout in place."""
        start = time.perf_counter()
        trace = self._new_trace(layout)
        with span("mgl.premove"):
            trace.premove_cells = premove(layout)
            layout.rebuild_index()
        pending = layout.unlegalized_cells()
        return self._legalize_pending(layout, pending, trace, start)

    def legalize_subset(
        self, layout: Layout, targets: Sequence[Cell]
    ) -> LegalizationResult:
        """Re-entrant legalization of an explicit target subset.

        The incremental (ECO) engine's entry point: ``targets`` are the
        dirty cells of an otherwise legal layout.  Every target must be
        a movable, currently-unlegalized cell of ``layout``; everything
        else is treated as an obstacle exactly as in :meth:`legalize`.
        Only the targets are pre-moved, and — unlike :meth:`legalize` —
        the layout's obstacle index is trusted as-is (no whole-index
        rebuild), so callers maintaining the index incrementally pay
        only for the cells they touched.

        The result is bit-for-bit identical to running :meth:`legalize`
        on the same layout state: a full run's pending set would be the
        same cells, and the processing ordering, window planning and
        kernel backends all restrict naturally to the subset.
        """
        start = time.perf_counter()
        for target in targets:
            if target.fixed or target.legalized:
                raise ValueError(
                    f"cell {target.name} is not a pending target "
                    "(fixed or already legalized)"
                )
            if layout.cells[target.index] is not target:
                raise ValueError(f"cell {target.name} does not belong to this layout")
        trace = self._new_trace(layout)
        with span("mgl.premove", subset=True):
            for target in targets:
                premove_cell(layout, target)
        trace.premove_cells = len(targets)
        return self._legalize_pending(layout, list(targets), trace, start)

    # ------------------------------------------------------------------
    def _new_trace(self, layout: Layout) -> LegalizationTrace:
        backend = resolve_backend(self.fop_config.backend)
        return LegalizationTrace(
            design_name=layout.name,
            algorithm=self.algorithm_name,
            shift_algorithm=getattr(self.fop_config.shifter, "name", "original"),
            kernel_backend=backend.name,
            num_cells=len(layout.cells),
            num_movable=len(layout.movable_cells()),
        )

    def _legalize_pending(
        self,
        layout: Layout,
        pending: List[Cell],
        trace: LegalizationTrace,
        start: float,
    ) -> LegalizationResult:
        """Order and legalize a pending target set (shared run tail)."""
        backend = resolve_backend(self.fop_config.backend)
        with span("mgl.order", targets=len(pending)):
            ordered = self.ordering(layout, pending)
        n = max(1, len(ordered))
        trace.ordering_ops = int(
            getattr(self.ordering, "last_op_count", n * max(1.0, math.log2(n)))
        )

        with span("mgl.place", targets=len(ordered), backend=backend.name) as sp:
            regions_before = backend.parallel_regions
            failed = self._legalize_ordered(layout, ordered, trace)
            trace.parallel_regions = backend.parallel_regions - regions_before
            if trace.parallel_regions:
                trace.worker_count = backend.workers
            if obs_enabled():
                # The per-stage FOP workload split is O(targets) to fold,
                # so it is attached to the span only when tracing is on.
                sp.set(failed=len(failed), fop_stages=trace.fop_stage_workload())

        with span("mgl.metrics"):
            stats = self.metrics.compute(layout)
        return LegalizationResult(
            layout=layout,
            trace=trace,
            stats=stats,
            failed_cells=failed,
            wall_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _legalize_ordered(
        self, layout: Layout, ordered: Sequence[Cell], trace: LegalizationTrace
    ) -> List[int]:
        """Sequentially legalize an already-ordered target sequence."""
        failed: List[int] = []
        for target in ordered:
            if target.legalized:
                continue
            placed, work = self._legalize_cell(layout, target)
            trace.add_target(work)
            trace.region_build_ops += work.region_transfer_words  # proportional proxy
            trace.update_ops += work.update_moved_cells + 1
            if not placed:
                failed.append(target.index)
        return failed

    # ------------------------------------------------------------------
    def _legalize_cell(self, layout: Layout, target: Cell) -> Tuple[bool, TargetCellWork]:
        """Legalize one target cell (steps c–e with window retries)."""
        work = TargetCellWork(cell_index=target.index, height=target.height, width=target.width)
        window, growths = plan_initial_window(layout, target)
        work.planner_growths = growths
        # Each retry builds the grown window's region afresh; the bounded
        # row queries make that cost depend on the window, not the row.
        builder = RegionBuilder(layout, target)
        reason = None
        for retry in range(MAX_RETRIES + 1):
            region = builder.build(window)
            work.window_retries = retry
            work.n_local_cells = len(region.local_cells)
            work.n_subcells = region.total_subcells()
            work.n_rows = len(region.segments)
            work.region_transfer_words += region_transfer_words(region)
            result = find_optimal_position(region, target, self.fop_config, work)
            if result.feasible:
                moved = commit_placement(layout, region, target, result)
                if moved is not None:
                    work.update_moved_cells = moved
                    return True, work
                reason = "commit_rejected"
            elif result.n_candidate_rows == 0:
                reason = "no_candidate_row"
            else:
                reason = "no_feasible_point"
            # Grow the window and retry.
            window = window.expanded(
                dx=window.width * (WINDOW_EXPANSION - 1.0) / 2.0 + target.width,
                drows=max(2, int(window.num_rows * (WINDOW_EXPANSION - 1.0) / 2.0) + 1),
                layout_width=layout.width,
                layout_rows=layout.num_rows,
            )
        # Fallback: direct nearest-free-space search over the whole chip.
        work.fallback_used = True
        work.fail_reason = reason
        position = nearest_free_slot(layout, target)
        if position is None:
            work.fail_reason = "no_free_slot"
            return False, work
        x, bottom = position
        layout.mark_legalized(target, x, float(bottom))
        return True, work


def nearest_free_slot(
    layout: Layout,
    cell: Cell,
    row_limit: Optional[int] = None,
) -> Optional[Tuple[float, int]]:
    """Nearest completely free slot able to host ``cell``, or ``None``.

    Legal bottom rows are tried nearest ``gp_y`` first.  In each, the
    free gaps of every row the cell would cover are intersected, and the
    site nearest ``gp_x`` is taken in each wide enough gap.  The cost is
    the horizontal distance plus
    :data:`~repro.legality.metrics.SITES_PER_ROW` per row of vertical
    distance.  The search stops once no farther row can be
    cheaper, or, with ``row_limit``, once that many rows were tried and
    a slot was found.  Neighbours are never moved: this is MGL's last
    resort and the whole of the greedy baseline.
    """
    best: Optional[Tuple[float, int, float]] = None
    rows = sorted(
        legal_bottom_rows(cell.height, layout.num_rows),
        key=lambda r: abs(r - cell.gp_y),
    )
    for count, bottom in enumerate(rows):
        vertical_cost = abs(bottom - cell.gp_y) * SITES_PER_ROW
        if best is not None and vertical_cost >= best[2]:
            break
        if row_limit is not None and count >= row_limit and best is not None:
            break
        free: List[Interval] = [Interval(0.0, layout.width)]
        for row in range(bottom, bottom + cell.height):
            occupied = [(c.x, c.right) for c in layout.obstacles_in_row(row)]
            row_free = gaps_between(occupied, layout.row_span_interval(row))
            free = intersect_interval_lists(free, row_free)
            if not free:
                break
        for interval in free:
            if interval.length + 1e-9 < cell.width:
                continue
            lo = math.ceil(interval.lo - 1e-9)
            hi = math.floor(interval.hi - cell.width + 1e-9)
            if lo > hi:
                continue
            x = float(min(max(round(cell.gp_x), lo), hi))
            cost = abs(x - cell.gp_x) + vertical_cost
            if best is None or cost < best[2]:
                best = (x, bottom, cost)
    if best is None:
        return None
    return best[0], best[1]
