"""Occupancy-aware planning of the initial search window.

The geometric window of :func:`repro.mgl.local_region.initial_window`
is sized from the target alone (``width_factor`` / ``min_width`` /
``extra_rows``), so on dense designs it routinely lands on fully
fragmented free space and the retry-0 FOP pass finds no feasible
insertion point — every such target pays one or more ``window_expansion``
retries.

:func:`plan_initial_window` fixes that deterministically: it consults the
layout's free-space summary (:meth:`repro.geometry.layout.Layout
.row_free_capacity`) and grows the geometric window until it *provably*
contains enough free capacity for the target plus a configurable slack —
both in total area and as a contiguous band of candidate bottom rows
each wide enough for the slackened target.  Growth is monotone (every
step returns a superset window) and shifts asymmetrically off the chip
boundary, so the planner's entire read set is contained in the window it
returns.

The planner is pure Python arithmetic over the shared layout summary, so
every kernel backend computes the identical floats.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.geometry.cell import Cell
from repro.geometry.layout import Layout
from repro.geometry.region import Window
from repro.geometry.row import legal_bottom_rows

#: Default fractional free-capacity slack demanded beyond the target's
#: own footprint (1.0 = plan for 2x the target area / per-row width).
DEFAULT_SLACK = 1.0
#: Default multiplicative growth applied per planning step.
DEFAULT_GROWTH = 1.6
#: Default cap on the number of planning growth steps per target.
DEFAULT_MAX_GROWTHS = 8
#: Growth steps that stay horizontal-only before rows are grown too.
#: Vertical displacement costs ``vertical_cost_factor`` (10x) per row, so
#: extra rows almost never host the winner yet multiply the insertion
#: points FOP must evaluate; growing sideways first keeps the planned
#: regions cheap.  Rows grow earlier only when the window already spans
#: the full chip width.
ROW_GROWTH_DEFER = 3


def window_is_promising(
    layout: Layout, target: Cell, window: Window, slack: float
) -> bool:
    """Free-capacity feasibility estimate for a retry-0 window.

    The window is *promising* when

    * some legal bottom row admits a contiguous band of ``target.height``
      rows, each with at least ``target.width * (1 + slack)`` free sites
      inside the window, and
    * the window's total free capacity covers ``target.area * (1 + slack)``.

    The estimate is necessary-but-cheap rather than exact: it reads only
    the per-row free-space summary (FOP can shift localCells, so row
    capacity — not gap contiguity — is the binding constraint), which
    keeps planning O(rows · log obstacles) per probe.
    """
    need_width = target.width * (1.0 + slack)
    frees = {
        row: layout.row_free_capacity(row, window.x_lo, window.x_hi)
        for row in window.rows()
    }
    band_found = False
    for bottom in legal_bottom_rows(target.height, layout.num_rows):
        if bottom < window.row_lo or bottom + target.height > window.row_hi:
            continue
        if all(frees[row] >= need_width for row in range(bottom, bottom + target.height)):
            band_found = True
            break
    if not band_found:
        return False
    # Left-to-right fold over the insertion-ordered row dict is the
    # reference predicate every backend shares; keep the builtin sum.
    return sum(frees.values()) >= target.area * (1.0 + slack)  # repro: allow[flt-sum]


def grow_window(window: Window, dx: float, drows: int, layout: Layout) -> Window:
    """Grow a window by ``dx`` sites / ``drows`` rows per side, monotonically.

    Unlike :meth:`repro.geometry.region.Window.expanded` (which clips the
    overhang away), growth blocked by a chip edge is redistributed to the
    opposite side, so the planned window *shifts* asymmetrically toward
    the space that exists while always remaining a superset of its input.
    """
    x_lo = window.x_lo - dx
    x_hi = window.x_hi + dx
    if x_lo < 0.0:
        x_hi += -x_lo
        x_lo = 0.0
    if x_hi > layout.width:
        x_lo -= x_hi - layout.width
        x_hi = layout.width
    x_lo = max(0.0, x_lo)
    row_lo = window.row_lo - drows
    row_hi = window.row_hi + drows
    if row_lo < 0:
        row_hi += -row_lo
        row_lo = 0
    if row_hi > layout.num_rows:
        row_lo -= row_hi - layout.num_rows
        row_hi = layout.num_rows
    row_lo = max(0, row_lo)
    return Window(x_lo=x_lo, x_hi=x_hi, row_lo=row_lo, row_hi=row_hi)


def plan_initial_window(
    layout: Layout,
    target: Cell,
    *,
    width_factor: float = 5.0,
    min_width: float = 24.0,
    extra_rows: int = 3,
    slack: Optional[float] = None,
    growth: Optional[float] = None,
    max_growths: Optional[int] = None,
    use_planner: bool = True,
) -> Tuple[Window, int]:
    """Plan the retry-0 search window of a (pre-moved) target cell.

    ``slack`` / ``growth`` / ``max_growths`` default (via ``None``) to
    the module's ``DEFAULT_*`` constants, so callers that do not tune
    them can never drift from the planner's single source of defaults.

    Opens the geometric window of :func:`~repro.mgl.local_region
    .initial_window` and, when the planner is enabled, grows it until
    :func:`window_is_promising` accepts it (or the growth budget is
    exhausted, or the window covers the whole chip).  Returns the window
    together with the number of growth steps taken — recorded as
    ``planner_growths`` in the target's work counters.
    """
    from repro.mgl.local_region import initial_window

    slack = DEFAULT_SLACK if slack is None else slack
    growth = DEFAULT_GROWTH if growth is None else growth
    max_growths = DEFAULT_MAX_GROWTHS if max_growths is None else max_growths
    window = initial_window(
        layout,
        target,
        width_factor=width_factor,
        min_width=min_width,
        extra_rows=extra_rows,
    )
    if not use_planner:
        return window, 0
    growths = 0
    while growths < max_growths and not window_is_promising(
        layout, target, window, slack
    ):
        dx = max(target.width, window.width * (growth - 1.0) / 2.0)
        full_width = window.x_lo <= 0.0 and window.x_hi >= layout.width
        grow_rows = full_width or growths >= ROW_GROWTH_DEFER
        drows = (
            max(1, int(round(window.num_rows * (growth - 1.0) / 2.0)))
            if grow_rows
            else 0
        )
        grown = grow_window(window, dx, drows, layout)
        if grown == window:  # already covers the whole chip
            break
        window = grown
        growths += 1
    return window, growths
