"""Displacement-curve math: breakpoints, merging, slope sums and minimization.

A localCell's displacement as a function of the target position ``x_t``
is a piecewise-linear curve (paper Fig. 3(c)).  Every curve is decomposed
into *elementary breakpoint pieces*: a piece ``(x0, ls, rs)`` is zero at
``x0``, has slope ``ls`` for ``x_t < x0`` and slope ``rs`` for
``x_t > x0``.  The sum of all cells' curves (Fig. 3(d)) is then evaluated
by the five-stage pipeline of the paper:

``sort bp`` → ``merge bp`` → ``sum slopesR`` → ``sum slopesL`` →
``calculate value``

Two functionally identical implementations are provided:

* :func:`minimize_curves_fwd_bwd` — the reorganised
  ``fwdtraverse`` / ``bwdtraverse`` form of FLEX's multi-granularity
  pipeline, where merging is duplicated into forward and backward halves
  and ``calculate v`` is split into ``vR``, ``vL`` and ``v``.  It is the
  only organisation the host runs: FOP, every kernel backend and the
  native kernel minimize this way;
* :func:`minimize_curves` — the paper's sequential organisation, where
  every stage finishes before the next starts (the "Normal Pipeline" of
  Fig. 5).  It is kept as the paper-shaped reference that the tests hold
  the fwd/bwd form to.

Both return the same optimum, up to epsilon ties: they round
differently, so two candidates whose values lie about ``_EPS`` apart can
compare differently.  The FPGA cycle model still prices either
organisation (:attr:`repro.core.config.FlexConfig.pipeline`).  The
functions are pure and operate on small Python lists — the number of
breakpoints per insertion point is typically a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


_EPS = 1e-9


@dataclass(frozen=True)
class BreakpointPiece:
    """An elementary hinge piece of a piecewise-linear curve.

    The piece evaluates to ``ls * (x - x0)`` for ``x < x0`` and
    ``rs * (x - x0)`` for ``x >= x0`` (both expressions are 0 at ``x0``).
    A V-shaped absolute-value curve ``|x - a|`` is the single piece
    ``(a, -1, +1)``; hinges such as ``max(0, b - x)`` are ``(b, -1, 0)``.
    """

    x: float
    left_slope: float
    right_slope: float

    def value(self, query: float) -> float:
        """Evaluate the piece at ``query``."""
        if query < self.x:
            return self.left_slope * (query - self.x)
        return self.right_slope * (query - self.x)


@dataclass(frozen=True)
class CurveEvaluation:
    """Result of minimizing a sum of displacement curves over an interval."""

    best_x: float
    best_value: float
    n_breakpoints: int
    n_merged: int

    def shifted(self, delta: float) -> "CurveEvaluation":
        """Return a copy with ``delta`` added to the best value."""
        return CurveEvaluation(self.best_x, self.best_value + delta, self.n_breakpoints, self.n_merged)


# ----------------------------------------------------------------------
# Direct evaluation (reference implementation used by tests and snapping)
# ----------------------------------------------------------------------
def evaluate_piecewise(pieces: Sequence[BreakpointPiece], constant: float, x: float) -> float:
    """Evaluate ``constant + sum of pieces`` at ``x`` directly (O(n))."""
    # This IS the documented left-to-right float64 reference fold that
    # the fused evaluators must match bit-for-bit.
    return constant + sum(p.value(x) for p in pieces)  # repro: allow[flt-sum]


# ----------------------------------------------------------------------
# Stage implementations (the original five operations)
# ----------------------------------------------------------------------
def sort_breakpoints(pieces: Iterable[BreakpointPiece]) -> List[BreakpointPiece]:
    """``sort bp``: gather all breakpoints and sort them by x-coordinate."""
    return sorted(pieces, key=lambda p: p.x)


def merge_breakpoints(sorted_pieces: Sequence[BreakpointPiece]) -> List[BreakpointPiece]:
    """``merge bp``: merge breakpoints with identical x by accumulating slopes."""
    merged: List[BreakpointPiece] = []
    for piece in sorted_pieces:
        if merged and abs(piece.x - merged[-1].x) <= _EPS:
            last = merged[-1]
            merged[-1] = BreakpointPiece(
                last.x, last.left_slope + piece.left_slope, last.right_slope + piece.right_slope
            )
        else:
            merged.append(piece)
    return merged


def sum_slopes_right(merged: Sequence[BreakpointPiece]) -> List[float]:
    """``sum slopesR``: forward prefix sums of the merged right slopes.

    ``slopesR[i]`` is the cumulative right slope of all merged breakpoints
    with index ``<= i``; it equals the contribution of those pieces to the
    curve slope anywhere to the right of breakpoint ``i``.
    """
    out: List[float] = []
    acc = 0.0
    for piece in merged:
        acc += piece.right_slope
        out.append(acc)
    return out


def sum_slopes_left(merged: Sequence[BreakpointPiece]) -> List[float]:
    """``sum slopesL``: backward suffix sums of the merged left slopes.

    ``slopesL[j]`` is the cumulative left slope of all merged breakpoints
    with index ``>= j``; it equals the contribution of those pieces to the
    curve slope anywhere to the left of breakpoint ``j``.
    """
    out = [0.0] * len(merged)
    acc = 0.0
    for j in range(len(merged) - 1, -1, -1):
        acc += merged[j].left_slope
        out[j] = acc
    return out


def _breakpoint_values(
    merged: Sequence[BreakpointPiece], slopes_r: Sequence[float], slopes_l: Sequence[float]
) -> List[float]:
    """Curve value (without the external constant) at every merged breakpoint.

    The value at the leftmost breakpoint is computed directly from the
    suffix information; subsequent values follow from the segment slopes
    ``slopesR[i] + slopesL[i+1]`` (``calculate value`` of the paper).
    """
    n = len(merged)
    if n == 0:
        return []
    # Value at breakpoint 0: only pieces to its right contribute, through
    # their left slopes.
    v0 = 0.0
    for j in range(1, n):
        v0 += merged[j].left_slope * (merged[0].x - merged[j].x)
    values = [v0]
    for i in range(n - 1):
        slope = slopes_r[i] + slopes_l[i + 1]
        values.append(values[-1] + slope * (merged[i + 1].x - merged[i].x))
    return values


def _value_at(
    query: float,
    merged: Sequence[BreakpointPiece],
    slopes_r: Sequence[float],
    slopes_l: Sequence[float],
    values: Sequence[float],
) -> float:
    """Interpolate the summed curve at an arbitrary query point."""
    n = len(merged)
    if n == 0:
        return 0.0
    if query <= merged[0].x:
        return values[0] + slopes_l[0] * (query - merged[0].x)
    if query >= merged[-1].x:
        return values[-1] + slopes_r[-1] * (query - merged[-1].x)
    # Find the segment containing the query (linear scan; n is small).
    for i in range(n - 1):
        if merged[i].x <= query <= merged[i + 1].x:
            slope = slopes_r[i] + slopes_l[i + 1]
            return values[i] + slope * (query - merged[i].x)
    return values[-1]  # pragma: no cover - unreachable


def _pick_best(
    candidates: Sequence[Tuple[float, float]], preferred_x: Optional[float]
) -> Tuple[float, float]:
    """Select the candidate with the lowest value, breaking ties toward
    the preferred x-coordinate (the target's global-placement x)."""
    best_x, best_v = candidates[0]
    for x, v in candidates[1:]:
        if v < best_v - _EPS:
            best_x, best_v = x, v
        elif abs(v - best_v) <= _EPS and preferred_x is not None:
            if abs(x - preferred_x) < abs(best_x - preferred_x):
                best_x, best_v = x, v
    return best_x, best_v


# ----------------------------------------------------------------------
# Original pipeline (the reference)
# ----------------------------------------------------------------------
def minimize_curves(
    pieces: Sequence[BreakpointPiece],
    constant: float,
    lo: float,
    hi: float,
    *,
    preferred_x: Optional[float] = None,
) -> CurveEvaluation:
    """Minimize ``constant + sum of pieces`` over ``[lo, hi]``.

    This is the original five-stage organisation: each stage consumes the
    complete output of its predecessor.  Raises ``ValueError`` when the
    interval is empty.
    """
    if hi < lo - _EPS:
        raise ValueError(f"empty evaluation interval [{lo}, {hi}]")
    hi = max(hi, lo)
    sorted_pieces = sort_breakpoints(pieces)
    merged = merge_breakpoints(sorted_pieces)
    slopes_r = sum_slopes_right(merged)
    slopes_l = sum_slopes_left(merged)
    values = _breakpoint_values(merged, slopes_r, slopes_l)

    candidates: List[Tuple[float, float]] = []
    for piece, value in zip(merged, values):
        if lo - _EPS <= piece.x <= hi + _EPS:
            candidates.append((min(max(piece.x, lo), hi), value))
    for bound in (lo, hi):
        candidates.append((bound, _value_at(bound, merged, slopes_r, slopes_l, values)))
    if preferred_x is not None and lo <= preferred_x <= hi:
        candidates.append(
            (preferred_x, _value_at(preferred_x, merged, slopes_r, slopes_l, values))
        )
    best_x, best_v = _pick_best(candidates, preferred_x)
    return CurveEvaluation(
        best_x=best_x,
        best_value=best_v + constant,
        n_breakpoints=len(sorted_pieces),
        n_merged=len(merged),
    )


# ----------------------------------------------------------------------
# Reorganised pipeline (fwdtraverse / bwdtraverse of Fig. 5)
# ----------------------------------------------------------------------
def minimize_curves_fwd_bwd(
    pieces: Sequence[BreakpointPiece],
    constant: float,
    lo: float,
    hi: float,
    *,
    preferred_x: Optional[float] = None,
) -> CurveEvaluation:
    """Minimize the summed curve using the reorganised FLEX dataflow.

    ``fwdtraverse`` performs forward-merge, the slopesR prefix sums and
    the forward part of the value computation in a single forward sweep
    over the sorted breakpoints; ``bwdtraverse`` performs backward-merge,
    the slopesL suffix sums and the final value computation in a single
    backward sweep.  The result is that of :func:`minimize_curves` (up to
    epsilon ties, see the module docstring); only the operation structure
    differs (which is what enables the multi-granularity pipeline on the
    FPGA).
    """
    if hi < lo - _EPS:
        raise ValueError(f"empty evaluation interval [{lo}, {hi}]")
    hi = max(hi, lo)
    sorted_pieces = sort_breakpoints(pieces)

    # --- fwdtraverse: fwdmerge + sum slopesR + calculate vR (streaming) ---
    merged_x: List[float] = []
    merged_ls: List[float] = []
    merged_rs: List[float] = []
    slopes_r: List[float] = []
    acc_r = 0.0
    for piece in sorted_pieces:
        if merged_x and abs(piece.x - merged_x[-1]) <= _EPS:
            merged_ls[-1] += piece.left_slope
            merged_rs[-1] += piece.right_slope
            acc_r += piece.right_slope
            slopes_r[-1] = acc_r
        else:
            merged_x.append(piece.x)
            merged_ls.append(piece.left_slope)
            merged_rs.append(piece.right_slope)
            acc_r += piece.right_slope
            slopes_r.append(acc_r)
    n = len(merged_x)
    # vR[i] = sum over pieces j <= i of rs_j * (x_i - x_j), accumulated forward.
    v_r: List[float] = []
    acc_weighted = 0.0  # sum rs_j * x_j for j <= i
    for i in range(n):
        acc_weighted += merged_rs[i] * merged_x[i]
        v_r.append(slopes_r[i] * merged_x[i] - acc_weighted)

    # --- bwdtraverse: bwdmerge + sum slopesL + calculate vL and v ---------
    slopes_l = [0.0] * n
    v_l = [0.0] * n
    acc_l = 0.0
    acc_weighted_l = 0.0  # sum ls_j * x_j for j >= i
    for i in range(n - 1, -1, -1):
        acc_l += merged_ls[i]
        acc_weighted_l += merged_ls[i] * merged_x[i]
        slopes_l[i] = acc_l
        # vL[i] = sum over pieces j >= i of ls_j * (x_i - x_j); piece i itself
        # contributes zero at its own breakpoint.
        v_l[i] = acc_l * merged_x[i] - acc_weighted_l
    values = [v_r[i] + v_l[i] for i in range(n)]

    merged = [BreakpointPiece(merged_x[i], merged_ls[i], merged_rs[i]) for i in range(n)]
    candidates: List[Tuple[float, float]] = []
    for i in range(n):
        if lo - _EPS <= merged_x[i] <= hi + _EPS:
            candidates.append((min(max(merged_x[i], lo), hi), values[i]))
    for bound in (lo, hi):
        candidates.append((bound, _value_at(bound, merged, slopes_r, slopes_l, values)))
    if preferred_x is not None and lo <= preferred_x <= hi:
        candidates.append((preferred_x, _value_at(preferred_x, merged, slopes_r, slopes_l, values)))
    best_x, best_v = _pick_best(candidates, preferred_x)
    return CurveEvaluation(
        best_x=best_x,
        best_value=best_v + constant,
        n_breakpoints=len(sorted_pieces),
        n_merged=n,
    )


# ----------------------------------------------------------------------
# Helpers for constructing the displacement curves of shifted cells
# ----------------------------------------------------------------------
def left_shift_curve(threshold: float, current_x: float, gp_x: float) -> Tuple[List[BreakpointPiece], float]:
    """Displacement-change curve of a cell pushed left by the target.

    The cell's new position is ``current_x - max(0, threshold - x_t)``.
    The returned ``(pieces, constant)`` represent the *change* of the
    cell's displacement-from-global-placement relative to its value when
    it is not moved; summing changes over affected cells (plus the
    target's own displacement) ranks insertion positions exactly like the
    absolute objective would, because the unaffected cells contribute a
    constant that is common to every candidate position of the region.
    """
    delta = current_x - gp_x
    if delta >= 0:
        # The cell currently sits right of its GP spot; moving it left first
        # reduces then increases its displacement (non-convex overall curve).
        return (
            [
                BreakpointPiece(threshold - delta, -1.0, +1.0),
                BreakpointPiece(threshold, 0.0, -1.0),
            ],
            -delta,
        )
    # The cell is already left of its GP spot; any further left move adds
    # displacement one-for-one.
    return [BreakpointPiece(threshold, -1.0, 0.0)], 0.0


def right_shift_curve(
    threshold: float, target_width: float, current_x: float, gp_x: float
) -> Tuple[List[BreakpointPiece], float]:
    """Displacement-change curve of a cell pushed right by the target.

    The cell's new position is ``current_x + max(0, (x_t + w_t) - threshold)``
    where ``threshold`` is the largest target right edge that leaves the
    cell untouched.  Expressed in ``x_t`` the hinge sits at
    ``threshold - target_width``.
    """
    hinge = threshold - target_width
    delta = current_x - gp_x
    if delta <= 0:
        # Currently left of GP: moving right first helps, then hurts.
        return (
            [
                BreakpointPiece(hinge - delta, -1.0, +1.0),
                BreakpointPiece(hinge, +1.0, 0.0),
            ],
            delta,
        )
    return [BreakpointPiece(hinge, 0.0, +1.0)], 0.0


def target_curve(gp_x: float, vertical_cost: float) -> Tuple[List[BreakpointPiece], float]:
    """Displacement curve of the target cell itself.

    Horizontal displacement is ``|x_t - gp_x|``; the vertical component is
    a constant for a fixed candidate bottom row and is passed in already
    converted to horizontal units.
    """
    return [BreakpointPiece(gp_x, -1.0, +1.0)], vertical_cost
