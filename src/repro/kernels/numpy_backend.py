"""NumPy-accelerated kernel backend.

Fast implementations of the FOP hot paths: displacement-curve
construction, the five-stage / fwd-bwd curve-minimization pipeline,
batch curve evaluation (snapping), and fused native scoring of SACS
regions.

**Bit-for-bit equivalence.**  The backend must reproduce the pure-Python
reference exactly, so every vectorized reduction is expressed with NumPy
operations that perform the *same sequential left-fold* the scalar loops
perform:

* ``np.add.accumulate`` / ``np.subtract.accumulate`` evaluate the exact
  recurrence ``acc = acc ⊕ x_i`` (prefix results force sequential order,
  no pairwise re-association);
* ``np.add.reduceat`` folds each merge group left-to-right, matching the
  ``merged[-1] += piece`` accumulation of ``merge_breakpoints``;
* elementwise arithmetic (``a * b - c``) is IEEE-754 double math, bit
  identical to the equivalent Python-float expressions.

**Adaptive dispatch.**  Array setup costs more than the whole scalar
pipeline on small inputs, so the backend switches representation by
size: insertion points whose curve sets stay below :data:`_VECTOR_MIN`
pieces are delegated to the scalar reference (identical by definition),
larger ones use the flat-array pipeline.  Curve sets containing
near-duplicate breakpoints (``0 < dx <= eps``, where the reference's
group-start merging and a diff-based grouping could disagree) are also
routed to the reference.

**Fused native scoring (SACS).**  For SACS configurations FOP first
offers the whole insertion-point list to
:meth:`NumpyKernelBackend.score_points`, which scores it in one call
into the C kernel of :mod:`repro.kernels.native`.  The staged curve
kernels above serve the original shifter; a host that cannot build the
kernel shifts SACS points with the Python reference.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # numpy is an optional dependency of the package
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None  # type: ignore[assignment]

from repro.kernels.base import KernelBackend
from repro.mgl.curves import (
    BreakpointPiece,
    CurveEvaluation,
    _pick_best,
    evaluate_piecewise,
    minimize_curves,
    minimize_curves_fwd_bwd,
)
from repro.mgl.shifting import ShiftOutcome

_EPS = 1e-9
_INF = math.inf
#: Piece count below which the scalar reference outruns the array setup;
#: correctness is identical on both sides of the threshold (empirically
#: tuned on ICCAD-2017-like regions, see benchmarks/test_bench_kernels.py).
_VECTOR_MIN = 48


def stage_cell_arrays(cells: Sequence[Any], columns: Dict[str, Any]) -> None:
    """Fill shared cell-state columns from ``cells`` (one bulk pass each).

    The staging layer of the multiprocess backend's zero-copy shard
    sync (:mod:`repro.kernels.shm`): every numeric cell field is packed
    into a float64 column with ``np.fromiter``, the same flat-float64
    convention the ``minimize_batch`` / ``evaluate_batch`` pipelines
    use.  ``columns`` maps field names to writable length-``len(cells)``
    array views (typically rows of one shared-memory block).  Integer
    fields (height, flags) are exact in float64 far beyond any real
    design size, so a round trip through the columns is bit-for-bit.
    """
    if np is None:  # pragma: no cover - callers gate on numpy availability
        raise RuntimeError("stage_cell_arrays requires numpy")
    n = len(cells)
    columns["x"][:n] = np.fromiter((c.x for c in cells), dtype=np.float64, count=n)
    columns["y"][:n] = np.fromiter((c.y for c in cells), dtype=np.float64, count=n)
    columns["gp_x"][:n] = np.fromiter(
        (c.gp_x for c in cells), dtype=np.float64, count=n
    )
    columns["gp_y"][:n] = np.fromiter(
        (c.gp_y for c in cells), dtype=np.float64, count=n
    )
    columns["width"][:n] = np.fromiter(
        (c.width for c in cells), dtype=np.float64, count=n
    )
    columns["height"][:n] = np.fromiter(
        (c.height for c in cells), dtype=np.float64, count=n
    )
    columns["flags"][:n] = np.fromiter(
        (
            (1 if c.fixed else 0) | (2 if c.legalized else 0)
            for c in cells
        ),
        dtype=np.float64,
        count=n,
    )


class CurveArrays:
    """Flat-array curve set: breakpoint x, left slope, right slope.

    Pieces are stored in *construction order* (target curve first, then
    the left-chain cells' pieces in threshold-dict order, then the
    right-chain cells'), which is what makes the stable sort inside
    :meth:`NumpyKernelBackend.minimize` order ties exactly like the
    reference ``sorted`` call does.
    """

    __slots__ = ("xs", "ls", "rs", "constant")

    def __init__(self, xs, ls, rs, constant: float) -> None:
        self.xs = xs
        self.ls = ls
        self.rs = rs
        self.constant = constant

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    def to_pieces(self) -> Tuple[List[BreakpointPiece], float]:
        """Reference-form view (used by fallbacks and tests)."""
        pieces = [
            BreakpointPiece(float(x), float(l), float(r))
            for x, l, r in zip(self.xs, self.ls, self.rs)
        ]
        return pieces, self.constant


class NumpyKernelBackend(KernelBackend):
    """Vectorized kernels, bit-for-bit equal to the Python reference."""

    name = "numpy"

    def __init__(self) -> None:
        if np is None:  # pragma: no cover - exercised only on numpy-less hosts
            raise RuntimeError(
                "the 'numpy' kernel backend requires numpy; install it or "
                "select backend='python'"
            )
        from repro.kernels.native import NativeFOP  # imports numpy unconditionally

        #: The fused C kernel scoring whole SACS regions (built lazily).
        self.native = NativeFOP()

    # ------------------------------------------------------------------
    # Fused region scoring
    # ------------------------------------------------------------------
    def score_points(self, region, target, points, config):
        """Score a SACS region's insertion points in one native call.

        Returns ``None`` (FOP then runs the staged pipeline) for other
        shifters, an empty point list, or a host on which the kernel
        cannot be built; see :mod:`repro.kernels.native`.
        """
        from repro.core.sacs import SortAheadShifter  # repro.core imports this module

        shifter = config.shifter
        if not points or not isinstance(shifter, SortAheadShifter):
            return None
        return self.native.score_points(
            region, target, points, shifter.context_for(region), config
        )

    # ------------------------------------------------------------------
    # Displacement-curve construction
    # ------------------------------------------------------------------
    def build_curves(self, region, target, bottom_row, outcome, vertical_cost_factor):
        n_left = len(outcome.left_thresholds)
        n_right = len(outcome.right_thresholds)
        if 1 + 2 * (n_left + n_right) < _VECTOR_MIN:
            # Small curve set: the scalar reference is faster end to end.
            from repro.mgl.fop import build_curves

            return build_curves(region, target, bottom_row, outcome, vertical_cost_factor)

        vertical_cost = abs(bottom_row - target.gp_y) * vertical_cost_factor
        cells = region.local_cells

        def gather(items):
            k = len(items)
            thr = np.fromiter(items.values(), dtype=np.float64, count=k)
            x = np.fromiter((cells[i].x for i in items), dtype=np.float64, count=k)
            gp = np.fromiter((cells[i].gp_x for i in items), dtype=np.float64, count=k)
            return thr, x - gp

        l_thr, l_delta = gather(outcome.left_thresholds)
        r_thr, r_delta = gather(outcome.right_thresholds)

        # A left-pushed cell at-or-right-of its GP spot (delta >= 0) emits a
        # V piece plus a hinge and the constant -delta; otherwise one hinge.
        l_two = l_delta >= 0.0
        # A right-pushed cell at-or-left-of its GP spot (delta <= 0) mirrors.
        r_two = r_delta <= 0.0
        l_counts = np.where(l_two, 2, 1)
        r_counts = np.where(r_two, 2, 1)
        total = 1 + int(l_counts.sum()) + int(r_counts.sum())

        xs = np.empty(total, dtype=np.float64)
        ls = np.empty(total, dtype=np.float64)
        rs = np.empty(total, dtype=np.float64)
        # Target curve |x_t - gp_x|.
        xs[0], ls[0], rs[0] = target.gp_x, -1.0, 1.0

        l_start = 1 + np.cumsum(l_counts) - l_counts
        s2 = l_start[l_two]
        xs[s2] = (l_thr - l_delta)[l_two]
        ls[s2], rs[s2] = -1.0, 1.0
        xs[s2 + 1] = l_thr[l_two]
        ls[s2 + 1], rs[s2 + 1] = 0.0, -1.0
        s1 = l_start[~l_two]
        xs[s1] = l_thr[~l_two]
        ls[s1], rs[s1] = -1.0, 0.0

        r_base = 1 + int(l_counts.sum())
        hinge = r_thr - target.width
        r_start = r_base + np.cumsum(r_counts) - r_counts
        s2 = r_start[r_two]
        xs[s2] = (hinge - r_delta)[r_two]
        ls[s2], rs[s2] = -1.0, 1.0
        xs[s2 + 1] = hinge[r_two]
        ls[s2 + 1], rs[s2 + 1] = 1.0, 0.0
        s1 = r_start[~r_two]
        xs[s1] = hinge[~r_two]
        ls[s1], rs[s1] = 0.0, 1.0

        # Constant: the reference folds the per-cell constants one by one
        # onto the vertical cost; accumulate() performs the same fold.
        consts = np.empty(1 + n_left + n_right, dtype=np.float64)
        consts[0] = vertical_cost
        consts[1 : 1 + n_left] = np.where(l_two, -l_delta, 0.0)
        consts[1 + n_left :] = np.where(r_two, r_delta, 0.0)
        constant = float(np.add.accumulate(consts)[-1])
        return CurveArrays(xs, ls, rs, constant)

    # ------------------------------------------------------------------
    # Curve minimization
    # ------------------------------------------------------------------
    def minimize(
        self,
        curves: Any,
        lo: float,
        hi: float,
        *,
        preferred_x: Optional[float] = None,
        fwd_bwd: bool = False,
    ) -> CurveEvaluation:
        if not isinstance(curves, CurveArrays):
            pieces, constant = curves
            minimizer = minimize_curves_fwd_bwd if fwd_bwd else minimize_curves
            return minimizer(pieces, constant, lo, hi, preferred_x=preferred_x)

        n = len(curves)
        if n == 0:
            # The reference handles zero pieces; the vector path cannot.
            return self._minimize_reference(curves, lo, hi, preferred_x, fwd_bwd)
        if hi < lo - _EPS:
            raise ValueError(f"empty evaluation interval [{lo}, {hi}]")
        hi = max(hi, lo)

        order = np.argsort(curves.xs, kind="stable")
        xs = curves.xs[order]
        ls_s = curves.ls[order]
        rs_s = curves.rs[order]
        d = np.diff(xs)
        if bool(((d > 0.0) & (d <= _EPS)).any()):
            # Near-coincident (but unequal) breakpoints: the reference
            # merges against the group's first x, a diff cannot express
            # that chain — defer to the oracle.
            return self._minimize_reference(curves, lo, hi, preferred_x, fwd_bwd)

        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = d > _EPS
        starts = np.flatnonzero(new_group)
        m = int(starts.shape[0])
        mx = xs[starts]
        mls = np.add.reduceat(ls_s, starts)
        mrs = np.add.reduceat(rs_s, starts)

        if fwd_bwd:
            # fwdtraverse accumulates the right slopes per *piece*; the
            # group-end prefix values are the merged slopesR.
            ends = np.empty(m, dtype=np.intp)
            ends[:-1] = starts[1:] - 1
            ends[-1] = n - 1
            slopes_r = np.add.accumulate(rs_s)[ends]
            aw_r = np.add.accumulate(mrs * mx)
            v_r = slopes_r * mx - aw_r
            slopes_l = np.add.accumulate(mls[::-1])[::-1]
            aw_l = np.add.accumulate((mls * mx)[::-1])[::-1]
            v_l = slopes_l * mx - aw_l
            values = v_r + v_l
        else:
            slopes_r = np.add.accumulate(mrs)
            slopes_l = np.add.accumulate(mls[::-1])[::-1]
            if m > 1:
                v0 = np.add.accumulate(mls[1:] * (mx[0] - mx[1:]))[-1]
                seg_slopes = slopes_r[:-1] + slopes_l[1:]
                deltas = seg_slopes * np.diff(mx)
                values = np.add.accumulate(np.concatenate(((v0,), deltas)))
            else:
                values = np.zeros(1, dtype=np.float64)

        def value_at(q: float) -> float:
            if q <= mx[0]:
                return float(values[0] + slopes_l[0] * (q - mx[0]))
            if q >= mx[-1]:
                return float(values[-1] + slopes_r[-1] * (q - mx[-1]))
            i = int(np.searchsorted(mx, q, side="left")) - 1
            slope = slopes_r[i] + slopes_l[i + 1]
            return float(values[i] + slope * (q - mx[i]))

        in_range = (mx >= lo - _EPS) & (mx <= hi + _EPS)
        candidates: List[Tuple[float, float]] = [
            (min(max(x, lo), hi), v)
            for x, v in zip(mx[in_range].tolist(), values[in_range].tolist())
        ]
        for bound in (lo, hi):
            candidates.append((bound, value_at(bound)))
        if preferred_x is not None and lo <= preferred_x <= hi:
            candidates.append((preferred_x, value_at(preferred_x)))
        best_x, best_v = _pick_best(candidates, preferred_x)
        return CurveEvaluation(
            best_x=best_x,
            best_value=best_v + curves.constant,
            n_breakpoints=n,
            n_merged=m,
        )

    def _minimize_reference(
        self,
        curves: CurveArrays,
        lo: float,
        hi: float,
        preferred_x: Optional[float],
        fwd_bwd: bool,
    ) -> CurveEvaluation:
        pieces, constant = curves.to_pieces()
        minimizer = minimize_curves_fwd_bwd if fwd_bwd else minimize_curves
        return minimizer(pieces, constant, lo, hi, preferred_x=preferred_x)

    # ------------------------------------------------------------------
    # Batched cross-insertion-point minimization
    # ------------------------------------------------------------------
    def minimize_batch(
        self,
        curve_sets: Sequence[Any],
        bounds: Sequence[Tuple[float, float]],
        *,
        preferred_x: Optional[float] = None,
        fwd_bwd: bool = False,
    ) -> List[CurveEvaluation]:
        """Score all insertion points of a region as one array pipeline.

        Every vector-eligible curve set (a :class:`CurveArrays` with at
        least one piece and no near-duplicate breakpoints) is padded into
        one ``(points, pieces)`` array family; a single stable argsort, a
        single flattened ``reduceat`` merge and per-row ``accumulate``
        prefix folds then replay, per row, exactly the float operations
        of :meth:`minimize` — trailing zero pads only ever append exact
        ``+ 0.0`` terms, so values are unchanged.  Small scalar curve
        sets and pathological rows fall back to the per-point paths.
        """
        results: List[Optional[CurveEvaluation]] = [None] * len(curve_sets)
        vector_rows: List[int] = []
        for i, (curves, (lo, hi)) in enumerate(zip(curve_sets, bounds)):
            if isinstance(curves, CurveArrays) and len(curves) > 0:
                if hi < lo - _EPS:
                    raise ValueError(f"empty evaluation interval [{lo}, {hi}]")
                vector_rows.append(i)
            else:
                results[i] = self.minimize(
                    curves, lo, hi, preferred_x=preferred_x, fwd_bwd=fwd_bwd
                )
        if len(vector_rows) < 2:
            for i in vector_rows:
                lo, hi = bounds[i]
                results[i] = self.minimize(
                    curve_sets[i], lo, hi, preferred_x=preferred_x, fwd_bwd=fwd_bwd
                )
            return results  # type: ignore[return-value]

        # --- pad + sort ------------------------------------------------
        n = np.array([len(curve_sets[i]) for i in vector_rows], dtype=np.intp)
        V, P = len(vector_rows), int(n.max())
        # Finite pad sentinel strictly above every real breakpoint: pads
        # stay sorted after the valid entries without inf-inf arithmetic.
        sentinel = float(max(float(curve_sets[i].xs.max()) for i in vector_rows)) + 1.0
        xs2d = np.full((V, P), sentinel, dtype=np.float64)
        ls2d = np.zeros((V, P), dtype=np.float64)
        rs2d = np.zeros((V, P), dtype=np.float64)
        for r, i in enumerate(vector_rows):
            c = curve_sets[i]
            k = int(n[r])
            xs2d[r, :k] = c.xs
            ls2d[r, :k] = c.ls
            rs2d[r, :k] = c.rs
        order = np.argsort(xs2d, axis=1, kind="stable")
        xs_s = np.take_along_axis(xs2d, order, axis=1)
        ls_s = np.take_along_axis(ls2d, order, axis=1)
        rs_s = np.take_along_axis(rs2d, order, axis=1)
        valid = np.arange(P)[None, :] < n[:, None]

        # Near-coincident (but unequal) breakpoints: defer to the oracle,
        # exactly like the per-point path.
        d = xs_s[:, 1:] - xs_s[:, :-1]
        near_dup = ((d > 0.0) & (d <= _EPS) & valid[:, 1:]).any(axis=1)
        if bool(near_dup.any()):
            for r in np.flatnonzero(near_dup):
                i = vector_rows[r]
                lo, hi = bounds[i]
                results[i] = self._minimize_reference(
                    curve_sets[i], lo, max(hi, lo), preferred_x, fwd_bwd
                )
            keep = ~near_dup
            vector_rows = [i for r, i in enumerate(vector_rows) if keep[r]]
            if len(vector_rows) < 2:
                for i in vector_rows:
                    lo, hi = bounds[i]
                    results[i] = self.minimize(
                        curve_sets[i], lo, hi, preferred_x=preferred_x, fwd_bwd=fwd_bwd
                    )
                return results  # type: ignore[return-value]
            n = n[keep]
            xs_s, ls_s, rs_s, valid = xs_s[keep], ls_s[keep], rs_s[keep], valid[keep]
            V = len(vector_rows)

        lo_arr = np.array([bounds[i][0] for i in vector_rows])
        hi_arr = np.array([bounds[i][1] for i in vector_rows])
        hi_arr = np.maximum(hi_arr, lo_arr)

        # --- merge (flattened reduceat; groups never cross rows) -------
        total = int(n.sum())
        row_len = n
        row_start = np.concatenate(([0], np.cumsum(row_len)[:-1]))
        flat_xs = xs_s[valid]
        flat_ls = ls_s[valid]
        flat_rs = rs_s[valid]
        new_group = np.empty(total, dtype=bool)
        new_group[0] = True
        new_group[1:] = (flat_xs[1:] - flat_xs[:-1]) > _EPS
        new_group[row_start] = True
        starts = np.flatnonzero(new_group)
        mx_flat = flat_xs[starts]
        mls_flat = np.add.reduceat(flat_ls, starts)
        mrs_flat = np.add.reduceat(flat_rs, starts)

        row_of_flat = np.repeat(np.arange(V), row_len)
        row_of_start = row_of_flat[starts]
        m = np.bincount(row_of_start, minlength=V).astype(np.intp)
        M = int(m.max())
        mstart_row = np.concatenate(([0], np.cumsum(m)[:-1]))
        mcol = np.arange(starts.shape[0]) - mstart_row[row_of_start]

        mx2d = np.zeros((V, M), dtype=np.float64)
        mls2d = np.zeros((V, M), dtype=np.float64)
        mrs2d = np.zeros((V, M), dtype=np.float64)
        mx2d[row_of_start, mcol] = mx_flat
        mls2d[row_of_start, mcol] = mls_flat
        mrs2d[row_of_start, mcol] = mrs_flat
        validm = np.arange(M)[None, :] < m[:, None]
        rows = np.arange(V)
        last = m - 1

        def _rev_accumulate(a: Any) -> Any:
            """Per-row suffix fold (reference ``accumulate(x[::-1])[::-1]``).

            Flipping puts the zero pads in front; folding a finite value
            onto a zero accumulator is exact, so the suffix values match
            the reference fold bit for bit.
            """
            return np.add.accumulate(a[:, ::-1], axis=1)[:, ::-1]

        if fwd_bwd:
            # fwdtraverse: per-piece right-slope prefix folds, read at the
            # merge-group ends.
            piece_acc_r = np.add.accumulate(rs_s, axis=1)
            next_start = np.append(starts[1:], total)
            end_col = (next_start - 1) - row_start[row_of_start]
            slopes_r2d = np.zeros((V, M), dtype=np.float64)
            slopes_r2d[row_of_start, mcol] = piece_acc_r[row_of_start, end_col]
            aw_r = np.add.accumulate(mrs2d * mx2d, axis=1)
            v_r = slopes_r2d * mx2d - aw_r
            slopes_l2d = _rev_accumulate(mls2d)
            aw_l = _rev_accumulate(mls2d * mx2d)
            v_l = slopes_l2d * mx2d - aw_l
            values2d = v_r + v_l
        else:
            slopes_r2d = np.add.accumulate(mrs2d, axis=1)
            slopes_l2d = _rev_accumulate(mls2d)
            if M > 1:
                prod = mls2d[:, 1:] * (mx2d[:, :1] - mx2d[:, 1:])
                acc_prod = np.add.accumulate(prod, axis=1)
                v0 = np.where(m > 1, acc_prod[rows, np.maximum(last - 1, 0)], 0.0)
                seg = slopes_r2d[:, :-1] + slopes_l2d[:, 1:]
                deltas = seg * (mx2d[:, 1:] - mx2d[:, :-1])
                values2d = np.add.accumulate(
                    np.concatenate([v0[:, None], deltas], axis=1), axis=1
                )
            else:
                values2d = np.zeros((V, 1), dtype=np.float64)

        mx_last = mx2d[rows, last]

        def _values_at(q: Any) -> Any:
            """Per-row curve values at one query position per row."""
            below = q <= mx2d[:, 0]
            above = q >= mx_last
            cnt = ((mx2d < q[:, None]) & validm).sum(axis=1)
            i = np.clip(cnt - 1, 0, last)
            ip1 = np.minimum(i + 1, last)
            slope = slopes_r2d[rows, i] + slopes_l2d[rows, ip1]
            v_int = values2d[rows, i] + slope * (q - mx2d[rows, i])
            v_below = values2d[:, 0] + slopes_l2d[:, 0] * (q - mx2d[:, 0])
            v_above = values2d[rows, last] + slopes_r2d[rows, last] * (q - mx_last)
            return np.where(below, v_below, np.where(above, v_above, v_int))

        v_lo = _values_at(lo_arr)
        v_hi = _values_at(hi_arr)
        if preferred_x is not None:
            v_pref = _values_at(np.full(V, float(preferred_x)))

        # --- per-row candidate selection (tiny lists) ------------------
        for r, i in enumerate(vector_rows):
            lo = float(lo_arr[r])
            hi = float(hi_arr[r])
            k = int(m[r])
            mxs = mx2d[r, :k]
            vals = values2d[r, :k]
            in_range = (mxs >= lo - _EPS) & (mxs <= hi + _EPS)
            candidates: List[Tuple[float, float]] = [
                (min(max(x, lo), hi), v)
                for x, v in zip(mxs[in_range].tolist(), vals[in_range].tolist())
            ]
            candidates.append((lo, float(v_lo[r])))
            candidates.append((hi, float(v_hi[r])))
            if preferred_x is not None and lo <= preferred_x <= hi:
                candidates.append((preferred_x, float(v_pref[r])))
            best_x, best_v = _pick_best(candidates, preferred_x)
            results[i] = CurveEvaluation(
                best_x=best_x,
                best_value=best_v + curve_sets[i].constant,
                n_breakpoints=int(n[r]),
                n_merged=k,
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Batch evaluation (FOP snapping)
    # ------------------------------------------------------------------
    def evaluate(self, curves: Any, xs: Sequence[float]) -> List[float]:
        if not isinstance(curves, CurveArrays):
            pieces, constant = curves
            return [evaluate_piecewise(pieces, constant, x) for x in xs]
        if len(curves) == 0:
            return [curves.constant + 0.0 for _ in xs]
        q = np.asarray(xs, dtype=np.float64)[:, None]
        diffs = q - curves.xs[None, :]
        vals = np.where(q < curves.xs[None, :], curves.ls * diffs, curves.rs * diffs)
        totals = np.add.accumulate(vals, axis=1)[:, -1]
        return [curves.constant + float(t) for t in totals]

    def evaluate_batch(
        self, curve_sets: Sequence[Any], queries: Sequence[Sequence[float]]
    ) -> List[List[float]]:
        """Batched exact snapping evaluation across insertion points.

        Vector-eligible points are evaluated through one padded
        ``(points, queries, pieces)`` pipeline; zero-piece pads contribute
        exact ``+ 0.0`` terms, so each value equals the per-point
        :meth:`evaluate` result.  Scalar curve sets take the scalar path.
        """
        results: List[Optional[List[float]]] = [None] * len(curve_sets)
        vector_rows: List[int] = []
        for i, (curves, xs) in enumerate(zip(curve_sets, queries)):
            if isinstance(curves, CurveArrays) and len(curves) > 0 and len(xs) > 0:
                vector_rows.append(i)
            else:
                results[i] = self.evaluate(curves, xs)
        if len(vector_rows) < 2:
            for i in vector_rows:
                results[i] = self.evaluate(curve_sets[i], queries[i])
            return results  # type: ignore[return-value]

        n = np.array([len(curve_sets[i]) for i in vector_rows], dtype=np.intp)
        nq = np.array([len(queries[i]) for i in vector_rows], dtype=np.intp)
        V, P, Q = len(vector_rows), int(n.max()), int(nq.max())
        xs3 = np.zeros((V, 1, P), dtype=np.float64)
        ls3 = np.zeros((V, 1, P), dtype=np.float64)
        rs3 = np.zeros((V, 1, P), dtype=np.float64)
        q3 = np.zeros((V, Q, 1), dtype=np.float64)
        for r, i in enumerate(vector_rows):
            c = curve_sets[i]
            xs3[r, 0, : n[r]] = c.xs
            ls3[r, 0, : n[r]] = c.ls
            rs3[r, 0, : n[r]] = c.rs
            q3[r, : nq[r], 0] = queries[i]
        diffs = q3 - xs3
        vals = np.where(q3 < xs3, ls3 * diffs, rs3 * diffs)
        totals = np.add.accumulate(vals, axis=2)[:, :, -1]
        for r, i in enumerate(vector_rows):
            constant = curve_sets[i].constant
            results[i] = [constant + float(t) for t in totals[r, : nq[r]]]
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # SACS shifting chains
    # ------------------------------------------------------------------
    # Whole SACS regions go to the native kernel (score_points above).
    # Single shifts (FOP re-deriving the winner's outcome, and every shift
    # on a host where the kernel cannot be built) run the reference.
    def build_sacs_context(self, region):
        from repro.core.sacs import build_sacs_context

        return build_sacs_context(region)

    def shift_sacs(self, region, target, insertion, context) -> ShiftOutcome:
        from repro.core.sacs import shift_cells_sacs

        return shift_cells_sacs(region, target, insertion, context)
