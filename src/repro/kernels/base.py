"""The kernel-backend reference class.

A *kernel backend* supplies the numeric inner loops of the legalizer —
the paths FLEX offloads to the FPGA and that dominate CPU runtime:

* **displacement-curve construction** — turning a cell-shifting outcome
  into the elementary breakpoint pieces of the summed displacement curve
  (:meth:`KernelBackend.build_curves`);
* **curve minimization** — the five-stage ``sort bp`` → ``merge bp`` →
  ``sum slopesR`` → ``sum slopesL`` → ``calculate value`` pipeline (or
  its fwdtraverse/bwdtraverse reorganisation) that finds the optimal
  target position (:meth:`KernelBackend.minimize`);
* **batch curve evaluation** — exact evaluation of the summed curve at
  candidate site positions, used by FOP's snapping step
  (:meth:`KernelBackend.evaluate`);
* **SACS shifting** — the single-pass sort-ahead cell-shifting chain
  evaluation (:meth:`KernelBackend.build_sacs_context` /
  :meth:`KernelBackend.shift_sacs`).

The curve-set value returned by :meth:`build_curves` is *opaque*: a
backend may choose its own representation (the reference keeps a list of
:class:`~repro.mgl.curves.BreakpointPiece` plus a constant) and only that
backend's other methods consume it.  Callers must therefore run
build/minimize/evaluate against a single backend instance, which is how
FOP uses them.  A backend can also run FOP's whole search over a region
(enumerate, score and reduce its insertion points) in one step
(:meth:`KernelBackend.search_region`).  The backends form one chain:
the ``numpy`` backend subclasses the reference and searches SACS regions
in its native kernel, and the ``multiprocess`` backend subclasses
``numpy`` and chunks heavy original-shifter regions across a worker
pool.

Every backend must be *bit-for-bit equivalent* to the pure-Python
reference: same optima, same costs, same shift thresholds, same work
counters.  :class:`KernelBackend` itself is that reference (the
``python`` backend): its methods delegate to the scalar functions that
live next to the algorithms they model (:mod:`repro.mgl.curves`,
:mod:`repro.mgl.fop`, :mod:`repro.core.sacs`).  Those functions are the
*oracle* and stay readable, paper-shaped Python for exactly that reason;
the equivalence of every other backend is enforced by
``tests/test_kernels.py``.

The delegated modules are imported lazily inside the methods because
:mod:`repro.kernels` is itself imported by ``repro.mgl.fop`` and
``repro.core.sacs`` — a module-level import in either direction would be
circular.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.sacs import SACSContext
    from repro.geometry.cell import Cell
    from repro.geometry.region import LocalRegion
    from repro.mgl.curves import CurveEvaluation
    from repro.mgl.insertion import InsertionPoint
    from repro.mgl.shifting import ShiftOutcome
    from repro.perf.counters import InsertionPointWork, PointColumns


class RegionSearch(NamedTuple):
    """The result of FOP's insertion-point search over one localRegion.

    ``points``, ``sites`` and ``costs`` cover every evaluated insertion
    point, in enumeration order: its work counts (columns), its best
    site and that site's cost (``nan`` and ``inf`` for an infeasible
    point).  ``n_feasible`` counts the feasible points.  ``winner`` is
    ``None`` when none is feasible, else ``(insertion, best_x, cost,
    outcome)`` of the winning point; ``outcome`` is ``None`` only when
    the winner was scored in a worker process.
    """

    points: "PointColumns"
    sites: List[float]
    costs: List[float]
    n_feasible: int
    winner: Optional[Tuple["InsertionPoint", float, float, Optional["ShiftOutcome"]]]

    @property
    def works(self) -> List["InsertionPointWork"]:
        """The points as :class:`~repro.perf.counters.InsertionPointWork` views."""
        return list(self.points)


class KernelBackend:
    """The scalar reference implementation of every kernel (``python``)."""

    #: Configuration name of the backend (``"python"``, ...).
    name: str = "python"

    #: Processes that execute FOP work: 1 for sequential backends, the
    #: pool size for process-parallel ones.
    workers: int = 1

    #: Regions whose FOP candidate loop this backend has chunked across
    #: worker processes over its lifetime.
    parallel_regions: int = 0

    # ------------------------------------------------------------------
    # Displacement-curve kernels
    # ------------------------------------------------------------------
    def build_curves(
        self,
        region: "LocalRegion",
        target: "Cell",
        bottom_row: int,
        outcome: "ShiftOutcome",
        vertical_cost_factor: float,
    ) -> Any:
        """Assemble the displacement curves of one insertion point.

        Returns an opaque curve set consumed by :meth:`minimize` and
        :meth:`evaluate` of the same backend.
        """
        from repro.mgl.fop import build_curves

        return build_curves(region, target, bottom_row, outcome, vertical_cost_factor)

    def minimize(
        self,
        curves: Any,
        lo: float,
        hi: float,
        *,
        preferred_x: Optional[float] = None,
        fwd_bwd: bool = False,
    ) -> "CurveEvaluation":
        """Minimize the summed curve over ``[lo, hi]``.

        ``fwd_bwd`` selects the reorganised fwdtraverse/bwdtraverse
        operation structure instead of the original five-stage pipeline;
        both organisations return the same optimum.
        """
        from repro.mgl.curves import minimize_curves, minimize_curves_fwd_bwd

        pieces, constant = curves
        minimizer = minimize_curves_fwd_bwd if fwd_bwd else minimize_curves
        return minimizer(pieces, constant, lo, hi, preferred_x=preferred_x)

    def evaluate(self, curves: Any, xs: Sequence[float]) -> List[float]:
        """Exact summed-curve values at each query position in ``xs``."""
        from repro.mgl.curves import evaluate_piecewise

        pieces, constant = curves
        return [evaluate_piecewise(pieces, constant, x) for x in xs]

    # ------------------------------------------------------------------
    # Batched cross-insertion-point kernels
    # ------------------------------------------------------------------
    # FOP scores every insertion point of a localRegion; the batch entry
    # points let a backend evaluate the whole candidate population as one
    # pipeline instead of point by point.  The defaults below delegate to
    # the scalar methods, so results are bit-for-bit identical for every
    # backend by construction; a vectorized backend may override them.

    def minimize_batch(
        self,
        curve_sets: Sequence[Any],
        bounds: Sequence[Tuple[float, float]],
        *,
        preferred_x: Optional[float] = None,
        fwd_bwd: bool = False,
    ) -> List["CurveEvaluation"]:
        """Minimize one summed curve per insertion point.

        ``curve_sets[i]`` is scored over ``bounds[i] = (lo, hi)``; the
        result list is index-aligned with the inputs.
        """
        return [
            self.minimize(curves, lo, hi, preferred_x=preferred_x, fwd_bwd=fwd_bwd)
            for curves, (lo, hi) in zip(curve_sets, bounds)
        ]

    def evaluate_batch(
        self, curve_sets: Sequence[Any], queries: Sequence[Sequence[float]]
    ) -> List[List[float]]:
        """Exact summed-curve values per insertion point (snapping step).

        ``queries[i]`` holds the site candidates of curve set ``i``; an
        empty query list yields an empty value list for that point.
        """
        return [self.evaluate(curves, xs) for curves, xs in zip(curve_sets, queries)]

    def search_region(
        self,
        region: "LocalRegion",
        target: "Cell",
        bottom_rows: Sequence[int],
        config: Any,
    ) -> Optional[RegionSearch]:
        """Run FOP's whole insertion-point search over a region in one step.

        Enumerates the insertion points of every candidate bottom row in
        ``bottom_rows``, scores them and reduces them to the winner,
        returning what :func:`repro.mgl.fop.search_points` returns (a
        winner scored in a worker process may come without its outcome;
        FOP then re-derives it).
        Returns ``None`` when this backend has no whole-region path for
        ``config``; FOP then enumerates in Python and runs the staged
        kernels above.  The default has none.
        """
        return None

    # ------------------------------------------------------------------
    # SACS kernels
    # ------------------------------------------------------------------
    def build_sacs_context(self, region: "LocalRegion") -> "SACSContext":
        """Pre-sort a localRegion for sort-ahead cell shifting."""
        from repro.core.sacs import build_sacs_context

        return build_sacs_context(region)

    def shift_sacs(
        self,
        region: "LocalRegion",
        target: "Cell",
        insertion: "InsertionPoint",
        context: "SACSContext",
    ) -> "ShiftOutcome":
        """Single-pass SACS chain evaluation for one insertion point."""
        from repro.core.sacs import shift_cells_sacs

        return shift_cells_sacs(region, target, insertion, context)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
