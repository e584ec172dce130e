"""The kernel-backend interface.

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

The curve-set value returned by :meth:`build_curves` is *opaque*: each
backend chooses its own representation (the pure-Python backend keeps a
list of :class:`~repro.mgl.curves.BreakpointPiece`, the NumPy backend
keeps three flat coordinate/slope arrays) and only that backend's other
methods consume it.  Callers must therefore run build/minimize/evaluate
against a single backend instance, which is how FOP uses them.

Every backend must be *bit-for-bit equivalent* to the pure-Python
reference: same optima, same costs, same shift thresholds, same work
counters.  The equivalence is enforced by ``tests/test_kernels.py``;
adding a new backend means subclassing :class:`KernelBackend`,
registering it via :func:`repro.kernels.register_backend` and passing
those tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.sacs import SACSContext
    from repro.geometry.cell import Cell
    from repro.geometry.region import LocalRegion
    from repro.mgl.curves import CurveEvaluation
    from repro.mgl.insertion import InsertionPoint
    from repro.mgl.shifting import ShiftOutcome


class KernelBackend(ABC):
    """Abstract base class of the pluggable kernel implementations."""

    #: Registry / configuration name of the backend (``"python"``, ...).
    name: str = "abstract"

    #: True for backends that parallelise the FOP candidate loop *within*
    #: one localRegion across OS processes (the paper's FOP-PE axis; see
    #: :mod:`repro.kernels.mp_backend`).  Such backends additionally
    #: implement ``should_parallelize_fop(region, points, config)`` and
    #: ``evaluate_points_parallel(region, target, points, config)``;
    #: :func:`repro.mgl.fop.find_optimal_position` calls them per region
    #: that :meth:`score_points` does not score.  Each region farmed out
    #: is counted in :attr:`parallel_regions`.
    supports_point_parallel: bool = False

    #: Processes that execute FOP work: 1 for sequential backends, the
    #: pool size for process-parallel ones.
    workers: int = 1

    #: Regions whose FOP candidate loop this backend has chunked across
    #: worker processes over its lifetime.
    parallel_regions: int = 0

    # ------------------------------------------------------------------
    # Displacement-curve kernels
    # ------------------------------------------------------------------
    @abstractmethod
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

    @abstractmethod
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

    @abstractmethod
    def evaluate(self, curves: Any, xs: Sequence[float]) -> List[float]:
        """Exact summed-curve values at each query position in ``xs``."""

    # ------------------------------------------------------------------
    # Batched cross-insertion-point kernels
    # ------------------------------------------------------------------
    # FOP scores every insertion point of a localRegion; the batch entry
    # points let a backend evaluate the whole candidate population as one
    # pipeline instead of point by point.  The defaults below delegate to
    # the scalar methods, so results are bit-for-bit identical for every
    # backend by construction; vectorized backends override them.

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

    def score_points(
        self,
        region: "LocalRegion",
        target: "Cell",
        points: Sequence["InsertionPoint"],
        config: Any,
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Score a region's whole insertion-point list in one fused step.

        Returns the entries :func:`repro.mgl.fop.evaluate_point_list`
        would (with ``None`` outcomes), or ``None`` when this backend has
        no fused path for ``config``; FOP then runs the staged kernels
        above.  The default has none.
        """
        return None

    # ------------------------------------------------------------------
    # SACS kernels
    # ------------------------------------------------------------------
    @abstractmethod
    def build_sacs_context(self, region: "LocalRegion") -> "SACSContext":
        """Pre-sort a localRegion for sort-ahead cell shifting.

        The returned context must be (a subclass of)
        :class:`repro.core.sacs.SACSContext` so that the reference
        algorithm can always run on it.
        """

    @abstractmethod
    def shift_sacs(
        self,
        region: "LocalRegion",
        target: "Cell",
        insertion: "InsertionPoint",
        context: "SACSContext",
    ) -> "ShiftOutcome":
        """Single-pass SACS chain evaluation for one insertion point."""

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
