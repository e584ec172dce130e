"""The Multi-row Global Legalization (MGL) algorithm substrate.

This package implements the legalization flow of paper Fig. 3(e):

a. **input & pre-move** (:mod:`repro.mgl.premove`) — snap every cell to
   the nearest designated row, tolerating overlaps;
b. **process ordering** — the baseline size-descending order lives in
   :class:`~repro.mgl.legalizer.MGLLegalizer`; FLEX's sliding-window
   ordering lives in :mod:`repro.core.ordering`;
c. **define localRegion** (:mod:`repro.mgl.local_region`) — extract
   localSegments, localCells and the region density inside the target's
   window;
d. **FOP** (:mod:`repro.mgl.fop`) — enumerate insertion points
   (:mod:`repro.mgl.insertion`), run cell shifting
   (:mod:`repro.mgl.shifting`) and the displacement-curve pipeline
   (:mod:`repro.mgl.curves`) to find the optimal position;
e. **insert & update** (:mod:`repro.mgl.update`) — commit the winning
   position and the induced shifts back into the layout.

:class:`~repro.mgl.legalizer.MGLLegalizer` ties the steps together and is
the faithful reimplementation of the multi-threaded CPU baseline
(TCAD'22) that FLEX builds on.
"""

from repro.mgl.curves import (
    BreakpointPiece,
    CurveEvaluation,
    evaluate_piecewise,
    minimize_curves,
    minimize_curves_fwd_bwd,
)
from repro.mgl.insertion import InsertionPoint, enumerate_insertion_points
from repro.mgl.shifting import ShiftOutcome, shift_cells_original
from repro.mgl.local_region import RegionBuilder, initial_window
from repro.mgl.window_planner import plan_initial_window, window_is_promising
from repro.mgl.premove import premove
from repro.mgl.fop import FOPConfig, FOPResult, find_optimal_position
from repro.mgl.update import commit_placement
from repro.mgl.legalizer import LegalizationResult, MGLLegalizer, fast_mgl_legalizer

__all__ = [
    "BreakpointPiece",
    "CurveEvaluation",
    "evaluate_piecewise",
    "minimize_curves",
    "minimize_curves_fwd_bwd",
    "InsertionPoint",
    "enumerate_insertion_points",
    "ShiftOutcome",
    "shift_cells_original",
    "RegionBuilder",
    "initial_window",
    "plan_initial_window",
    "window_is_promising",
    "premove",
    "FOPConfig",
    "FOPResult",
    "find_optimal_position",
    "commit_placement",
    "MGLLegalizer",
    "fast_mgl_legalizer",
    "LegalizationResult",
]
