"""ECO churn sweep: incremental re-legalization vs full re-runs.

The incremental engine's pitch is simple — after a small ECO delta, do
not re-legalize the whole design.  This experiment quantifies it: the
same seeded delta stream is applied to two copies of one design; the
*incremental* copy goes through :class:`~repro.incremental
.IncrementalLegalizer` (dirty-set re-legalization), the *full* copy is
reset and re-legalized from scratch after every batch — the naive
production alternative.  Both paths use the same legalizer parameters
and kernel backend, so the wall-time ratio is pure engine win, and the
AveDis columns show quality parity (the incremental path reuses the
committed placements of all clean cells, so it can only differ where the
dirty sets differ from a global re-optimisation).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.benchgen.eco import EcoSpec, generate_eco_stream
from repro.benchgen.iccad2017 import iccad2017_design
from repro.experiments.common import DEFAULT_SCALE, ExperimentResult
from repro.incremental.engine import IncrementalLegalizer, apply_deltas
from repro.mgl.legalizer import fast_mgl_legalizer as _make_legalizer


def run_eco_churn(
    name: str = "des_perf_1",
    *,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    churn_rates: Sequence[float] = (0.01, 0.02, 0.05, 0.10, 0.25),
    batches: int = 2,
    backend: str = "numpy",
    eco_seed: int = 0,
    macro_move_probability: float = 0.0,
    full_threshold: float = 0.5,
) -> ExperimentResult:
    """Sweep ECO churn rates, comparing incremental vs full re-runs.

    For every churn rate the *same* delta stream drives both paths:

    * **incremental** — one :meth:`IncrementalLegalizer.apply` per batch
      (dirty-set re-legalization, measured wall time);
    * **full** — the same deltas applied, then every movable cell reset
      and the full legalizer re-run (measured wall time).

    Rows report the summed per-batch wall times, the speedup, the mean
    dirty fraction, and the final AveDis of both paths.
    """
    rows = []
    for churn in churn_rates:
        base = iccad2017_design(name, scale=scale, seed=seed)
        spec = EcoSpec(
            churn=churn,
            batches=batches,
            seed=eco_seed,
            macro_move_probability=macro_move_probability,
        )
        stream = generate_eco_stream(base, spec)

        # Incremental path: persistent engine over the delta stream.
        inc_layout = base.copy()
        engine = IncrementalLegalizer(
            _make_legalizer(backend), full_threshold=full_threshold
        )
        engine.begin(inc_layout)
        inc_wall = 0.0
        inc_result = None
        for batch in stream:
            inc_result = engine.apply(batch)
            inc_wall += inc_result.stats.wall_seconds
        assert inc_result is not None
        dirty_mean = sum(s.dirty_fraction for s in engine.history) / len(engine.history)
        modes = {s.mode for s in engine.history}

        # Full path: reset + re-legalize everything after every batch.
        full_layout = base.copy()
        full_legalizer = _make_legalizer(backend)
        full_legalizer.legalize(full_layout)
        full_wall = 0.0
        full_result = None
        for batch in stream:
            apply_deltas(full_layout, batch)
            start = time.perf_counter()
            full_layout.reset_positions()
            full_result = full_legalizer.legalize(full_layout)
            full_wall += time.perf_counter() - start
        assert full_result is not None

        speedup = full_wall / inc_wall if inc_wall > 0 else float("inf")
        rows.append(
            [
                churn * 100.0,
                dirty_mean * 100.0,
                "+".join(sorted(modes)),
                inc_wall,
                full_wall,
                speedup,
                inc_result.average_displacement,
                full_result.average_displacement,
            ]
        )

    return ExperimentResult(
        title=(
            f"ECO churn sweep on {name} (scale {scale}, {batches} batches/rate, "
            f"backend {backend})"
        ),
        headers=[
            "churn_%",
            "dirty_%",
            "mode",
            "inc_wall_s",
            "full_wall_s",
            "speedup",
            "AveDis_inc",
            "AveDis_full",
        ],
        rows=rows,
        notes=[
            "both paths replay the identical seeded delta stream per churn rate",
            "incremental re-legalizes only the dirty set; full resets and "
            "re-legalizes every movable cell after each batch",
            "AveDis parity: incremental reuses clean placements, so quality "
            "tracks the full re-run closely at low churn",
        ],
    )
