"""Long-stream ECO soak: quality and fragmentation drift over hundreds of batches.

The churn sweep (:mod:`repro.experiments.eco_churn`) measures the
incremental engine's *speed* on short streams; this harness measures
what short streams cannot show — **quality drift**.  Each incremental
pass is locally optimal, yet over hundreds of batches AveDis can ratchet
upward and the free space can fragment into unusable slivers (the
paper's "repeated local legalization degrades global quality" failure
mode).  The soak drives one :class:`~repro.incremental.engine
.IncrementalLegalizer` — typically with a displacement budget and/or a
scheduled repack — through a long seeded delta stream and records the
full quality/fragmentation trajectory, then holds the final layout
against the gold standard: a from-scratch full legalization of the very
same post-stream design.

The headline numbers (also written to ``BENCH_eco_soak.json`` by the
soak benchmark and gated in CI via ``benchmarks/check_regression.py
--eco-soak``):

* ``drift_vs_full`` — relative AveDis excess of the soaked layout over
  the from-scratch repack of the final design (the acceptance bar is
  5 % at ≤ 5 % churn);
* ``repacks`` — how many times the governor intervened;
* ``speedup_estimate`` — total incremental wall time vs ``batches``
  from-scratch runs (the naive production alternative), which must stay
  well above 1 even though the governor occasionally pays a full run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.benchgen.eco import EcoSpec, generate_eco_stream
from repro.benchgen.generator import DesignSpec, generate_design
from repro.experiments.common import ExperimentResult
from repro.geometry.layout import Layout
from repro.incremental.engine import IncrementalLegalizer
from repro.mgl.legalizer import fast_mgl_legalizer as _make_legalizer


def soak_layout(
    layout: Layout,
    *,
    batches: int = 200,
    churn: float = 0.02,
    backend: str = "numpy",
    eco_seed: int = 0,
    macro_move_probability: float = 0.0,
    full_threshold: float = 0.5,
    max_avedis_drift: Optional[float] = 0.05,
    repack_every: Optional[int] = None,
    max_fragmentation_drift: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one long-stream soak on ``layout`` and return the raw payload.

    The layout is legalized (if needed) and adopted by an
    :class:`IncrementalLegalizer` configured with the given budgets, the
    seeded delta stream is replayed batch by batch, and every batch's
    quality/fragmentation/repack counters are recorded.  Afterwards a
    *copy* of the final layout is reset and fully re-legalized from
    scratch — the quality gold standard the soaked layout is compared
    against.  ``layout`` is mutated in place (it ends in the soaked
    state).

    Returns a JSON-serialisable payload::

        {"design": ..., "knobs": {...}, "trajectory": [{...} per batch],
         "final": {"avedis_incremental": ..., "avedis_full": ...,
                   "drift_vs_full": ..., "repacks": ...,
                   "speedup_estimate": ..., ...}}
    """
    engine = IncrementalLegalizer(
        _make_legalizer(backend),
        full_threshold=full_threshold,
        max_avedis_drift=max_avedis_drift,
        repack_every=repack_every,
        max_fragmentation_drift=max_fragmentation_drift,
        track_fragmentation=True,
    )
    engine.begin(layout)
    base_avedis = engine._baseline_avedis

    spec = EcoSpec(
        churn=churn,
        batches=batches,
        seed=eco_seed,
        macro_move_probability=macro_move_probability,
    )
    stream = generate_eco_stream(layout, spec)

    trajectory: List[Dict[str, Any]] = []
    inc_wall = 0.0
    failed_batches = 0
    for i, batch in enumerate(stream):
        result = engine.apply(batch)
        inc_wall += result.stats.wall_seconds
        if not result.success:
            failed_batches += 1
        s = result.stats
        trajectory.append(
            {
                "batch": i,
                "mode": s.mode,
                "repack_reason": s.repack_reason,
                "dirty_fraction": s.dirty_fraction,
                "avedis": s.avedis,
                "avedis_drift": s.avedis_drift,
                "fragmentation": s.fragmentation,
                "repacks_total": s.repacks_total,
                "wall_seconds": s.wall_seconds,
            }
        )

    # Gold standard: from-scratch full legalization of the final design.
    reference = layout.copy()
    reference.reset_positions()
    full_start = time.perf_counter()
    full_result = _make_legalizer(backend).legalize(reference)
    full_wall = time.perf_counter() - full_start

    inc_avedis = engine.history[-1].avedis if engine.history else base_avedis
    full_avedis = full_result.average_displacement
    drift_vs_full = inc_avedis / full_avedis - 1.0 if full_avedis > 0 else 0.0
    modes = [s.mode for s in engine.history]
    return {
        "design": layout.name,
        "num_cells": len(layout.cells),
        "num_movable": len(layout.movable_cells()),
        "knobs": {
            "batches": batches,
            "churn": churn,
            "backend": backend,
            "eco_seed": eco_seed,
            "macro_move_probability": macro_move_probability,
            "full_threshold": full_threshold,
            "max_avedis_drift": max_avedis_drift,
            "repack_every": repack_every,
            "max_fragmentation_drift": max_fragmentation_drift,
        },
        "trajectory": trajectory,
        "final": {
            "avedis_incremental": inc_avedis,
            "avedis_full": full_avedis,
            "drift_vs_full": drift_vs_full,
            "fragmentation": engine.history[-1].fragmentation if engine.history else 0.0,
            "repacks": engine.repacks_total,
            "full_mode_batches": modes.count("full"),
            "incremental_batches": modes.count("incremental"),
            "failed_batches": failed_batches,
            "mean_dirty_fraction": (
                sum(s.dirty_fraction for s in engine.history) / len(engine.history)
                if engine.history
                else 0.0
            ),
            "inc_wall_seconds": inc_wall,
            "full_wall_seconds": full_wall,
            "speedup_estimate": (
                batches * full_wall / inc_wall if inc_wall > 0 else float("inf")
            ),
        },
    }


def soak_result_table(payload: Dict[str, Any], *, sample_every: int = 10) -> ExperimentResult:
    """Render a soak payload as an :class:`ExperimentResult` table.

    The table samples the trajectory every ``sample_every`` batches
    (always including the last batch and every repack), so a 500-batch
    soak still prints as a readable page; the full trajectory stays in
    ``result.extras["payload"]``.
    """
    rows: List[List[object]] = []
    trajectory = payload["trajectory"]
    for entry in trajectory:
        is_sample = entry["batch"] % max(1, sample_every) == 0
        is_last = entry["batch"] == len(trajectory) - 1
        if not (is_sample or is_last or entry["repack_reason"]):
            continue
        rows.append(
            [
                entry["batch"],
                entry["mode"] + (f":{entry['repack_reason']}" if entry["repack_reason"] else ""),
                entry["dirty_fraction"] * 100.0,
                entry["avedis"],
                entry["avedis_drift"] * 100.0,
                entry["fragmentation"],
                entry["repacks_total"],
            ]
        )
    final = payload["final"]
    knobs = payload["knobs"]
    result = ExperimentResult(
        title=(
            f"ECO long-stream soak on {payload['design']} "
            f"({payload['num_movable']} movable cells, {knobs['batches']} batches, "
            f"churn {knobs['churn'] * 100:.1f}%, backend {knobs['backend']})"
        ),
        headers=["batch", "mode", "dirty_%", "AveDis", "drift_%", "frag", "repacks"],
        rows=rows,
        notes=[
            f"final AveDis {final['avedis_incremental']:.4f} vs from-scratch "
            f"{final['avedis_full']:.4f} (drift {final['drift_vs_full'] * 100:+.2f}%)",
            f"{final['repacks']} repacks, {final['incremental_batches']} incremental "
            f"+ {final['full_mode_batches']} full batches, "
            f"mean dirty {final['mean_dirty_fraction'] * 100:.2f}%",
            f"incremental wall {final['inc_wall_seconds']:.3f}s vs "
            f"~{knobs['batches']}x{final['full_wall_seconds']:.3f}s full re-runs "
            f"(est. speedup {final['speedup_estimate']:.1f}x)",
        ],
        extras={"payload": payload},
    )
    return result


def run_eco_soak(
    name: str = "eco_soak",
    *,
    num_cells: int = 400,
    density: float = 0.6,
    seed: int = 1,
    batches: int = 200,
    churn: float = 0.02,
    backend: str = "numpy",
    eco_seed: int = 0,
    macro_move_probability: float = 0.0,
    full_threshold: float = 0.5,
    max_avedis_drift: Optional[float] = 0.05,
    repack_every: Optional[int] = None,
    max_fragmentation_drift: Optional[float] = None,
    sample_every: int = 10,
) -> ExperimentResult:
    """Generate a dense synthetic design and soak it (see :func:`soak_layout`)."""
    spec = DesignSpec(
        name=name,
        num_cells=num_cells,
        density=density,
        seed=seed,
        height_mix={1: 0.7, 2: 0.18, 3: 0.08, 4: 0.04},
    )
    layout = generate_design(spec)
    payload = soak_layout(
        layout,
        batches=batches,
        churn=churn,
        backend=backend,
        eco_seed=eco_seed,
        macro_move_probability=macro_move_probability,
        full_threshold=full_threshold,
        max_avedis_drift=max_avedis_drift,
        repack_every=repack_every,
        max_fragmentation_drift=max_fragmentation_drift,
    )
    return soak_result_table(payload, sample_every=sample_every)
