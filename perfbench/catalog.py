"""Every metric the benchmark reports, with the prediction it serves.

``END_TO_END`` rows are ``(name, unit, better, bound, meaning)``;
``PER_LAYER`` rows are ``(name, unit, better, moves, workloads)``: the
end-to-end metric the layer metric should move and the workloads it
should move it on.  Per-layer values are per operation (one full
``legalize`` call, or one served batch); a layer a workload never reaches
reports 0.  ``BENCHMARK.json`` lists the same names, units and
directions; ``smoke_check.py`` keeps the two in step.
"""

from __future__ import annotations

FULL = ("dense_full", "sparse_tall_full", "dense_full_mp2")
ALL = FULL + ("eco_served",)

END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "set-up time, median of 3: design and stream generation, backend or daemon "
     "start, and open_session with its base legalization"),
    ("op_p50_s", "s", "lower", 0.25,
     "median wall time of one operation: a full legalize call, or a client-observed "
     "apply_deltas batch"),
    # Quality is deterministic in the seed, so its spread between seeds is
    # design-to-design variation (~4-12 % over a run's designs); a change
    # that keeps placements bit for bit leaves both figures untouched.
    ("avedis", "row_heights", "lower", 0.25,
     "AveDis (S_am, Eq. 2), mean over the run's designs, or over the sessions "
     "after a fixed number of batches"),
    ("max_disp", "row_heights", "lower", 0.25,
     "maximum displacement, mean over the run's designs or sessions (as avedis)"),
    ("peak_rss_mb", "MiB", "lower", 0.2,
     "peak RSS of the benchmark process plus its largest child process"),
]

PER_LAYER = [
    ("mgl.premove.busy_s", "s", "lower", "op_p50_s", FULL),
    ("core.ordering.busy_s", "s", "lower", "op_p50_s", FULL),
    ("legality.metrics.busy_s", "s", "lower", "op_p50_s", ALL),
    ("mgl.update.busy_s", "s", "lower", "op_p50_s", ALL),
    ("mgl.update.moved_cells", "count", "lower", "op_p50_s", ALL),
    ("mgl.window_planner.busy_s", "s", "lower", "op_p50_s", ALL),
    ("mgl.window_planner.calls", "count", "lower", "op_p50_s", ALL),
    ("mgl.local_region.busy_s", "s", "lower", "op_p50_s", ("sparse_tall_full", "dense_full")),
    ("mgl.local_region.calls", "count", "lower", "op_p50_s", ("sparse_tall_full", "dense_full")),
    ("mgl.fop.busy_s", "s", "lower", "op_p50_s", ALL),
    ("mgl.fop.self_s", "s", "lower", "op_p50_s", ALL),
    ("mgl.fop.calls", "count", "lower", "op_p50_s", ALL),
    ("mgl.fop.points", "count", "lower", "op_p50_s", ALL),
    ("mgl.fop.feasible_ratio", "fraction", "higher", "op_p50_s", ALL),
    ("mgl.fop.retry0_rate", "fraction", "higher", "op_p50_s", FULL),
    ("mgl.fop.retries", "count", "lower", "op_p50_s", ("sparse_tall_full",)),
    ("mgl.fop.fallbacks", "count", "lower", "op_p50_s", FULL),
    ("kernels.sacs.busy_s", "s", "lower", "op_p50_s", ("dense_full", "sparse_tall_full")),
    ("kernels.sacs.calls", "count", "lower", "op_p50_s", ("dense_full", "sparse_tall_full")),
    ("kernels.sacs.cell_visits", "count", "lower", "op_p50_s", ("dense_full", "sparse_tall_full")),
    ("mgl.shifting.busy_s", "s", "lower", "op_p50_s", ("eco_served",)),
    ("kernels.curves.build_s", "s", "lower", "op_p50_s", ALL),
    ("kernels.curves.minimize_s", "s", "lower", "op_p50_s", ALL),
    ("kernels.curves.evaluate_s", "s", "lower", "op_p50_s", ALL),
    ("kernels.curves.breakpoints", "count", "lower", "op_p50_s", ALL),
    ("kernels.mp_backend.busy_s", "s", "lower", "op_p50_s", ("dense_full_mp2",)),
    ("kernels.mp_backend.parallel_regions", "count", "higher", "op_p50_s", ("dense_full_mp2",)),
    ("kernels.mp_backend.parallel_share", "fraction", "higher", "op_p50_s", ("dense_full_mp2",)),
    ("incremental.engine_p50_s", "s", "lower", "op_p50_s", ("eco_served",)),
    ("incremental.dirty_mean", "count", "lower", "op_p50_s", ("eco_served",)),
    ("incremental.reuse_ratio", "fraction", "higher", "op_p50_s", ("eco_served",)),
    ("incremental.final_drift", "fraction", "lower", "avedis", ("eco_served",)),
    ("service.batch_p95_s", "s", "lower", "op_p50_s", ("eco_served",)),
    ("service.batches_per_s", "1/s", "higher", "op_p50_s", ("eco_served",)),
    ("service.op_p95_s", "s", "lower", "service.batch_p95_s", ("eco_served",)),
    ("service.queue_wait_p95_s", "s", "lower", "service.batch_p95_s", ("eco_served",)),
    ("service.overhead_p50_s", "s", "lower", "op_p50_s", ("eco_served",)),
    ("service.coalesced_ratio", "fraction", "higher", "service.batches_per_s", ("eco_served",)),
    ("perf.model_s", "s", "lower", "op_p50_s", FULL),
    ("fpga.modeled_ms", "ms", "lower", "none (deterministic model output)", FULL),
    ("fpga.busy_ms", "ms", "lower", "none (deterministic model output)", FULL),
    ("fpga.visible_transfer_ms", "ms", "lower", "none (deterministic model output)", FULL),
]
# CpuCostModel.breakdown stage seconds beside the traced busy seconds of
# the same stage (modeled / measured): checks the model constants.
for _stage in ("premove", "ordering", "region", "fop", "update"):
    PER_LAYER.append((f"perf.model.{_stage}_s", "s", "lower",
                      "none (deterministic model output)", ALL))
    PER_LAYER.append((f"perf.model.{_stage}_ratio", "ratio", "higher",
                      "none (modeled over measured)", ALL))
PER_LAYER += [
    ("obs.trace_overhead_frac", "fraction", "lower", "none (traced over untraced op time, minus 1)", FULL),
    ("obs.traced_wall_s", "s", "lower", "op_p50_s", ALL),
    ("obs.traced_coverage", "fraction", "higher", "none (share of traced op time inside named layers)", ALL),
]
