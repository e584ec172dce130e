"""Section 5.4: scalability of FLEX vs. the multi-threaded CPU legalizer.

The paper argues that FLEX scales better than the CPU / CPU-GPU
approaches because it parallelises *within* a region (two FOP PEs
evaluate two insertion points of the same target and synchronise with a
few-cycle comparison) instead of across regions (which requires heavy
position synchronisation).  This experiment quantifies that claim on one
design: the modeled FLEX runtime as the FOP PE count grows from 1 to the
largest count that fits on the U50, next to the multi-threaded CPU
runtime as the thread count grows — the CPU curve saturates at ~1.8x
while the FLEX curve stays near-linear until it becomes host-bound.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.config import FlexConfig
from repro.core.flex_legalizer import FlexLegalizer
from repro.experiments.common import DEFAULT_SCALE, ExperimentResult, run_design
from repro.fpga.resources import ResourceEstimator
from repro.perf.thread_model import MultiThreadModel


def run_scalability(
    name: str = "des_perf_b_md2",
    *,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    pe_counts: Sequence[int] = (1, 2, 3, 4),
    thread_counts: Sequence[int] = (1, 2, 4, 8, 10),
) -> ExperimentResult:
    """Compare FLEX PE scaling against CPU thread scaling (Sec. 5.4)."""
    bundle = run_design(name, scale=scale, seed=seed, algorithms=("flex", "mgl"))
    assert bundle.flex is not None and bundle.mgl is not None
    legalization = bundle.flex.legalization
    estimator = ResourceEstimator()

    rows = []
    flex_base = None
    for pes in pe_counts:
        config = FlexConfig(fop_pe_parallelism=pes)
        run = FlexLegalizer(config).model_run(legalization)
        fits = estimator.estimate(config).fits()
        time_s = run.modeled_runtime_seconds
        if flex_base is None:
            flex_base = time_s
        rows.append([f"FLEX {pes} PE", time_s, flex_base / time_s, "yes" if fits else "no"])

    thread_model = MultiThreadModel()
    cpu_base = None
    for threads in thread_counts:
        time_s = thread_model.runtime_seconds(bundle.mgl.legalization.trace, threads)
        if cpu_base is None:
            cpu_base = time_s
        rows.append([f"CPU {threads} threads", time_s, cpu_base / time_s, "-"])

    return ExperimentResult(
        title=f"Sec. 5.4: scalability of FLEX PEs vs CPU threads on {name}",
        headers=["configuration", "time_s", "self_speedup", "fits U50"],
        rows=rows,
        notes=[
            "FLEX parallelises insertion points of the same region (cheap sync); "
            "the CPU legalizer parallelises regions and saturates at ~1.8x",
            "host-side multiprocess point chunking is measured (not modeled) "
            "by run_worker_scalability",
        ],
    )


def run_worker_scalability(
    name: str = "des_perf_b_md2",
    *,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = None,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    baseline_backend: str = "numpy",
    repeat: int = 1,
) -> ExperimentResult:
    """Measured wall-clock sweep of the ``multiprocess`` backend's workers.

    Unlike :func:`run_scalability` (which *models* the FPGA/CPU runtime
    from recorded counters), this experiment measures real end-to-end
    host wall time: the same design is legalized with the sequential
    baseline backend and then with the multiprocess backend at each
    worker count.  Every run is bit-for-bit identical — the sweep only
    changes how long it takes — which the rows assert by comparing the
    average displacement.

    ``repeat`` runs each configuration that many times and reports the
    fastest run.  The multiprocess backend keeps its worker pool alive
    between repeats, so with ``repeat >= 2`` the reported number is the
    steady-state warm-pool cost — what an ECO stream actually pays —
    rather than the one-off fork latency of the first run.
    """
    from repro.benchgen import iccad2017_design
    from repro.kernels import MultiprocessKernelBackend
    from repro.mgl.fop import FOPConfig
    from repro.mgl.legalizer import MGLLegalizer
    from repro.core.sacs import SortAheadShifter

    repeat = max(1, int(repeat))

    def run_once(backend):
        layout = iccad2017_design(name, scale=scale, seed=seed)
        legalizer = MGLLegalizer(
            FOPConfig(shifter=SortAheadShifter(), use_fwd_bwd_pipeline=True),
            backend=backend,
        )
        start = time.perf_counter()
        result = legalizer.legalize(layout)
        return result, time.perf_counter() - start

    def run_best(backend):
        result, best_s = run_once(backend)
        for _ in range(repeat - 1):
            result, seconds = run_once(backend)
            best_s = min(best_s, seconds)
        return result, best_s

    baseline, baseline_s = run_best(baseline_backend)
    rows = [
        [
            baseline_backend,
            1,
            baseline_s,
            1.0,
            "-",
            baseline.average_displacement,
            baseline.trace.retry0_feasibility_rate * 100.0,
            baseline.trace.retries_total,
        ]
    ]
    for workers in worker_counts:
        backend = MultiprocessKernelBackend(workers=workers)
        try:
            result, seconds = run_best(backend)
        finally:
            # Release the persistent worker pool before timing the next
            # row — idle forked workers would contaminate the sweep.
            backend.close()
        detail = f"parallel-regions={result.trace.parallel_regions}"
        rows.append(
            [
                "multiprocess",
                workers,
                seconds,
                baseline_s / seconds if seconds > 0 else float("nan"),
                detail,
                result.average_displacement,
                result.trace.retry0_feasibility_rate * 100.0,
                result.trace.retries_total,
            ]
        )
    return ExperimentResult(
        title=f"Host scalability: multiprocess workers vs {baseline_backend} on {name}",
        headers=[
            "backend",
            "workers",
            "wall_s",
            "speedup",
            "mode",
            "AveDis",
            "retry0_%",
            "retries",
        ],
        rows=rows,
        notes=[
            "all rows are bit-for-bit identical placements; only wall time varies",
            f"wall_s is the best of {repeat} run(s); repeats >= 2 reuse the "
            "persistent worker pool",
            "mode counts the regions whose insertion points were chunked "
            "across the worker pool",
            "retry0_% / retries report the occupancy-aware window planner's "
            "feasibility counters (identical across rows, like AveDis)",
        ],
    )
