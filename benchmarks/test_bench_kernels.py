"""Micro-benchmarks of the core kernels (ablation-style).

These complement the table/figure regenerations with pytest-benchmark
timings of the two cell-shifting engines and the two curve-pipeline
organisations on identical inputs, plus the sliding-window ordering
against the plain size ordering — the design choices DESIGN.md calls out.

The ``test_bench_backend_*`` cases additionally compare the registered
kernel backends (:mod:`repro.kernels`) on identical inputs: the SACS
chains, full FOP, and an end-to-end legalization of an ICCAD-2017-like
design.  Every backend runs the reference curve pipeline, which
``test_bench_curve_pipeline_*`` times once per organisation.  Backends
are bit-for-bit equivalent (the cases assert it), so the timing delta is
the whole story; run e.g.::

    REPRO_BENCH_SCALE=0.008 pytest benchmarks -k backend --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.benchgen import DesignSpec, generate_design, iccad2017_design
from repro.core import FlexConfig, FlexLegalizer
from repro.core.ordering import SlidingWindowOrdering
from repro.core.sacs import SortAheadShifter, build_sacs_context, shift_cells_sacs
from repro.geometry import Cell, Window
from repro.kernels import available_backends, get_kernel_backend
from repro.mgl.curves import minimize_curves, minimize_curves_fwd_bwd
from repro.mgl.fop import FOPConfig, build_curves, find_optimal_position
from repro.mgl.insertion import enumerate_all_insertion_points
from repro.mgl.legalizer import size_descending_order
from repro.mgl.local_region import RegionBuilder
from repro.mgl.premove import premove
from repro.mgl.shifting import build_row_view, shift_cells_original
from repro.testing.bench import BENCH_SCALE, BENCH_SEED, run_once


def _obstacle_region(num_cells=260, density=0.65, seed=13, target_height=2):
    """A realistic localRegion over a legalized neighbourhood."""
    spec = DesignSpec(
        name="bench", num_cells=num_cells, density=density, seed=seed,
        perturbation_x=0.0, perturbation_y=0.0,
    )
    layout = generate_design(spec)
    premove(layout)
    accepted = []
    for cell in layout.movable_cells():
        if not any(cell.overlaps(o) for o in accepted):
            cell.legalized = True
            accepted.append(cell)
    layout.rebuild_index()
    target = Cell(
        index=len(layout.cells), width=4.0, height=target_height,
        gp_x=layout.width / 2, gp_y=layout.height / 2,
    )
    layout.add_cell(target)
    window = Window(
        layout.width * 0.25, layout.width * 0.75, 0, layout.num_rows
    )
    region = RegionBuilder(layout, target).build(window)
    points = list(enumerate_all_insertion_points(region, target))
    return layout, target, region, points


@pytest.fixture(scope="module")
def shifting_case():
    return _obstacle_region()


def test_bench_original_cell_shifting(benchmark, shifting_case):
    """Multi-pass cell shifting over every insertion point of a region."""
    _, target, region, points = shifting_case
    view = build_row_view(region)

    def run():
        return [shift_cells_original(region, target, p, view) for p in points]

    outcomes = benchmark(run)
    assert any(o.feasible for o in outcomes)


def test_bench_sacs_cell_shifting(benchmark, shifting_case):
    """Single-pass SACS over the same insertion points (should be faster)."""
    _, target, region, points = shifting_case
    context = build_sacs_context(region)

    def run():
        return [shift_cells_sacs(region, target, p, context) for p in points]

    outcomes = benchmark(run)
    assert any(o.feasible for o in outcomes)


def test_bench_curve_pipeline_original(benchmark, shifting_case):
    """Original five-stage breakpoint pipeline over a region's curves."""
    _, target, region, points = shifting_case
    context = build_sacs_context(region)
    cases = []
    for p in points[:64]:
        outcome = shift_cells_sacs(region, target, p, context)
        if outcome.feasible:
            pieces, const = build_curves(region, target, p.bottom_row, outcome)
            cases.append((pieces, const, outcome.xt_lo, outcome.xt_hi))

    def run():
        return [minimize_curves(p, c, lo, hi) for p, c, lo, hi in cases]

    results = benchmark(run)
    assert results


def test_bench_curve_pipeline_fwd_bwd(benchmark, shifting_case):
    """Reorganised fwdtraverse/bwdtraverse pipeline on the same curves."""
    _, target, region, points = shifting_case
    context = build_sacs_context(region)
    cases = []
    for p in points[:64]:
        outcome = shift_cells_sacs(region, target, p, context)
        if outcome.feasible:
            pieces, const = build_curves(region, target, p.bottom_row, outcome)
            cases.append((pieces, const, outcome.xt_lo, outcome.xt_hi))

    def run():
        return [minimize_curves_fwd_bwd(p, c, lo, hi) for p, c, lo, hi in cases]

    results = benchmark(run)
    assert results


def test_bench_fop_single_target(benchmark, shifting_case):
    """Full FOP (loop1-3) for one target cell."""
    _, target, region, _ = shifting_case

    def run():
        return find_optimal_position(region, target, FOPConfig(shifter=SortAheadShifter()))

    result = benchmark(run)
    assert result.feasible


# ----------------------------------------------------------------------
# Kernel-backend comparisons (python reference vs the numpy backend's
# fused native kernel vs multiprocess point chunking)
# ----------------------------------------------------------------------
#: Always the resolver's backend list — never hard-code backend names
#: here, or new backends silently stop being benched and equivalence-checked.
BACKENDS = available_backends()


def test_bench_parametrization_tracks_available_backends():
    """Guard: the bench matrix must follow the resolver's backend list."""
    assert BACKENDS == available_backends()
    assert "python" in BACKENDS
    assert "multiprocess" in BACKENDS


def _dense_region(num_cells=700, density=0.8, seed=11, target_height=2):
    """A large, dense localRegion — the regime the fast kernels target."""
    return _obstacle_region(
        num_cells=num_cells, density=density, seed=seed, target_height=target_height
    )


@pytest.fixture(scope="module")
def dense_shifting_case():
    return _dense_region()


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_backend_sacs_chains(benchmark, dense_shifting_case, backend_name):
    """SACS chain evaluation over every insertion point, per backend."""
    _, target, region, points = dense_shifting_case
    backend = get_kernel_backend(backend_name)
    context = backend.build_sacs_context(region)

    def run():
        return [backend.shift_sacs(region, target, p, context) for p in points]

    outcomes = benchmark(run)
    assert any(o.feasible for o in outcomes)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_backend_fop(benchmark, dense_shifting_case, backend_name):
    """Full FOP (loop1-3) for one target on a dense region, per backend."""
    _, target, region, _ = dense_shifting_case
    config = FOPConfig(shifter=SortAheadShifter(backend=backend_name), backend=backend_name)

    def run():
        return find_optimal_position(region, target, config)

    result = benchmark(run)
    reference = find_optimal_position(region, target, FOPConfig(shifter=SortAheadShifter()))
    assert (result.feasible, result.bottom_row, result.x, result.cost) == (
        reference.feasible, reference.bottom_row, reference.x, reference.cost
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bench_backend_iccad_legalization(benchmark, backend_name):
    """End-to-end FLEX legalization of an ICCAD-2017-like design per backend.

    Uses 4x the harness scale so the regions are large enough for the
    fast kernels to matter while staying tractable for the python
    reference.
    """
    layout = iccad2017_design(
        "des_perf_1", scale=min(4 * BENCH_SCALE, 0.01), seed=BENCH_SEED
    )
    flex = FlexLegalizer(FlexConfig(kernel_backend=backend_name))

    result = run_once(benchmark, flex.legalize, layout)
    assert result.legalization.success
    assert result.trace.kernel_backend == backend_name


def test_bench_mp_worker_sweep(benchmark):
    """Measured multiprocess worker sweep on a dense ICCAD-like design.

    Runs the sequential ``numpy`` baseline and the ``multiprocess``
    backend at several pool sizes on the same dense design, asserts the
    results are bit-for-bit identical, and records the wall times and
    speedups both into the pytest-benchmark ``extra_info`` (so they land
    in ``--benchmark-json`` output) and into ``BENCH_mp_workers.json``
    in the working directory (uploaded as a CI artifact, and gated by
    ``check_regression.py --mp-sweep``).  Each configuration reports the
    best of two runs, so the multiprocess rows measure the warm
    persistent-pool path rather than first-fork latency.  The >=1.2x
    speedup assertion is gated on the host having at least 4 cores AND
    the design being large enough (>= scale 0.008) for heavy regions to
    exist — intra-region chunking cannot beat the sequential baseline on
    fewer cores or on tiny smoke-scale designs where no region clears
    the parallelization threshold.
    """
    import json
    import os

    from repro.experiments.scalability import run_worker_scalability

    scale = min(4 * BENCH_SCALE, 0.01)
    result = run_once(
        benchmark,
        run_worker_scalability,
        "des_perf_1",
        scale=scale,
        seed=BENCH_SEED,
        worker_counts=(2, 4),
        repeat=2,
    )
    print()
    print(result.format())
    baseline_row = result.rows[0]
    mp_rows = result.rows[1:]
    # Bit-for-bit: every row reports the same quality.
    assert all(row[5] == baseline_row[5] for row in mp_rows)
    payload = {
        "design": "des_perf_1",
        "cpu_count": os.cpu_count(),
        "rows": [
            dict(
                zip(
                    [
                        "backend", "workers", "wall_s", "speedup", "mode",
                        "avedis", "retry0_pct", "retries",
                    ],
                    row,
                )
            )
            for row in result.rows
        ],
    }
    benchmark.extra_info["mp_worker_sweep"] = payload
    with open("BENCH_mp_workers.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    if (os.cpu_count() or 1) >= 4 and scale >= 0.008:
        best = max(row[3] for row in mp_rows if row[1] >= 4)
        assert best >= 1.2, (
            f"expected >=1.2x at 4+ workers on a {os.cpu_count()}-core host "
            f"(warm persistent pool, best of 2 runs); got {best:.2f}x"
        )


def test_bench_orderings(benchmark):
    """Sliding-window ordering vs plain size ordering on one design."""
    layout = generate_design(DesignSpec(name="ord", num_cells=800, density=0.6, seed=3))
    cells = layout.movable_cells()
    ordering = SlidingWindowOrdering(window_size=8)

    def run():
        return ordering(layout, cells), size_descending_order(layout, cells)

    window_order, size_order = benchmark(run)
    assert len(window_order) == len(size_order) == len(cells)
