"""Backend-equivalence tests for the kernel layer (repro.kernels).

Every backend must reproduce the pure-Python oracle **bit for
bit**: identical displacement curves, identical minimization results,
identical SACS shift outcomes (values *and* threshold-dict insertion
order, which downstream stable sorts depend on), identical FOP
positions/costs, and identical end-to-end legalization results and work
counters.  The suite is parametrized over :func:`available_backends`, so
every backend the resolver builds is covered.
"""

from __future__ import annotations

import math
import random
import re

import pytest

from repro.benchgen import DesignSpec, generate_design
from repro.core import FlexConfig, FlexLegalizer
from repro.core.sacs import SortAheadShifter
from repro.geometry import Cell, Window
from repro.kernels import (
    DEFAULT_BACKEND,
    KernelBackend,
    MultiprocessKernelBackend,
    NumpyKernelBackend,
    available_backends,
    get_kernel_backend,
    resolve_backend,
)
from repro.mgl import MGLLegalizer, curves
from repro.mgl.fop import FOPConfig, find_optimal_position
from repro.mgl.insertion import enumerate_all_insertion_points
from repro.mgl.local_region import RegionBuilder
from repro.mgl.premove import premove
from repro.testing import small_design

#: Backends compared against the oracle (the oracle compares to itself
#: trivially, which also locks the parametrization shape).
BACKENDS = available_backends()
NON_REFERENCE = [name for name in BACKENDS if name != "python"]

needs_numpy = pytest.mark.skipif(
    "numpy" not in BACKENDS, reason="numpy backend not available"
)


class FiveStageReference(KernelBackend):
    """The reference backend minimizing in the paper's five-stage
    organisation instead of fwdtraverse/bwdtraverse."""

    def minimize(self, curve_set, lo, hi, *, preferred_x=None):
        pieces, constant = curve_set
        return curves.minimize_curves(pieces, constant, lo, hi, preferred_x=preferred_x)


# ----------------------------------------------------------------------
# Workload construction helpers
# ----------------------------------------------------------------------
def prepared_region(
    num_cells=160,
    density=0.7,
    seed=13,
    target_height=2,
    height_mix=None,
    target_width=4.0,
):
    """A localRegion over a legalized neighbourhood plus a pending target."""
    spec = DesignSpec(
        name=f"kern{seed}",
        num_cells=num_cells,
        density=density,
        seed=seed,
        perturbation_x=0.0,
        perturbation_y=0.0,
        **({"height_mix": height_mix} if height_mix else {}),
    )
    layout = generate_design(spec)
    premove(layout)
    accepted = []
    for cell in layout.movable_cells():
        if not any(cell.overlaps(other) for other in accepted):
            cell.legalized = True
            accepted.append(cell)
    layout.rebuild_index()
    target = Cell(
        index=len(layout.cells),
        width=target_width,
        height=target_height,
        gp_x=layout.width / 2,
        gp_y=layout.height / 2,
    )
    layout.add_cell(target)
    window = Window(layout.width * 0.2, layout.width * 0.8, 0, layout.num_rows)
    region = RegionBuilder(layout, target).build(window)
    return region, target


REGION_CASES = {
    "mixed": dict(),
    "single_height": dict(target_height=1, height_mix={1: 1.0}),
    "tall": dict(
        target_height=3,
        height_mix={1: 0.5, 2: 0.2, 3: 0.15, 4: 0.1, 5: 0.05},
    ),
    "dense": dict(num_cells=320, density=0.82, seed=7),
}


def outcome_key(outcome):
    """Full observable state of a ShiftOutcome, including dict order."""
    return (
        list(outcome.left_thresholds.items()),
        list(outcome.right_thresholds.items()),
        outcome.xt_lo,
        outcome.xt_hi,
        outcome.feasible,
        outcome.passes,
        outcome.cell_visits,
        outcome.multirow_accesses,
        outcome.tall_accesses,
        outcome.sorted_cells,
    )


# ----------------------------------------------------------------------
# Registry / dispatch
# ----------------------------------------------------------------------
class TestRegistry:
    def test_python_backend_always_registered(self):
        assert "python" in BACKENDS
        assert DEFAULT_BACKEND == "python"

    def test_resolve_accepts_name_instance_and_none(self):
        backend = get_kernel_backend("python")
        assert resolve_backend("python") is backend
        assert resolve_backend(backend) is backend
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown kernel backend"):
            get_kernel_backend("no-such-backend")

    def test_resolver_contract(self):
        assert available_backends() == ["multiprocess", "numpy", "python"]
        # One shared instance per spelling, along one inheritance chain.
        for spelling in ("python", "numpy", "multiprocess", "multiprocess:2"):
            assert get_kernel_backend(spelling) is get_kernel_backend(spelling)
        assert type(get_kernel_backend("python")) is KernelBackend
        assert type(get_kernel_backend("numpy")) is NumpyKernelBackend
        pool_of_two = get_kernel_backend("multiprocess:2")
        assert isinstance(pool_of_two, MultiprocessKernelBackend)
        assert isinstance(pool_of_two, NumpyKernelBackend)
        assert pool_of_two.workers == 2
        assert get_kernel_backend("multiprocess") is not pool_of_two
        # Only multiprocess takes a worker count (bad counts: test_mp_backend).
        for unknown in ("numpy:2", "python:1", "bogus", ""):
            with pytest.raises(KeyError, match="available"):
                get_kernel_backend(unknown)

    def test_flex_config_validates_backend(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            FlexConfig(kernel_backend="no-such-backend").validate()

    @pytest.mark.parametrize("spec", [5, b"numpy", ("numpy",)])
    def test_non_string_spec_is_a_value_error(self, spec):
        with pytest.raises(ValueError, match=re.escape(f"got {spec!r}")):
            get_kernel_backend(spec)
        with pytest.raises(ValueError, match="kernel_backend"):
            FlexConfig(kernel_backend=spec).validate()

    @needs_numpy
    def test_flex_config_label_mentions_non_default_backend(self):
        assert "numpy" in FlexConfig(kernel_backend="numpy").label()
        assert "python" not in FlexConfig().label()


# ----------------------------------------------------------------------
# Curve construction + minimization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", NON_REFERENCE)
@pytest.mark.parametrize("case", sorted(REGION_CASES))
@pytest.mark.parametrize("fwd_bwd", [False, True])
def test_curves_match_reference_on_regions(backend_name, case, fwd_bwd):
    """build + minimize + evaluate agree on every feasible insertion point
    (the reference minimizing in the five-stage organisation unless
    ``fwd_bwd``)."""
    region, target = prepared_region(**REGION_CASES[case])
    reference = get_kernel_backend("python") if fwd_bwd else FiveStageReference()
    backend = get_kernel_backend(backend_name)
    ref_ctx = reference.build_sacs_context(region)
    checked = 0
    for point in enumerate_all_insertion_points(region, target):
        outcome = reference.shift_sacs(region, target, point, ref_ctx)
        if not outcome.feasible:
            continue
        ref_curves = reference.build_curves(region, target, point.bottom_row, outcome)
        curve_set = backend.build_curves(region, target, point.bottom_row, outcome)
        ref_eval = reference.minimize(
            ref_curves, outcome.xt_lo, outcome.xt_hi, preferred_x=target.gp_x
        )
        evaluation = backend.minimize(
            curve_set, outcome.xt_lo, outcome.xt_hi, preferred_x=target.gp_x
        )
        assert evaluation == ref_eval
        sites = [math.floor(ref_eval.best_x), math.ceil(ref_eval.best_x)]
        assert backend.evaluate(curve_set, sites) == reference.evaluate(ref_curves, sites)
        checked += 1
    assert checked > 10


@needs_numpy
def test_numpy_shift_accepts_reference_context():
    """A caller-owned reference context must be augmented in place, so the
    once-per-region sort report (and every other counter) stays exact."""
    region, target = prepared_region(**REGION_CASES["mixed"])
    reference = get_kernel_backend("python")
    backend = get_kernel_backend("numpy")
    ref_ctx = reference.build_sacs_context(region)
    plain_ctx = reference.build_sacs_context(region)
    points = list(enumerate_all_insertion_points(region, target))[:6]
    for point in points:
        ref = reference.shift_sacs(region, target, point, ref_ctx)
        got = backend.shift_sacs(region, target, point, plain_ctx)
        assert outcome_key(got) == outcome_key(ref)


# ----------------------------------------------------------------------
# SACS shifting chains
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", NON_REFERENCE)
@pytest.mark.parametrize("case", sorted(REGION_CASES))
def test_sacs_outcomes_match_reference(backend_name, case):
    """Thresholds, bounds, counters and dict order match on every point."""
    region, target = prepared_region(**REGION_CASES[case])
    reference = get_kernel_backend("python")
    backend = get_kernel_backend(backend_name)
    ref_ctx = reference.build_sacs_context(region)
    ctx = backend.build_sacs_context(region)
    points = list(enumerate_all_insertion_points(region, target))
    assert points
    for point in points:
        ref = reference.shift_sacs(region, target, point, ref_ctx)
        got = backend.shift_sacs(region, target, point, ctx)
        assert outcome_key(got) == outcome_key(ref)


@pytest.mark.parametrize("backend_name", NON_REFERENCE)
@pytest.mark.parametrize("seed", range(6))
def test_sacs_matches_on_randomized_layouts(backend_name, seed):
    """Property-style sweep over randomized designs and target shapes."""
    rng = random.Random(1000 + seed)
    mix = rng.choice(
        [None, {1: 1.0}, {1: 0.55, 2: 0.25, 3: 0.1, 4: 0.07, 5: 0.03}]
    )
    region, target = prepared_region(
        num_cells=rng.randrange(60, 220),
        density=rng.uniform(0.4, 0.85),
        seed=seed,
        target_height=rng.choice([1, 1, 2, 3]),
        height_mix=mix,
        target_width=rng.choice([2.0, 4.0, 7.0]),
    )
    reference = get_kernel_backend("python")
    backend = get_kernel_backend(backend_name)
    ref_ctx = reference.build_sacs_context(region)
    ctx = backend.build_sacs_context(region)
    for point in enumerate_all_insertion_points(region, target):
        ref = reference.shift_sacs(region, target, point, ref_ctx)
        got = backend.shift_sacs(region, target, point, ctx)
        assert outcome_key(got) == outcome_key(ref)


# ----------------------------------------------------------------------
# FOP and end-to-end legalization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", NON_REFERENCE)
@pytest.mark.parametrize("case", sorted(REGION_CASES))
def test_fop_positions_match_reference(backend_name, case):
    region, target = prepared_region(**REGION_CASES[case])
    results = {}
    for name in ("python", backend_name):
        config = FOPConfig(shifter=SortAheadShifter(backend=name), backend=name)
        results[name] = find_optimal_position(region, target, config)
    ref, got = results["python"], results[backend_name]
    assert (got.feasible, got.bottom_row, got.x, got.cost) == (
        ref.feasible, ref.bottom_row, ref.x, ref.cost
    )
    assert (got.n_points_evaluated, got.n_points_feasible) == (
        ref.n_points_evaluated, ref.n_points_feasible
    )


#: Fresh-layout factories mirroring the tiny_design / dense_design fixtures
#: (each backend needs its own unlegalized copy).
DESIGN_FACTORIES = {
    "tiny_design": lambda: small_design(),
    "dense_design": lambda: small_design(num_cells=120, density=0.82, seed=9),
}


@pytest.mark.parametrize("backend_name", NON_REFERENCE)
@pytest.mark.parametrize("design_name", sorted(DESIGN_FACTORIES))
def test_mgl_legalization_identical_across_backends(backend_name, design_name):
    def run(backend):
        layout = DESIGN_FACTORIES[design_name]()
        legalizer = MGLLegalizer(
            FOPConfig(shifter=SortAheadShifter()), backend=backend
        )
        result = legalizer.legalize(layout)
        return layout, result

    ref_layout, ref_result = run("python")
    layout, result = run(backend_name)
    assert [(c.x, c.y) for c in layout.cells] == [
        (c.x, c.y) for c in ref_layout.cells
    ]
    assert result.average_displacement == ref_result.average_displacement
    assert result.failed_cells == ref_result.failed_cells
    trace, ref_trace = result.trace, ref_result.trace
    assert trace.kernel_backend == backend_name
    assert ref_trace.kernel_backend == "python"
    assert trace.total_insertion_points == ref_trace.total_insertion_points
    assert trace.total_shift_visits == ref_trace.total_shift_visits
    assert trace.total_breakpoints == ref_trace.total_breakpoints
    assert trace.total_sort_items == ref_trace.total_sort_items


@needs_numpy
def test_backend_override_does_not_mutate_shared_config():
    """MGLLegalizer(backend=...) must copy, not write through, the config."""
    shared = FOPConfig(shifter=SortAheadShifter())
    fast = MGLLegalizer(shared, backend="numpy")
    reference = MGLLegalizer(shared)
    assert shared.backend is None
    assert resolve_backend(reference.fop_config.backend).name == "python"
    assert resolve_backend(fast.fop_config.backend).name == "numpy"
    assert fast.fop_config.shifter is not shared.shifter
    assert reference.fop_config.shifter is shared.shifter


@pytest.mark.parametrize("backend_name", NON_REFERENCE)
def test_flex_legalization_identical_across_backends(backend_name):
    def run(backend):
        layout = DESIGN_FACTORIES["dense_design"]()
        result = FlexLegalizer(FlexConfig(kernel_backend=backend)).legalize(layout)
        return layout, result

    ref_layout, ref_result = run("python")
    layout, result = run(backend_name)
    assert [(c.x, c.y) for c in layout.cells] == [
        (c.x, c.y) for c in ref_layout.cells
    ]
    assert result.average_displacement == ref_result.average_displacement
    # The modeled hardware runtime derives from the (identical) counters.
    assert result.fpga.total_cycles == ref_result.fpga.total_cycles
    assert result.trace.kernel_backend == backend_name


# ----------------------------------------------------------------------
# Batched cross-insertion-point kernels
# ----------------------------------------------------------------------
class TestBatchKernels:
    """minimize_batch / evaluate_batch equal the per-point paths bit for bit."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_default_batch_api_equals_scalar_loop(self, backend_name):
        """Every backend's batch API must agree with its scalar methods."""
        region, target = prepared_region(**REGION_CASES["mixed"])
        reference = get_kernel_backend("python")
        backend = get_kernel_backend(backend_name)
        ctx = reference.build_sacs_context(region)
        sets, bounds = [], []
        for point in enumerate_all_insertion_points(region, target):
            outcome = reference.shift_sacs(region, target, point, ctx)
            if not outcome.feasible:
                continue
            sets.append(backend.build_curves(region, target, point.bottom_row, outcome))
            bounds.append((outcome.xt_lo, outcome.xt_hi))
            if len(sets) >= 24:
                break
        batch = backend.minimize_batch(sets, bounds, preferred_x=target.gp_x)
        loop = [
            backend.minimize(c, lo, hi, preferred_x=target.gp_x)
            for c, (lo, hi) in zip(sets, bounds)
        ]
        assert batch == loop
        queries = [[math.floor(e.best_x), math.ceil(e.best_x)] for e in batch]
        assert backend.evaluate_batch(sets, queries) == [
            backend.evaluate(c, q) for c, q in zip(sets, queries)
        ]
