"""Bit-for-bit equivalence of the fused native FOP kernel.

:class:`repro.kernels.native.NativeFOP` scores a whole localRegion in C.
Every entry it returns (best site, cost and the full work record) must
equal the pure-Python reference (``evaluate_point_list`` on the
``python`` backend) on generated regions, on synthetic regions built to
hit the epsilon merges and near-tie comparisons, and through whole
legalizations.  Without a compiler the numpy backend must fall back to
the reference SACS shifter with identical results.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import shlex

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sacs import SortAheadShifter
from repro.geometry import Cell, Window
from repro.geometry.interval import Interval
from repro.geometry.region import LocalRegion, LocalSegment
from repro.kernels import NumpyKernelBackend, get_kernel_backend
from repro.kernels.native import NativeFOP
from repro.mgl import MGLLegalizer
from repro.mgl.fop import FOPConfig, evaluate_point_list, find_optimal_position
from repro.mgl.insertion import enumerate_all_insertion_points
from repro.mgl.shifting import OriginalShifter
from test_kernels import DESIGN_FACTORIES, REGION_CASES, outcome_key, prepared_region

NATIVE = get_kernel_backend("numpy").native

needs_native = pytest.mark.skipif(
    NATIVE.load() is None, reason="no C compiler for the native FOP kernel"
)


def reference_entries(region, target, fwd_bwd):
    points = list(enumerate_all_insertion_points(region, target))
    config = FOPConfig(
        shifter=SortAheadShifter(backend="python"),
        use_fwd_bwd_pipeline=fwd_bwd,
        backend="python",
    )
    config.shifter.prepare(region)
    return points, evaluate_point_list(region, target, points, config)


def native_entries(region, target, points, fwd_bwd):
    shifter = SortAheadShifter(backend="python")
    config = FOPConfig(shifter=shifter, use_fwd_bwd_pipeline=fwd_bwd)
    return NATIVE.score_points(region, target, points, shifter.context_for(region), config)


def entry_key(entries):
    """Exact observable content; repr() also tells -0.0 from 0.0."""
    return [
        (repr(best_x), repr(cost), dataclasses.astuple(work))
        for _, best_x, cost, _, work in entries
    ]


def assert_matches_reference(region, target, fwd_bwd):
    points, reference = reference_entries(region, target, fwd_bwd)
    if not points:
        return 0
    assert entry_key(native_entries(region, target, points, fwd_bwd)) == entry_key(reference)
    return sum(1 for entry in reference if entry[1] is not None)


# ----------------------------------------------------------------------
# Region-level equivalence
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("fwd_bwd", [False, True])
@pytest.mark.parametrize("case", sorted(REGION_CASES))
def test_native_matches_reference_on_regions(case, fwd_bwd):
    region, target = prepared_region(**REGION_CASES[case])
    assert assert_matches_reference(region, target, fwd_bwd) > 10


@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_native_matches_reference_on_randomized_layouts(seed):
    rng = random.Random(2000 + seed)
    mix = rng.choice([None, {1: 1.0}, {1: 0.55, 2: 0.25, 3: 0.1, 4: 0.07, 5: 0.03}])
    region, target = prepared_region(
        num_cells=rng.randrange(60, 220),
        density=rng.uniform(0.4, 0.9),
        seed=seed,
        target_height=rng.choice([1, 1, 2, 3]),
        height_mix=mix,
        target_width=rng.choice([2.0, 4.0, 7.0]),
    )
    assert_matches_reference(region, target, rng.random() < 0.5)


@st.composite
def synthetic_regions(draw):
    """Packed rows with sub-epsilon gaps and offsets, multi-row cells and
    cells on both sides of their global-placement x."""
    n_rows = draw(st.integers(2, 5))
    row_lo = draw(st.integers(0, 3))
    height = draw(st.integers(1, min(3, n_rows)))
    target = Cell(
        index=0,
        width=draw(st.sampled_from([1.0, 2.0, 3.5, 5.0])),
        height=height,
        gp_x=draw(st.floats(0.0, 60.0, allow_nan=False)),
        gp_y=row_lo + draw(st.integers(0, n_rows - 1)) + draw(st.sampled_from([0.0, 0.3])),
    )
    region = LocalRegion(window=Window(0.0, 80.0, row_lo, row_lo + n_rows), target=target)
    for row in range(row_lo, row_lo + n_rows):
        lo = draw(st.sampled_from([0.0, 0.5, 2.0]))
        hi = draw(st.sampled_from([40.0, 60.5, 80.0]))
        region.add_segment(LocalSegment(row, Interval(lo, hi)))
    frontier = {row: seg.x_lo for row, seg in region.segments.items()}
    gaps = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 4e-10, 1e-9, 2e-9])
    offsets = st.sampled_from([-6.0, -1e-10, 0.0, 1e-10, 2.5, 7.0])
    for index in range(1, draw(st.integers(0, 30)) + 1):
        cell_height = draw(st.sampled_from([1, 1, 1, 2, 3]))
        if cell_height > n_rows:
            continue
        bottom = draw(st.integers(row_lo, row_lo + n_rows - cell_height))
        rows = range(bottom, bottom + cell_height)
        width = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0]))
        x = max(frontier[r] for r in rows) + draw(gaps)
        if any(x + width > region.segments[r].x_hi for r in rows):
            continue
        region.add_local_cell(
            Cell(
                index=index, width=width, height=cell_height,
                gp_x=x + draw(offsets), gp_y=float(bottom),
                x=x, y=float(bottom), legalized=True,
            )
        )
        for r in rows:
            frontier[r] = x + width
    region.finalize()
    return region, target


@needs_native
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=synthetic_regions(), fwd_bwd=st.booleans())
def test_native_matches_reference_on_synthetic_regions(data, fwd_bwd):
    region, target = data
    assert_matches_reference(region, target, fwd_bwd)


def _packed_region(cells, target, n_rows=2, seg=(0.0, 40.0)):
    """A region from ``(x, width, height, bottom, gp_x)`` cell tuples."""
    region = LocalRegion(window=Window(seg[0], seg[1], 0, n_rows), target=target)
    for row in range(n_rows):
        region.add_segment(LocalSegment(row, Interval(*seg)))
    for index, (x, width, height, bottom, gp_x) in enumerate(cells, start=1):
        region.add_local_cell(Cell(
            index=index, width=width, height=height, gp_x=gp_x, gp_y=float(bottom),
            x=x, y=float(bottom), legalized=True,
        ))
    region.finalize()
    return region


@needs_native
@pytest.mark.parametrize("fwd_bwd", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
def test_native_keeps_the_epsilon_guard_on_repeated_pushes(side, fwd_bwd):
    """A two-row cell pushed through both rows by candidates 5e-10 apart.

    The second push exceeds the first by less than the epsilon, so the
    reference keeps the first threshold; that difference reaches the
    cost of the points that move the two-row cell.
    """
    tiny = 5e-10
    if side == "left":
        # N (rows 0-1) is pushed left by A (row 0, processed first) and by
        # B (row 1), whose wider body makes its candidate larger by `tiny`.
        cells = [(5.0, 3.0, 2, 0, 6.0), (8.001, 4.0, 1, 0, 8.0), (8.0, 4.0 + tiny, 1, 1, 8.0)]
        target = Cell(index=0, width=2.0, height=2, gp_x=5.0, gp_y=0.0)
    else:
        # The mirror image: N is pushed right through both rows.
        cells = [(30.0, 3.0, 2, 0, 29.0), (25.999, 4.0, 1, 0, 26.0),
                 (26.0 - tiny, 4.0 + tiny, 1, 1, 26.0)]
        target = Cell(index=0, width=2.0, height=2, gp_x=35.0, gp_y=0.0)
    region = _packed_region(cells, target)
    assert assert_matches_reference(region, target, fwd_bwd) > 0


@needs_native
@pytest.mark.parametrize("case", sorted(REGION_CASES))
def test_fop_winner_outcome_matches_reference(case):
    """FOP re-derives the winner's shift outcome after a fused scoring."""
    region, target = prepared_region(**REGION_CASES[case])
    results = {
        name: find_optimal_position(
            region, target, FOPConfig(shifter=SortAheadShifter(backend=name), backend=name)
        )
        for name in ("python", "numpy")
    }
    ref, got = results["python"], results["numpy"]
    assert (got.x, got.cost, got.insertion) == (ref.x, ref.cost, ref.insertion)
    # All but the once-per-region sort report, which the first point owns.
    assert outcome_key(got.outcome)[:-1] == outcome_key(ref.outcome)[:-1]


def test_numpy_backend_fuses_only_sacs():
    region, target = prepared_region(**REGION_CASES["mixed"])
    points = list(enumerate_all_insertion_points(region, target))
    backend = get_kernel_backend("numpy")
    assert backend.score_points(region, target, points, FOPConfig(shifter=OriginalShifter())) is None
    assert backend.score_points(region, target, [], FOPConfig(shifter=SortAheadShifter())) is None


# ----------------------------------------------------------------------
# Whole legalizations, with and without the kernel
# ----------------------------------------------------------------------
def _legalize(backend, design_name):
    layout = DESIGN_FACTORIES[design_name]()
    result = MGLLegalizer(FOPConfig(shifter=SortAheadShifter()), backend=backend).legalize(layout)
    trace = result.trace
    return (
        [(c.x, c.y) for c in layout.cells],
        result.average_displacement,
        result.failed_cells,
        trace.total_insertion_points,
        trace.total_shift_visits,
        trace.total_breakpoints,
        trace.total_sort_items,
    )


@pytest.mark.parametrize("design_name", sorted(DESIGN_FACTORIES))
def test_numpy_fallback_without_compiler_matches_reference(design_name, tmp_path, monkeypatch):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    backend = NumpyKernelBackend()
    backend.native = NativeFOP(cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match="native FOP kernel unavailable"):
        fallback = _legalize(backend, design_name)
    assert backend.native.load() is None
    assert "unavailable" in backend.native.describe()
    assert fallback == _legalize("python", design_name)


# ----------------------------------------------------------------------
# Build cache and process boundaries
# ----------------------------------------------------------------------
@needs_native
def test_build_is_cached_per_source_and_compiler(tmp_path, monkeypatch):
    first = NativeFOP(cache_dir=tmp_path)
    assert first.load() is not None
    assert first.path.parent == tmp_path
    assert [p.name for p in tmp_path.iterdir()] == [first.path.name]

    def no_rebuild(self, path):
        raise AssertionError(f"rebuilt a cached library: {path}")

    monkeypatch.setattr(NativeFOP, "_build", no_rebuild)
    again = NativeFOP(cache_dir=tmp_path)
    assert again.load() is not None and again.path == first.path
    monkeypatch.setenv("CC", shlex.join([*first.compiler, "-g0"]))
    other = NativeFOP(cache_dir=tmp_path)
    assert other.library_name() != first.library_name()


def test_unwritable_cache_dir_disables_the_kernel(tmp_path):
    """The library is built and loaded only from its cache directory."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    kernel = NativeFOP(cache_dir=blocker / "build")
    with pytest.warns(RuntimeWarning, match="native FOP kernel unavailable"):
        assert kernel.load() is None
    assert kernel.path is None and str(blocker / "build") in kernel.error


@needs_native
def test_kernel_pickles_without_its_library_handle():
    """Backends travel to pool workers by pickle; the copy reloads lazily."""
    clone = pickle.loads(pickle.dumps(get_kernel_backend("numpy")))
    assert clone.native.compiler == NATIVE.compiler
    assert clone.native.load() is not None
