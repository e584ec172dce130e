"""Bit-for-bit equivalence of the native FOP kernel.

:class:`repro.kernels.native.NativeFOP` runs FOP's whole search over a
localRegion in C: it enumerates the insertion points, scores them and
reduces them to the winner.  Everything it returns (every point's work
counts, site and cost, the feasible count, the winner, and the winner's
shift outcome, dict order included) must equal the pure-Python
reference (Python enumeration, ``evaluate_point_list`` and the
reduction on the ``python`` backend) on generated regions, on synthetic
regions built to hit the epsilon merges and near-tie comparisons, on
hand-built regions for each enumeration, reduction and outcome branch,
and through whole legalizations.  Without a compiler the numpy backend
must fall back to the Python reference search with identical results.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import shlex

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FlexConfig, FlexLegalizer
from repro.core import sacs
from repro.core.sacs import SortAheadShifter, build_sacs_context, shift_cells_sacs
from repro.geometry import Cell, Window
from repro.geometry.interval import Interval
from repro.geometry.region import LocalRegion, LocalSegment
from repro.kernels import NumpyKernelBackend, get_kernel_backend
from repro.kernels.native import NativeFOP
from repro.mgl import MGLLegalizer
from repro.mgl.fop import FOPConfig, find_optimal_position, search_points
from repro.mgl.insertion import candidate_bottom_rows, enumerate_insertion_points
from repro.mgl.shifting import OriginalShifter
from repro.perf.counters import InsertionPointWork
from repro.testing import small_design
from test_kernels import DESIGN_FACTORIES, REGION_CASES, outcome_key, prepared_region

NATIVE = get_kernel_backend("numpy").native

needs_native = pytest.mark.skipif(
    NATIVE.load() is None, reason="no C compiler for the native FOP kernel"
)


def _config(fwd_bwd, backend=None):
    return FOPConfig(
        shifter=SortAheadShifter(backend="python"), use_fwd_bwd_pipeline=fwd_bwd, backend=backend
    )


def reference_search(region, target, fwd_bwd):
    """Python enumeration + evaluate_point_list + reduction, on the oracle."""
    config = _config(fwd_bwd, "python")
    config.shifter.prepare(region)
    rows = candidate_bottom_rows(region, target)
    return search_points(region, target, rows, config, get_kernel_backend("python"))


def native_search(region, target, fwd_bwd):
    rows = candidate_bottom_rows(region, target)
    return NATIVE.search_region(region, target, rows, _config(fwd_bwd))


def reference_outcome(region, target, insertion):
    """The reference SACS shift of ``insertion`` once the region's sort
    report is spent (the search reports it on its first point)."""
    context = build_sacs_context(region)
    context.consumed_sort_report = True
    return shift_cells_sacs(region, target, insertion, context)


def search_key(search):
    """Exact observable content; repr() also tells -0.0 from 0.0."""
    winner = None
    if search.winner is not None:
        insertion, best_x, cost, _ = search.winner
        winner = (insertion, repr(best_x), repr(cost))
    return {
        "works": [dataclasses.astuple(work) for work in search.works],
        "sites": [repr(x) for x in search.sites],
        "costs": [repr(cost) for cost in search.costs],
        "n_feasible": search.n_feasible,
        "winner": winner,
    }


def assert_matches_reference(region, target, fwd_bwd):
    """Compare the native search with the reference field by field,
    the winner's shift outcome in full (dict order included); returns
    the number of feasible points."""
    reference = reference_search(region, target, fwd_bwd)
    native = native_search(region, target, fwd_bwd)
    assert search_key(native) == search_key(reference)
    if reference.winner is not None:
        expected = reference_outcome(region, target, reference.winner[0])
        assert repr(outcome_key(native.winner[3])) == repr(outcome_key(expected))
    return reference.n_feasible


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


@st.composite
def tall_blocked_regions(draw):
    """Regions with cells up to five rows tall, tall targets, and
    blockages: rows without a segment and per-row segments of different
    extents, some narrower than the target."""
    n_rows = draw(st.integers(3, 7))
    row_lo = draw(st.integers(0, 2))
    height = draw(st.integers(1, 4))
    target = Cell(
        index=0,
        width=draw(st.sampled_from([1.0, 2.0, 3.5, 5.0])),
        height=height,
        gp_x=draw(st.floats(0.0, 60.0, allow_nan=False)),
        gp_y=row_lo + draw(st.integers(0, n_rows - 1)) + draw(st.sampled_from([0.0, 0.5])),
    )
    region = LocalRegion(window=Window(0.0, 80.0, row_lo, row_lo + n_rows), target=target)
    for row in range(row_lo, row_lo + n_rows):
        if draw(st.integers(0, 5)) == 0:
            continue  # blocked over the whole window
        lo = draw(st.sampled_from([0.0, 0.5, 2.0, 10.0, 27.0]))
        hi = draw(st.sampled_from([30.0, 31.5, 40.0, 60.5, 80.0]))
        region.add_segment(LocalSegment(row, Interval(lo, hi)))
    frontier = {row: seg.x_lo for row, seg in region.segments.items()}
    for index in range(1, draw(st.integers(0, 30)) + 1):
        cell_height = draw(st.sampled_from([1, 1, 2, 3, 4, 5]))
        if cell_height > n_rows:
            continue
        bottom = draw(st.integers(row_lo, row_lo + n_rows - cell_height))
        rows = range(bottom, bottom + cell_height)
        if any(r not in frontier for r in rows):
            continue
        width = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0]))
        x = max(frontier[r] for r in rows) + draw(st.sampled_from([0.0, 0.0, 1.0, 3.0, 1e-9]))
        if any(x + width > region.segments[r].x_hi for r in rows):
            continue
        region.add_local_cell(
            Cell(
                index=index, width=width, height=cell_height,
                gp_x=x + draw(st.sampled_from([-6.0, 0.0, 2.5, 7.0])), gp_y=float(bottom),
                x=x, y=float(bottom), legalized=True,
            )
        )
        for r in rows:
            frontier[r] = x + width
    region.finalize()
    return region, target


@needs_native
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=tall_blocked_regions(), fwd_bwd=st.booleans())
def test_native_search_matches_reference_on_tall_blocked_regions(data, fwd_bwd):
    region, target = data
    assert_matches_reference(region, target, fwd_bwd)


def _packed_region(cells, target, n_rows=2, seg=(0.0, 40.0), row_segs=None):
    """A region from ``(x, width, height, bottom, gp_x)`` cell tuples.

    ``row_segs`` maps a row to its own ``(lo, hi)`` segment, or to
    ``None`` for a row without one; other rows get ``seg``.
    """
    region = LocalRegion(window=Window(seg[0], seg[1], 0, n_rows), target=target)
    for row in range(n_rows):
        bounds = (row_segs or {}).get(row, seg)
        if bounds is not None:
            region.add_segment(LocalSegment(row, Interval(*bounds)))
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
@pytest.mark.parametrize("fwd_bwd", [False, True])
def test_native_clamps_a_sub_epsilon_empty_interval(fwd_bwd, monkeypatch):
    """A gap narrower than the target by less than the epsilon.

    The right neighbour is wider than the free space by 5e-10, so the
    shifted interval ends just below where it starts: ``hi < lo`` within
    the epsilon, which minimize clamps to ``hi = lo``.  Feasibility must
    accept the sub-epsilon overlap, and the point must score on the one
    site in the gap.
    """
    from repro.mgl import curves

    intervals = []
    for name in ("minimize_curves", "minimize_curves_fwd_bwd"):
        def spy(pieces, constant, lo, hi, *, _real=getattr(curves, name), **kw):
            intervals.append((lo, hi))
            return _real(pieces, constant, lo, hi, **kw)

        monkeypatch.setattr(curves, name, spy)
    tiny = 5e-10
    cells = [(0.0, 3.0, 1, 0, 0.0), (6.0 - tiny, 4.0 + tiny, 1, 0, 6.0)]
    target = Cell(index=0, width=3.0, height=1, gp_x=3.0, gp_y=0.0)
    region = _packed_region(cells, target, n_rows=1, seg=(0.0, 10.0))
    assert assert_matches_reference(region, target, fwd_bwd) > 0
    assert any(lo - 1e-9 <= hi < lo for lo, hi in intervals)


@needs_native
@pytest.mark.parametrize("fwd_bwd", [False, True])
def test_native_keeps_the_first_of_two_equally_distant_minima(fwd_bwd):
    """Two minima with equal cost at equal distance from the target's x.

    Both neighbours of each row touch the target at its global x, and
    each sits 2 sites from its own global x on the side the target
    pushes it toward.  The summed curve peaks at the target's x and has
    equal minima 2 sites to either side; ``_pick_best`` replaces the
    best candidate only when a tie is strictly closer, so the left
    minimum, found first, must win.
    """
    cells = [(17.0, 3.0, 1, 0, 15.0), (17.0, 3.0, 1, 1, 15.0),
             (22.0, 3.0, 1, 0, 24.0), (22.0, 3.0, 1, 1, 24.0)]
    target = Cell(index=0, width=2.0, height=2, gp_x=20.0, gp_y=0.0)
    region = _packed_region(cells, target)
    assert assert_matches_reference(region, target, fwd_bwd) > 0
    reference = reference_search(region, target, fwd_bwd)
    assert 18.0 in reference.sites


# ----------------------------------------------------------------------
# One hand-built region per branch of the native enumeration and reduction
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("fwd_bwd", [False, True])
def test_native_sweeps_equal_x_centres_in_index_order(fwd_bwd):
    """Two cells in different rows share an x-centre: the sweep moves the
    lower local index to the target's left first."""
    cells = [(10.0, 4.0, 1, 0, 9.0), (11.0, 2.0, 1, 1, 13.0), (4.0, 3.0, 1, 1, 4.0)]
    target = Cell(index=0, width=2.0, height=2, gp_x=12.0, gp_y=0.0)
    region = _packed_region(cells, target)
    centres = [lc.x + lc.width / 2.0 for lc in region.local_cells[:2]]
    assert centres[0] == centres[1]
    splits = [p.split for p in enumerate_insertion_points(region, target, 0)]
    assert ((0, 1), (1, 1)) in splits and ((0, 0), (1, 2)) not in splits
    assert assert_matches_reference(region, target, fwd_bwd) > 0


@needs_native
def test_native_keeps_a_row_filled_exactly_to_the_capacity_margin():
    """Cells plus target exceed the segment by exactly the 1e-9 margin:
    the capacity filter keeps the combination."""
    length, cell_width = 10.0, 4.0
    width = (length + 1e-9) - cell_width
    assert (0.0 + width) + cell_width == length + 1e-9
    assert (cell_width + width) + 0.0 == length + 1e-9
    target = Cell(index=0, width=width, height=1, gp_x=3.0, gp_y=0.0)
    region = _packed_region([(0.0, cell_width, 1, 0, 0.0)], target, n_rows=1, seg=(0.0, length))
    reference = reference_search(region, target, False)
    assert len(reference.works) == 2
    assert_matches_reference(region, target, False)


@needs_native
def test_native_enumerates_zero_length_segments():
    """Zero-length segments, one of them inverted (``hi < lo``), host a
    zero-width target (only fixed markers may have zero width, so this is
    the one target such a segment is a candidate row for): the capacity
    filter measures them as 0 and keeps their one point."""
    target = Cell(index=0, width=0.0, height=1, gp_x=7.0, gp_y=0.0, fixed=True)
    region = _packed_region(
        [(3.0, 4.0, 1, 2, 3.0)], target, n_rows=3, seg=(0.0, 20.0),
        row_segs={0: (6.0, 6.0), 1: (6.0, 5.5)},
    )
    assert candidate_bottom_rows(region, target) == [0, 1, 2]
    reference = reference_search(region, target, False)
    assert len(reference.works) == 4 and reference.n_feasible == 3
    assert_matches_reference(region, target, False)


@needs_native
def test_native_search_over_no_candidate_rows():
    """No candidate bottom row: no points, no winner, and the sort report
    stays unconsumed."""
    target = Cell(index=0, width=6.0, height=1, gp_x=3.0, gp_y=0.0)
    region = _packed_region(
        [(0.0, 2.0, 1, 0, 0.0)], target, n_rows=3, seg=(0.0, 5.0), row_segs={1: None}
    )
    assert candidate_bottom_rows(region, target) == []
    assert search_key(native_search(region, target, False)) == {
        "works": [], "sites": [], "costs": [], "n_feasible": 0, "winner": None,
    }
    assert_matches_reference(region, target, False)


@needs_native
@pytest.mark.parametrize("fwd_bwd", [False, True])
def test_native_breaks_an_exact_cost_tie_by_distance(fwd_bwd):
    """Rows 0 and 2 cost the same vertically.  Row 0's segment stops two
    sites short of the target's x; row 2 places it on its x by pushing a
    cell two sites.  Both cost exactly 12, so the later, closer point wins."""
    target = Cell(index=0, width=2.0, height=1, gp_x=10.0, gp_y=1.0)
    region = _packed_region(
        [(8.0, 4.0, 1, 2, 8.0)], target, n_rows=3, seg=(0.0, 20.0),
        row_segs={0: (0.0, 10.0), 1: (0.0, 1.0)},
    )
    reference = reference_search(region, target, fwd_bwd)
    assert (reference.sites[0], reference.costs[0]) == (8.0, 12.0)
    insertion, best_x, cost, _ = reference.winner
    assert (insertion.bottom_row, best_x, cost) == (2, 10.0, 12.0)
    assert assert_matches_reference(region, target, fwd_bwd) > 1


@needs_native
@pytest.mark.parametrize("case", sorted(REGION_CASES))
def test_fop_winner_outcome_matches_reference(case):
    """FOP commits the outcome the kernel returns with its winner.

    The region searches above compare the outcome on the synthetic,
    tall-blocked, randomized and hand-built regions too."""
    region, target = prepared_region(**REGION_CASES[case])
    results = {
        name: find_optimal_position(
            region, target, FOPConfig(shifter=SortAheadShifter(backend=name), backend=name)
        )
        for name in ("python", "numpy")
    }
    ref, got = results["python"], results["numpy"]
    assert (got.x, got.cost, got.insertion) == (ref.x, ref.cost, ref.insertion)
    expected = reference_outcome(region, target, ref.insertion)
    assert repr(outcome_key(got.outcome)) == repr(outcome_key(expected))
    # The scored reference outcome differs at most in the sort report,
    # which the search's first point owns.
    assert outcome_key(ref.outcome)[:-1] == outcome_key(expected)[:-1]


# ----------------------------------------------------------------------
# One hand-built region per branch of the native winner outcome
# ----------------------------------------------------------------------
def native_winner_outcome(region, target, fwd_bwd=False):
    """The native winner's outcome, checked against the reference."""
    assert assert_matches_reference(region, target, fwd_bwd) > 0
    return native_search(region, target, fwd_bwd).winner[3]


@needs_native
def test_native_outcome_with_an_empty_left_chain():
    """The target's global x is left of every cell: the winner puts every
    cell on its right, so no cell gets a left threshold."""
    cells = [(4.0, 3.0, 1, 0, 4.0), (7.0, 2.0, 1, 0, 7.0), (12.0, 4.0, 1, 1, 12.0)]
    target = Cell(index=0, width=2.0, height=1, gp_x=1.0, gp_y=0.0)
    outcome = native_winner_outcome(_packed_region(cells, target), target)
    assert outcome.left_thresholds == {} and list(outcome.right_thresholds) == [0, 1]


@needs_native
def test_native_outcome_with_an_empty_right_chain():
    """The target's global x is right of every cell: no right thresholds."""
    cells = [(4.0, 3.0, 1, 0, 4.0), (7.0, 2.0, 1, 0, 7.0), (12.0, 4.0, 1, 1, 12.0)]
    target = Cell(index=0, width=2.0, height=1, gp_x=30.0, gp_y=0.0)
    outcome = native_winner_outcome(_packed_region(cells, target), target)
    assert outcome.right_thresholds == {} and list(outcome.left_thresholds) == [1, 0]


@needs_native
@pytest.mark.parametrize("fwd_bwd", [False, True])
def test_native_outcome_propagates_through_a_multi_row_cell(fwd_bwd):
    """The winner pushes A (row 0) into the two-row cell M, which carries
    the threshold into row 1, where only B, outside the target's rows,
    receives it: thresholds flow across rows through M."""
    cells = [(10.0, 3.0, 2, 0, 10.0), (13.0, 4.0, 1, 0, 13.0), (7.0, 3.0, 1, 1, 7.0)]
    target = Cell(index=0, width=3.0, height=1, gp_x=17.5, gp_y=0.0)
    region = _packed_region(cells, target, seg=(0.0, 21.0), row_segs={0: (0.0, 20.0)})
    outcome = native_winner_outcome(region, target, fwd_bwd)
    # A seeds the chain, then M, then B through M's row-1 subcell.
    assert list(outcome.left_thresholds) == [1, 0, 2]
    assert outcome.right_thresholds == {}


@needs_native
def test_native_outcome_orders_equal_x_cells_by_index():
    """P and Q share an x in rows 0 and 1.  The left sweep visits them in
    descending (x, index) order, so Q passes its threshold to its left
    neighbour before P does: the outcome lists Q' before P'."""
    cells = [(6.0, 4.0, 1, 0, 6.0), (5.0, 5.0, 1, 1, 5.0),   # P', Q'
             (10.0, 3.0, 1, 0, 10.0), (10.0, 3.0, 1, 1, 10.0)]  # P, Q
    target = Cell(index=0, width=2.0, height=2, gp_x=13.0, gp_y=0.0)
    outcome = native_winner_outcome(_packed_region(cells, target), target)
    assert list(outcome.left_thresholds) == [2, 3, 1, 0]


def test_numpy_backend_fuses_only_sacs():
    region, target = prepared_region(**REGION_CASES["mixed"])
    rows = candidate_bottom_rows(region, target)
    backend = get_kernel_backend("numpy")
    assert backend.search_region(region, target, rows, FOPConfig(shifter=OriginalShifter())) is None
    assert get_kernel_backend("python").search_region(region, target, rows, FOPConfig()) is None


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


@needs_native
def test_multiprocess_hands_sacs_regions_to_the_native_search(monkeypatch):
    """``multiprocess:2`` searches SACS regions with the native kernel it
    inherits from the numpy backend; the Python enumeration never runs."""
    import repro.mgl.fop as fop

    searched = []
    native_search_region = NativeFOP.search_region

    def counting(self, region, *args):
        searched.append(region)
        return native_search_region(self, region, *args)

    def python_enumeration(*args):
        raise AssertionError("a SACS region was enumerated in Python")

    reference = _legalize("numpy", "dense_design")
    monkeypatch.setattr(NativeFOP, "search_region", counting)
    monkeypatch.setattr(fop, "enumerate_insertion_points", python_enumeration)
    assert _legalize("multiprocess:2", "dense_design") == reference
    assert searched


@needs_native
def test_numpy_flex_run_builds_no_shift_context_and_no_work_objects(monkeypatch):
    """A numpy FLEX run (legalization and model) never re-derives a shift
    outcome in Python, never builds a SACS context and never builds an
    InsertionPointWork: points stay in columns from the kernel to the
    models."""
    calls = {"shift": 0, "context": 0, "work": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SortAheadShifter, "shift", counted("shift", SortAheadShifter.shift))
    monkeypatch.setattr(sacs, "build_sacs_context", counted("context", sacs.build_sacs_context))
    monkeypatch.setattr(
        InsertionPointWork, "__init__", counted("work", InsertionPointWork.__init__)
    )
    run = FlexLegalizer(FlexConfig(kernel_backend="numpy")).legalize(
        small_design(num_cells=120, density=0.82, seed=9)
    )
    assert run.trace.total_insertion_points > 0 and run.fpga.total_cycles > 0
    assert calls == {"shift": 0, "context": 0, "work": 0}


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
