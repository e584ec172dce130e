"""System-level property-based tests.

These tests exercise the full legalization pipeline on randomly generated
designs and assert the invariants that must hold for *any* input:

* every legalizer output is legal (no overlaps, on-grid, P/G aligned);
* FLEX (SACS + sliding-window ordering + fwd/bwd curve pipeline) and the
  MGL baseline produce placements of equivalent quality class;
* recorded work counters are internally consistent.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchgen import DesignSpec, generate_design
from repro.core import FlexLegalizer
from repro.legality import LegalityChecker, PlacementMetrics
from repro.mgl import MGLLegalizer


design_strategy = st.fixed_dictionaries(
    {
        "num_cells": st.integers(30, 90),
        "density": st.floats(0.3, 0.85),
        "seed": st.integers(0, 10_000),
        "tall_mix": st.booleans(),
    }
)


def build(params) -> object:
    mix = {1: 0.6, 2: 0.2, 3: 0.1, 4: 0.07, 5: 0.03} if params["tall_mix"] else {1: 0.8, 2: 0.15, 3: 0.05}
    spec = DesignSpec(
        name=f"prop{params['seed']}",
        num_cells=params["num_cells"],
        density=params["density"],
        seed=params["seed"],
        height_mix=mix,
    )
    return generate_design(spec)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy)
def test_mgl_always_produces_legal_placements(params):
    layout = build(params)
    result = MGLLegalizer().legalize(layout)
    report = LegalityChecker().check(layout)
    assert report.legal, f"{params}: {report.summary()}"
    assert result.success
    # Work counters must be recorded for every legalized target.
    assert len(result.trace.targets) == len(layout.movable_cells())
    assert result.trace.total_insertion_points >= len(result.trace.targets)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy)
def test_flex_always_produces_legal_placements(params):
    layout = build(params)
    result = FlexLegalizer().legalize(layout)
    report = LegalityChecker().check(layout)
    assert report.legal, f"{params}: {report.summary()}"
    assert result.legalization.success
    assert result.modeled_runtime_seconds > 0
    # The co-execution makespan can never beat the FPGA busy time alone.
    assert result.modeled_runtime_seconds >= result.timeline.fpga_busy * 0.999


#: Designs on which the default FlexLegalizer leaves one tall cell
#: unplaced.  The sliding-window ordering schedules the cell so late that
#: no window retry finds a feasible insertion point, and the whole-chip
#: fallback accepts only a completely free slot.  Pinned here so the bug
#: does not depend on hypothesis drawing these designs; a fix turns
#: them into strict-xfail failures (XPASS), and the marker must go.
KNOWN_TALL_CELL_FAILURES = [
    {"num_cells": 30, "density": 0.8125, "seed": 30, "tall_mix": True},
    {"num_cells": 83, "density": 0.8125, "seed": 416, "tall_mix": True},
    # Drawn by test_flex_always_produces_legal_placements: cell 37, a
    # 2-row cell, stays unplaced (the same at the parent commit).
    {"num_cells": 42, "density": 0.78125, "seed": 2743, "tall_mix": True},
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known bug: a tall cell ordered late by the sliding window finds "
    "no insertion point and no completely free fallback slot",
)
@pytest.mark.parametrize(
    "params", KNOWN_TALL_CELL_FAILURES, ids=lambda p: f"cells{p['num_cells']}-seed{p['seed']}"
)
def test_flex_legalizes_known_tall_cell_designs(params):
    layout = build(params)
    result = FlexLegalizer().legalize(layout)
    report = LegalityChecker().check(layout)
    assert report.legal, f"{params}: {report.summary()}"
    assert result.legalization.success


def assert_flex_quality_tracks_mgl(params):
    layout_a = build(params)
    layout_b = build(params)
    mgl = MGLLegalizer().legalize(layout_a)
    flex = FlexLegalizer().legalize(layout_b)
    # The orderings differ, so individual placements differ; on designs this
    # small the per-design noise (a few tens of percent) is far larger than
    # the paper's ~1% average improvement, so this property only pins the
    # quality to the same class.  The suite-average relation (FLEX at least
    # as good as MGL on average) is asserted by the Table 1 benchmark.
    assert flex.average_displacement <= mgl.average_displacement * 1.35 + 0.15


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy)
def test_flex_quality_tracks_mgl(params):
    assert_flex_quality_tracks_mgl(params)


#: A design on which the same tall-cell ordering problem costs quality
#: rather than legality: FLEX reaches AveDis 1.0008 against a bound of
#: 0.8943, while MGL, and FLEX without the sliding-window ordering, both
#: reach 0.5513.
KNOWN_TALL_CELL_QUALITY_FAILURES = [
    {"num_cells": 30, "density": 0.75, "seed": 653, "tall_mix": True},
    # Drawn by test_flex_quality_tracks_mgl; no tall_mix, but its 2- and
    # 3-row cells hit the same ordering problem: FLEX reaches 1.0016
    # against a bound of 0.7300, while MGL, and FLEX without the
    # sliding-window ordering, both reach 0.4297.
    {"num_cells": 43, "density": 0.75, "seed": 77, "tall_mix": False},
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known bug: the sliding-window ordering schedules tall cells late "
    "enough to double FLEX's AveDis over MGL's",
)
@pytest.mark.parametrize(
    "params",
    KNOWN_TALL_CELL_QUALITY_FAILURES,
    ids=lambda p: f"cells{p['num_cells']}-seed{p['seed']}",
)
def test_flex_quality_tracks_mgl_on_known_tall_cell_design(params):
    assert_flex_quality_tracks_mgl(params)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(design_strategy)
def test_displacement_consistent_with_metrics(params):
    layout = build(params)
    MGLLegalizer().legalize(layout)
    metrics = PlacementMetrics(site_width_units=0.1)
    stats = metrics.compute(layout)
    # Aggregate statistics must be mutually consistent.
    assert stats.max_displacement >= stats.mean_displacement >= 0.0
    assert stats.total_displacement == pytest.approx(
        sum(metrics.cell_displacement(c) for c in layout.movable_cells()), rel=1e-9
    )
    per_height_mean = sum(stats.per_height.values()) / len(stats.per_height)
    assert stats.average_displacement == pytest.approx(per_height_mean, rel=1e-9)
