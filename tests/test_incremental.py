"""Tests of the incremental (ECO) legalization subsystem.

The load-bearing suite is the equivalence block: for delta streams of
every kind, the engine's persistent-state fast path must produce layouts
**bit-for-bit identical** to :func:`repro.incremental.reference_relegalize`
— a from-scratch replay that rebuilds every index and runs the plain
full legalizer after each batch — on every registered kernel backend.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.benchgen import DesignSpec, EcoSpec, generate_design, generate_eco_stream
from repro.incremental import (
    DeleteCell,
    IncrementalLegalizer,
    InsertCell,
    MoveCell,
    ResizeCell,
    SetFixed,
    apply_deltas,
    delta_from_dict,
    load_delta_stream,
    reference_relegalize,
    save_delta_stream,
    stream_from_dict,
    stream_to_dict,
)
from repro.kernels import available_backends
from repro.legality.checker import LegalityChecker
from repro.mgl.legalizer import MGLLegalizer
from repro.perf.report import incremental_summary
from repro.testing import make_layout, small_design


def cell_state(layout):
    """Everything that must match bit for bit between two layouts."""
    return [
        (c.name, c.x, c.y, c.width, c.height, c.gp_x, c.gp_y, c.fixed, c.legalized)
        for c in layout.cells
    ]


def assert_index_consistent(layout):
    """The incrementally maintained obstacle index must equal a rebuild."""
    rebuilt = layout.copy()  # Layout.copy() re-derives the index from the cells
    for row in range(layout.num_rows):
        assert layout._row_index[row] == rebuilt._row_index[row], f"row {row}"


def legal_design(num_cells=60, density=0.55, seed=1, blockages=0.0):
    """A fully legalized base design (fails the test if infeasible)."""
    layout, success = try_legal_design(
        num_cells=num_cells, density=density, seed=seed, blockages=blockages
    )
    assert success, f"base design seed={seed} failed to legalize"
    return layout


def try_legal_design(num_cells=60, density=0.55, seed=1, blockages=0.0):
    """Generate + legalize a base design; reports placement success.

    Random dense designs with blockages are occasionally infeasible (a
    wide multi-row cell finds no slot); property tests ``assume`` these
    away instead of asserting on an already-illegal base.
    """
    spec = DesignSpec(
        name=f"eco{seed}",
        num_cells=num_cells,
        density=density,
        seed=seed,
        fixed_blockage_fraction=blockages,
        height_mix={1: 0.7, 2: 0.18, 3: 0.08, 4: 0.04},
    )
    layout = generate_design(spec)
    result = MGLLegalizer(backend="python").legalize(layout)
    return layout, result.success


# ----------------------------------------------------------------------
# Delta application + dirty tracking units
# ----------------------------------------------------------------------
class TestApplyDeltas:
    def test_move_movable_is_direct_dirty(self):
        layout = make_layout(cells=[(0, 0, 4, 1), (10, 0, 4, 1)])
        applied = apply_deltas(layout, [MoveCell(0, 20.0, 2.0)])
        assert applied.dirty == [0]
        assert applied.dirty_direct == 1 and applied.dirty_overlap == 0
        cell = layout.cells[0]
        assert not cell.legalized and (cell.gp_x, cell.gp_y) == (20.0, 2.0)
        assert all(c.index != 0 for c in layout.obstacles_in_row(0))
        assert_index_consistent(layout)

    def test_fixed_insert_dirties_overlapped_cells(self):
        layout = make_layout(cells=[(2, 1, 4, 1), (8, 1, 4, 1), (30, 1, 4, 1)])
        applied = apply_deltas(
            layout, [InsertCell(width=9.0, height=1, gp_x=2.5, gp_y=1.0, fixed=True)]
        )
        # The macro lands on cells 0 and 1 but not on the far cell 2.
        assert applied.dirty == [0, 1]
        assert applied.dirty_overlap == 2 and applied.dirty_direct == 0
        assert not layout.cells[0].legalized and not layout.cells[1].legalized
        assert layout.cells[2].legalized
        assert layout.cells[3].fixed
        assert_index_consistent(layout)

    def test_abutting_macro_does_not_dirty_neighbours(self):
        layout = make_layout(cells=[(2, 1, 4, 1), (10, 1, 4, 1)])
        applied = apply_deltas(
            layout, [InsertCell(width=4.0, height=1, gp_x=6.0, gp_y=1.0, fixed=True)]
        )
        assert applied.dirty == []  # touching edges is legal, not overlap

    def test_delete_tombstones_and_keeps_indexes_stable(self):
        layout = make_layout(cells=[(0, 0, 4, 1), (10, 0, 4, 1)])
        applied = apply_deltas(layout, [DeleteCell(0)])
        assert applied.dirty == []
        cell = layout.cells[0]
        assert layout.is_retired(cell)
        assert cell.width == 0.0 and cell.fixed
        assert len(layout.cells) == 2  # index stability
        assert cell not in layout.movable_cells()
        assert_index_consistent(layout)
        with pytest.raises(ValueError, match="deleted cell"):
            apply_deltas(layout, [MoveCell(0, 5.0, 0.0)])

    def test_delete_drops_cell_from_dirty_set(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        applied = apply_deltas(layout, [MoveCell(0, 6.0, 0.0), DeleteCell(0)])
        assert applied.dirty == []

    def test_resize_movable(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        applied = apply_deltas(layout, [ResizeCell(0, width=6.0, height=2)])
        assert applied.dirty == [0]
        assert layout.cells[0].width == 6.0 and layout.cells[0].height == 2
        assert_index_consistent(layout)

    def test_resize_fixed_macro_dirties_new_overlaps(self):
        layout = make_layout(cells=[(0, 0, 4, 1), (12, 0, 4, 1)])
        apply_deltas(
            layout, [InsertCell(width=4.0, height=1, gp_x=5.0, gp_y=0.0, fixed=True)]
        )
        applied = apply_deltas(layout, [ResizeCell(2, width=9.0)])
        assert applied.dirty == [1]
        assert applied.dirty_overlap == 1
        assert_index_consistent(layout)

    def test_move_fixed_macro_sweeps_new_location(self):
        layout = make_layout(cells=[(0, 2, 4, 1), (20, 2, 4, 1)])
        apply_deltas(
            layout, [InsertCell(width=4.0, height=2, gp_x=40.0, gp_y=4.0, fixed=True)]
        )
        applied = apply_deltas(layout, [MoveCell(2, 19.0, 1.0)])
        assert applied.dirty == [1]
        macro = layout.cells[2]
        assert (macro.x, macro.y) == (19.0, 1.0)
        assert_index_consistent(layout)

    def test_set_fixed_freezes_legal_cell_without_dirt(self):
        layout = make_layout(cells=[(0, 0, 4, 1), (10, 0, 4, 1)])
        applied = apply_deltas(layout, [SetFixed(0, True)])
        assert applied.dirty == []
        assert layout.cells[0].fixed and not layout.cells[0].legalized
        assert_index_consistent(layout)

    def test_set_fixed_frees_macro_as_dirty(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        apply_deltas(
            layout, [InsertCell(width=4.0, height=1, gp_x=10.0, gp_y=0.0, fixed=True)]
        )
        applied = apply_deltas(layout, [SetFixed(1, False)])
        assert applied.dirty == [1]
        assert not layout.cells[1].fixed
        assert_index_consistent(layout)

    def test_bad_index_raises(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        with pytest.raises(ValueError, match="unknown cell index"):
            apply_deltas(layout, [MoveCell(7, 0.0, 0.0)])

    def test_positions_clip_to_chip(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        apply_deltas(layout, [MoveCell(0, 1e9, -50.0)])
        cell = layout.cells[0]
        assert 0.0 <= cell.gp_x <= layout.width - cell.width
        assert 0.0 <= cell.gp_y <= layout.num_rows - cell.height

    def test_invalid_batch_applies_atomically(self):
        """A batch rejected mid-stream must not mutate the layout at all."""
        layout = make_layout(cells=[(0, 0, 4, 1), (10, 0, 4, 1)])
        before = [(c.x, c.y, c.width, c.legalized) for c in layout.cells]
        bad_batches = [
            [MoveCell(0, 20.0, 2.0), ResizeCell(1, width=0.0)],
            [MoveCell(0, 20.0, 2.0), MoveCell(99, 1.0, 1.0)],
            [DeleteCell(0), ResizeCell(0, width=3.0)],
            [MoveCell(0, 20.0, 2.0), InsertCell(width=2.0, height=0, gp_x=0, gp_y=0)],
            [
                InsertCell(width=0.0, height=1, gp_x=0, gp_y=0, fixed=True),
                MoveCell(2, 1.0, 0.0),  # zero-width marker == tombstone
            ],
            [MoveCell(0, 20.0, 2.0), "not-a-delta"],
        ]
        for batch in bad_batches:
            with pytest.raises((ValueError, TypeError)):
                apply_deltas(layout, batch)
            assert [(c.x, c.y, c.width, c.legalized) for c in layout.cells] == before

    def test_engine_survives_rejected_batch(self):
        layout = legal_design(num_cells=40, seed=21)
        engine = IncrementalLegalizer(backend="python")
        engine.begin(layout)
        with pytest.raises(ValueError):
            engine.apply([ResizeCell(0, width=-1.0)])
        # Engine state untouched and still usable.
        result = engine.apply([MoveCell(0, 5.0, 1.0)])
        assert result.success
        assert LegalityChecker().check(layout).legal

    def test_engine_validates_each_batch_once(self, monkeypatch):
        import repro.incremental.engine as engine_module

        calls = []
        validate = engine_module.validate_deltas

        def spy(layout, deltas):
            calls.append(len(deltas))
            validate(layout, deltas)

        monkeypatch.setattr(engine_module, "validate_deltas", spy)
        layout = legal_design(num_cells=40, seed=21)
        engine = IncrementalLegalizer(backend="python")
        engine.begin(layout)
        engine.apply([MoveCell(0, 5.0, 1.0), MoveCell(1, 9.0, 2.0)])
        assert calls == [2]
        with pytest.raises(ValueError):
            engine.apply([ResizeCell(0, width=-1.0)])
        assert calls == [2, 1]
        assert engine.layout is layout  # a rejected batch keeps the engine


# ----------------------------------------------------------------------
# Degenerate delta geometry (cells that cannot fit, boundary snapping)
# ----------------------------------------------------------------------
class TestDegenerateGeometry:
    def test_insert_wider_than_chip_raises_atomically(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        before = [(c.x, c.y, c.width) for c in layout.cells]
        with pytest.raises(ValueError, match="does not fit"):
            apply_deltas(layout, [
                MoveCell(0, 5.0, 0.0),
                InsertCell(width=layout.width + 1.0, height=1, gp_x=0.0, gp_y=0.0),
            ])
        assert [(c.x, c.y, c.width) for c in layout.cells] == before

    def test_insert_taller_than_chip_raises(self):
        layout = make_layout(cells=[(0, 0, 4, 1)])
        with pytest.raises(ValueError, match="does not fit"):
            apply_deltas(layout, [
                InsertCell(width=2.0, height=layout.num_rows + 1, gp_x=0.0, gp_y=0.0)
            ])

    def test_resize_beyond_chip_raises_atomically(self):
        layout = make_layout(cells=[(0, 0, 4, 1), (10, 0, 4, 1)])
        before = [(c.x, c.y, c.width) for c in layout.cells]
        with pytest.raises(ValueError, match="does not fit"):
            apply_deltas(layout, [
                MoveCell(1, 20.0, 0.0),
                ResizeCell(0, width=layout.width * 2),
            ])
        assert [(c.x, c.y, c.width) for c in layout.cells] == before

    def test_move_of_oversized_base_cell_raises_in_validation(self):
        """A malformed base layout (cell wider than the chip) must be
        rejected up front by validate_deltas, not mid-application."""
        layout = make_layout(cells=[(0, 0, 4, 1)])
        layout.cells[0].width = layout.width + 5.0  # malformed import
        with pytest.raises(ValueError, match="does not fit"):
            apply_deltas(layout, [MoveCell(0, 3.0, 0.0)])

    def test_negative_origin_clamps_to_chip(self):
        layout = make_layout(cells=[(10, 2, 4, 1)])
        apply_deltas(layout, [MoveCell(0, -40.0, -9.0)])
        cell = layout.cells[0]
        assert (cell.gp_x, cell.gp_y) == (0.0, 0.0)

    def test_fractional_width_macro_snaps_on_grid_at_boundary(self):
        """Clipping a fixed cell at the right/top chip edge must keep it
        on the placement grid (the raw bound chip_width - width is
        off-grid for fractional widths)."""
        layout = make_layout(cells=[(0, 0, 4, 1)])
        apply_deltas(layout, [
            InsertCell(width=4.5, height=2, gp_x=1e9, gp_y=1e9, fixed=True)
        ])
        macro = layout.cells[1]
        assert macro.x == int(macro.x), "macro clipped off-grid"
        assert macro.right <= layout.width
        assert macro.y == layout.num_rows - macro.height
        assert_index_consistent(layout)

    def test_exact_fit_cell_is_allowed(self):
        layout = make_layout(num_rows=4, num_sites=20, cells=[])
        apply_deltas(layout, [
            InsertCell(width=20.0, height=4, gp_x=3.0, gp_y=1.0, fixed=True)
        ])
        macro = layout.cells[0]
        assert (macro.x, macro.y) == (0.0, 0.0)

    def test_freeze_of_oversized_base_cell_raises_atomically(self):
        """SetFixed(True) snaps the cell, which rejects oversize dims —
        validation must catch it up front so the batch stays atomic."""
        layout = make_layout(cells=[(0, 0, 4, 1), (10, 0, 4, 1)])
        layout.cells[0].width = layout.width + 5.0  # malformed import
        layout.unlegalize_cell(layout.cells[0])
        before = [(c.x, c.y, c.width, c.fixed) for c in layout.cells]
        with pytest.raises(ValueError, match="does not fit"):
            apply_deltas(layout, [MoveCell(1, 20.0, 0.0), SetFixed(0, True)])
        assert [(c.x, c.y, c.width, c.fixed) for c in layout.cells] == before

    def test_fragmentation_ignores_tombstones(self):
        """A deleted cell's zero-width tombstone stays in the row index
        but must not split a contiguous free gap into phantom slivers."""
        layout = make_layout(num_rows=1, num_sites=20, cells=[(10, 0, 2, 1)])
        assert layout.free_space_fragmentation(min_gap=12.0) == 1.0  # 10+8 split
        layout.retire_cell(layout.cells[0])
        assert layout.free_space_fragmentation(min_gap=12.0) == 0.0  # one 20 gap

    def test_freeing_a_tombstone_raises(self):
        """Layout.set_cell_fixed(False) on a retired cell would mint an
        invalid zero-width movable cell (and break Layout.copy())."""
        layout = make_layout(cells=[(0, 0, 4, 1)])
        layout.retire_cell(layout.cells[0])
        with pytest.raises(ValueError, match="zero width"):
            layout.set_cell_fixed(layout.cells[0], False)
        layout.copy()  # still copyable


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestIncrementalLegalizer:
    def test_apply_before_begin_raises(self):
        with pytest.raises(RuntimeError, match=r"before begin\(\)"):
            IncrementalLegalizer().apply([])
        with pytest.raises(RuntimeError, match=r"before begin\(\)"):
            IncrementalLegalizer().apply([MoveCell(0, 1.0, 1.0)])

    def test_begin_legalizes_pending_layout(self):
        layout = small_design(num_cells=40, seed=3)
        engine = IncrementalLegalizer(backend="python")
        result = engine.begin(layout)
        assert result is not None and result.success
        assert LegalityChecker().check(layout).legal
        assert engine.begin(layout) is None  # already legal: adopted as-is

    def test_empty_batch_is_cheap_noop(self):
        layout = legal_design(num_cells=40, seed=5)
        before = cell_state(layout)
        engine = IncrementalLegalizer(backend="python")
        engine.begin(layout)
        result = engine.apply([])
        assert result.success and result.stats.dirty_total == 0
        assert result.stats.mode == "noop"
        assert not result.trace.targets  # no subset machinery ran
        assert result.stats.reused_cells == result.stats.num_movable > 0
        assert cell_state(layout) == before
        # The no-op is recorded but must not advance the repack schedule.
        assert engine.batches_since_repack == 0
        assert len(engine.history) == 1

    def test_empty_batch_noop_with_zero_threshold(self):
        """full_threshold=0.0 means "full on any dirt" — an empty batch
        has no dirt, so it must stay a no-op, not a full re-run."""
        layout = legal_design(num_cells=40, seed=5)
        engine = IncrementalLegalizer(backend="python", full_threshold=0.0)
        engine.begin(layout)
        result = engine.apply([])
        assert result.stats.mode == "noop"

    def test_zero_threshold_forces_full_on_any_dirt(self):
        layout = legal_design(num_cells=40, seed=13)
        engine = IncrementalLegalizer(backend="python", full_threshold=0.0)
        engine.begin(layout)
        result = engine.apply([MoveCell(1, 6.0, 1.0)])
        assert result.stats.mode == "full"
        assert result.stats.dirty_total == 1

    def test_incremental_keeps_clean_cells_untouched(self):
        layout = legal_design(num_cells=60, seed=7)
        engine = IncrementalLegalizer(backend="python", full_threshold=1.0)
        engine.begin(layout)
        before = {c.index: (c.x, c.y) for c in layout.cells}
        result = engine.apply([MoveCell(4, 3.0, 1.0)])
        assert result.success
        touched = {t.cell_index for t in result.trace.targets}
        moved = {
            i for i, pos in before.items()
            if (layout.cells[i].x, layout.cells[i].y) != pos
        }
        # Only the dirty target and cells its insertion shifted may move;
        # shifted neighbours stay legalized (they are not re-legalized).
        assert 4 in touched
        assert result.stats.reused_cells == result.stats.num_movable - 1
        for i in moved - touched:
            assert layout.cells[i].legalized

    def test_full_fallback_above_threshold(self):
        layout = legal_design(num_cells=50, seed=9)
        twin = layout.copy()
        engine = IncrementalLegalizer(backend="python", full_threshold=0.0)
        engine.begin(layout)
        batch = [MoveCell(2, 8.0, 1.0)]
        result = engine.apply(batch)
        assert result.stats.mode == "full"
        assert result.stats.reused_cells == 0
        # The fallback equals apply + reset + full legalize on a twin.
        apply_deltas(twin, batch)
        twin.rebuild_index()
        twin.reset_positions()
        MGLLegalizer(backend="python").legalize(twin)
        assert cell_state(layout) == cell_state(twin)

    def test_default_is_the_fast_host_configuration(self):
        """Incremental and served sessions default to SACS + fwd/bwd, and
        that configuration ends an ECO stream exactly where the original
        shifter does."""
        from repro.core.sacs import SortAheadShifter
        from repro.designio import layout_fingerprint
        from repro.service.session import SessionConfig

        engines = {
            "default": IncrementalLegalizer(),
            "served": SessionConfig(backend="numpy").make_engine(),
        }
        for engine in engines.values():
            config = engine.legalizer.fop_config
            assert isinstance(config.shifter, SortAheadShifter)
        engines["original"] = IncrementalLegalizer(MGLLegalizer())
        assert not isinstance(
            engines["original"].legalizer.fop_config.shifter, SortAheadShifter
        )

        base = legal_design(num_cells=60, seed=37)
        stream = generate_eco_stream(base, EcoSpec(churn=0.1, batches=3, seed=41))
        prints = {"base": layout_fingerprint(base)}
        for name, engine in engines.items():
            layout = legal_design(num_cells=60, seed=37)
            with engine:
                engine.begin(layout)
                assert all(r.success for r in engine.replay(stream))
            prints[name] = layout_fingerprint(layout)
        assert prints["default"] == prints["served"] == prints["original"]
        assert prints["default"] != prints["base"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="full_threshold"):
            IncrementalLegalizer(full_threshold=1.5)

    def test_legalizer_and_backend_together_are_rejected(self):
        # An explicit legalizer carries its own backend; a second one is
        # an error rather than a silent clone onto the other backend.
        legalizer = MGLLegalizer(backend="python")
        with pytest.raises(ValueError, match="legalizer or a backend"):
            IncrementalLegalizer(legalizer, backend="numpy")
        base = legal_design(num_cells=30, seed=3)
        with pytest.raises(ValueError, match="legalizer or a backend"):
            reference_relegalize(base, [], legalizer=legalizer, backend="numpy")

    def test_summary_line(self):
        layout = legal_design(num_cells=40, seed=11)
        engine = IncrementalLegalizer(backend="python")
        engine.begin(layout)
        result = engine.apply([MoveCell(0, 5.0, 1.0)])
        line = incremental_summary(result.stats)
        assert "mode=incremental" in line
        assert "dirty=1/" in line
        assert "reused=" in line
        assert "AveDis=" in line and "drift" in line


# ----------------------------------------------------------------------
# Displacement-bounded (quality-governed) mode
# ----------------------------------------------------------------------
class TestDisplacementBudget:
    def test_knob_validation(self):
        with pytest.raises(ValueError, match="max_avedis_drift"):
            IncrementalLegalizer(max_avedis_drift=-0.1)
        with pytest.raises(ValueError, match="repack_every"):
            IncrementalLegalizer(repack_every=0)
        with pytest.raises(ValueError, match="max_fragmentation_drift"):
            IncrementalLegalizer(max_fragmentation_drift=-0.5)
        # A fragmentation budget without tracking would freeze the
        # baseline at 0.0 and repack every batch past the absolute cap.
        with pytest.raises(ValueError, match="requires fragmentation tracking"):
            IncrementalLegalizer(
                max_fragmentation_drift=0.1, track_fragmentation=False
            )
        engine = IncrementalLegalizer(max_fragmentation_drift=0.1)
        assert engine.track_fragmentation

    def test_begin_snapshots_baseline(self):
        layout = legal_design(num_cells=40, seed=11)
        engine = IncrementalLegalizer(backend="python", max_avedis_drift=0.05)
        engine.begin(layout)
        assert engine._baseline_avedis >= 0.0
        assert engine.batches_since_repack == 0
        assert engine.repacks_total == 0

    def test_scheduled_repack_fires_every_n_batches(self):
        layout = legal_design(num_cells=50, seed=11)
        engine = IncrementalLegalizer(
            backend="python", full_threshold=1.0, repack_every=2
        )
        engine.begin(layout)
        modes = []
        for i in range(6):
            result = engine.apply([MoveCell(i, 5.0 + i, 1.0)])
            modes.append((result.stats.mode, result.stats.repack_reason))
        assert modes == [
            ("incremental", ""),
            ("repack", "scheduled"),
        ] * 3
        assert engine.repacks_total == 3

    def test_zero_drift_budget_forces_repack_on_any_worsening(self):
        """With a 0.0 budget, any AveDis above the baseline repacks; the
        repacked layout equals apply + reset + full legalize."""
        layout = legal_design(num_cells=50, seed=9)
        twin = layout.copy()
        engine = IncrementalLegalizer(
            backend="python", full_threshold=1.0, max_avedis_drift=0.0
        )
        engine.begin(layout)
        batch = [MoveCell(2, 40.0, 5.0), MoveCell(7, 1.0, 0.0)]
        result = engine.apply(batch)
        if result.stats.repack_reason:  # drift is design-dependent
            assert result.stats.mode == "repack"
            assert engine.repacks_total == 1
            apply_deltas(twin, list(batch))
            twin.rebuild_index()
            twin.reset_positions()
            MGLLegalizer(backend="python").legalize(twin)
            assert cell_state(layout) == cell_state(twin)
            # Baseline refreshed from the repacked layout.
            assert engine._baseline_avedis == result.stats.avedis
            assert engine.batches_since_repack == 0

    def test_repack_counters_monotone_over_stream(self):
        layout = legal_design(num_cells=60, seed=7)
        engine = IncrementalLegalizer(
            backend="python",
            full_threshold=1.0,
            max_avedis_drift=0.02,
            repack_every=5,
            track_fragmentation=True,
        )
        engine.begin(layout)
        stream = generate_eco_stream(layout, EcoSpec(churn=0.08, batches=12, seed=3))
        for batch in stream:
            engine.apply(batch)
        repack_counts = [s.repacks_total for s in engine.history]
        assert repack_counts == sorted(repack_counts)
        assert engine.repacks_total == repack_counts[-1] > 0
        for stats in engine.history:
            assert 0.0 <= stats.fragmentation <= 1.0
            assert stats.avedis >= 0.0
        # as_dict carries the new counters for JSON reports.
        payload = engine.history[-1].as_dict()
        for key in ("avedis", "avedis_drift", "fragmentation",
                    "repack_reason", "repacks_total"):
            assert key in payload

    def test_budgets_disabled_matches_reference_exactly(self):
        """Without budgets the governed engine is the plain engine: the
        exactness contract vs reference_relegalize must still hold."""
        layout = legal_design(num_cells=50, seed=19)
        base = layout.copy()
        stream = generate_eco_stream(layout, EcoSpec(churn=0.1, batches=3, seed=8))
        engine = IncrementalLegalizer(
            backend="python", full_threshold=1.0, track_fragmentation=True
        )
        engine.begin(layout)
        engine.replay(stream)
        reference = reference_relegalize(base, stream, backend="python")
        assert cell_state(layout) == cell_state(reference)
        assert engine.repacks_total == 0

    def test_governed_stream_is_backend_independent(self):
        """Repack decisions derive from placements, which are bit-for-bit
        across backends — so governed streams end identically too."""
        stream_spec = EcoSpec(churn=0.1, batches=4, seed=31)
        ref_layout = legal_design(num_cells=60, seed=19)
        stream = generate_eco_stream(ref_layout, stream_spec)

        def run(backend):
            layout = legal_design(num_cells=60, seed=19)
            engine = IncrementalLegalizer(
                backend=backend,
                full_threshold=1.0,
                max_avedis_drift=0.01,
                repack_every=3,
            )
            engine.begin(layout)
            engine.replay(stream)
            return layout, engine

        ref, ref_engine = run("python")
        assert ref_engine.repacks_total > 0  # the governor actually fired
        for backend in available_backends():
            got, got_engine = run(backend)
            assert cell_state(got) == cell_state(ref), backend
            assert got_engine.repacks_total == ref_engine.repacks_total


# ----------------------------------------------------------------------
# The exactness contract (the acceptance bar of the subsystem)
# ----------------------------------------------------------------------
class TestEquivalence:
    def run_stream(self, layout, stream, backend, threshold=1.0):
        engine = IncrementalLegalizer(backend=backend, full_threshold=threshold)
        engine.begin(layout)
        results = engine.replay(stream)
        return engine, results

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 30),
        eco_seed=st.integers(0, 10_000),
        churn=st.floats(0.02, 0.15),
        batches=st.integers(1, 3),
        blockages=st.sampled_from([0.0, 0.0, 0.06]),
    )
    def test_incremental_equals_full_rerun_property(
        self, seed, eco_seed, churn, batches, blockages
    ):
        layout, feasible = try_legal_design(
            num_cells=50, seed=seed, blockages=blockages
        )
        # Skip infeasible bases, and bases born illegal (the generator
        # may drop two random blockages on top of each other — no
        # legalizer can fix fixed-vs-fixed overlap).
        assume(feasible and LegalityChecker().check(layout).legal)
        base = layout.copy()
        spec = EcoSpec(
            churn=churn,
            batches=batches,
            seed=eco_seed,
            macro_move_probability=0.5 if blockages else 0.0,
        )
        stream = generate_eco_stream(layout, spec)
        _, results = self.run_stream(layout, stream, "python")
        reference = reference_relegalize(base, stream, backend="python")
        # The exactness contract holds unconditionally ...
        assert cell_state(layout) == cell_state(reference)
        assert_index_consistent(layout)
        # ... and whenever every target found a slot, the result is legal
        # (a delta stream can make a dense design genuinely infeasible,
        # and a generated macro move can land fixed-on-fixed, which no
        # legalizer can repair — ignore violations between fixed cells).
        if all(r.success for r in results):
            report = LegalityChecker().check(layout)
            movable_violations = [
                v for v in report.violations
                if not (
                    layout.cells[v.cell].fixed
                    and (v.other is None or layout.cells[v.other].fixed)
                )
            ]
            assert not movable_violations

    @pytest.mark.parametrize("backend", available_backends())
    def test_incremental_equals_full_rerun_per_backend(self, backend):
        layout = legal_design(num_cells=80, density=0.6, seed=17, blockages=0.05)
        base = layout.copy()
        stream = generate_eco_stream(
            layout,
            EcoSpec(churn=0.08, batches=3, seed=23, macro_move_probability=0.6),
        )
        _, results = self.run_stream(layout, stream, backend)
        assert all(r.success for r in results)
        reference = reference_relegalize(base, stream, backend=backend)
        assert cell_state(layout) == cell_state(reference)
        assert LegalityChecker().check(layout).legal

    @pytest.mark.parametrize("backend", available_backends())
    def test_backends_agree_bit_for_bit(self, backend):
        """Every backend's incremental stream ends in the python layout."""
        stream_spec = EcoSpec(churn=0.1, batches=2, seed=31)
        ref_layout = legal_design(num_cells=60, seed=19)
        stream = generate_eco_stream(ref_layout, stream_spec)
        self.run_stream(ref_layout, stream, "python")

        layout = legal_design(num_cells=60, seed=19)
        self.run_stream(layout, stream, backend)
        assert cell_state(layout) == cell_state(ref_layout)

    def test_mixed_delta_kinds_equivalence(self):
        layout = legal_design(num_cells=50, seed=29)
        base = layout.copy()
        batches = [
            [
                MoveCell(3, 12.0, 2.0),
                ResizeCell(8, width=5.0),
                InsertCell(width=3.0, height=2, gp_x=15.0, gp_y=2.0),
                InsertCell(width=7.0, height=3, gp_x=4.0, gp_y=1.0, fixed=True),
            ],
            [
                DeleteCell(5),
                SetFixed(10, True),
                MoveCell(50, 30.0, 4.0),  # the inserted movable cell
            ],
            [
                SetFixed(10, False),
                MoveCell(51, 10.0, 3.0),  # move the inserted macro
            ],
        ]
        engine = IncrementalLegalizer(backend="python", full_threshold=1.0)
        engine.begin(layout)
        for batch in batches:
            assert engine.apply(batch).success
        reference = reference_relegalize(base, batches, backend="python")
        assert cell_state(layout) == cell_state(reference)
        assert LegalityChecker().check(layout).legal
        assert_index_consistent(layout)


# ----------------------------------------------------------------------
# legalize_subset (the re-entrant MGL entry point)
# ----------------------------------------------------------------------
class TestLegalizeSubset:
    def test_subset_only_touches_targets(self):
        layout = legal_design(num_cells=40, seed=2)
        targets = [layout.cells[i] for i in (3, 7)]
        for cell in targets:
            layout.unlegalize_cell(cell)
        result = MGLLegalizer(backend="python").legalize_subset(layout, targets)
        assert result.success
        assert sorted(t.cell_index for t in result.trace.targets) == [3, 7]
        assert result.trace.premove_cells == 2
        assert LegalityChecker().check(layout).legal

    def test_subset_rejects_legalized_targets(self):
        layout = legal_design(num_cells=30, seed=4)
        with pytest.raises(ValueError, match="not a pending target"):
            MGLLegalizer(backend="python").legalize_subset(layout, [layout.cells[0]])

    def test_subset_rejects_foreign_cells(self):
        layout = legal_design(num_cells=30, seed=4)
        other = layout.copy()
        other.unlegalize_cell(other.cells[0])
        with pytest.raises(ValueError, match="does not belong"):
            MGLLegalizer(backend="python").legalize_subset(layout, [other.cells[0]])

    def test_empty_subset(self):
        layout = legal_design(num_cells=30, seed=6)
        result = MGLLegalizer(backend="python").legalize_subset(layout, [])
        assert result.success and not result.trace.targets


# ----------------------------------------------------------------------
# Delta model + JSON stream format
# ----------------------------------------------------------------------
class TestDeltaStreams:
    def test_stream_roundtrip(self, tmp_path):
        stream = [
            [MoveCell(1, 2.0, 3.0), ResizeCell(2, width=4.0)],
            [InsertCell(width=2.0, height=1, gp_x=0.0, gp_y=0.0, fixed=True),
             DeleteCell(0), SetFixed(3, True)],
        ]
        path = tmp_path / "stream.json"
        save_delta_stream(stream, path)
        assert load_delta_stream(path) == stream

    def test_flat_batch_accepted(self):
        flat = [{"op": "move", "index": 1, "gp_x": 2.0, "gp_y": 3.0}]
        assert stream_from_dict(flat) == [[MoveCell(1, 2.0, 3.0)]]

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown delta op"):
            delta_from_dict({"op": "teleport", "index": 1})

    def test_missing_op_raises(self):
        with pytest.raises(ValueError, match="missing 'op'"):
            delta_from_dict({"index": 1})

    def test_malformed_fields_raise(self):
        with pytest.raises(ValueError, match="malformed 'move' delta"):
            delta_from_dict({"op": "move", "index": 1, "warp": 9})

    def test_missing_batches_raises(self):
        with pytest.raises(ValueError, match="batches"):
            stream_from_dict({"format": "repro-eco-deltas"})

    def test_to_dict_roundtrip_every_kind(self):
        deltas = [
            MoveCell(1, 2.0, 3.0),
            ResizeCell(2, width=4.0, height=2),
            InsertCell(width=2.0, height=1, gp_x=1.0, gp_y=0.0),
            DeleteCell(3),
            SetFixed(4, False),
        ]
        for delta in deltas:
            assert delta_from_dict(delta.to_dict()) == delta
        assert stream_from_dict(stream_to_dict([deltas])) == [deltas]


# ----------------------------------------------------------------------
# ECO stream generator
# ----------------------------------------------------------------------
class TestEcoGenerator:
    def test_deterministic(self):
        layout = legal_design(num_cells=50, seed=1)
        spec = EcoSpec(churn=0.1, batches=3, seed=42)
        assert generate_eco_stream(layout, spec) == generate_eco_stream(layout, spec)

    def test_churn_scales_batch_size(self):
        layout = legal_design(num_cells=100, seed=1)
        small = generate_eco_stream(layout, EcoSpec(churn=0.02, batches=1, seed=5))
        large = generate_eco_stream(layout, EcoSpec(churn=0.2, batches=1, seed=5))
        assert len(small[0]) == 2
        assert len(large[0]) == 20

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="churn"):
            EcoSpec(churn=0.0)
        with pytest.raises(ValueError, match="batches"):
            EcoSpec(churn=0.1, batches=0)

    def test_generated_stream_replays_cleanly(self):
        layout = legal_design(num_cells=60, seed=3)
        stream = generate_eco_stream(layout, EcoSpec(churn=0.1, batches=4, seed=7))
        engine = IncrementalLegalizer(backend="python")
        engine.begin(layout)
        results = engine.replay(stream)
        assert all(r.success for r in results)
        assert LegalityChecker().check(layout).legal


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def run_main(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_bench_command(self, capsys):
        assert self.run_main(
            "bench", "--cells", "60", "--density", "0.5", "--backend", "python"
        ) == 0
        out = capsys.readouterr().out
        assert "AveDis" in out and "legal" in out

    def test_legalize_command(self, tmp_path, capsys):
        from repro.designio import load_layout_json, save_layout_json

        design = tmp_path / "d.json"
        out = tmp_path / "out.cells"
        save_layout_json(small_design(num_cells=50, seed=8), design)
        assert self.run_main(
            "legalize", str(design), "-o", str(out), "--backend", "python"
        ) == 0
        assert out.exists()
        assert "legality" in capsys.readouterr().out
        # and the saved layout loads back legal
        from repro.designio import load_cells

        assert LegalityChecker().check(load_cells(out)).legal

    def test_eco_generate_then_replay(self, tmp_path, capsys):
        from repro.designio import save_layout_json

        design = tmp_path / "d.json"
        deltas = tmp_path / "deltas.json"
        final = tmp_path / "final.json"
        save_layout_json(small_design(num_cells=60, seed=12), design)
        assert self.run_main(
            "eco", str(design), str(deltas), "--generate",
            "--churn", "0.05", "--batches", "2", "--seed", "3",
        ) == 0
        assert deltas.exists()
        assert self.run_main(
            "eco", str(design), str(deltas), "--backend", "python",
            "-o", str(final),
        ) == 0
        out = capsys.readouterr().out
        assert "mode=incremental" in out
        assert final.exists()

    def test_eco_soak_mode(self, tmp_path, capsys):
        from repro.designio import save_layout_json

        design = tmp_path / "d.json"
        soak_json = tmp_path / "soak.json"
        save_layout_json(small_design(num_cells=60, seed=12), design)
        assert self.run_main(
            "eco", str(design), "--soak", "--soak-batches", "6",
            "--churn", "0.05", "--backend", "python",
            "--max-drift", "0.05", "--repack-every", "3",
            "--soak-json", str(soak_json),
        ) == 0
        out = capsys.readouterr().out
        assert "drift" in out and "repack" in out
        import json as _json

        payload = _json.loads(soak_json.read_text())
        assert len(payload["trajectory"]) == 6
        assert "drift_vs_full" in payload["final"]

    # ------------------------------------------------------------------
    # Error paths: exit 2, one-line file:line-style messages, no traceback
    # ------------------------------------------------------------------
    def test_missing_design_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert self.run_main("legalize", str(missing)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, no traceback
        assert str(missing) in err and "No such file" in err

    def test_bad_backend_exits_2_before_any_work(self, capsys):
        # bench: before the design is generated; serve: before the daemon
        # binds (it would otherwise print "listening" and run).
        for command in (("bench", "--cells", "60"), ("serve", "--port", "0")):
            for spelling, message in (
                ("bogus", "unknown kernel backend 'bogus'"),
                ("multiprocess:0", "invalid worker count 0"),
            ):
                assert self.run_main(*command, "--backend", spelling) == 2
                captured = capsys.readouterr()
                assert captured.out == "", command
                assert captured.err.count("\n") == 1 and message in captured.err

    def test_corrupt_design_json_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_rows": 4,\n  "oops')
        assert self.run_main("legalize", str(bad)) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err  # file:line:col of the JSON error
        assert "invalid JSON" in err

    def test_wrong_shape_design_exits_2(self, tmp_path, capsys):
        shape = tmp_path / "shape.json"
        shape.write_text('{"cells": 5}')
        assert self.run_main("legalize", str(shape)) == 2
        err = capsys.readouterr().err
        assert str(shape) in err and "malformed design file" in err

    def test_missing_deltas_file_exits_2(self, tmp_path, capsys):
        from repro.designio import save_layout_json

        design = tmp_path / "d.json"
        save_layout_json(small_design(num_cells=40, seed=2), design)
        assert self.run_main("eco", str(design), str(tmp_path / "none.json")) == 2
        err = capsys.readouterr().err
        assert "No such file" in err

    def test_corrupt_deltas_exits_2_with_file_context(self, tmp_path, capsys):
        from repro.designio import save_layout_json

        design = tmp_path / "d.json"
        deltas = tmp_path / "deltas.json"
        save_layout_json(small_design(num_cells=40, seed=2), design)
        deltas.write_text('[[{"op": "teleport", "index": 1}]]')
        assert self.run_main("eco", str(design), str(deltas)) == 2
        err = capsys.readouterr().err
        assert str(deltas) in err and "unknown delta op" in err

    def test_eco_without_deltas_or_soak_exits_2(self, tmp_path, capsys):
        from repro.designio import save_layout_json

        design = tmp_path / "d.json"
        save_layout_json(small_design(num_cells=40, seed=2), design)
        assert self.run_main("eco", str(design)) == 2
        assert "DELTAS" in capsys.readouterr().err

    def test_oversized_delta_reported_as_user_error(self, tmp_path, capsys):
        from repro.designio import save_layout_json
        from repro.incremental import InsertCell, save_delta_stream

        design = tmp_path / "d.json"
        deltas = tmp_path / "deltas.json"
        layout = small_design(num_cells=40, seed=2)
        save_layout_json(layout, design)
        save_delta_stream(
            [[InsertCell(width=layout.width * 2, height=1, gp_x=0.0, gp_y=0.0)]],
            deltas,
        )
        assert self.run_main(
            "eco", str(design), str(deltas), "--backend", "python"
        ) == 2
        assert "does not fit" in capsys.readouterr().err
