"""Unit tests of the multiprocess backend: configuration, resolver
integration, inherited kernels and the intra-region point-parallel path.

End-to-end equality against the reference is covered by
``tests/test_kernels.py`` (the backend is one of the parametrized
equivalence suite's backends); this module covers the backend's own
machinery.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import FlexConfig
from repro.core.sacs import SortAheadShifter
from repro.kernels import (
    MultiprocessKernelBackend,
    available_backends,
    get_kernel_backend,
    resolve_backend,
)
from repro.kernels.mp_backend import WORKERS_ENV_VAR, default_worker_count
from repro.mgl.fop import FOPConfig, find_optimal_position
from repro.mgl.shifting import OriginalShifter
from repro.perf.report import shard_summary
from test_kernels import outcome_key

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


class TestConfiguration:
    def test_registered_in_backend_registry(self):
        assert "multiprocess" in available_backends()
        assert isinstance(get_kernel_backend("multiprocess"), MultiprocessKernelBackend)

    def test_parameterized_name_sets_worker_count(self):
        backend = get_kernel_backend("multiprocess:3")
        assert isinstance(backend, MultiprocessKernelBackend)
        assert backend.workers == 3
        # Parameterized instances are cached under their full name.
        assert get_kernel_backend("multiprocess:3") is backend
        assert get_kernel_backend("multiprocess") is not backend

    def test_unknown_parameterized_base_raises(self):
        with pytest.raises(KeyError, match="unknown kernel backend"):
            get_kernel_backend("numpy:4")

    def test_flex_config_accepts_parameterized_backend(self):
        FlexConfig(kernel_backend="multiprocess:2").validate()
        with pytest.raises(ValueError, match="kernel_backend"):
            FlexConfig(kernel_backend="multiprocess:x:y").validate()

    def test_env_var_controls_default_worker_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert default_worker_count() == 5
        assert MultiprocessKernelBackend().workers == 5
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert default_worker_count() == max(1, min(8, os.cpu_count() or 1))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            MultiprocessKernelBackend(workers=-1)
        with pytest.raises(ValueError, match="workers"):
            MultiprocessKernelBackend(workers=0)

    def test_invalid_parameterized_worker_counts_rejected(self):
        # Non-integer and < 1 "multiprocess:N" spellings raise a clear
        # ValueError naming the offending spelling (not a registry
        # KeyError, and not a crash deep inside pool setup).
        with pytest.raises(ValueError, match="multiprocess:0"):
            get_kernel_backend("multiprocess:0")
        with pytest.raises(ValueError, match="multiprocess:x"):
            get_kernel_backend("multiprocess:x")
        with pytest.raises(ValueError, match=">= 1"):
            get_kernel_backend("multiprocess:-3")

    def test_invalid_env_worker_counts_rejected(self, monkeypatch):
        for junk in ("zero", "1.5", "0", "-2", ""):
            monkeypatch.setenv(WORKERS_ENV_VAR, junk)
            if junk == "":
                # Empty string falls back to the cpu-count default.
                assert default_worker_count() >= 1
                continue
            with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
                default_worker_count()
            with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
                MultiprocessKernelBackend()

    def test_close_is_idempotent(self):
        backend = MultiprocessKernelBackend(workers=2)
        backend.close()
        backend.close()


class TestKernelDelegation:
    def test_kernel_methods_match_reference(self):
        from repro.testing import small_design
        from repro.mgl.insertion import enumerate_all_insertion_points
        from repro.mgl.local_region import RegionBuilder, initial_window
        from repro.mgl.premove import premove

        layout = small_design(num_cells=60, density=0.6, seed=3)
        premove(layout)
        for cell in layout.movable_cells()[: len(layout.cells) // 2]:
            cell.legalized = True
        layout.rebuild_index()
        target = next(c for c in layout.movable_cells() if not c.legalized)
        region = RegionBuilder(layout, target).build(initial_window(layout, target))
        backend = MultiprocessKernelBackend(workers=2)
        reference = get_kernel_backend("python")
        ctx = backend.build_sacs_context(region)
        ref_ctx = reference.build_sacs_context(region)
        for point in list(enumerate_all_insertion_points(region, target))[:5]:
            got = backend.shift_sacs(region, target, point, ctx)
            ref = reference.shift_sacs(region, target, point, ref_ctx)
            assert outcome_key(got) == outcome_key(ref)
            if not ref.feasible:
                continue
            curves = backend.build_curves(region, target, point.bottom_row, got)
            ref_curves = reference.build_curves(region, target, point.bottom_row, ref)
            assert curves == ref_curves
            assert backend.minimize(curves, got.xt_lo, got.xt_hi) == reference.minimize(
                ref_curves, ref.xt_lo, ref.xt_hi
            )

    def test_resolve_backend_instance_passthrough(self):
        backend = MultiprocessKernelBackend(workers=2)
        assert resolve_backend(backend) is backend


def _pending_region():
    """A localRegion over a partly legalized design, plus its target."""
    from repro.testing import small_design
    from repro.geometry.region import Window
    from repro.mgl.local_region import RegionBuilder
    from repro.mgl.premove import premove

    layout = small_design(num_cells=150, density=0.75, seed=21)
    premove(layout)
    accepted = []
    for cell in layout.movable_cells():
        if not any(cell.overlaps(other) for other in accepted):
            cell.legalized = True
            accepted.append(cell)
    layout.rebuild_index()
    target = next(c for c in layout.movable_cells() if not c.legalized)
    # A wide window: max(120, 30 x width) sites over the target's rows +-3.
    half_width = max(120.0, 30.0 * target.width) / 2.0
    centre = target.x + target.width / 2.0
    bottom = int(round(target.y))
    window = Window(
        max(0.0, centre - half_width),
        min(layout.width, centre + half_width),
        max(0, bottom - 3),
        min(layout.num_rows, bottom + target.height + 3),
    )
    region = RegionBuilder(layout, target).build(window)
    return region, target


def _forced_backend(workers=2):
    """A backend whose thresholds farm out every original-shifter region."""
    backend = MultiprocessKernelBackend(workers=workers)
    backend.POINT_PARALLEL_MIN_POINTS = 1
    backend.POINT_PARALLEL_MIN_WORK = 1
    return backend


def _forced_parallel_fop(region, target, make_shifter, workers=2):
    """FOP on a backend whose thresholds farm out every region."""
    from repro.perf.counters import TargetCellWork

    backend = _forced_backend(workers)
    try:
        work = TargetCellWork(cell_index=target.index)
        config = FOPConfig(shifter=make_shifter(backend), backend=backend)
        result = find_optimal_position(region, target, config, work)
        return result, work, backend.parallel_regions
    finally:
        backend.close()


@needs_fork
class TestPointParallel:
    def test_parallel_fop_matches_reference(self):
        """Forced-low thresholds: whole FOP runs through the worker pool."""
        from repro.perf.counters import TargetCellWork

        region, target = _pending_region()
        ref_work = TargetCellWork(cell_index=target.index)
        reference = find_optimal_position(
            region, target,
            FOPConfig(shifter=OriginalShifter(), backend="python"),
            ref_work,
        )
        result, work, parallel_regions = _forced_parallel_fop(
            region, target, lambda backend: OriginalShifter()
        )
        assert parallel_regions >= 1

        assert (result.feasible, result.bottom_row, result.x, result.cost) == (
            reference.feasible, reference.bottom_row, reference.x, reference.cost
        )
        assert (result.n_points_evaluated, result.n_points_feasible) == (
            reference.n_points_evaluated, reference.n_points_feasible
        )
        # The winning outcome is re-derived in the parent and must match.
        assert result.outcome is not None
        assert result.outcome.left_thresholds == reference.outcome.left_thresholds
        assert result.outcome.right_thresholds == reference.outcome.right_thresholds
        assert work.insertion_points == ref_work.insertion_points

    def test_sacs_regions_are_not_farmed_out(self):
        """SACS regions score in-process (fused, or the reference shifter
        on a host without the native kernel), whatever the thresholds."""
        from repro.perf.counters import TargetCellWork

        region, target = _pending_region()
        ref_work = TargetCellWork(cell_index=target.index)
        reference = find_optimal_position(
            region, target,
            FOPConfig(shifter=SortAheadShifter(backend="python"), backend="python"),
            ref_work,
        )
        result, work, parallel_regions = _forced_parallel_fop(
            region, target, lambda backend: SortAheadShifter(backend=backend)
        )
        assert parallel_regions == 0
        assert (result.x, result.cost, result.insertion) == (
            reference.x, reference.cost, reference.insertion
        )
        assert work.insertion_points == ref_work.insertion_points

    def test_sub_threshold_region_is_searched_in_process(self):
        """Below the thresholds the backend's own ``search_region`` scores
        an original-shifter region in this process, equal to the
        reference down to every work record, and forks no worker."""
        from repro.mgl.fop import search_points
        from repro.mgl.insertion import candidate_bottom_rows
        from repro.perf.counters import TargetCellWork

        region, target = _pending_region()
        bottom_rows = candidate_bottom_rows(region, target)
        reference_backend = get_kernel_backend("python")
        ref_config = FOPConfig(shifter=OriginalShifter(), backend=reference_backend)
        ref_config.shifter.prepare(region)
        reference = search_points(region, target, bottom_rows, ref_config, reference_backend)
        ref_work = TargetCellWork(cell_index=target.index)
        ref_result = find_optimal_position(region, target, ref_config, ref_work)

        with MultiprocessKernelBackend(workers=2) as backend:
            config = FOPConfig(shifter=OriginalShifter(), backend=backend)
            config.shifter.prepare(region)
            search = backend.search_region(region, target, bottom_rows, config)
            work = TargetCellWork(cell_index=target.index)
            result = find_optimal_position(region, target, config, work)
            assert (backend.workers_spawned, backend.parallel_regions) == (0, 0)

        assert search is not None
        assert search.works == reference.works
        assert (repr(search.sites), search.costs, search.n_feasible) == (
            repr(reference.sites), reference.costs, reference.n_feasible
        )
        assert search.winner[:3] == reference.winner[:3]
        assert outcome_key(search.winner[3]) == outcome_key(reference.winner[3])
        assert (result.feasible, result.bottom_row, result.x, result.cost) == (
            ref_result.feasible, ref_result.bottom_row, ref_result.x, ref_result.cost
        )
        assert work.insertion_points == ref_work.insertion_points

    def test_should_parallelize_respects_thresholds(self):
        backend = MultiprocessKernelBackend(workers=2)

        class FakeRegion:
            local_cells = list(range(300))

        original = FOPConfig(shifter=OriginalShifter())
        points = list(range(backend.POINT_PARALLEL_MIN_POINTS))
        assert backend.should_parallelize_fop(FakeRegion(), points, original)
        assert not backend.should_parallelize_fop(FakeRegion(), points[:-1], original)
        solo = MultiprocessKernelBackend(workers=1)
        assert not solo.should_parallelize_fop(FakeRegion(), points, original)
        # Only the original shifter is farmed out, whatever the size.
        sacs = FOPConfig(shifter=SortAheadShifter(backend="python"))
        assert not backend.should_parallelize_fop(FakeRegion(), points, sacs)

    def test_workers_do_not_change_results(self):
        """Forced point-parallel FOP is worker-count independent."""
        region, target = _pending_region()
        runs = [
            _forced_parallel_fop(region, target, lambda backend: OriginalShifter(), workers)
            for workers in (2, 5)
        ]
        assert [parallel_regions for _, _, parallel_regions in runs] == [1, 1]
        (small, small_work, _), (large, large_work, _) = runs
        assert (small.feasible, small.bottom_row, small.x, small.cost) == (
            large.feasible, large.bottom_row, large.x, large.cost
        )
        assert small.insertion == large.insertion
        assert small_work.insertion_points == large_work.insertion_points

    def test_forced_legalization_matches_oracle_and_reports_workers(self):
        """A whole run with every region farmed out equals the oracle,
        placements and work records included, and its trace reports the
        pool size and the farmed-out region count."""
        from repro.mgl.legalizer import MGLLegalizer
        from repro.testing import small_design

        reference = small_design(num_cells=80, density=0.7, seed=4)
        ref_result = MGLLegalizer(backend="python").legalize(reference)
        layout = small_design(num_cells=80, density=0.7, seed=4)
        with _forced_backend(workers=2) as backend:
            result = MGLLegalizer(backend=backend).legalize(layout)
        assert [(c.x, c.y, c.legalized) for c in layout.cells] == [
            (c.x, c.y, c.legalized) for c in reference.cells
        ]
        assert result.failed_cells == ref_result.failed_cells
        assert [t.insertion_points for t in result.trace.targets] == [
            t.insertion_points for t in ref_result.trace.targets
        ]
        assert result.trace.parallel_regions > 0
        assert result.trace.worker_count == 2
        assert ref_result.trace.parallel_regions == 0
        assert ref_result.trace.worker_count == 1


class TestTraceReporting:
    def test_shard_summary_formats_stats(self):
        from repro.perf.counters import LegalizationTrace

        trace = LegalizationTrace(kernel_backend="multiprocess")
        assert shard_summary(trace) == "backend=multiprocess workers=1"
        trace = LegalizationTrace(
            kernel_backend="multiprocess", worker_count=4, parallel_regions=17
        )
        assert shard_summary(trace) == (
            "backend=multiprocess workers=4 parallel-regions=17"
        )
        plain = LegalizationTrace()
        assert shard_summary(plain) == "backend=python workers=1"
