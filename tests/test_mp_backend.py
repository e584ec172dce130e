"""Unit tests of the multiprocess backend: configuration, registry
integration, kernel delegation and the intra-region point-parallel path.

End-to-end equality against the reference is covered by
``tests/test_kernels.py`` (the backend registers itself into the
parametrized equivalence suite) and ``tests/test_shard_properties.py``;
this module covers the backend's own machinery.
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
        with pytest.raises(ValueError, match="strategy"):
            MultiprocessKernelBackend(strategy="magic")
        with pytest.raises(ValueError, match="sequential"):
            MultiprocessKernelBackend(inner="multiprocess")

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

    def test_inner_defaults_to_fastest_sequential_backend(self):
        backend = MultiprocessKernelBackend(workers=2)
        expected = "numpy" if "numpy" in available_backends() else "python"
        assert backend.inner.name == expected

    def test_close_is_idempotent(self):
        backend = MultiprocessKernelBackend(workers=2)
        backend.close()
        backend.close()


class TestKernelDelegation:
    def test_kernel_methods_match_inner(self):
        from repro.testing import small_design
        from repro.mgl.insertion import enumerate_all_insertion_points
        from repro.mgl.local_region import build_local_region, initial_window
        from repro.mgl.premove import premove

        layout = small_design(num_cells=60, density=0.6, seed=3)
        premove(layout)
        for cell in layout.movable_cells()[: len(layout.cells) // 2]:
            cell.legalized = True
        layout.rebuild_index()
        target = next(c for c in layout.movable_cells() if not c.legalized)
        region, _ = build_local_region(layout, target, initial_window(layout, target))
        backend = MultiprocessKernelBackend(workers=2)
        inner = backend.inner
        ctx = backend.build_sacs_context(region)
        inner_ctx = inner.build_sacs_context(region)
        for point in list(enumerate_all_insertion_points(region, target))[:5]:
            got = backend.shift_sacs(region, target, point, ctx)
            ref = inner.shift_sacs(region, target, point, inner_ctx)
            assert (got.xt_lo, got.xt_hi, got.feasible) == (ref.xt_lo, ref.xt_hi, ref.feasible)
            assert got.left_thresholds == ref.left_thresholds
            assert got.right_thresholds == ref.right_thresholds

    def test_resolve_backend_instance_passthrough(self):
        backend = MultiprocessKernelBackend(workers=2)
        assert resolve_backend(backend) is backend


def _pending_region():
    """A localRegion over a partly legalized design, plus its target."""
    from repro.testing import small_design
    from repro.mgl.local_region import build_local_region, initial_window
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
    window = initial_window(layout, target, width_factor=30.0, min_width=120.0)
    region, _ = build_local_region(layout, target, window)
    return region, target


def _forced_parallel_fop(region, target, make_shifter):
    """FOP on a 2-worker backend whose thresholds farm out every region."""
    from repro.perf.counters import TargetCellWork

    backend = MultiprocessKernelBackend(workers=2)
    backend.POINT_PARALLEL_MIN_POINTS = 1
    backend.POINT_PARALLEL_MIN_WORK = 1
    try:
        work = TargetCellWork(cell_index=target.index)
        config = FOPConfig(shifter=make_shifter(backend), backend=backend)
        result = find_optimal_position(region, target, config, work)
        return result, work, backend._point_parallel_regions
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

    def test_should_parallelize_respects_thresholds(self):
        backend = MultiprocessKernelBackend(workers=2)

        class FakeRegion:
            local_cells = list(range(300))

        points = list(range(backend.POINT_PARALLEL_MIN_POINTS))
        assert backend.should_parallelize_fop(FakeRegion(), points)
        assert not backend.should_parallelize_fop(FakeRegion(), points[:-1])
        solo = MultiprocessKernelBackend(workers=1)
        assert not solo.should_parallelize_fop(FakeRegion(), points)


class TestTraceReporting:
    def test_shard_summary_formats_stats(self):
        from repro.perf.counters import LegalizationTrace

        trace = LegalizationTrace(kernel_backend="multiprocess", worker_count=4)
        assert "workers=4" in shard_summary(trace)
        trace.shard_stats = {
            "workers": 4,
            "inner_backend": "numpy",
            "mode": "wavefront",
            "speculation_rejects": 3,
            "commits": 50,
            "n_components": 2,
            "shard_targets": [30, 20],
            "escaped_targets": 0,
            "sequential_rerun": False,
        }
        text = shard_summary(trace)
        assert "mode=wavefront" in text
        assert "rejects=3/50" in text
        assert "shards=30/20" in text
        plain = LegalizationTrace()
        assert shard_summary(plain) == "backend=python workers=1"
