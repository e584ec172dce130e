"""Persistent-pool lifecycle tests.

The multiprocess backend keeps one worker pool per backend lifetime and
chunks heavy regions' insertion points across it.  This module covers
the machinery the equivalence suites exercise only implicitly: pool
reuse across runs (fork exactly once), teardown (no live children after
``close()``, after dropping the backend, or after a worker task raises),
and the legalizer-level lifecycle hooks.  Every backend here has its
point-parallel thresholds forced down, so each original-shifter region
runs on the pool.
"""

from __future__ import annotations

import gc
import multiprocessing

import pytest

from repro.geometry import Cell, Layout
from repro.kernels import MultiprocessKernelBackend
from repro.mgl.legalizer import MGLLegalizer

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def spread_layout() -> Layout:
    """Six well-separated clusters of eight single-row cells."""
    layout = Layout(12, 2000, name="spread")
    index = 0
    for cluster in range(6):
        base = 40.0 + cluster * 300.0
        for i in range(8):
            layout.add_cell(
                Cell(
                    index=index,
                    width=4.0,
                    height=1,
                    gp_x=base + 5.1 * i,
                    gp_y=float((i * 3) % 12),
                )
            )
            index += 1
    layout.rebuild_index()
    return layout


def forced_backend(workers: int = 2) -> MultiprocessKernelBackend:
    """A backend whose thresholds farm out every original-shifter region."""
    backend = MultiprocessKernelBackend(workers=workers)
    backend.POINT_PARALLEL_MIN_POINTS = 1
    backend.POINT_PARALLEL_MIN_WORK = 1
    return backend


def reference_placements():
    layout = spread_layout()
    MGLLegalizer(backend="python").legalize(layout)
    return [(c.x, c.y, c.legalized) for c in layout.cells]


def placements(layout: Layout):
    return [(c.x, c.y, c.legalized) for c in layout.cells]


def pool_procs(backend):
    """The live worker processes of a backend's current pool."""
    assert backend._pool
    return [w.process for w in backend._pool]


def assert_reaped(procs):
    """Every tracked worker process exited (asserts on *this* backend's
    workers, not on global ``active_children()`` — other suites may
    legitimately hold persistent pools of their own)."""
    assert procs and all(not p.is_alive() for p in procs)


@needs_fork
class TestPoolLifecycle:
    def test_pool_persists_across_runs(self):
        """Two consecutive legalize calls fork exactly once (same pids)."""
        backend = forced_backend()
        legalizer = MGLLegalizer(backend=backend)
        oracle = reference_placements()
        try:
            first = spread_layout()
            result = legalizer.legalize(first)
            assert result.trace.parallel_regions > 0
            assert placements(first) == oracle
            assert backend.workers_spawned == 2
            pids_first = sorted(p.pid for p in pool_procs(backend))

            second = spread_layout()
            legalizer.legalize(second)
            assert placements(second) == oracle
            # The same worker processes served both runs.
            assert backend.workers_spawned == 2
            pids_second = sorted(p.pid for p in pool_procs(backend))
            assert pids_first == pids_second
        finally:
            backend.close()

    def test_close_reaps_workers_and_is_idempotent(self):
        backend = forced_backend()
        MGLLegalizer(backend=backend).legalize(spread_layout())
        procs = pool_procs(backend)
        assert all(p.is_alive() for p in procs)
        backend.close()
        assert backend._pool is None
        assert_reaped(procs)
        backend.close()  # idempotent

    def test_close_is_not_terminal(self):
        """A closed backend lazily re-forks on the next run."""
        backend = forced_backend()
        oracle = reference_placements()
        try:
            MGLLegalizer(backend=backend).legalize(spread_layout())
            backend.close()
            layout = spread_layout()
            MGLLegalizer(backend=backend).legalize(layout)
            assert placements(layout) == oracle
            assert backend.workers_spawned == 4  # two pools over the lifetime
        finally:
            backend.close()

    def test_context_manager_closes_pool(self):
        with forced_backend() as backend:
            MGLLegalizer(backend=backend).legalize(spread_layout())
            procs = pool_procs(backend)
        assert backend._pool is None
        assert_reaped(procs)

    def test_dropped_backend_reaps_workers(self):
        """Garbage-collecting an unclosed backend must not leak workers."""
        backend = forced_backend()
        MGLLegalizer(backend=backend).legalize(spread_layout())
        procs = pool_procs(backend)
        assert all(p.is_alive() for p in procs)
        del backend
        gc.collect()
        assert_reaped(procs)

    def test_worker_task_error_tears_down_pool(self, monkeypatch):
        """A worker-side exception surfaces in the parent and reaps the pool."""
        from repro.kernels import mp_backend

        def broken_chunk(payload):
            raise ValueError("injected point-chunk failure")

        # Patched before the fork, so only the workers' chunks fail; the
        # parent scores its own chunk in-process.
        monkeypatch.setattr(mp_backend, "_evaluate_points", broken_chunk)
        backend = forced_backend()
        backend._ensure_pool()
        procs = pool_procs(backend)
        with pytest.raises(RuntimeError, match="injected point-chunk failure"):
            MGLLegalizer(backend=backend).legalize(spread_layout())
        assert backend._pool is None
        assert_reaped(procs)

    def test_legalizer_close_hands_through_to_backend(self):
        backend = forced_backend()
        legalizer = MGLLegalizer(backend=backend)
        legalizer.legalize(spread_layout())
        procs = pool_procs(backend)
        legalizer.close()
        assert backend._pool is None
        assert_reaped(procs)

    def test_legalizer_context_manager(self):
        backend = forced_backend()
        with MGLLegalizer(backend=backend) as legalizer:
            legalizer.legalize(spread_layout())
            procs = pool_procs(backend)
        assert backend._pool is None
        assert_reaped(procs)

    def test_incremental_engine_close(self):
        from repro.incremental.engine import IncrementalLegalizer

        backend = forced_backend()
        with IncrementalLegalizer(backend=backend) as engine:
            engine.begin(spread_layout())
            procs = pool_procs(backend)
        assert backend._pool is None
        assert_reaped(procs)

    def test_incremental_engine_close_tolerates_plain_legalizer(self):
        from repro.incremental.engine import IncrementalLegalizer

        class BareLegalizer:
            metrics = MGLLegalizer().metrics

            def legalize(self, layout):  # pragma: no cover - never called
                raise AssertionError

        engine = IncrementalLegalizer.__new__(IncrementalLegalizer)
        engine.legalizer = BareLegalizer()
        engine.close()  # must not raise on close-less legalizers

    def test_sequential_backend_close_is_noop(self):
        legalizer = MGLLegalizer(backend="python")
        legalizer.close()
        with MGLLegalizer(backend="python"):
            pass


@needs_fork
class TestSubsetRunsOnPool:
    def test_legalize_subset_reuses_pool(self):
        """ECO-style subset calls ride the same persistent pool."""
        backend = forced_backend()
        try:
            layout = spread_layout()
            legalizer = MGLLegalizer(backend=backend)
            legalizer.legalize(layout)
            spawned = backend.workers_spawned

            # Knock two far-apart clusters dirty and re-legalize them.
            reference = layout.copy()
            dirty_ref = [c for c in reference.cells if c.index in (0, 40)]
            for cell in dirty_ref:
                reference.unlegalize_cell(cell)
            MGLLegalizer(backend="python").legalize_subset(reference, dirty_ref)

            dirty = [c for c in layout.cells if c.index in (0, 40)]
            for cell in dirty:
                layout.unlegalize_cell(cell)
            result = legalizer.legalize_subset(layout, dirty)
            assert result.trace.parallel_regions > 0
            assert placements(layout) == placements(reference)
            assert backend.workers_spawned == spawned  # no re-fork
        finally:
            backend.close()
