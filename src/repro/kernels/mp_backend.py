"""Multiprocess point-parallel kernel backend.

The paper speeds up legalization by pipelining *inside* FOP, across the
insertion points of one localRegion (its FOP-PE axis), not by running
regions in parallel: Sec. 5.4 shows that region-level CPU threading
saturates on dense designs.  This backend is the host-side counterpart
of that axis.  It is the ``numpy`` backend plus a worker pool, and its
:meth:`~MultiprocessKernelBackend.search_region` makes the whole
point-parallel decision.  SACS regions go to the inherited native region
search, which searches a whole region in less time than shipping it to
a worker.  Any other region is enumerated once; when its candidate loop
is heavy enough (:meth:`MultiprocessKernelBackend.should_parallelize_fop`,
original shifter only) its insertion points are chunked across worker
processes, each worker runs the exact sequential FOP stages on its chunk
and the parent reassembles the scored points in enumeration order, so
placements and work records are **bit-for-bit identical** to the
sequential reference.  Lighter regions are scored in-process.

**One persistent pool.**  Workers are forked lazily on the first region
that needs them and reused by every later region and run (critical for
ECO streams), until :meth:`MultiprocessKernelBackend.close`, the
context-manager exit, or a :mod:`weakref` finalizer when the backend is
dropped or the interpreter exits.  A task is one pickled ``(region,
target, params)`` blob plus a point chunk; workers keep no state between
tasks.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import weakref
from typing import List, Optional, Tuple

from repro.kernels.base import KernelBackend
from repro.kernels.numpy_backend import NumpyKernelBackend
from repro.obs import metrics as obs_metrics

#: Environment variable overriding the default worker count (used by the
#: CI equivalence matrix to sweep pool sizes without code changes).
WORKERS_ENV_VAR = "REPRO_MP_WORKERS"


def parse_worker_count(value: str, *, source: str = WORKERS_ENV_VAR) -> int:
    """Parse a worker-count string, rejecting junk with a clear error.

    Raises :class:`ValueError` naming the offending ``source`` (the env
    var or the ``"multiprocess:N"`` spelling) for non-integer or < 1
    values, instead of letting ``int()`` / pool setup crash deep inside
    a run with an inscrutable traceback.
    """
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid worker count {value!r} from {source}: "
            "expected an integer >= 1"
        ) from None
    if workers < 1:
        raise ValueError(
            f"invalid worker count {workers} from {source}: must be >= 1"
        )
    return workers


def default_worker_count() -> int:
    """Worker-pool size: ``$REPRO_MP_WORKERS`` or ``min(8, cpu_count)``."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return parse_worker_count(env)
    # Worker *count* is result-neutral by construction (point chunks are
    # reassembled in enumeration order), so sizing the pool by the host
    # is sanctioned here and nowhere else.
    return max(1, min(8, os.cpu_count() or 1))  # repro: allow[det-cpu-count]


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: Transport field order of :class:`repro.perf.counters.InsertionPointWork`
#: (tuples pickle several times faster than dataclass instances).
_WORK_FIELDS = (
    "n_local_cells",
    "n_subcells",
    "shift_passes",
    "shift_cell_visits",
    "chain_left",
    "chain_right",
    "n_breakpoints",
    "n_merged_breakpoints",
    "sort_size",
    "multirow_accesses",
    "tall_accesses",
    "feasible",
)


def _encode_work(work) -> Tuple:
    return tuple(getattr(work, field) for field in _WORK_FIELDS)


def _decode_work(values: Tuple):
    from repro.perf.counters import InsertionPointWork

    return InsertionPointWork(**dict(zip(_WORK_FIELDS, values)))


def _evaluate_points(payload):
    """Evaluate one insertion-point chunk with the reference FOP stages.

    ``payload`` is ``(blob, points)`` where ``blob`` is the pickled
    ``(region, target, params)`` broadcast; returns one ``(best_x, cost,
    work_tuple)`` triple per point.  Stateless: the region travels with
    the task, so any pool worker can serve any region of any run.
    """
    from repro.mgl.fop import FOPConfig, evaluate_point_list
    from repro.mgl.shifting import OriginalShifter

    blob, points = payload
    region, target, params = pickle.loads(blob)
    backend = KernelBackend()
    shifter = OriginalShifter()
    config = FOPConfig(
        shifter=shifter,
        use_fwd_bwd_pipeline=params["fwd_bwd"],
        vertical_cost_factor=params["vcf"],
        backend=backend,
    )
    shifter.prepare(region)
    scored = evaluate_point_list(region, target, points, config, backend)
    return [(best_x, cost, _encode_work(work)) for _, best_x, cost, _, work in scored]


def _pool_worker(conn) -> None:
    """Persistent pool worker: score point chunks until told to quit.

    Message protocol (parent -> worker): ``None`` shuts the worker down;
    anything else is an :func:`_evaluate_points` payload.  Every task
    gets exactly one reply: ``("ok", result, telemetry)`` or ``("err",
    traceback_text, telemetry)`` — keeping the pipe protocol in
    lock-step even when a task raises.  ``telemetry`` is the worker's
    drained metrics-registry snapshot (per-task wall time; ``None`` when
    empty): the parent merges it into the process-wide registry, which
    is how worker-side metrics surface without any side channel.
    """
    import time as _time
    import traceback

    from repro.obs import metrics as obs_metrics
    from repro.obs import span

    # The fork copied the parent's registry contents; forget them so the
    # drained deltas below never re-ship what the parent already has.
    obs_metrics.REGISTRY.reset()
    try:
        while True:
            payload = conn.recv()
            if payload is None:
                return
            task_start = _time.perf_counter()
            try:
                with span("mp.worker_task"):
                    result = _evaluate_points(payload)
            except BaseException:
                conn.send(("err", traceback.format_exc(), obs_metrics.REGISTRY.drain()))
                continue
            obs_metrics.observe(
                "repro_worker_task_seconds", _time.perf_counter() - task_start
            )
            conn.send(("ok", result, obs_metrics.REGISTRY.drain()))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent-side pool state
# ----------------------------------------------------------------------
class _WorkerTaskError(Exception):
    """A pool worker's task raised; carries the worker-side traceback."""

    def __init__(self, details: str) -> None:
        super().__init__(details)
        self.details = details


class _PoolWorkerHandle:
    """One pool worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


def _shutdown_pool(workers: List[_PoolWorkerHandle]) -> None:
    """Reap a pool: polite shutdown, then join, then terminate.

    Takes the worker list rather than the backend so a :mod:`weakref`
    finalizer can own it without keeping the backend alive.
    """
    for worker in workers:
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):  # pragma: no cover - worker died
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
    for worker in workers:
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
            worker.process.join(timeout=1.0)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class MultiprocessKernelBackend(NumpyKernelBackend):
    """Chunks heavy FOP regions' insertion points across worker processes.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``$REPRO_MP_WORKERS`` or
        ``min(8, cpu_count)``.  Results never depend on the worker count.

    The worker pool is **persistent**: forked lazily on first use and
    reused by every subsequent region until :meth:`close` (also invoked
    by ``with backend: ...``, by a finalizer when the backend is garbage
    collected, and at interpreter exit).  ``close()`` is idempotent and
    non-terminal — the next parallel region simply forks a fresh pool.
    """

    name = "multiprocess"

    #: Intra-region parallelism thresholds: a region's FOP is farmed out
    #: only when it enumerates at least this many candidate points and
    #: the points x localCells product clears the work floor (below that
    #: the region/points round-trip costs more than the evaluation).
    POINT_PARALLEL_MIN_POINTS = 96
    POINT_PARALLEL_MIN_WORK = 20_000
    #: Per-region worker-side overhead (region unpickle, context rebuild,
    #: wakeup) as a fraction of one equal chunk's compute; the parent's
    #: share is biased up by this amount so parent and workers finish
    #: together.
    POINT_PARALLEL_OVERHEAD = 0.25

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self.workers = default_worker_count() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self._pool: Optional[List[_PoolWorkerHandle]] = None
        self._pool_finalizer = None
        #: Total worker processes forked over the backend's lifetime;
        #: stays flat across runs while the pool is being reused (the
        #: pool-reuse tests assert on it).
        self.workers_spawned = 0
        self.parallel_regions = 0

    # ------------------------------------------------------------------
    # Whole-region search: native for SACS, else point-parallel or local
    # ------------------------------------------------------------------
    def search_region(self, region, target, bottom_rows, config):
        """Search a region natively, on the pool, or in-process.

        SACS regions take the inherited native search.  Otherwise the
        region's insertion points are enumerated once and scored by
        :meth:`evaluate_points_parallel` when
        :meth:`should_parallelize_fop` says the region is heavy enough,
        else by the sequential stages in this process; both reduce
        exactly like :func:`repro.mgl.fop.search_points`.
        """
        from repro.mgl.fop import evaluate_point_list, reduce_points, region_points

        search = super().search_region(region, target, bottom_rows, config)
        if search is not None:
            return search
        points = region_points(region, target, bottom_rows)
        if self.should_parallelize_fop(region, points, config):
            scored = self.evaluate_points_parallel(region, target, points, config)
        else:
            scored = evaluate_point_list(region, target, points, config, self)
        return reduce_points(scored, target.gp_x)

    # ------------------------------------------------------------------
    # Persistent pool management
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> List[_PoolWorkerHandle]:
        """Fork the pool up to ``workers`` processes."""
        if self._pool is None:
            self._pool = []
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        pool = self._pool
        ctx = multiprocessing.get_context("fork")
        while len(pool) < self.workers:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_pool_worker, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            pool.append(_PoolWorkerHandle(process, parent_conn))
            self.workers_spawned += 1
        return pool

    def _recv_reply(self, worker: _PoolWorkerHandle):
        """Receive one task reply; tear the pool down on transport death.

        Every reply piggybacks the worker's drained metrics snapshot;
        merging it here (on both the ok and the err path) is what makes
        worker-side wall times visible in the process-wide registry.
        """
        try:
            status, payload, telemetry = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self.close()
            raise RuntimeError(
                "multiprocess pool worker died mid-task; pool torn down"
            ) from exc
        obs_metrics.REGISTRY.merge(telemetry)
        if status == "err":
            raise _WorkerTaskError(payload)
        return payload

    def close(self) -> None:
        """Tear down the persistent worker pool.

        Idempotent, and not terminal: the next point-parallel region
        lazily forks a fresh pool.  Also invoked by the context-manager
        exit, by a finalizer when the backend is garbage collected, and
        at interpreter exit — so dropped backends and aborted runs
        cannot leak worker processes.
        """
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            _shutdown_pool(pool)

    def __enter__(self) -> "MultiprocessKernelBackend":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Intra-region insertion-point parallelism (the paper's FOP-PE axis)
    # ------------------------------------------------------------------
    def should_parallelize_fop(self, region, points, config) -> bool:
        """Farm out only original-shifter regions whose FOP dwarfs the
        shipping cost.

        Any other shifter scores in-process: SACS regions go to the
        native region search, which is faster than a round-trip to a
        worker, and workers only rebuild the original shifter.
        """
        from repro.mgl.shifting import OriginalShifter

        if self.workers < 2 or not _fork_available():
            return False
        if not isinstance(config.shifter, OriginalShifter):
            return False
        n_points = len(points)
        return (
            n_points >= self.POINT_PARALLEL_MIN_POINTS
            and n_points * max(1, len(region.local_cells))
            >= self.POINT_PARALLEL_MIN_WORK
        )

    def evaluate_points_parallel(self, region, target, points, config):
        """Chunk one region's candidate loop across the worker pool.

        The parent evaluates one chunk itself (no idle coordinator);
        workers run the exact sequential FOP stages on theirs, against a
        region blob that is pickled once and broadcast.  Chunks are dealt
        round-robin so systematically expensive stretches of the
        enumeration spread across workers, and the reassembled results
        are index-aligned with ``points`` — work records match the
        sequential single-context run bit for bit.  Shift outcomes of
        worker points are not shipped back (the caller re-derives the
        winner's).  :meth:`search_region` gates this on
        :meth:`should_parallelize_fop`.
        """
        from repro.mgl.fop import evaluate_point_list

        pool = self._ensure_pool()
        # Chunk 0 runs in-parent; the fan-out honours the *configured*
        # worker count — a 2-worker backend (REPRO_MP_WORKERS=2 or
        # "multiprocess:2") must chunk for 2 workers regardless of how
        # many cores the machine has.  Results are chunking-independent.
        n_chunks = max(2, min(len(pool) + 1, len(points)))
        n_chunks = min(n_chunks, len(points))
        # Deal the points into fine stride groups and give the parent a
        # biased share: workers pay the region unpickle / context rebuild
        # / wakeup latency, so equal shares would leave the parent idle
        # at the end of every region.
        n_groups = 8 * n_chunks
        groups = [list(points[i::n_groups]) for i in range(n_groups)]
        parent_groups = min(
            n_groups - (n_chunks - 1),
            max(1, round(n_groups * (1.0 + self.POINT_PARALLEL_OVERHEAD) / n_chunks)),
        )
        shares: List[List[int]] = [list(range(parent_groups))]
        remaining = list(range(parent_groups, n_groups))
        n_workers_used = n_chunks - 1
        for w in range(n_workers_used):
            shares.append(remaining[w::n_workers_used])
        params = {
            "fwd_bwd": config.use_fwd_bwd_pipeline,
            "vcf": config.vertical_cost_factor,
        }
        blob = pickle.dumps((region, target, params), pickle.HIGHEST_PROTOCOL)
        results: List[Optional[Tuple]] = [None] * len(points)

        def place(share, scored):
            pos = 0
            for g in share:
                size = len(groups[g])
                results[g::n_groups] = scored[pos : pos + size]
                pos += size

        try:
            for worker, share in zip(pool, shares[1:]):
                worker.conn.send((blob, [p for g in share for p in groups[g]]))
            self.parallel_regions += 1
            obs_metrics.inc("repro_mp_point_regions_total")

            place(
                shares[0],
                evaluate_point_list(
                    region,
                    target,
                    [p for g in shares[0] for p in groups[g]],
                    config,
                    self,
                ),
            )
            for worker, share in zip(pool, shares[1:]):
                part = self._recv_reply(worker)
                decoded = [
                    (insertion, best_x, cost, None, _decode_work(work))
                    for insertion, (best_x, cost, work) in zip(
                        (p for g in share for p in groups[g]), part
                    )
                ]
                place(share, decoded)
        except _WorkerTaskError as exc:
            self.close()
            raise RuntimeError(
                "multiprocess point worker failed:\n" + exc.details
            ) from None
        except BaseException:
            # Transport death or KeyboardInterrupt: reap the whole pool so
            # no worker is left mid-protocol (the next region forks anew).
            self.close()
            raise
        return results
