"""Multiprocess sharded kernel backend.

The paper's parallelism argument is that legalization parallelises
across *independent local regions*: two target cells whose search
windows never touch cannot influence each other, because every read
(region extraction, density estimation) and every write (cell shifts,
the committed target position) stays inside the target's window.  This
backend turns that observation into a host-side execution engine with
two strategies, both producing results **bit-for-bit identical** to the
sequential reference:

**Static sharding** (spread-out designs).  The run's initial search
windows are grouped into connected components by rectangle overlap and
packed onto worker processes
(:func:`repro.core.task_assignment.plan_shards`).  Each worker runs the
plain sequential legalizer — restricted to its shard's targets, in the
*global* processing order — on its mirror of the layout; the parent
merges placements and work records back in global order.  Cross-worker
window disjointness makes the merge provably exact.  The one hazard is
window *expansion* (a retry grows the window, possibly into another
worker's territory): workers record every target's final window, the
parent validates them with
:func:`repro.core.task_assignment.find_escaped_conflicts`, and on any
cross-worker escape it discards the parallel results and re-runs
sequentially on the untouched parent layout.

**Speculative wavefront** (dense designs, where every window overlaps
transitively into one component).  Workers evaluate targets
optimistically against the committed prefix of the run; the coordinator
commits results strictly in global processing order and validates each
result against the commits that landed after its dispatch: if any such
commit's touched area intersects the target's final window, the result
is discarded and the target re-evaluated at the commit frontier — where
acceptance is guaranteed, because nothing can commit past a blocked
frontier.  Accepted results are therefore always computed on exactly
the layout state the sequential interleaving would have shown, work
counters included; speculation only ever costs time, never exactness.

**Execution substrate: one persistent pool, zero-copy state.**  All
three engines (static shards, wavefront targets, intra-region point
chunks) run on a single pool of worker processes that lives for the
backend's lifetime: forked lazily on first use, reused across
``legalize`` / ``legalize_subset`` calls (critical for ECO streams,
which previously paid a fork + full-layout pickle per batch), and torn
down by :meth:`MultiprocessKernelBackend.close`, the context-manager
exit, or a :mod:`weakref` finalizer when the backend is dropped or the
interpreter exits.  Workers never unpickle a layout: cell state is
published into a shared-memory float64 block
(:mod:`repro.kernels.shm`) that workers attach zero-copy and refresh
from when a task carries a newer epoch — only target-index slices and
placement/work results travel over the pipes.

**When sharding loses.**  Per-target round-trips and result pickling
still cost real time, so small designs — or heavily contended dense
designs where most speculations get rejected — are faster on the plain
``numpy`` backend; :attr:`MultiprocessKernelBackend
.min_parallel_targets` short-circuits tiny runs to the sequential inner
backend, and ``shard_stats`` in the trace records the rejection rate so
sweeps can see where the crossover sits.

The kernel-level methods (curves, minimization, SACS chains) delegate to
the inner sequential backend, so ``"multiprocess"`` is also a valid
drop-in kernel backend for per-region work.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import weakref
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.kernels.base import KernelBackend
from repro.obs import metrics as obs_metrics
from repro.obs import span

#: Environment variable overriding the default worker count (used by the
#: CI equivalence matrix to sweep pool sizes without code changes).
WORKERS_ENV_VAR = "REPRO_MP_WORKERS"

#: Exceptions ``pickle.dumps`` raises for unpicklable legalizer
#: configurations (exotic orderings / shifters); the backend falls back
#: to an equivalent non-pool path instead of crashing the run.
_UNPICKLABLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


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
    # Worker *count* is result-neutral by construction (shard plans and
    # merges are worker-count-invariant), so sizing the pool by the host
    # is sanctioned here and nowhere else.
    return max(1, min(8, os.cpu_count() or 1))  # repro: allow[det-cpu-count]


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def _execute_shard(layout, legalizer, cell_indices: Sequence[int]):
    """Run the sequential legalizer over one static shard's targets.

    Returns ``(works, failed, placements)`` where ``placements`` holds
    ``(cell_index, x, y)`` for every cell the shard actually *touched*
    (placed targets plus shifted obstacles) — the parent applies only
    the entries that changed, so shipping the untouched majority of the
    layout back over the pipe would be pure overhead.
    """
    works = []
    failed: List[int] = []
    touched = set()
    orig_move = layout.move_obstacle
    orig_mark = layout.mark_legalized

    def recording_move(cell, new_x):
        touched.add(cell.index)
        orig_move(cell, new_x)

    def recording_mark(cell, x, y):
        touched.add(cell.index)
        orig_mark(cell, x, y)

    layout.move_obstacle = recording_move
    layout.mark_legalized = recording_mark
    try:
        for index in cell_indices:
            target = layout.cells[index]
            if target.legalized:
                continue
            placed, work = legalizer._legalize_cell(layout, target)
            works.append(work)
            if not placed:
                failed.append(index)
    finally:
        layout.move_obstacle = orig_move
        layout.mark_legalized = orig_mark
    placements = [
        (index, layout.cells[index].x, layout.cells[index].y)
        for index in sorted(touched)
        if layout.cells[index].legalized and not layout.cells[index].fixed
    ]
    return works, failed, placements


def _apply_commits(layout, commits, move_fn=None, place_fn=None) -> None:
    """Replay committed mutations onto a layout.

    ``commits`` entries are ``("move", cell_index, new_x)`` or
    ``("place", cell_index, x, y)``; the optional function overrides let
    callers bypass recording wrappers.
    """
    move_fn = move_fn or layout.move_obstacle
    place_fn = place_fn or layout.mark_legalized
    for entry in commits:
        if entry[0] == "move":
            move_fn(layout.cells[entry[1]], entry[2])
        else:
            place_fn(layout.cells[entry[1]], entry[2], entry[3])


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
    """Evaluate one insertion-point chunk with the sequential FOP stages.

    ``payload`` is ``(blob, points)`` where ``blob`` is the pickled
    ``(region, target, params)`` broadcast; returns one ``(best_x, cost,
    work_tuple)`` triple per point.  Stateless: the region travels with
    the task, so any pool worker can serve any region of any run.
    """
    from repro.kernels import get_kernel_backend
    from repro.mgl.fop import FOPConfig, evaluate_point_list
    from repro.mgl.shifting import OriginalShifter

    blob, points = payload
    region, target, params = pickle.loads(blob)
    backend = get_kernel_backend(params["inner"])
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


def _evaluate_wave(layout, legalizer, payload):
    """Speculatively evaluate one wavefront target, report, undo.

    The mirror layout tracks the *committed* state of the run: the task
    carries the commit delta since this worker's last wave task, and the
    worker's own speculative mutations are undone after reporting.
    """
    target_index, commit_delta = payload
    _apply_commits(layout, commit_delta)
    recording: List[Tuple] = []
    orig_move = layout.move_obstacle
    orig_mark = layout.mark_legalized

    def recording_move(cell, new_x):
        recording.append(("move", cell.index, cell.x, float(new_x)))
        orig_move(cell, new_x)

    def recording_mark(cell, x, y):
        recording.append(
            ("place", cell.index, cell.x, cell.y, cell.legalized, float(x), float(y))
        )
        orig_mark(cell, x, y)

    layout.move_obstacle = recording_move
    layout.mark_legalized = recording_mark
    try:
        placed, work = legalizer._legalize_cell(layout, layout.cells[target_index])
    finally:
        layout.move_obstacle = orig_move
        layout.mark_legalized = orig_mark
    commits = [
        ("move", entry[1], entry[3])
        if entry[0] == "move"
        else ("place", entry[1], entry[5], entry[6])
        for entry in recording
    ]
    for entry in reversed(recording):
        cell = layout.cells[entry[1]]
        if entry[0] == "move":
            orig_move(cell, entry[2])
        else:
            layout.unmark_legalized(cell, entry[2], entry[3], entry[4])
    return target_index, placed, work, commits


def _pool_worker(conn) -> None:
    """Persistent pool worker: serve tasks until told to quit.

    Message protocol (parent -> worker): ``None`` shuts the worker down;
    anything else is ``(kind, sync, payload)`` where ``sync`` is the
    optional shared-memory catch-up built by
    :meth:`repro.kernels.shm.SharedCellStore.build_sync` (piggybacked on
    the first task after each publish).  Every task gets exactly one
    reply: ``("ok", result, telemetry)`` or ``("err", traceback_text,
    telemetry)`` — keeping the pipe protocol in lock-step even when a
    task raises, so one bad shard cannot wedge the pool.  ``telemetry``
    is the worker's drained metrics-registry snapshot (per-task wall
    time, shm refresh counters; ``None`` when empty): the parent merges
    it into the process-wide registry, which is how worker-side metrics
    surface without any side channel.
    """
    import time as _time
    import traceback

    from repro.kernels.shm import WorkerLayoutMirror
    from repro.obs import metrics as obs_metrics
    from repro.obs import span

    # The fork copied the parent's registry contents; forget them so the
    # drained deltas below never re-ship what the parent already has.
    obs_metrics.REGISTRY.reset()
    mirror = WorkerLayoutMirror()
    legalizer = None
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            kind, sync, payload = message
            task_start = _time.perf_counter()
            try:
                with span("mp.worker_task", kind=kind):
                    if sync is not None:
                        blob = sync.pop("legalizer", None)
                        if blob is not None:
                            legalizer = pickle.loads(blob)
                        mirror.apply_sync(sync)
                    elif kind == "shard" and mirror.stale:
                        # A second shard at the same epoch: reset the mirror
                        # to the published state (shards are window-disjoint,
                        # but placements must be computed against the run's
                        # initial layout, not a sibling shard's output).
                        mirror.refresh()
                    if kind == "shard":
                        mirror.stale = True
                        result = _execute_shard(mirror.layout, legalizer, payload)
                    elif kind == "wave":
                        mirror.stale = True
                        result = _evaluate_wave(mirror.layout, legalizer, payload)
                    elif kind == "points":
                        result = _evaluate_points(payload)
                    else:
                        raise ValueError(f"unknown pool task {kind!r}")
            except BaseException:
                conn.send(("err", traceback.format_exc(), obs_metrics.REGISTRY.drain()))
                continue
            obs_metrics.observe(
                "repro_worker_task_seconds",
                _time.perf_counter() - task_start,
                kind=kind,
            )
            conn.send(("ok", result, obs_metrics.REGISTRY.drain()))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        mirror.close()
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
    """One pool worker process plus what it has seen of the world."""

    __slots__ = (
        "process",
        "conn",
        "epoch",
        "design_rev",
        "n_cells",
        "shm_name",
        "legalizer_rev",
    )

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.epoch = -1
        self.design_rev = -1
        self.n_cells = 0
        self.shm_name = None
        self.legalizer_rev = -1


class _PoolState:
    """Everything :func:`_shutdown_pool` must reap.

    Kept separate from the backend object so a :mod:`weakref` finalizer
    can own it without keeping the backend alive — the old
    ``atexit.register(self.close)`` pattern pinned the backend (and its
    workers) in memory forever.
    """

    def __init__(self, use_shared_memory: Optional[bool] = None) -> None:
        from repro.kernels.shm import SharedCellStore

        self.workers: List[_PoolWorkerHandle] = []
        self.store = SharedCellStore(use_shared_memory)
        self.legalizer_blob: Optional[bytes] = None
        self.legalizer_rev = 0


def _shutdown_pool(state: _PoolState) -> None:
    """Reap a pool: polite shutdown, then join, then terminate."""
    workers, state.workers = state.workers, []
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
    state.store.close()


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class MultiprocessKernelBackend(KernelBackend):
    """Shards legalization runs across worker processes.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``$REPRO_MP_WORKERS`` or
        ``min(8, cpu_count)``.  Results never depend on the worker count.
    inner:
        Sequential backend executing the numeric kernels inside each
        worker (and for all per-region delegation).  Defaults to
        ``"numpy"`` when available, else ``"python"``.
    use_processes:
        When False the static shards execute serially in-process on
        layout copies — the identical partition/merge/validation
        machinery without any :mod:`multiprocessing`, used by the
        property-based shard-invariant tests (and as the automatic
        fallback on platforms without ``fork``).
    min_parallel_targets:
        Runs with fewer pending targets go straight to the sequential
        inner backend (sharding overhead would dominate).
    strategy:
        ``"auto"`` (default) picks static sharding when the window
        components split well and the speculative wavefront otherwise;
        ``"static"`` / ``"wavefront"`` force one engine.

    The worker pool is **persistent**: forked lazily on first use and
    reused by every subsequent run until :meth:`close` (also invoked by
    ``with backend: ...``, by a finalizer when the backend is garbage
    collected, and at interpreter exit).  ``close()`` is idempotent and
    non-terminal — the next run simply forks a fresh pool.
    """

    name = "multiprocess"
    supports_layout_parallel = True
    supports_point_parallel = True

    #: ``auto``: use static sharding only when no shard exceeds this
    #: fraction of the run (otherwise one worker does nearly everything).
    STATIC_BALANCE_LIMIT = 0.6

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

    def __init__(
        self,
        workers: Optional[int] = None,
        inner: Optional[object] = None,
        *,
        use_processes: bool = True,
        min_parallel_targets: int = 8,
        strategy: str = "auto",
    ) -> None:
        from repro.kernels import available_backends, resolve_backend

        if inner is None:
            inner = "numpy" if "numpy" in available_backends() else "python"
        self.inner = resolve_backend(inner)
        if self.inner.supports_layout_parallel:
            raise ValueError("inner backend must be a sequential kernel backend")
        self.workers = default_worker_count() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if strategy not in ("auto", "static", "wavefront"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.use_processes = use_processes
        self.min_parallel_targets = min_parallel_targets
        self.strategy = strategy
        #: Shard statistics of the most recent run (also recorded in the
        #: trace); useful for benchmarks and reports.
        self.last_shard_stats: Optional[Dict[str, Any]] = None
        self._pool: Optional[_PoolState] = None
        self._pool_finalizer = None
        #: Total worker processes forked over the backend's lifetime;
        #: stays flat across runs while the pool is being reused (the
        #: pool-reuse tests assert on it).
        self.workers_spawned = 0
        self._point_parallel_regions = 0

    # ------------------------------------------------------------------
    # Kernel-level delegation (per-region work is sequential)
    # ------------------------------------------------------------------
    def build_curves(self, region, target, bottom_row, outcome, vertical_cost_factor):
        return self.inner.build_curves(
            region, target, bottom_row, outcome, vertical_cost_factor
        )

    def minimize(self, curves, lo, hi, *, preferred_x=None, fwd_bwd=False):
        return self.inner.minimize(
            curves, lo, hi, preferred_x=preferred_x, fwd_bwd=fwd_bwd
        )

    def evaluate(self, curves, xs):
        return self.inner.evaluate(curves, xs)

    def minimize_batch(self, curve_sets, bounds, *, preferred_x=None, fwd_bwd=False):
        return self.inner.minimize_batch(
            curve_sets, bounds, preferred_x=preferred_x, fwd_bwd=fwd_bwd
        )

    def evaluate_batch(self, curve_sets, queries):
        return self.inner.evaluate_batch(curve_sets, queries)

    def score_points(self, region, target, points, config):
        return self.inner.score_points(region, target, points, config)

    def build_sacs_context(self, region):
        return self.inner.build_sacs_context(region)

    def shift_sacs(self, region, target, insertion, context):
        return self.inner.shift_sacs(region, target, insertion, context)

    # ------------------------------------------------------------------
    # Persistent pool management
    # ------------------------------------------------------------------
    def _ensure_pool(self, n_workers: Optional[int] = None) -> _PoolState:
        """Fork the pool up to the needed size (never past ``workers``)."""
        target = (
            self.workers
            if n_workers is None
            else max(1, min(self.workers, n_workers))
        )
        if self._pool is None:
            self._pool = _PoolState()
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        state = self._pool
        if len(state.workers) < target:
            try:
                # Start the parent's resource tracker *before* forking:
                # workers attach shared memory, and a child that inherits
                # no live tracker fd spawns its own tracker, which
                # "cleans up" (unlinks) the parent's segment when the
                # worker exits.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - platform-specific
                pass
            ctx = multiprocessing.get_context("fork")
            while len(state.workers) < target:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_pool_worker, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                state.workers.append(_PoolWorkerHandle(process, parent_conn))
                self.workers_spawned += 1
        return state

    def _publish(self, state: _PoolState, layout, worker_legalizer) -> None:
        """Stage the layout into shared memory and version the legalizer.

        The legalizer blob is pickled first so an unpicklable
        configuration fails *before* the store's epoch moves (callers
        fall back to a non-pool path on :data:`_UNPICKLABLE_ERRORS`).
        Workers never call the ordering, so it is normalised to the
        default before pickling — closure orderings must not break the
        pool path.
        """
        from repro.mgl.legalizer import size_descending_order

        if hasattr(worker_legalizer, "ordering"):
            worker_legalizer.ordering = size_descending_order
        with span("mp.publish") as sp:
            blob = pickle.dumps(worker_legalizer, pickle.HIGHEST_PROTOCOL)
            state.store.publish(layout)
            if blob != state.legalizer_blob:
                state.legalizer_blob = blob
                state.legalizer_rev += 1
            sp.set(epoch=state.store.epoch, n_cells=state.store.n_cells)

    def _send_task(
        self, state: _PoolState, worker: _PoolWorkerHandle, kind: str, payload
    ) -> None:
        """Send one task, piggybacking the sync if the worker is behind."""
        sync = None
        if kind != "points" and worker.epoch != state.store.epoch:
            sync = state.store.build_sync(worker)
            if worker.legalizer_rev != state.legalizer_rev:
                sync["legalizer"] = state.legalizer_blob
                worker.legalizer_rev = state.legalizer_rev
            worker.epoch = state.store.epoch
            worker.design_rev = state.store.design_rev
            worker.n_cells = state.store.n_cells
            worker.shm_name = state.store.shm_name
        worker.conn.send((kind, sync, payload))

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
        """Tear down the persistent worker pool and its shared memory.

        Idempotent, and not terminal: the next sharded run (or
        point-parallel region) lazily forks a fresh pool.  Also invoked
        by the context-manager exit, by a finalizer when the backend is
        garbage collected, and at interpreter exit — so dropped
        backends and aborted runs cannot leak worker processes.
        """
        state, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if state is not None:
            _shutdown_pool(state)

    def __enter__(self) -> "MultiprocessKernelBackend":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Intra-region insertion-point parallelism (the paper's FOP-PE axis)
    # ------------------------------------------------------------------
    def should_parallelize_fop(self, region, points) -> bool:
        """Farm out only regions whose FOP dwarfs the shipping cost."""
        if self.workers < 2 or not self.use_processes or not _fork_available():
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
        workers run the exact
        sequential FOP stages on theirs, against a region blob that is
        pickled once and broadcast.  Chunks are dealt round-robin so
        systematically expensive stretches of the enumeration spread
        across workers, and the reassembled results are index-aligned
        with ``points`` — work records match the sequential
        single-context run bit for bit.  Shift outcomes of worker points
        are not shipped back (the caller re-derives the winner's).

        Only the original shifter's staged pipeline is farmed out.  SACS
        regions go to the fused native kernel, which scores a region in
        less time than shipping it to a worker; on a host without the
        kernel they run the reference shifter sequentially, like every
        other shifter type.
        """
        from repro.mgl.fop import evaluate_point_list
        from repro.mgl.shifting import OriginalShifter

        if not isinstance(config.shifter, OriginalShifter):
            return evaluate_point_list(region, target, points, config, self)
        state = self._ensure_pool()
        pool = state.workers
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
            "inner": self.inner.name,
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
                self._send_task(
                    state, worker, "points", (blob, [p for g in share for p in groups[g]])
                )
            self._point_parallel_regions += 1
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
            self.close()
            raise
        return results

    # ------------------------------------------------------------------
    # Layout-level sharded execution
    # ------------------------------------------------------------------
    def legalize_sharded(self, legalizer, layout, ordered, trace, *, clusters=None) -> List[int]:
        """Legalize ``ordered`` targets of ``layout``, sharded over workers.

        Called by :meth:`repro.mgl.legalizer.MGLLegalizer.legalize` (and
        by ``legalize_subset`` for incremental/ECO runs — ``ordered`` is
        always an explicit target subset and is never widened here)
        after pre-move and ordering; fills ``trace`` exactly like the
        sequential path and returns the failed cell indices.

        ``clusters`` optionally carries the spatial dirty clusters of an
        ECO subset (lists of cell indices); the static shard planner
        uses them as seeds so each dirty neighbourhood stays on one
        worker.  Results are cluster-independent — seeding only changes
        the packing, never the outcome.
        """
        stats: Dict[str, Any] = {
            "inner_backend": self.inner.name,
            "workers": self.workers,
            "mode": "sequential",
            "sequential_rerun": False,
            "escaped_targets": 0,
            "speculation_rejects": 0,
        }
        self.last_shard_stats = stats
        trace.shard_stats = stats
        self._point_parallel_regions = 0
        try:
            with span("mp.legalize_sharded", targets=len(ordered)) as sp:
                failed = self._legalize_sharded_impl(
                    legalizer, layout, ordered, trace, stats, clusters
                )
                sp.set(mode=stats["mode"], workers=self.workers)
            obs_metrics.inc("repro_mp_dispatches_total", mode=stats["mode"])
            return failed
        finally:
            stats["point_parallel_regions"] = self._point_parallel_regions
            stats["pool_workers_spawned"] = self.workers_spawned
            # Report the processes that actually executed FOP work: 1 for
            # runs that short-circuited to the sequential path end to end
            # (and for the in-process test mode, which forks nothing).
            pool_ran = (
                stats["mode"] in ("static", "wavefront")
                or self._point_parallel_regions > 0
            )
            trace.worker_count = self.workers if pool_ran else 1

    def _legalize_sharded_impl(
        self, legalizer, layout, ordered, trace, stats, clusters=None
    ) -> List[int]:
        from repro.core.task_assignment import plan_shards

        n_workers = min(self.workers, max(1, len(ordered)))
        parallel_viable = (
            n_workers > 1
            and len(ordered) >= self.min_parallel_targets
            and (not self.use_processes or _fork_available())
        )
        if not parallel_viable:
            return legalizer._legalize_ordered(layout, ordered, trace)

        plan = plan_shards(
            layout,
            ordered,
            n_workers,
            cluster_seeds=clusters,
            **legalizer.window_params(),
        )
        stats.update(plan.stats())

        largest = max((len(s) for s in plan.shards), default=0)
        static_splits_well = (
            plan.parallelism() >= 2
            and largest <= self.STATIC_BALANCE_LIMIT * len(ordered)
        )
        if self.strategy == "static" or not self.use_processes:
            engine = "static"
        elif self.strategy == "wavefront":
            engine = "wavefront"
        else:
            # auto: shard statically when the windows split into balanced
            # independent groups; otherwise drive sequentially and let
            # the intra-region point-parallel hook carry the heavy
            # regions (dense designs serialise both across-region modes,
            # exactly the paper's Sec. 5.4 observation about CPU
            # region-level threading).
            engine = "static" if static_splits_well else "points"

        if engine == "points":
            stats["mode"] = "point-parallel"
            return legalizer._legalize_ordered(layout, ordered, trace)
        worker_legalizer = legalizer.with_backend(self.inner)
        if engine == "static":
            if plan.parallelism() <= 1:
                # One connected component: nothing to shard statically.
                stats["mode"] = "point-parallel"
                return legalizer._legalize_ordered(layout, ordered, trace)
            return self._run_static(
                legalizer, layout, worker_legalizer, ordered, trace, plan, stats
            )
        return self._run_wavefront(
            legalizer, layout, worker_legalizer, ordered, trace, stats
        )

    # ------------------------------------------------------------------
    # Static sharding engine
    # ------------------------------------------------------------------
    def _run_static(self, legalizer, layout, worker_legalizer, ordered, trace, plan, stats):
        stats["mode"] = "static" if self.use_processes else "in-process"
        with span("mp.shards", n_shards=len(plan.shards)):
            shard_results = self._execute_shards(
                layout, worker_legalizer, plan.shard_descriptors()
            )

        conflicts = self._validate_static(plan, shard_results)
        stats["escaped_targets"] = len(conflicts)
        if conflicts:
            # A window expansion crossed into another worker: the parallel
            # results may differ from the sequential interleaving.  The
            # parent layout is untouched, so the deterministic answer is
            # one sequential pass over the original input.
            stats["sequential_rerun"] = True
            return legalizer._legalize_ordered(layout, ordered, trace)
        return self._merge_static(layout, ordered, trace, shard_results)

    def _execute_shards(self, layout, worker_legalizer, shards):
        """Run every static shard, on the persistent pool or in-process."""
        if not self.use_processes or not _fork_available():
            return [
                _execute_shard(layout.copy(), worker_legalizer, shard)
                for shard in shards
            ]
        nonempty = [pos for pos, shard in enumerate(shards) if len(shard)]
        results: List[Tuple] = [([], [], []) for _ in shards]
        if not nonempty:
            return results
        try:
            # The pool is sized by the *configured* worker count, capped
            # at the number of non-empty shards — a planner emitting more
            # shards than workers queues them round-robin instead of
            # oversubscribing the host with one process per shard.
            state = self._ensure_pool(len(nonempty))
            self._publish(state, layout, worker_legalizer)
        except _UNPICKLABLE_ERRORS:
            return [
                _execute_shard(layout.copy(), worker_legalizer, shard)
                for shard in shards
            ]
        active = state.workers[: min(len(state.workers), len(nonempty))]
        pending = {worker_id: deque() for worker_id in range(len(active))}
        conn_index = {active[i].conn: i for i in range(len(active))}
        try:
            for k, pos in enumerate(nonempty):
                worker_id = k % len(active)
                self._send_task(state, active[worker_id], "shard", shards[pos])
                pending[worker_id].append(pos)
            outstanding = len(nonempty)
            while outstanding:
                busy = [
                    active[i].conn for i in range(len(active)) if pending[i]
                ]
                for conn in mp_connection.wait(busy):
                    worker_id = conn_index[conn]
                    payload = self._recv_reply(active[worker_id])
                    results[pending[worker_id].popleft()] = payload
                    outstanding -= 1
        except _WorkerTaskError as exc:
            self.close()
            raise RuntimeError(
                "multiprocess shard worker failed:\n" + exc.details
            ) from None
        except BaseException:
            # Shard exception, transport death or KeyboardInterrupt: reap
            # the whole pool so no worker is left mid-protocol (the next
            # run forks a fresh one).
            self.close()
            raise
        return results

    @staticmethod
    def _validate_static(plan, shard_results) -> List[int]:
        """Cross-worker escape check over the windows actually used."""
        from repro.core.task_assignment import TargetWindowRect, find_escaped_conflicts

        final_windows: Dict[int, TargetWindowRect] = {}
        for works, _failed, _placements in shard_results:
            for work in works:
                rect = work.final_window
                if rect is None:  # pragma: no cover - defensive
                    rect = (0.0, float("inf"), 0, 1 << 30)
                final_windows[work.cell_index] = TargetWindowRect(
                    work.cell_index, rect[0], rect[1], rect[2], rect[3]
                )
        return find_escaped_conflicts(plan, final_windows)

    @staticmethod
    def _merge_static(layout, ordered, trace, shard_results) -> List[int]:
        """Apply shard placements and rebuild the trace in global order."""
        updates: Dict[int, Tuple[float, float]] = {}
        works_by_cell = {}
        failed_set = set()
        for works, failed, placements in shard_results:
            for work in works:
                works_by_cell[work.cell_index] = work
            failed_set.update(failed)
            for index, x, y in placements:
                cell = layout.cells[index]
                if not cell.legalized or cell.x != x or cell.y != y:
                    updates[index] = (x, y)
        for index, (x, y) in updates.items():
            cell = layout.cells[index]
            cell.x = x
            cell.y = y
            cell.legalized = True
        layout.rebuild_index()

        failed: List[int] = []
        for target in ordered:
            work = works_by_cell.get(target.index)
            if work is None:
                continue
            trace.add_target(work)
            trace.region_build_ops += work.region_transfer_words
            trace.update_ops += work.update_moved_cells + 1
            if target.index in failed_set:
                failed.append(target.index)
        return failed

    # ------------------------------------------------------------------
    # Speculative wavefront engine
    # ------------------------------------------------------------------
    def _run_wavefront(self, legalizer, layout, worker_legalizer, ordered, trace, stats):
        from repro.core.task_assignment import TargetWindowRect

        stats["mode"] = "wavefront"
        targets = [cell.index for cell in ordered if not cell.legalized]
        n = len(targets)
        n_workers = min(self.workers, n)

        try:
            state = self._ensure_pool(n_workers)
            self._publish(state, layout, worker_legalizer)
        except _UNPICKLABLE_ERRORS:
            stats["mode"] = "point-parallel"
            return legalizer._legalize_ordered(layout, ordered, trace)
        active = state.workers[: min(len(state.workers), n_workers)]
        n_workers = len(active)
        rank_of: List[Optional[int]] = [None] * n_workers
        conn_index = {active[i].conn: i for i in range(n_workers)}

        #: Commit log: one entry per accepted target, ``(hazard_rects,
        #: commits)`` in global processing order.  ``hazard_rects`` holds
        #: one rectangle per position the commit touched (old and new spot
        #: of every moved cell) — a rect *list*, not a bounding box: a
        #: premove position far from the final placement must not smear
        #: the hazard area across the chip.
        commit_log: List[Tuple[List[TargetWindowRect], List[Tuple]]] = []
        #: Never speculate more than this many ranks past the commit
        #: frontier: deeper results are near-certain to be invalidated by
        #: the commits that must land before their turn, so evaluating
        #: them early only burns a second evaluation.
        max_depth = n_workers + 2
        sync_pos = [0] * n_workers  # commit-log position each worker has seen
        sent_pos: Dict[int, int] = {}  # rank -> log position at dispatch
        buffered: Dict[int, Tuple] = {}  # rank -> (placed, work, commits)
        retry_rank: Optional[int] = None
        next_dispatch = 0
        frontier = 0
        failed: List[int] = []
        rejects = 0

        def hazard_rects_of(work, commits) -> List[TargetWindowRect]:
            """One rectangle per position a commit touched (old and new)."""
            rects: List[TargetWindowRect] = []

            def add(x, y, width, height):
                rects.append(
                    TargetWindowRect(
                        work.cell_index, x, x + width, int(y), -int(-(y + height))
                    )
                )

            for entry in commits:
                cell = layout.cells[entry[1]]
                if entry[0] == "move":
                    add(cell.x, cell.y, cell.width, cell.height)  # old spot
                    add(entry[2], cell.y, cell.width, cell.height)  # new spot
                else:
                    add(cell.x, cell.y, cell.width, cell.height)  # pre-move spot
                    add(entry[2], entry[3], cell.width, cell.height)  # placement
            return rects

        def dispatch(worker_id: int) -> bool:
            nonlocal next_dispatch, retry_rank
            if retry_rank is not None:
                rank = retry_rank
                retry_rank = None
            elif next_dispatch < n and next_dispatch < frontier + max_depth:
                rank = next_dispatch
                next_dispatch += 1
            else:
                return False
            delta = [
                move
                for _, commits in commit_log[sync_pos[worker_id] :]
                for move in commits
            ]
            sync_pos[worker_id] = len(commit_log)
            sent_pos[rank] = len(commit_log)
            self._send_task(
                state, active[worker_id], "wave", (targets[rank], delta)
            )
            rank_of[worker_id] = rank
            return True

        try:
            while frontier < n:
                for worker_id in range(n_workers):
                    if rank_of[worker_id] is None:
                        dispatch(worker_id)
                busy = [
                    active[i].conn
                    for i in range(n_workers)
                    if rank_of[i] is not None
                ]
                if not busy:  # pragma: no cover - defensive
                    raise RuntimeError("wavefront stalled with work pending")
                for conn in mp_connection.wait(busy):
                    worker_id = conn_index[conn]
                    _target_index, placed, work, commits = self._recv_reply(
                        active[worker_id]
                    )
                    buffered[rank_of[worker_id]] = (placed, work, commits)
                    rank_of[worker_id] = None
                while frontier in buffered:
                    placed, work, commits = buffered.pop(frontier)
                    rect = work.final_window
                    window = TargetWindowRect(
                        work.cell_index, rect[0], rect[1], rect[2], rect[3]
                    )
                    hazard = any(
                        window.overlaps(rect)
                        for rects, _ in commit_log[sent_pos[frontier] :]
                        for rect in rects
                    )
                    if hazard:
                        # Stale state: re-evaluate at the frontier, where
                        # no further commits can intrude.
                        rejects += 1
                        retry_rank = frontier
                        break
                    commit_rects = hazard_rects_of(work, commits)
                    _apply_commits(layout, commits)
                    commit_log.append((commit_rects, commits))
                    trace.add_target(work)
                    trace.region_build_ops += work.region_transfer_words
                    trace.update_ops += work.update_moved_cells + 1
                    if not placed:
                        failed.append(work.cell_index)
                    frontier += 1
        except _WorkerTaskError as exc:
            self.close()
            raise RuntimeError(
                "multiprocess wavefront worker failed:\n" + exc.details
            ) from None
        except BaseException:
            self.close()
            raise

        stats["speculation_rejects"] = rejects
        stats["commits"] = len(commit_log)
        return failed
