"""Per-design sessions of the legalization service.

One :class:`Session` owns one design: a private
:class:`~repro.incremental.IncrementalLegalizer` configured with the
session's kernel backend and governor knobs, plus a FIFO
apply queue.  Any number of connections may submit batches to a session;
the queue's *dispatcher* — whichever submitting thread wins the
``_dispatching`` flag — applies them strictly in arrival order, one
``engine.apply`` per batch, so results are independent of how many
clients raced.  A thread that finds a dispatcher already running simply
leaves its batch in the queue: the running dispatcher picks it up in the
same drain (that is the *coalescing* — back-to-back batches for one
session cost one dispatch, not one lock round trip each) and the
submitter waits on its own completion event.

The replay ledger
-----------------
Every successfully applied operation is appended to the session's
*ledger* — batches as their raw delta JSON objects, explicit repacks as
markers.  :func:`offline_replay` re-runs a ledger through a fresh
engine built from the same design and config; because the engine is
deterministic on every backend at any worker count, the replayed layout
must be **bit-for-bit identical** to the session's live layout
(:func:`repro.designio.layout_fingerprint` compares them cheaply).
That is the service's headline contract, and what the concurrent soak
in ``tests/test_service.py`` / ``benchmarks/test_bench_service.py``
asserts.  Batches that fail validation mutate nothing and are *not*
recorded; batches whose re-legalization leaves cells unplaced are
recorded (the failure itself is deterministic and replays identically).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.designio.serialize import layout_fingerprint, layout_from_dict, layout_to_dict
from repro.obs import metrics as obs_metrics
from repro.geometry.layout import Layout
from repro.incremental.deltas import Delta, delta_from_dict
from repro.incremental.engine import DEFAULT_FULL_THRESHOLD, IncrementalLegalizer
from repro.kernels import get_kernel_backend
from repro.service.protocol import ProtocolError


# ----------------------------------------------------------------------
# Session configuration (the per-session knobs of open_session)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionConfig:
    """Engine knobs one ``open_session`` request may set.

    ``backend`` is any :func:`repro.kernels.get_kernel_backend` spelling;
    sessions share the resolver's instance per spelling.  That is safe
    because a served engine runs SACS, whose regions the native search
    scores in-process: a ``multiprocess`` session never starts its pool.
    """

    backend: Optional[str] = None
    full_threshold: float = DEFAULT_FULL_THRESHOLD
    max_avedis_drift: Optional[float] = None
    repack_every: Optional[int] = None
    max_fragmentation_drift: Optional[float] = None

    _FIELDS = (
        "backend",
        "full_threshold",
        "max_avedis_drift",
        "repack_every",
        "max_fragmentation_drift",
    )

    @classmethod
    def from_request(cls, request: Dict[str, Any],
                     default_backend: Optional[str] = None) -> "SessionConfig":
        """Build a config from request fields, rejecting unknown/ill-typed knobs."""
        config = request.get("config", {})
        if not isinstance(config, dict):
            raise ProtocolError(
                "bad_request", f"'config' must be an object, got {type(config).__name__}"
            )
        unknown = sorted(set(config) - set(cls._FIELDS))
        if unknown:
            raise ProtocolError(
                "bad_request", f"unknown session config knob(s): {', '.join(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        for name in cls._FIELDS:
            if name in config and config[name] is not None:
                kwargs[name] = config[name]
        if "backend" not in kwargs and default_backend is not None:
            kwargs["backend"] = default_backend
        try:
            out = cls(**kwargs)
            out.validate()
        except (TypeError, ValueError, KeyError) as exc:
            raise ProtocolError("bad_request", f"invalid session config: {exc}") from None
        return out

    def validate(self) -> None:
        """Raise on a bad backend spelling or knob value, touching nothing.

        The backend is resolved eagerly (legalizers only resolve it on
        first use, far too late for a request-time error), then a
        throwaway engine is built so every numeric knob goes through the
        same range checks the engine itself enforces.
        """
        if self.backend is not None:
            try:
                get_kernel_backend(self.backend)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        self.make_engine().close()

    def make_engine(self) -> IncrementalLegalizer:
        """A fresh engine with this config (used live and by the replay)."""
        return IncrementalLegalizer(
            backend=self.backend,
            full_threshold=float(self.full_threshold),
            max_avedis_drift=self.max_avedis_drift,
            repack_every=self.repack_every,
            max_fragmentation_drift=self.max_fragmentation_drift,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELDS}


# ----------------------------------------------------------------------
# Queue items
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """One queued operation: a delta batch, a repack, or a barrier."""

    kind: str  # "batch" | "repack" | "barrier"
    seq: int = 0
    deltas: List[Delta] = field(default_factory=list)
    raw_deltas: List[Dict[str, Any]] = field(default_factory=list)
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[Dict[str, Any]] = None
    error: Optional[ProtocolError] = None
    #: Batches (beyond the first) this item shared a dispatch with.
    coalesced: bool = False
    #: Enqueue timestamp (perf_counter) for the queue-wait histogram.
    enqueued_at: float = 0.0


class SessionClosed(ProtocolError):
    """Submitting to a session that has been closed."""

    def __init__(self, name: str) -> None:
        super().__init__("session_closed", f"session {name!r} is closed")


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class Session:
    """One served design: engine + apply queue + replay ledger.

    ``inflight`` is an optional admission gauge shared across a server's
    sessions: it is acquired per delta batch at enqueue time (raising
    ``busy`` when the server-wide in-flight limit is reached, before
    anything is queued) and released when the batch finishes, however it
    finishes — so fire-and-forget batches count against the limit for as
    long as they actually occupy the daemon.
    """

    #: Lock-discipline contract, enforced statically by ``repro lint``
    #: (rule ``lck-unguarded``): these attributes may only be touched
    #: under ``self._mutex`` outside ``__init__``.
    _GUARDED_BY = {
        "_queue": "_mutex",
        "_dispatching": "_mutex",
        "_closed": "_mutex",
        "_failed": "_mutex",
        "_seq": "_mutex",
        "dispatches": "_mutex",
        "coalesced_batches": "_mutex",
        "failed_batches": "_mutex",
        "async_errors": "_mutex",
        "ledger": "_mutex",
    }

    def __init__(self, name: str, design: Dict[str, Any], config: SessionConfig,
                 *, inflight=None) -> None:
        self.name = name
        self.config = config
        self._inflight = inflight
        #: The design as received — the replay starts from this, so it is
        #: kept verbatim rather than re-serialized from the live layout.
        self.design = design
        self.engine = config.make_engine()
        self.ledger: List[Dict[str, Any]] = []
        self._queue: Deque[_Pending] = deque()
        self._mutex = threading.Lock()
        self._dispatching = False
        self._closed = False
        self._failed: Optional[str] = None  # internal-error message, fatal
        self._seq = 0
        self.dispatches = 0
        self.coalesced_batches = 0
        self.failed_batches = 0
        #: Errors of fire-and-forget (``wait: false``) batches, newest last.
        self.async_errors: List[Dict[str, Any]] = []
        layout = layout_from_dict(design)
        base = self.engine.begin(layout)
        self.base_stats = {
            "num_cells": len(layout.cells),
            "num_movable": len(layout.movable_cells()),
            "base_legalized": base is not None,
            "base_avedis": (
                base.average_displacement
                if base is not None
                else self.engine.lifetime_summary()["avedis"]
            ),
            "base_success": base.success if base is not None else True,
        }

    # ------------------------------------------------------------------
    @property
    def layout(self) -> Optional[Layout]:
        return self.engine.layout

    @property
    def closed(self) -> bool:
        with self._mutex:
            return self._closed

    def queue_depth(self) -> int:
        with self._mutex:
            return len(self._queue)

    def counters(self) -> Dict[str, int]:
        """Dispatcher counters as one consistent snapshot."""
        with self._mutex:
            return {
                "dispatches": self.dispatches,
                "coalesced_batches": self.coalesced_batches,
                "failed_batches": self.failed_batches,
            }

    # ------------------------------------------------------------------
    # Submission API (called from connection-handler threads)
    # ------------------------------------------------------------------
    def submit(self, raw_deltas: Sequence[Dict[str, Any]], *, wait: bool = True
               ) -> Dict[str, Any]:
        """Queue one delta batch; apply it (or let the dispatcher) in order.

        With ``wait`` the caller blocks until its batch was applied and
        gets the per-batch result; without, the batch is left for the
        active (or next) dispatcher and a ``{"queued": seq}`` stub comes
        back immediately — any failure is recorded in
        :attr:`async_errors` and surfaces through ``stats`` / close.
        """
        deltas = self._parse_batch(raw_deltas)
        item = _Pending(kind="batch", deltas=deltas, raw_deltas=list(raw_deltas))
        self._enqueue(item)
        if not wait:
            self._kick()
            return {"queued": True, "seq": item.seq}
        self._drive(item)
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result

    def request_repack(self, *, wait: bool = False) -> Dict[str, Any]:
        """Schedule a repack behind the queued batches (off the hot path)."""
        item = _Pending(kind="repack")
        self._enqueue(item)
        if not wait:
            self._kick()
            return {"queued": True, "seq": item.seq}
        self._drive(item)
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result

    def barrier(self) -> None:
        """Wait until everything queued before this call has been applied."""
        item = _Pending(kind="barrier")
        self._enqueue(item)
        self._drive(item)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A point-in-time summary (racy by nature; barrier first if exact)."""
        summary = self.engine.lifetime_summary()
        layout = self.engine.layout
        with self._mutex:
            counters = {
                "closed": self._closed,
                "failed": self._failed,
                "queue_depth": len(self._queue),
                "dispatches": self.dispatches,
                "coalesced_batches": self.coalesced_batches,
                "failed_batches": self.failed_batches,
                "async_errors": len(self.async_errors),
                "ledger_entries": len(self.ledger),
            }
        return {
            "session": self.name,
            "config": self.config.to_dict(),
            **counters,
            "engine": summary,
            "fingerprint": layout_fingerprint(layout) if layout is not None else None,
            **self.base_stats,
        }

    def close(self, *, return_layout: bool = False, return_ledger: bool = True
              ) -> Dict[str, Any]:
        """Drain the queue, release the engine, and report the final state."""
        with self._mutex:
            already = self._closed
            self._closed = True
        if not already:
            # Wait out whatever was queued before the close won the flag.
            barrier = _Pending(kind="barrier")
            with self._mutex:
                self._seq += 1
                barrier.seq = self._seq
                self._queue.append(barrier)
            self._drive(barrier)
        final = self.stats()
        if return_ledger:
            # The queue is drained and the session closed, but snapshot
            # under the mutex anyway: stats() above may race a ledger
            # append from a dispatcher that started before the close.
            with self._mutex:
                final["ledger"] = list(self.ledger)
        if return_layout and self.engine.layout is not None:
            final["layout"] = layout_to_dict(self.engine.layout)
        self.engine.close()
        return final

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _parse_batch(self, raw_deltas: Sequence[Dict[str, Any]]) -> List[Delta]:
        if not isinstance(raw_deltas, list):
            raise ProtocolError(
                "bad_request",
                f"'deltas' must be a list of delta objects, got "
                f"{type(raw_deltas).__name__}",
            )
        try:
            return [delta_from_dict(entry) for entry in raw_deltas]
        except (ValueError, TypeError) as exc:
            raise ProtocolError("invalid_deltas", str(exc)) from None

    def _enqueue(self, item: _Pending) -> None:
        with self._mutex:
            if self._failed is not None:
                raise ProtocolError("session_failed", self._failed)
            if self._closed:
                raise SessionClosed(self.name)
            if item.kind == "batch" and self._inflight is not None:
                self._inflight.acquire()  # raises "busy" before queueing
            self._seq += 1
            item.seq = self._seq
            item.enqueued_at = time.perf_counter()
            self._queue.append(item)

    def _finish(self, item: _Pending) -> None:
        """Complete ``item``: release its admission slot, wake its waiter."""
        if item.kind == "batch" and self._inflight is not None:
            self._inflight.release()
        item.done.set()

    def _drive(self, item: _Pending) -> None:
        """Become the dispatcher if none is active, then await ``item``."""
        self._kick()
        item.done.wait()

    def _kick(self) -> None:
        """Run the dispatcher unless one is already draining the queue.

        The ``_dispatching`` flag is only cleared while holding the
        mutex *and* observing an empty queue, so an item enqueued while
        a dispatcher runs is guaranteed to be drained by it — never
        stranded.  An item enqueued after the flag cleared finds
        ``_kick`` willing to dispatch again.
        """
        with self._mutex:
            if self._dispatching or not self._queue:
                return
            self._dispatching = True
        try:
            while True:
                batches = 0
                with self._mutex:
                    if not self._queue:
                        self._dispatching = False
                        return
                    items = list(self._queue)
                    self._queue.clear()
                    self.dispatches += 1
                    batches = sum(1 for it in items if it.kind == "batch")
                    if batches > 1:
                        self.coalesced_batches += batches - 1
                obs_metrics.inc("repro_session_dispatches_total")
                if batches > 1:
                    obs_metrics.inc(
                        "repro_session_coalesced_batches_total", batches - 1
                    )
                    for it in items[1:]:
                        it.coalesced = True
                drained_at = time.perf_counter()
                for it in items:
                    if it.kind == "batch":
                        obs_metrics.observe(
                            "repro_queue_wait_seconds", drained_at - it.enqueued_at
                        )
                    self._apply_one(it)
                    self._finish(it)
        except BaseException:
            # A dispatcher must never die with the flag held: fail what
            # it took responsibility for, free the flag, re-raise.
            with self._mutex:
                self._dispatching = False
                stranded = list(self._queue)
                self._queue.clear()
            for it in stranded:
                it.error = ProtocolError("internal", "dispatcher crashed")
                self._finish(it)
            raise

    def _apply_one(self, item: _Pending) -> None:
        """Apply one queued item on the engine; never raises."""
        if item.kind == "barrier":
            item.result = {"ok": True}
            return
        with self._mutex:
            failed = self._failed
        if failed is not None:
            item.error = ProtocolError("session_failed", failed)
            self._record_async_error(item)
            return
        try:
            # Correlation ids for every span the engine (and the kernel
            # backend below it) emits while this item applies.
            with obs.context(session=self.name, batch=item.seq):
                if item.kind == "repack":
                    result = self.engine.repack()
                    with self._mutex:
                        self.ledger.append({"kind": "repack"})
                else:
                    result = self.engine.apply(item.deltas)
                    with self._mutex:
                        self.ledger.append(
                            {"kind": "batch", "deltas": item.raw_deltas}
                        )
        except ValueError as exc:
            # validate_deltas rejected the batch: nothing mutated, the
            # session stays fully usable, the batch is not in the ledger.
            item.error = ProtocolError("invalid_deltas", str(exc))
            self._record_async_error(item)
            return
        except Exception as exc:  # pragma: no cover - defensive
            # apply() only raises past validation on an internal error,
            # after which it drops the engine's layout: the session is
            # dead, but the daemon and every other session live on.
            message = f"{type(exc).__name__}: {exc}"
            with self._mutex:
                self._failed = message
            item.error = ProtocolError("session_failed", message)
            self._record_async_error(item)
            return
        stats = result.stats
        if not result.success:
            with self._mutex:
                self.failed_batches += 1
        item.result = {
            "seq": item.seq,
            "mode": stats.mode,
            "success": result.success,
            "deltas_applied": stats.deltas_applied,
            "dirty_total": stats.dirty_total,
            "reused_cells": stats.reused_cells,
            "num_movable": stats.num_movable,
            "avedis": stats.avedis,
            "avedis_drift": stats.avedis_drift,
            "repack_reason": stats.repack_reason,
            "repacks_total": stats.repacks_total,
            "wall_seconds": stats.wall_seconds,
            "coalesced": item.coalesced,
        }

    def _record_async_error(self, item: _Pending) -> None:
        if item.error is not None:
            with self._mutex:
                self.async_errors.append(
                    {"seq": item.seq, "code": item.error.code,
                     "message": str(item.error)}
                )


# ----------------------------------------------------------------------
# The exactness oracle of the service layer
# ----------------------------------------------------------------------
def offline_replay(design: Dict[str, Any], ledger: Sequence[Dict[str, Any]],
                   config: Optional[SessionConfig] = None) -> Layout:
    """Replay a session ledger through a fresh engine, offline.

    Feeds the recorded operations — delta batches and explicit repacks,
    in served order — to a new :class:`IncrementalLegalizer` built from
    the same design and config.  The returned layout must be bit-for-bit
    identical to the live session's final layout
    (:func:`repro.designio.layout_fingerprint` of both must agree): the
    daemon's queueing, coalescing and concurrency must never change a
    single placement.
    """
    config = config or SessionConfig()
    layout = layout_from_dict(design)
    engine = config.make_engine()
    try:
        engine.begin(layout)
        for entry in ledger:
            kind = entry.get("kind", "batch")
            if kind == "repack":
                engine.repack()
            elif kind == "batch":
                engine.apply([delta_from_dict(d) for d in entry["deltas"]])
            else:
                raise ValueError(f"unknown ledger entry kind {kind!r}")
    finally:
        engine.close()
    return layout
