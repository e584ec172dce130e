"""The legalization daemon: a threaded multi-client TCP server.

One :class:`LegalizationServer` owns a listening socket, an accept loop
and one handler thread per connection.  Connections are cheap and
stateless — sessions are addressed by name, so a client may open a
session on one connection and feed it from several others (that is what
makes the per-session queue's coalescing reachable).  The daemon itself
holds no placement state outside its sessions.

Admission control
-----------------
Two knobs bound what concurrent traffic can pin down:

* ``max_sessions`` — ``open_session`` beyond it is rejected with the
  ``session_limit`` error code (a session *is* a resident design plus,
  for multiprocess sessions, a private worker pool; admitting unbounded
  sessions is how a daemon OOMs politely).
* ``max_inflight`` — delta batches queued or applying across *all*
  sessions.  ``apply_deltas`` beyond it is rejected with ``busy``
  instead of queueing: under overload the daemon stays responsive and
  pushes backpressure to clients, who retry.

Shutdown is a graceful drain: new work is rejected with
``shutting_down``, every session queue is drained and closed (releasing
worker pools), then the listener goes down.  ``shutdown`` requests,
SIGINT in the CLI, and ``close()`` from a hosting test all take that
same path.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.designio.serialize import layout_from_dict
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.obs.metrics import prometheus_text
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    error_response,
    ok_response,
    recv_frame,
    request_field,
    send_frame,
)
from repro.service.session import Session, SessionConfig


@dataclass
class ServeConfig:
    """Daemon knobs (the CLI mirrors these as ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on server.address
    max_sessions: int = 8
    max_inflight: int = 64
    #: Default kernel backend of sessions that do not pick their own.
    default_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")


class _InflightGauge:
    """Server-wide count of delta batches queued or applying.

    Sessions acquire one slot per batch at enqueue time and release it
    when the batch finishes; an acquire past the limit raises the
    ``busy`` admission error instead of blocking, so overload turns into
    immediate backpressure rather than a convoy.
    """

    #: Lock-discipline contract, enforced statically by ``repro lint``.
    _GUARDED_BY = {"_count": "_lock"}

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._count = 0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            if self._count >= self.limit:
                raise ProtocolError(
                    "busy",
                    f"admission control: {self.limit} batches already in flight",
                )
            self._count += 1

    def release(self) -> None:
        with self._lock:
            self._count -= 1

    @property
    def value(self) -> int:
        with self._lock:
            return self._count


class LegalizationServer:
    """Serve concurrent ECO streams over length-prefixed JSON frames.

    Usage (in-process, as the tests and the bench do)::

        server = LegalizationServer(ServeConfig(port=0))
        server.start()                      # accept loop on a thread
        host, port = server.address
        ...
        server.close()                      # drain + stop

    or blocking, as the CLI does: ``server.serve_forever()``.
    """

    #: Lock-discipline contract, enforced statically by ``repro lint``
    #: (rule ``lck-unguarded``): these attributes may only be touched
    #: under ``self._mutex`` outside ``__init__``.
    _GUARDED_BY = {
        "_sessions": "_mutex",
        "_closed_sessions": "_mutex",
        "_draining": "_mutex",
        "_session_counter": "_mutex",
    }

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        # Resolve the sessions' default backend now: a bad spelling must
        # fail before the daemon binds, not in every later open_session.
        SessionConfig(backend=self.config.default_backend).validate()
        self._sessions: Dict[str, Optional[Session]] = {}
        self._closed_sessions: set = set()
        self._mutex = threading.Lock()
        self._inflight = _InflightGauge(self.config.max_inflight)
        self._draining = False
        self._stopped = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: list = []
        self._session_counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self):
        """``(host, port)`` actually bound (port resolved when ephemeral)."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def start(self) -> "LegalizationServer":
        """Bind, listen, and run the accept loop on a daemon thread."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        self._listener.settimeout(0.2)  # poll so close() can stop the loop
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """:meth:`start` + block until a shutdown request (or close())."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting, drain and close every session, stop the loop."""
        with self._mutex:
            if self._stopped.is_set() and not self._sessions:
                return
            self._draining = True
            # Placeholders (opens still constructing) stay: _op_open_session
            # sees _draining afterwards and tears its session down itself.
            sessions = [s for s in self._sessions.values() if s is not None]
            for session in sessions:
                del self._sessions[session.name]
            self._closed_sessions.update(s.name for s in sessions)
        if drain:
            for session in sessions:
                session.close(return_ledger=False)
        else:
            for session in sessions:
                session.engine.close()
        self._stopped.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()

    def __enter__(self) -> "LegalizationServer":
        return self.start() if self._listener is None else self

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True,
            )
            thread.start()
            self._conn_threads = [t for t in self._conn_threads if t.is_alive()]
            self._conn_threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection: a request/response loop until EOF or a fatal frame.

        Every failure an individual request can produce becomes a
        structured error *response*; only framing violations that poison
        the byte stream (bad magic, oversized declaration, mid-frame
        disconnect) end the connection — and even then the daemon and
        every session sail on.
        """
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request = recv_frame(conn)
                except ConnectionClosed:
                    return
                except ProtocolError as exc:
                    self._best_effort_error(conn, None, exc)
                    if exc.fatal:
                        return
                    continue
                except OSError:
                    return
                op = request.get("op")
                try:
                    response = self._dispatch(op, request)
                except ProtocolError as exc:
                    response = error_response(op if isinstance(op, str) else None,
                                              exc.code, str(exc))
                except Exception as exc:  # pragma: no cover - defensive
                    response = error_response(
                        op if isinstance(op, str) else None,
                        "internal", f"{type(exc).__name__}: {exc}",
                    )
                hangup = bool(response.pop("_hangup", False))
                try:
                    send_frame(conn, response)
                except OSError:
                    return  # client went away; its session is untouched
                if hangup:
                    return

    @staticmethod
    def _best_effort_error(conn: socket.socket, op: Optional[str],
                           exc: ProtocolError) -> None:
        try:
            send_frame(conn, error_response(op, exc.code, str(exc)))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, op: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(op, str):
            raise ProtocolError("bad_request", "request has no string 'op' field")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError("unknown_op", f"unknown op {op!r}")
        # Per-op telemetry: one latency observation and one status-coded
        # request count per handled request.  Only *known* ops become
        # label values, so a misbehaving client cannot mint unbounded
        # metric series.
        status = "ok"
        start = time.perf_counter()
        try:
            with span("svc.op", op=op):
                return handler(request)
        except ProtocolError as exc:
            status = exc.code
            raise
        except Exception:  # pragma: no cover - defensive
            status = "internal"
            raise
        finally:
            obs_metrics.observe(
                "repro_op_latency_seconds", time.perf_counter() - start, op=op
            )
            obs_metrics.inc("repro_requests_total", op=op, status=status)

    def _session_for(self, request: Dict[str, Any]) -> Session:
        name = request_field(request, "session", str)
        with self._mutex:
            if name in self._sessions:
                session = self._sessions[name]
                if session is None:
                    # Another connection's open_session is still running
                    # its base legalization; back off and retry.
                    raise ProtocolError("busy", f"session {name!r} is still opening")
                return session
            if name in self._closed_sessions:
                raise ProtocolError("session_closed", f"session {name!r} is closed")
        raise ProtocolError("unknown_session", f"no session named {name!r}")

    # --- ops ----------------------------------------------------------
    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._mutex:
            sessions = len(self._sessions)
            draining = self._draining
        inflight = self._inflight.value
        return ok_response(
            "ping",
            version=PROTOCOL_VERSION,
            sessions=sessions,
            inflight=inflight,
            max_sessions=self.config.max_sessions,
            max_inflight=self.config.max_inflight,
            draining=draining,
        )

    def _op_open_session(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._mutex:
            if self._draining:
                raise ProtocolError(
                    "shutting_down", "daemon is draining; no new sessions"
                )
        design = request_field(request, "design", dict)
        config = SessionConfig.from_request(
            request, default_backend=self.config.default_backend
        )
        try:
            layout_from_dict(design)  # validate before claiming a session slot
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad_request", f"invalid design payload: {exc}") from None
        requested = request_field(request, "session", str, required=False)
        with self._mutex:
            if len(self._sessions) >= self.config.max_sessions:
                raise ProtocolError(
                    "session_limit",
                    f"admission control: {self.config.max_sessions} sessions "
                    "already open",
                )
            self._session_counter += 1
            name = requested or f"s{self._session_counter}"
            if name in self._sessions or name in self._closed_sessions:
                raise ProtocolError(
                    "bad_request", f"session name {name!r} already in use"
                )
            # Reserve the slot before the (slow) base legalization so two
            # racing opens cannot both claim the last one.
            self._sessions[name] = None
        try:
            session = Session(name, design, config, inflight=self._inflight)
        except Exception as exc:
            with self._mutex:
                del self._sessions[name]
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(
                "bad_request", f"failed to open session: {exc}"
            ) from None
        with self._mutex:
            if self._draining:
                # close() ran while the base legalization did; it left our
                # placeholder alone, so tear the session down ourselves.
                del self._sessions[name]
                drained = True
            else:
                self._sessions[name] = session
                drained = False
        if drained:
            session.close(return_ledger=False)
            raise ProtocolError("shutting_down", "daemon is draining; no new sessions")
        return ok_response(
            "open_session",
            session=name,
            config=config.to_dict(),
            **session.base_stats,
        )

    def _op_apply_deltas(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._mutex:
            if self._draining:
                raise ProtocolError(
                    "shutting_down", "daemon is draining; no new batches"
                )
        session = self._session_for(request)
        deltas = request_field(request, "deltas", list)
        wait = bool(request_field(request, "wait", bool, required=False, default=True))
        # Admission happens inside submit: the session acquires one
        # in-flight slot per batch at enqueue (raising "busy" at the
        # limit) and holds it until the batch is applied — so queued
        # fire-and-forget batches count too, not just blocking callers.
        result = session.submit(deltas, wait=wait)
        return ok_response("apply_deltas", session=session.name, **result)

    def _server_stats(self) -> Dict[str, Any]:
        """Daemon-wide operational counters (queue/admission visibility)."""
        with self._mutex:
            sessions = {
                name: s for name, s in self._sessions.items() if s is not None
            }
            draining = self._draining
        return {
            "sessions": len(sessions),
            "max_sessions": self.config.max_sessions,
            "inflight": self._inflight.value,
            "max_inflight": self.config.max_inflight,
            "queue_depths": {
                name: s.queue_depth() for name, s in sessions.items()
            },
            "draining": draining,
        }

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session_for(request)
        if request_field(request, "wait", bool, required=False, default=False):
            session.barrier()
        return ok_response("stats", server=self._server_stats(), **session.stats())

    def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The live registry plus per-session engine summaries.

        ``format: "prometheus"`` additionally renders the snapshot in the
        Prometheus text exposition format (the ``text`` response field).
        """
        fmt = request_field(request, "format", str, required=False, default="json")
        if fmt not in ("json", "prometheus"):
            raise ProtocolError(
                "bad_request", f"unknown metrics format {fmt!r} (json, prometheus)"
            )
        server = self._server_stats()
        with self._mutex:
            sessions = {
                name: s for name, s in self._sessions.items() if s is not None
            }
        # Liveness gauges are refreshed at scrape time so the snapshot is
        # current; per-session depth gauges are rebuilt from the live
        # session set so closed sessions do not linger as stale series.
        obs_metrics.set_gauge("repro_inflight", server["inflight"])
        obs_metrics.set_gauge("repro_inflight_limit", server["max_inflight"])
        obs_metrics.set_gauge("repro_sessions_open", server["sessions"])
        obs_metrics.set_gauge("repro_sessions_limit", server["max_sessions"])
        obs_metrics.clear_gauge("repro_session_queue_depth")
        session_summaries = {}
        for name, session in sessions.items():
            depth = server["queue_depths"].get(name, 0)
            obs_metrics.set_gauge("repro_session_queue_depth", depth, session=name)
            session_summaries[name] = {
                "queue_depth": depth,
                **session.counters(),
                "engine": session.engine.lifetime_summary(),
            }
        snapshot = obs_metrics.REGISTRY.snapshot()
        response = ok_response(
            "metrics",
            server=server,
            sessions=session_summaries,
            metrics=snapshot,
        )
        if fmt == "prometheus":
            response["text"] = prometheus_text(snapshot)
        return response

    def _op_repack(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._mutex:
            if self._draining:
                raise ProtocolError(
                    "shutting_down", "daemon is draining; no new work"
                )
        session = self._session_for(request)
        wait = bool(request_field(request, "wait", bool, required=False, default=False))
        result = session.request_repack(wait=wait)
        return ok_response("repack", session=session.name, **result)

    def _op_close_session(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session_for(request)
        with self._mutex:
            self._sessions.pop(session.name, None)
            self._closed_sessions.add(session.name)
        final = session.close(
            return_layout=bool(
                request_field(request, "return_layout", bool, required=False,
                              default=False)
            ),
            return_ledger=bool(
                request_field(request, "return_ledger", bool, required=False,
                              default=True)
            ),
        )
        return ok_response("close_session", **final)

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        drain = bool(request_field(request, "drain", bool, required=False, default=True))
        with self._mutex:
            sessions = len(self._sessions)
        # Drain on a helper thread so this handler can still answer the
        # requester (close() joins the accept loop, not this thread).
        threading.Thread(
            target=self.close, kwargs={"drain": drain},
            name="repro-serve-shutdown", daemon=True,
        ).start()
        response = ok_response("shutdown", sessions_drained=sessions, draining=drain)
        response["_hangup"] = True
        return response
