"""Tests of the legalization service (daemon + sessions + protocol).

The load-bearing block is the concurrency contract: whatever
interleaving of clients, connections and queue coalescing the daemon
serves, every session's final placement must be **bit-for-bit
identical** to an offline :class:`~repro.incremental.IncrementalLegalizer`
replay of that session's served ledger — on every registered kernel
backend, at any worker count.  The protocol block exercises every
structured error path the wire can produce and asserts the daemon (and
innocent bystander sessions) survive each one.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.benchgen import EcoSpec, generate_eco_stream
from repro.designio import layout_fingerprint, layout_from_dict, layout_to_dict
from repro.incremental import IncrementalLegalizer
from repro.kernels import available_backends, get_kernel_backend
from repro.obs.metrics import find_series
from repro.service import (
    LegalizationServer,
    ServeConfig,
    ServiceClient,
    ServiceError,
    Session,
    SessionConfig,
    offline_replay,
)
from repro.service.protocol import MAGIC, recv_frame, send_frame
from repro.service.protocol import ProtocolError as ServiceErrorLike
from repro.service.server import _InflightGauge
from repro.testing import small_design

import numpy as np


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def legalized_copy(layout):
    """A legalized copy (streams must be generated against legal state)."""
    copy = layout.copy()
    engine = IncrementalLegalizer(backend="python")
    engine.begin(copy)
    engine.close()
    return copy


def eco_stream_for(layout, *, batches, seed, churn=0.05):
    """A seeded delta stream valid against ``layout`` after legalization."""
    return generate_eco_stream(
        legalized_copy(layout), EcoSpec(churn=churn, batches=batches, seed=seed)
    )


def move_only_batch(layout, rng, size=3):
    """Moves of existing movable cells only — valid in *any* apply order."""
    movable = [c for c in layout.cells if not c.fixed]
    picks = rng.choice(len(movable), size=min(size, len(movable)), replace=False)
    return [
        {
            "op": "move",
            "index": movable[int(i)].index,
            "gp_x": float(rng.uniform(0, layout.width - movable[int(i)].width)),
            "gp_y": float(rng.uniform(0, layout.num_rows - movable[int(i)].height)),
        }
        for i in picks
    ]


@pytest.fixture
def server():
    srv = LegalizationServer(ServeConfig(port=0)).start()
    yield srv
    srv.close()


def connect(srv, **kwargs):
    host, port = srv.address
    return ServiceClient(host, port, timeout=kwargs.pop("timeout", 30.0))


# ----------------------------------------------------------------------
# End-to-end service behaviour
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_single_session_round_trip(self, server):
        design = small_design(num_cells=90, density=0.55, seed=11)
        stream = eco_stream_for(design, batches=4, seed=5)
        with connect(server) as client:
            assert client.ping()["sessions"] == 0
            handle = client.open_session(
                design, config={"backend": "python", "max_avedis_drift": 0.05}
            )
            assert handle.opened["base_legalized"]
            for batch in stream:
                result = handle.apply(batch)
                assert result["success"]
                assert result["mode"] in ("incremental", "full", "repack", "noop")
            repack = handle.repack(wait=True)
            assert repack["mode"] == "repack"
            assert repack["repack_reason"] == "requested"
            stats = handle.stats()
            assert stats["engine"]["batches"] == len(stream) + 1
            final = handle.close()
            assert final["failed_batches"] == 0
            assert len(final["ledger"]) == len(stream) + 1
            assert handle.verify(final), "served layout != offline replay"

    def test_empty_batch_and_stats_wait(self, server):
        design = small_design(num_cells=60, density=0.5, seed=2)
        with connect(server) as client:
            handle = client.open_session(design, config={"backend": "python"})
            result = handle.apply([])
            assert result["mode"] == "noop"
            stats = handle.stats(wait=True)
            assert stats["queue_depth"] == 0
            final = handle.close()
            assert handle.verify(final)

    def test_async_submit_then_barrier(self, server):
        design = small_design(num_cells=70, density=0.5, seed=4)
        stream = eco_stream_for(design, batches=6, seed=9)
        with connect(server) as client:
            handle = client.open_session(design, config={"backend": "python"})
            for batch in stream:
                response = handle.apply(batch, wait=False)
                assert response["queued"]
            stats = handle.stats(wait=True)
            assert stats["ledger_entries"] == len(stream)
            assert stats["async_errors"] == 0
            final = handle.close()
            assert handle.verify(final)

    def test_final_layout_round_trip(self, server):
        design = small_design(num_cells=60, density=0.5, seed=6)
        stream = eco_stream_for(design, batches=2, seed=1)
        with connect(server) as client:
            handle = client.open_session(design, config={"backend": "python"})
            for batch in stream:
                handle.apply(batch)
            final = handle.close(return_layout=True)
            served = layout_from_dict(final["layout"])
            assert layout_fingerprint(served) == final["fingerprint"]

    def test_session_name_and_attach(self, server):
        design = small_design(num_cells=50, density=0.5, seed=8)
        with connect(server) as client_a, connect(server) as client_b:
            handle = client_a.open_session(
                design, session="mydesign", config={"backend": "python"}
            )
            assert handle.name == "mydesign"
            # A second connection addresses the same session by name.
            other = client_b.attach("mydesign")
            result = other.apply(move_only_batch(design, np.random.default_rng(0)))
            assert result["success"]
            final = handle.close()
            assert final["ledger"], "batch from the second connection not served"


# ----------------------------------------------------------------------
# The concurrency contract
# ----------------------------------------------------------------------
class TestConcurrentExactness:
    @pytest.mark.parametrize("backend", available_backends())
    def test_concurrent_clients_bit_for_bit(self, server, backend):
        """4 clients x 10 batches each: zero mismatches vs offline replay."""
        clients, batches = 4, 10
        config = {"backend": backend, "max_avedis_drift": 0.10}
        designs = [
            small_design(num_cells=80, density=0.55, seed=20 + i)
            for i in range(clients)
        ]
        streams = [
            eco_stream_for(designs[i], batches=batches, seed=100 + i, churn=0.05)
            for i in range(clients)
        ]
        results = [None] * clients
        errors = []

        def run_client(i):
            try:
                with connect(server, timeout=120.0) as client:
                    handle = client.open_session(designs[i], config=config)
                    for batch in streams[i]:
                        result = handle.apply(batch)
                        assert result["success"], f"client {i} batch failed"
                    final = handle.close()
                    results[i] = (handle, final)
            except Exception as exc:  # surface in the main thread
                errors.append((i, exc))

        threads = [
            threading.Thread(target=run_client, args=(i,)) for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, f"client errors: {errors}"
        for i, (handle, final) in enumerate(results):
            assert final["failed_batches"] == 0, f"client {i}"
            assert len(final["ledger"]) == batches, f"client {i}"
            assert handle.verify(final), (
                f"client {i}: served placement diverged from offline replay "
                f"on backend {backend!r}"
            )

    def test_two_connections_one_session_any_interleaving(self, server):
        """Racing writers: whatever order won, the ledger replays exactly."""
        design = small_design(num_cells=80, density=0.55, seed=31)
        batches_per_writer = 6
        config = {"backend": "python"}
        with connect(server) as opener:
            handle = opener.open_session(design, session="shared", config=config)

            def writer(seed):
                rng = np.random.default_rng(seed)
                with connect(server) as client:
                    writer_handle = client.attach("shared")
                    for _ in range(batches_per_writer):
                        writer_handle.apply(move_only_batch(design, rng))

            threads = [threading.Thread(target=writer, args=(s,)) for s in (1, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            final = handle.close()
            assert len(final["ledger"]) == 2 * batches_per_writer
            assert final["failed_batches"] == 0
            assert handle.verify(final), (
                "interleaved writers broke replay equality"
            )

    def test_served_multiprocess_session_never_forks(self, server):
        """Sessions share the resolver's backend instance per spelling.
        That is safe because a served engine runs SACS, which never
        reaches the worker pool (the pool tests use private instances)."""
        design = small_design(num_cells=80, density=0.55, seed=17)
        rng = np.random.default_rng(3)
        with connect(server) as client:
            handle = client.open_session(design, config={"backend": "multiprocess:2"})
            for _ in range(3):
                assert handle.apply(move_only_batch(design, rng))["success"]
            final = handle.close()
        assert final["failed_batches"] == 0 and handle.verify(final)
        assert get_kernel_backend("multiprocess:2").workers_spawned == 0


# ----------------------------------------------------------------------
# Coalescing and admission (deterministic, session-level)
# ----------------------------------------------------------------------
class TestQueueMechanics:
    def _session(self, **config):
        design = layout_to_dict(small_design(num_cells=40, density=0.5, seed=3))
        return Session(
            "unit", design, SessionConfig(backend="python", **config)
        ), design

    def test_coalescing_batches_share_one_dispatch(self):
        session, design = self._session()
        rng = np.random.default_rng(7)
        layout = layout_from_dict(design)
        batches = [move_only_batch(layout, rng) for _ in range(3)]
        # Simulate an active dispatcher so submissions pile up in the
        # queue, then release it: one drain must apply all three.
        with session._mutex:
            session._dispatching = True
        for batch in batches:
            session.submit(batch, wait=False)
        assert session.queue_depth() == 3
        with session._mutex:
            session._dispatching = False
        session.barrier()
        assert session.dispatches == 1
        assert session.coalesced_batches == 2
        assert len(session.ledger) == 3
        final = session.close()
        replayed = offline_replay(design, final["ledger"], session.config)
        assert layout_fingerprint(replayed) == final["fingerprint"]

    def test_inflight_gauge_rejects_at_limit(self):
        gauge = _InflightGauge(2)
        design = layout_to_dict(small_design(num_cells=40, density=0.5, seed=3))
        session = Session(
            "unit", design, SessionConfig(backend="python"), inflight=gauge
        )
        rng = np.random.default_rng(5)
        layout = layout_from_dict(design)
        with session._mutex:
            session._dispatching = True  # park submissions in the queue
        session.submit(move_only_batch(layout, rng), wait=False)
        session.submit(move_only_batch(layout, rng), wait=False)
        with pytest.raises(ServiceErrorLike) as excinfo:
            session.submit(move_only_batch(layout, rng), wait=False)
        assert excinfo.value.code == "busy"
        with session._mutex:
            session._dispatching = False
        session.barrier()
        assert gauge.value == 0  # slots released as batches completed
        session.submit(move_only_batch(layout, rng), wait=True)
        session.close()

    def test_closed_session_rejects_submissions(self):
        session, design = self._session()
        session.close()
        rng = np.random.default_rng(1)
        with pytest.raises(ServiceErrorLike) as excinfo:
            session.submit(move_only_batch(layout_from_dict(design), rng))
        assert excinfo.value.code == "session_closed"

    def test_counters_consistent_under_concurrent_readers(self):
        """Regression for the lck-unguarded fixes in Session.

        Dispatcher counters and the ledger are now mutated and read only
        under ``_mutex``; hammering one session from many submitter
        threads while another thread polls ``stats()``/``counters()``
        must end with counts that reconcile exactly against what was
        submitted (and must not crash the poller mid-snapshot).
        """
        session, design = self._session()
        rng = np.random.default_rng(11)
        layout = layout_from_dict(design)
        batches = [move_only_batch(layout, rng) for _ in range(12)]
        stop = threading.Event()
        snapshots = []

        def poll():
            while not stop.is_set():
                snapshots.append((session.counters(), session.stats()))

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        threads = [
            threading.Thread(target=session.submit, args=(batch,))
            for batch in batches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        session.barrier()
        stop.set()
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        counters = session.counters()
        stats = session.stats()
        assert stats["ledger_entries"] == len(batches)
        assert 1 <= counters["dispatches"] <= len(batches) + 1  # + barrier
        assert counters["coalesced_batches"] <= len(batches) - 1
        # Every polled snapshot was internally sane (no torn reads).
        for polled_counters, polled_stats in snapshots:
            assert 0 <= polled_counters["coalesced_batches"] <= len(batches)
            assert polled_stats["ledger_entries"] <= len(batches)
        final = session.close()
        replayed = offline_replay(design, final["ledger"], session.config)
        assert layout_fingerprint(replayed) == final["fingerprint"]

    def test_close_returns_ledger_snapshot(self):
        """close() hands back a copy, not the live (guarded) ledger list."""
        session, design = self._session()
        rng = np.random.default_rng(2)
        session.submit(move_only_batch(layout_from_dict(design), rng))
        final = session.close()
        assert final["ledger"] is not session.ledger
        assert final["ledger"] == session.ledger


# ----------------------------------------------------------------------
# Protocol error paths — each must leave the daemon serving
# ----------------------------------------------------------------------
class TestProtocolErrors:
    def _raw(self, server):
        sock = socket.create_connection(server.address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _alive(self, server):
        with connect(server) as client:
            assert client.ping()["ok"]

    @staticmethod
    def _assert_dropped(sock):
        """The daemon hung up: EOF, or RST if our junk was still unread."""
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass

    def test_malformed_frame_drops_connection_not_daemon(self, server):
        with self._raw(server) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_frame"
            # The stream is poisoned: the daemon hangs up on us...
            self._assert_dropped(sock)
        self._alive(server)  # ...but keeps serving everyone else

    def test_oversized_payload_declaration(self, server):
        with self._raw(server) as sock:
            sock.sendall(struct.pack("!4sI", MAGIC, 1 << 31))
            response = recv_frame(sock)
            assert response["error"]["code"] == "payload_too_large"
            self._assert_dropped(sock)
        self._alive(server)

    def test_bad_json_keeps_connection(self, server):
        with self._raw(server) as sock:
            body = b"{this is not json"
            sock.sendall(struct.pack("!4sI", MAGIC, len(body)) + body)
            response = recv_frame(sock)
            assert response["error"]["code"] == "bad_json"
            # Frame was fully consumed: the same connection still works.
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"] is True

    def test_non_object_payload(self, server):
        with self._raw(server) as sock:
            body = b"[1, 2, 3]"
            sock.sendall(struct.pack("!4sI", MAGIC, len(body)) + body)
            assert recv_frame(sock)["error"]["code"] == "bad_json"

    def test_unknown_op(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("levitate")
            assert excinfo.value.code == "unknown_op"
            assert client.ping()["ok"]

    def test_missing_op(self, server):
        with self._raw(server) as sock:
            send_frame(sock, {"deltas": []})
            assert recv_frame(sock)["error"]["code"] == "bad_request"

    def test_apply_to_unknown_session(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("apply_deltas", session="ghost", deltas=[])
            assert excinfo.value.code == "unknown_session"

    def test_apply_to_closed_session(self, server):
        design = small_design(num_cells=40, density=0.5, seed=5)
        with connect(server) as client:
            handle = client.open_session(
                design, session="brief", config={"backend": "python"}
            )
            handle.close()
            with pytest.raises(ServiceError) as excinfo:
                handle.apply([])
            assert excinfo.value.code == "session_closed"

    def test_invalid_deltas_leave_session_usable(self, server):
        design = small_design(num_cells=50, density=0.5, seed=12)
        with connect(server) as client:
            handle = client.open_session(design, config={"backend": "python"})
            with pytest.raises(ServiceError) as excinfo:
                handle.apply([{"op": "move", "index": 99999, "gp_x": 1, "gp_y": 1}])
            assert excinfo.value.code == "invalid_deltas"
            with pytest.raises(ServiceError) as excinfo:
                handle.apply([{"op": "warp_cell", "index": 0}])
            assert excinfo.value.code == "invalid_deltas"
            # Rejected batches mutated nothing and were not recorded.
            result = handle.apply(move_only_batch(design, np.random.default_rng(2)))
            assert result["success"]
            final = handle.close()
            assert len(final["ledger"]) == 1
            assert handle.verify(final)

    def test_bad_session_config(self, server):
        design = small_design(num_cells=40, density=0.5, seed=5)
        with connect(server) as client:
            for config in (
                {"backend": "warp-drive"},
                {"backend": "numpy:4"},
                {"backend": "multiprocess:0"},
                {"backend": 5},
                {"worker_budget": 2},
                {"frobnicate": True},
                {"full_threshold": 3.0},
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.open_session(design, config=config)
                assert excinfo.value.code == "bad_request", config
            assert client.ping()["sessions"] == 0

    def test_invalid_design_payload(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("open_session", design={"cells": "nope"}, config={})
            assert excinfo.value.code == "bad_request"

    def test_mid_batch_disconnect_leaves_sessions_intact(self, server):
        design = small_design(num_cells=50, density=0.5, seed=13)
        with connect(server) as client:
            handle = client.open_session(
                design, session="sturdy", config={"backend": "python"}
            )
            # A second connection dies mid-frame: header promises 512
            # bytes, sends 10, vanishes.
            rude = self._raw(server)
            rude.sendall(struct.pack("!4sI", MAGIC, 512) + b"0123456789")
            rude.close()
            time.sleep(0.1)
            # The daemon and the session shrug it off.
            result = handle.apply(move_only_batch(design, np.random.default_rng(3)))
            assert result["success"]
            final = handle.close()
            assert handle.verify(final)


# ----------------------------------------------------------------------
# Observability: the stats server section and the metrics op
# ----------------------------------------------------------------------
def _counter_total(snapshot, name, **labels):
    """Sum a counter's value over every series matching ``labels``."""
    wanted = {k: str(v) for k, v in labels.items()}
    return sum(
        c["value"]
        for c in snapshot.get("counters", [])
        if c["name"] == name
        and all(c["labels"].get(k) == v for k, v in wanted.items())
    )


class TestObservability:
    """The registry is process-global, so every assertion here is
    delta-based (scrape before, scrape after) — other tests in the same
    pytest process legitimately bump the same counters."""

    def test_stats_includes_server_section(self, server):
        design = small_design(num_cells=50, density=0.5, seed=21)
        with connect(server) as client:
            handle = client.open_session(
                design, session="obsstats", config={"backend": "python"}
            )
            stats = handle.stats()
            srv = stats["server"]
            assert srv["sessions"] == 1
            assert srv["max_sessions"] == server.config.max_sessions
            assert srv["inflight"] == 0
            assert srv["max_inflight"] == server.config.max_inflight
            assert srv["queue_depths"] == {"obsstats": 0}
            assert srv["draining"] is False
            handle.close()

    def test_metrics_op_counts_and_latency(self, server):
        design = small_design(num_cells=60, density=0.5, seed=22)
        batches = [
            move_only_batch(design, np.random.default_rng(s)) for s in range(5)
        ]
        with connect(server) as client:
            before = client.metrics()["metrics"]
            handle = client.open_session(
                design, session="obsm", config={"backend": "python"}
            )
            for batch in batches:
                handle.apply(batch)
            response = client.metrics()
            after = response["metrics"]

            applied = _counter_total(
                after, "repro_requests_total", op="apply_deltas", status="ok"
            ) - _counter_total(
                before, "repro_requests_total", op="apply_deltas", status="ok"
            )
            assert applied >= len(batches)

            hist = find_series(
                after, "histograms", "repro_op_latency_seconds", op="apply_deltas"
            )
            assert hist is not None
            assert hist["count"] >= len(batches)
            assert hist["sum"] >= 0.0
            assert sum(hist["buckets"]) == hist["count"]

            # Liveness gauges refreshed at scrape time.
            assert find_series(after, "gauges", "repro_inflight")["value"] == 0
            depth = find_series(
                after, "gauges", "repro_session_queue_depth", session="obsm"
            )
            assert depth is not None and depth["value"] == 0

            # Per-session engine summaries ride along with the scrape.
            summary = response["sessions"]["obsm"]
            assert summary["queue_depth"] == 0
            assert summary["engine"]["batches"] == len(batches)

            handle.close()
            # Closed sessions must not linger as stale gauge series.
            final = client.metrics()["metrics"]
            assert find_series(
                final, "gauges", "repro_session_queue_depth", session="obsm"
            ) is None

    def test_metrics_prometheus_text(self, server):
        design = small_design(num_cells=40, density=0.5, seed=23)
        with connect(server) as client:
            handle = client.open_session(
                design, session="obsprom", config={"backend": "python"}
            )
            handle.apply(move_only_batch(design, np.random.default_rng(1)))
            response = client.metrics(format="prometheus")
            text = response["text"]
            assert "# TYPE repro_requests_total counter" in text
            assert "# TYPE repro_op_latency_seconds histogram" in text
            assert (
                'repro_op_latency_seconds_bucket{op="apply_deltas",le="+Inf"}'
                in text
            )
            assert 'repro_session_queue_depth{session="obsprom"} 0' in text
            assert "repro_inflight 0" in text
            handle.close()

    def test_metrics_rejects_unknown_format(self, server):
        with connect(server) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.metrics(format="xml")
            assert excinfo.value.code == "bad_request"
            assert client.ping()["ok"]

    def test_metrics_under_concurrent_clients(self, server):
        """4 concurrent clients: live scrape mid-soak, consistent deltas."""
        clients, batches = 4, 6
        designs = [
            small_design(num_cells=60, density=0.5, seed=40 + i)
            for i in range(clients)
        ]
        with connect(server) as scraper:
            before = scraper.metrics()["metrics"]
            errors = []

            def run_client(i):
                try:
                    rng = np.random.default_rng(200 + i)
                    with connect(server, timeout=120.0) as client:
                        handle = client.open_session(
                            designs[i], config={"backend": "python"}
                        )
                        for _ in range(batches):
                            assert handle.apply(
                                move_only_batch(designs[i], rng)
                            )["success"]
                        handle.close()
                except Exception as exc:
                    errors.append((i, exc))

            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(clients)
            ]
            for t in threads:
                t.start()
            # Scrapes interleave with the soak: each must be a coherent
            # snapshot, never a crash or a torn histogram.
            while any(t.is_alive() for t in threads):
                snap = scraper.metrics()["metrics"]
                for hist in snap.get("histograms", []):
                    assert sum(hist["buckets"]) == hist["count"], hist["name"]
                time.sleep(0.01)
            for t in threads:
                t.join(timeout=120)
            assert not errors, f"client errors: {errors}"

            after = scraper.metrics()["metrics"]
            applied = _counter_total(
                after, "repro_requests_total", op="apply_deltas", status="ok"
            ) - _counter_total(
                before, "repro_requests_total", op="apply_deltas", status="ok"
            )
            assert applied == clients * batches
            assert find_series(after, "gauges", "repro_inflight")["value"] == 0


# ----------------------------------------------------------------------
# Admission control and shutdown
# ----------------------------------------------------------------------
class TestAdmissionAndShutdown:
    def test_max_sessions(self):
        srv = LegalizationServer(ServeConfig(port=0, max_sessions=1)).start()
        try:
            design = small_design(num_cells=40, density=0.5, seed=5)
            with connect(srv) as client:
                first = client.open_session(
                    design, session="one", config={"backend": "python"}
                )
                with pytest.raises(ServiceError) as excinfo:
                    client.open_session(design, config={"backend": "python"})
                assert excinfo.value.code == "session_limit"
                first.close()
                # The slot frees up once the session closes.
                second = client.open_session(
                    design, session="two", config={"backend": "python"}
                )
                second.close()
        finally:
            srv.close()

    def test_duplicate_session_name(self, server):
        design = small_design(num_cells=40, density=0.5, seed=5)
        with connect(server) as client:
            client.open_session(design, session="dup", config={"backend": "python"})
            with pytest.raises(ServiceError) as excinfo:
                client.open_session(design, session="dup", config={"backend": "python"})
            assert excinfo.value.code == "bad_request"

    def test_shutdown_drains_and_stops(self):
        srv = LegalizationServer(ServeConfig(port=0)).start()
        design = small_design(num_cells=50, density=0.5, seed=17)
        with connect(srv) as client:
            handle = client.open_session(design, config={"backend": "python"})
            for _ in range(3):
                handle.apply(
                    move_only_batch(design, np.random.default_rng(4)), wait=False
                )
            response = client.shutdown()
            assert response["ok"]
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                connect(srv, timeout=1.0).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon still accepting connections after shutdown")
        srv.close()  # idempotent

    def test_open_rejected_while_draining(self):
        srv = LegalizationServer(ServeConfig(port=0)).start()
        design = small_design(num_cells=40, density=0.5, seed=5)
        with connect(srv) as client:
            srv._draining = True
            with pytest.raises(ServiceError) as excinfo:
                client.open_session(design, config={"backend": "python"})
            assert excinfo.value.code == "shutting_down"
        srv.close()

    def test_ping_reports_draining(self):
        """Regression for the lck-unguarded fix: ping reads ``_draining``
        under the server mutex, so a drain started on another thread is
        visible to clients immediately and consistently."""
        srv = LegalizationServer(ServeConfig(port=0)).start()
        try:
            with connect(srv) as client:
                assert client.ping()["draining"] is False
                with srv._mutex:
                    srv._draining = True
                assert client.ping()["draining"] is True
        finally:
            srv.close()
