"""Benchmark: the legalization service under concurrent client load.

Starts an in-process ``LegalizationServer``, drives it with N client
threads (each owning one session on its own design, streaming seeded
ECO batches over real sockets), and records request latency
percentiles, aggregate batch throughput and — the part the CI gate
actually cares about — per-session **mismatch counts**: after every
session closes, its served ledger is replayed offline and the placement
fingerprints compared.  Any daemon bug that lets concurrency, queueing
or coalescing change a single placement shows up here as a non-zero
mismatch count, and ``benchmarks/check_regression.py --service`` fails
the run.

The payload is written to ``BENCH_service.json`` (uploaded as a CI
artifact); the committed copy doubles as the latency/throughput
baseline shape for eyeballing runner drift.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.benchgen import EcoSpec, generate_eco_stream
from repro.designio import layout_fingerprint, layout_to_dict
from repro.incremental import IncrementalLegalizer
from repro.obs.metrics import find_series, histogram_quantile
from repro.service import (
    LegalizationServer,
    ServeConfig,
    ServiceClient,
    SessionConfig,
    offline_replay,
)
from repro.testing import small_design
from repro.testing.bench import BENCH_SCALE, BENCH_SEED, run_once

#: Concurrent client threads (one session each).
CLIENTS = 4
#: Delta batches each client streams through its session.
BATCHES_PER_CLIENT = 12
#: Movable-cell scale of each session's design (scales with the env knob).
NUM_CELLS = max(120, int(round(100_000 * BENCH_SCALE)))
#: Per-batch churn of the generated streams.
CHURN = 0.03
#: Session config every client opens with.
SESSION_CONFIG = {
    "backend": "numpy",
    "max_avedis_drift": 0.05,
}


def _client_workload(i, design):
    """Pre-generate one client's design + delta stream (not timed)."""
    stream_base = design.copy()
    engine = IncrementalLegalizer(backend="python")
    engine.begin(stream_base)
    engine.close()
    stream = generate_eco_stream(
        stream_base,
        EcoSpec(churn=CHURN, batches=BATCHES_PER_CLIENT, seed=BENCH_SEED + i),
    )
    return [[d.to_dict() for d in batch] for batch in stream]


def run_service_bench():
    """One full concurrent-service run; returns the JSON payload."""
    designs = [
        small_design(num_cells=NUM_CELLS, density=0.55, seed=BENCH_SEED + i)
        for i in range(CLIENTS)
    ]
    streams = [_client_workload(i, designs[i]) for i in range(CLIENTS)]

    latencies = [[] for _ in range(CLIENTS)]
    finals = [None] * CLIENTS
    errors = []
    server = LegalizationServer(ServeConfig(port=0)).start()
    try:
        host, port = server.address

        def run_client(i):
            try:
                client = ServiceClient(host, port, timeout=120.0)
                try:
                    handle = client.open_session(
                        designs[i],
                        session=f"bench_service-{i}",
                        config=SESSION_CONFIG,
                    )
                    for batch in streams[i]:
                        start = time.perf_counter()
                        result = handle.apply(batch)
                        latencies[i].append(time.perf_counter() - start)
                        assert result["success"], f"client {i}: batch failed"
                    finals[i] = handle.close()
                finally:
                    client.close()
            except Exception as exc:  # surface in the calling thread
                errors.append(f"client {i}: {type(exc).__name__}: {exc}")

        wall_start = time.perf_counter()
        threads = [
            threading.Thread(target=run_client, args=(i,)) for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall_start
        # One live scrape before teardown: the daemon's own view of the
        # run via the metrics op (the registry is process-global, so the
        # absolute values are floors, not exact per-run counts).
        with ServiceClient(host, port, timeout=30.0) as scraper:
            scrape = scraper.metrics()["metrics"]
    finally:
        server.close()
    assert not errors, "; ".join(errors)

    op_hist = find_series(
        scrape, "histograms", "repro_op_latency_seconds", op="apply_deltas"
    )
    wait_hist = find_series(scrape, "histograms", "repro_queue_wait_seconds")
    daemon_metrics = {
        "apply_deltas_requests": sum(
            c["value"]
            for c in scrape["counters"]
            if c["name"] == "repro_requests_total"
            and c["labels"].get("op") == "apply_deltas"
        ),
        "apply_deltas_p95_s": histogram_quantile(op_hist, 0.95) if op_hist else 0.0,
        "queue_wait_p95_s": histogram_quantile(wait_hist, 0.95) if wait_hist else 0.0,
        "coalesced_batches_total": sum(
            c["value"]
            for c in scrape["counters"]
            if c["name"] == "repro_session_coalesced_batches_total"
        ),
    }
    assert daemon_metrics["apply_deltas_requests"] >= CLIENTS * BATCHES_PER_CLIENT
    assert op_hist is not None and op_hist["count"] >= CLIENTS * BATCHES_PER_CLIENT

    # The exactness audit: replay every session's ledger offline.
    per_session = []
    for i, final in enumerate(finals):
        config = SessionConfig(
            **{k: v for k, v in final["config"].items() if v is not None}
        )
        replayed = offline_replay(layout_to_dict(designs[i]), final["ledger"], config)
        mismatches = int(layout_fingerprint(replayed) != final["fingerprint"])
        per_session.append(
            {
                "session": final["session"],
                "mismatches": mismatches,
                "failed_batches": final["failed_batches"],
                "drift": final["engine"]["avedis_drift"],
                "repacks": final["engine"]["repacks_total"],
                "dispatches": final["dispatches"],
                "coalesced_batches": final["coalesced_batches"],
            }
        )

    flat = np.array([lat for per in latencies for lat in per], dtype=float)
    payload = {
        "design": "bench_service",
        "clients": CLIENTS,
        "batches_per_client": BATCHES_PER_CLIENT,
        "knobs": {
            "num_cells": NUM_CELLS,
            "density": 0.55,
            "seed": BENCH_SEED,
            "churn": CHURN,
            **SESSION_CONFIG,
            "full_threshold": 0.5,
            "repack_every": None,
        },
        "latency": {
            "p50_s": float(np.percentile(flat, 50)),
            "p95_s": float(np.percentile(flat, 95)),
            "mean_s": float(flat.mean()),
            "max_s": float(flat.max()),
        },
        "throughput_batches_per_s": float(len(flat) / wall) if wall > 0 else 0.0,
        "wall_seconds": wall,
        "per_session": per_session,
        "mismatches": sum(s["mismatches"] for s in per_session),
        "failed_batches": sum(s["failed_batches"] for s in per_session),
        "max_drift": max(s["drift"] for s in per_session),
        "governor_budget": SESSION_CONFIG["max_avedis_drift"],
        "daemon_metrics": daemon_metrics,
    }
    return payload


def test_bench_service_concurrent_clients(benchmark):
    payload = run_once(benchmark, run_service_bench)
    benchmark.extra_info["service"] = {
        "latency": payload["latency"],
        "throughput_batches_per_s": payload["throughput_batches_per_s"],
        "mismatches": payload["mismatches"],
    }
    with open("BENCH_service.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)

    print()
    print(
        f"service: {payload['clients']} clients x "
        f"{payload['batches_per_client']} batches, "
        f"p50 {payload['latency']['p50_s'] * 1e3:.1f}ms "
        f"p95 {payload['latency']['p95_s'] * 1e3:.1f}ms, "
        f"{payload['throughput_batches_per_s']:.1f} batches/s"
    )
    for row in payload["per_session"]:
        print(
            f"  {row['session']}: mismatches={row['mismatches']} "
            f"failed={row['failed_batches']} drift={row['drift']:+.4f} "
            f"repacks={row['repacks']} dispatches={row['dispatches']} "
            f"coalesced={row['coalesced_batches']}"
        )

    dm = payload["daemon_metrics"]
    print(
        f"  daemon: {dm['apply_deltas_requests']:.0f} apply_deltas requests, "
        f"op p95 {dm['apply_deltas_p95_s'] * 1e3:.1f}ms, "
        f"queue-wait p95 {dm['queue_wait_p95_s'] * 1e3:.1f}ms, "
        f"coalesced {dm['coalesced_batches_total']:.0f}"
    )

    # The headline contract, asserted in-bench as well as by the CI gate.
    assert payload["mismatches"] == 0, (
        "served placements diverged from offline replay: "
        f"{payload['per_session']}"
    )
    assert payload["failed_batches"] == 0
