"""Tests of the observability layer (:mod:`repro.obs`).

Three contracts matter:

* **Correctness** — the registry's counters/gauges/histograms are exact
  under thread concurrency, survive the snapshot/merge/drain round trip
  bit-for-bit, and worker-process metrics arrive in the parent after a
  pooled multiprocess run (the fork-merge path).
* **Neutrality** — telemetry never changes placements: a traced run is
  fingerprint-identical to an untraced one.
* **Near-zero disabled cost** — the disabled ``span()`` path stays under
  2% of a dense bench's wall time (the budget that lets spans live in
  hot paths permanently).
"""

from __future__ import annotations

import io
import json
import multiprocessing
import threading
import time

import pytest

import repro.obs as obs
from repro.designio import layout_fingerprint
from repro.incremental import IncrementalLegalizer
from repro.kernels import available_backends
from repro.mgl.legalizer import MGLLegalizer
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    find_series,
    histogram_quantile,
    prometheus_text,
)
from repro.perf.report import span_timeline
from repro.testing import small_design
from tests.test_shared_pool import forced_backend, spread_layout

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    """Never leak an enabled sink into other tests."""
    yield
    obs.disable()


def emitted(stream: io.StringIO):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.inc("req_total", op="apply", status="ok")
        reg.inc("req_total", 2.0, op="apply", status="ok")
        reg.inc("req_total", op="stats", status="ok")
        reg.set_gauge("depth", 3, session="a")
        reg.set_gauge("depth", 1, session="a")  # last write wins
        reg.observe("lat_seconds", 0.004)
        reg.observe("lat_seconds", 0.3)
        snap = reg.snapshot()
        assert find_series(snap, "counters", "req_total", op="apply")["value"] == 3.0
        assert find_series(snap, "gauges", "depth", session="a")["value"] == 1.0
        hist = find_series(snap, "histograms", "lat_seconds")
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.304)
        assert sum(hist["buckets"]) == hist["count"]
        # The snapshot is wire-safe: a JSON round trip is lossless.
        assert json.loads(json.dumps(snap)) == snap

    def test_observation_on_bucket_bound_is_inclusive(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.001)  # exactly the first default bound: le-inclusive
        hist = find_series(reg.snapshot(), "histograms", "h")
        assert hist["buckets"][0] == 1

    def test_overflow_lands_in_inf_bucket(self):
        reg = MetricsRegistry()
        reg.observe("h", 99.0)
        hist = find_series(reg.snapshot(), "histograms", "h")
        assert hist["buckets"][-1] == 1

    def test_clear_gauge_drops_every_series_of_that_name(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 1, session="a")
        reg.set_gauge("depth", 2, session="b")
        reg.set_gauge("other", 7)
        reg.clear_gauge("depth")
        snap = reg.snapshot()
        assert find_series(snap, "gauges", "depth") is None
        assert find_series(snap, "gauges", "other")["value"] == 7.0

    def test_merge_adds_counters_and_hists_overwrites_gauges(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.inc("c", 5, kind="shard")
        parent.observe("h", 0.01)
        parent.set_gauge("g", 1)
        worker.inc("c", 2, kind="shard")
        worker.inc("c_new", 1)
        worker.observe("h", 0.02)
        worker.set_gauge("g", 9)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert find_series(snap, "counters", "c", kind="shard")["value"] == 7.0
        assert find_series(snap, "counters", "c_new")["value"] == 1.0
        assert find_series(snap, "gauges", "g")["value"] == 9.0
        hist = find_series(snap, "histograms", "h")
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.03)
        parent.merge(None)  # None-safe: workers with nothing to ship

    def test_drain_returns_none_when_empty_else_snapshot_and_reset(self):
        reg = MetricsRegistry()
        assert reg.drain() is None
        reg.inc("c")
        drained = reg.drain()
        assert find_series(drained, "counters", "c")["value"] == 1.0
        assert reg.drain() is None  # reset happened

    def test_thread_safety_exact_totals(self):
        """4 concurrent writers: no lost updates, consistent histograms."""
        reg = MetricsRegistry()
        clients, per_client = 4, 2000

        def work(i):
            for j in range(per_client):
                reg.inc("c_total", op=f"op{i % 2}")
                reg.observe("h_seconds", 0.0005 * (j % 9), client=i % 2)
                reg.set_gauge("g", j, client=i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        snap = reg.snapshot()
        total = sum(
            c["value"] for c in snap["counters"] if c["name"] == "c_total"
        )
        assert total == clients * per_client
        observed = sum(
            h["count"] for h in snap["histograms"] if h["name"] == "h_seconds"
        )
        assert observed == clients * per_client
        for hist in snap["histograms"]:
            assert sum(hist["buckets"]) == hist["count"]

    def test_histogram_quantile(self):
        reg = MetricsRegistry()
        for value in (0.002, 0.002, 0.002, 0.4):
            reg.observe("h", value)
        hist = find_series(reg.snapshot(), "histograms", "h")
        assert histogram_quantile(hist, 0.5) <= 0.0025
        assert histogram_quantile(hist, 0.99) > 0.1
        assert histogram_quantile({"count": 0, "bounds": [], "buckets": []}, 0.5) == 0.0

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.inc("req_total", 3, op="apply")
        reg.set_gauge("depth", 2, session="a")
        reg.observe("lat_seconds", 0.004)
        reg.observe("lat_seconds", 0.3)
        text = prometheus_text(reg.snapshot())
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="apply"} 3' in text
        assert 'depth{session="a"} 2' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        # Cumulative buckets are monotonically non-decreasing.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert counts == sorted(counts)


# ----------------------------------------------------------------------
# Spans and the event log
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_the_shared_null_object(self):
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b", attrs=1)
        with obs.span("noop") as sp:
            sp.set(ignored=True)
        obs.event("noop")  # also a no-op

    def test_span_emits_record_with_duration_and_attrs(self):
        stream = io.StringIO()
        obs.enable(stream=stream)
        with obs.span("mgl.place", targets=7) as sp:
            sp.set(failed=0)
        (record,) = emitted(stream)
        assert record["ev"] == "span"
        assert record["name"] == "mgl.place"
        assert record["dur_s"] >= 0.0
        assert record["attrs"] == {"targets": 7, "failed": 0}
        assert "pid" in record and "ts" in record

    def test_span_records_error_and_reraises(self):
        stream = io.StringIO()
        obs.enable(stream=stream)
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("bad")
        (record,) = emitted(stream)
        assert record["error"] == "RuntimeError"

    def test_context_ids_stamp_events_and_nest(self):
        stream = io.StringIO()
        obs.enable(stream=stream)
        run = obs.new_run_id()
        with obs.context(run=run, session="s1"):
            obs.event("outer")
            with obs.context(batch=3, session=None):  # None values skipped
                with obs.span("inner"):
                    pass
            obs.event("after")
        obs.event("outside")
        outer, inner, after, outside = emitted(stream)
        assert outer["run"] == run and outer["session"] == "s1"
        assert "batch" not in outer
        assert inner["batch"] == 3 and inner["session"] == "s1"
        assert "batch" not in after  # inner binding unwound
        assert "run" not in outside and "session" not in outside

    def test_enable_env_var_and_file_round_trip(self, tmp_path, monkeypatch):
        log = tmp_path / "spans.jsonl"
        monkeypatch.setenv(obs.ENV_VAR, str(log))
        from repro.obs.spans import _enable_from_env

        _enable_from_env()
        try:
            with obs.span("phase.a"):
                pass
            obs.event("point.b", n=1)
        finally:
            obs.disable()
        events = obs.load_events(str(log))
        assert [e["name"] for e in events] == ["phase.a", "point.b"]

    def test_read_events_skips_torn_and_blank_lines(self, tmp_path):
        log = tmp_path / "torn.jsonl"
        log.write_text(
            '{"ev":"span","name":"ok","dur_s":0.1}\n'
            '{"ev":"span","name":"torn","dur'  # a torn concurrent append
            "\n\n"
            '{"ev":"event","name":"ok2"}\n',
            encoding="utf-8",
        )
        events = obs.load_events(str(log))
        assert [e["name"] for e in events] == ["ok", "ok2"]

    def test_unwritable_env_path_runs_untraced(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_VAR, "/nonexistent-dir/spans.jsonl")
        from repro.obs.spans import _enable_from_env

        _enable_from_env()
        assert not obs.enabled()


# ----------------------------------------------------------------------
# End-to-end: instrumented runs
# ----------------------------------------------------------------------
class TestInstrumentedRuns:
    def test_traced_legalize_is_bit_for_bit_untraced(self, tmp_path):
        baseline = small_design(num_cells=120, density=0.6, seed=9)
        MGLLegalizer(backend="python").legalize(baseline)
        fingerprint = layout_fingerprint(baseline)

        obs.enable(str(tmp_path / "spans.jsonl"))
        try:
            traced = small_design(num_cells=120, density=0.6, seed=9)
            MGLLegalizer(backend="python").legalize(traced)
        finally:
            obs.disable()
        assert layout_fingerprint(traced) == fingerprint
        names = {e["name"] for e in obs.load_events(str(tmp_path / "spans.jsonl"))}
        assert {"mgl.premove", "mgl.order", "mgl.place", "mgl.metrics"} <= names

    def test_eco_stream_replays_into_timeline(self, tmp_path):
        from repro.benchgen import EcoSpec, generate_eco_stream

        log = tmp_path / "eco.jsonl"
        layout = small_design(num_cells=100, density=0.55, seed=4)
        obs.enable(str(log))
        try:
            engine = IncrementalLegalizer(
                backend="python", repack_every=2  # force scheduled governor decisions
            )
            engine.begin(layout)
            stream = generate_eco_stream(
                layout, EcoSpec(churn=0.08, batches=6, seed=3)
            )
            for batch in stream:
                engine.apply(batch)
            engine.close()
        finally:
            obs.disable()
        events = obs.load_events(str(log))
        batches = [e for e in events if e["name"] == "eco.batch"]
        assert len(batches) == len(stream)
        assert all("dur_s" in e for e in batches)
        governor = [e for e in events if e["name"] == "eco.governor"]
        assert governor, "scheduled repacks must produce governor decision records"
        assert all(g["attrs"].get("decision") for g in governor)
        # The log folds into a per-phase timeline with sane shares.
        rows = span_timeline(events)
        assert rows and rows[0]["count"] >= 1
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 8])
    def test_fork_merge_worker_metrics_reach_parent(self, workers):
        def task_seconds_count(snap):
            return sum(
                h["count"]
                for h in snap["histograms"]
                if h["name"] == "repro_worker_task_seconds"
            )

        def point_regions(snap):
            return sum(
                c["value"]
                for c in snap["counters"]
                if c["name"] == "repro_mp_point_regions_total"
            )

        before = REGISTRY.snapshot()
        backend = forced_backend(workers)
        try:
            result = MGLLegalizer(backend=backend).legalize(spread_layout())
            assert result.success
        finally:
            backend.close()
        after = REGISTRY.snapshot()
        assert task_seconds_count(after) > task_seconds_count(before), (
            f"worker telemetry did not merge back at {workers} workers"
        )
        assert point_regions(after) >= point_regions(before) + 1

    def test_disabled_span_overhead_under_two_percent(self):
        """The permanent-instrumentation budget on a dense bench design."""
        backend = "numpy" if "numpy" in available_backends() else "python"

        def run():
            layout = small_design(num_cells=300, density=0.68, seed=5)
            start = time.perf_counter()
            MGLLegalizer(backend=backend).legalize(layout)
            return time.perf_counter() - start

        run()  # warm caches
        assert not obs.enabled()
        wall = min(run() for _ in range(3))

        # How many telemetry call sites fire during that run?
        stream = io.StringIO()
        obs.enable(stream=stream)
        try:
            layout = small_design(num_cells=300, density=0.68, seed=5)
            MGLLegalizer(backend=backend).legalize(layout)
        finally:
            obs.disable()
        call_sites = len(stream.getvalue().splitlines())
        assert call_sites >= 4  # premove/order/place/metrics at minimum

        # Per-call cost of the disabled path.
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            with obs.span("bench.noop"):
                pass
        per_call = (time.perf_counter() - start) / n

        overhead = call_sites * per_call
        assert overhead < 0.02 * wall, (
            f"disabled telemetry would cost {overhead * 1e6:.1f}us over "
            f"{call_sites} call sites on a {wall * 1e3:.1f}ms run"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    """`repro trace` end to end — the log is read once and fully."""

    def _write_log(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        obs.enable(str(log))
        try:
            layout = small_design(num_cells=60, density=0.5, seed=9)
            MGLLegalizer(backend="python").legalize(layout)
        finally:
            obs.disable()
        return log

    def run_main(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_trace_renders_phase_rows(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        assert self.run_main("trace", str(log)) == 0
        out = capsys.readouterr().out
        # The summary line counts spans AND the table still has rows:
        # both consume the event stream, so this guards against the
        # iterator being exhausted by the count.
        assert "4 spans" in out
        for phase in ("mgl.premove", "mgl.order", "mgl.place", "mgl.metrics"):
            assert phase in out, f"missing {phase} row in:\n{out}"

    def test_trace_filter_without_match_exits_one(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        assert self.run_main("trace", str(log), "--session", "nope") == 1
        captured = capsys.readouterr()
        assert "0 spans" in captured.out
        assert "no span records matched" in captured.err
