"""The benchmark's workloads: input generation, timed runs and output checks.

Every input is generated from the ``--seed`` argument alone: a workload
expands it into per-design sub-seeds with ``numpy.random.SeedSequence``,
so the same seed always yields the same designs and delta streams.

Full workloads legalize a fixed set of designs with ``FlexLegalizer``
(one operation = one full ``legalize`` call); the served workload drives
a ``repro serve`` daemon subprocess with closed-loop clients (one
operation = one ``apply_deltas`` batch).  Output checks run outside the
timed region and count every failure.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from tracer import MODEL_STAGES, TOP_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class FullWorkload:
    """A fixed set of ICCAD-2017-like designs legalized by FlexLegalizer."""

    name: str
    benchmark: str
    scale: float
    designs: int
    backend: str
    why: str


@dataclass(frozen=True)
class ServedWorkload:
    """Closed-loop ECO clients against a ``repro serve`` daemon."""

    name: str
    benchmark: str
    scale: float
    clients: int
    sessions_per_client: int
    churn: float
    max_batches: int
    warmup_batches: int
    quality_batches: int
    why: str


# Many small designs per run rather than one large one: legalize time,
# AveDis and maximum displacement vary by ~10-25 % between designs of one
# shape, and a run's figures must not move by more than a few percent
# between seeds.
WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        FullWorkload(
            "dense_full", "des_perf_1", 0.002, 16, "numpy",
            "FOP-bound dense designs (density 0.906, 1-3-row cells): SACS and the "
            "curve kernels dominate, so batched SACS should move it",
        ),
        FullWorkload(
            "sparse_tall_full", "pci_b_b_md3", 0.008, 36, "numpy",
            "sparse designs with 4-row cells: wide windows load region build and "
            "the retry ladder, and SACS has a smaller share",
        ),
        ServedWorkload(
            "eco_served", "des_perf_a_md1", 0.0014, 2, 8, 0.02, 300, 2, 10,
            "repro serve daemon, 2 closed-loop ECO clients: the only workload "
            "reaching service, incremental and the default MGLLegalizer (no SACS)",
        ),
        FullWorkload(
            "dense_full_mp2", "des_perf_1", 0.002, 16, "multiprocess:2",
            "dense_full on multiprocess:2: the only workload reaching "
            "kernels.mp_backend and kernels.shm",
        ),
    )
}

#: Shrunk shapes for the benchmark's own smoke check (``--tiny``).
TINY = {"scale": 0.0006, "designs": 2, "served_scale": 0.0008, "max_batches": 40}


def sub_seeds(seed: int, n: int, salt: int) -> List[int]:
    """``n`` deterministic sub-seeds of ``seed`` (``salt`` separates uses)."""
    state = np.random.SeedSequence([seed, salt]).generate_state(n)
    return [int(s) % (2**31) for s in state]


def generate_designs(workload, seed: int, tiny: bool = False):
    """The workload's designs (unlegalized), deterministic in ``seed``."""
    from repro.benchgen.iccad2017 import iccad2017_design

    if isinstance(workload, ServedWorkload):
        scale = TINY["served_scale"] if tiny else workload.scale
        count = workload.clients * workload.sessions_per_client
    else:
        scale = TINY["scale"] if tiny else workload.scale
        count = TINY["designs"] if tiny else workload.designs
    return [
        iccad2017_design(workload.benchmark, scale=scale, seed=s)
        for s in sub_seeds(seed, count, salt=1)
    ]


def generate_streams(workload: ServedWorkload, designs, seed: int, tiny: bool = False):
    """One seeded ECO delta stream per session design, as JSON dicts."""
    from repro.benchgen.eco import EcoSpec, generate_eco_stream

    batches = TINY["max_batches"] if tiny else workload.max_batches
    return [
        [[d.to_dict() for d in batch]
         for batch in generate_eco_stream(
             design, EcoSpec(churn=workload.churn, batches=batches, seed=s))]
        for design, s in zip(designs, sub_seeds(seed, len(designs), salt=2))
    ]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail_quantile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it (capped at p95)."""
    return max(0.5, min(0.95, 1.0 - 10.0 / n)) if n else 0.5


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# Full-chip workloads
# ----------------------------------------------------------------------
def _illegal_cells(layout, failed_cells) -> int:
    from repro.legality.checker import LegalityChecker

    report = LegalityChecker().check(layout)
    bad = set(failed_cells)
    for violation in report.violations:
        bad.add(violation.cell)
        if violation.other is not None and not layout.cells[violation.other].fixed:
            bad.add(violation.other)
    return len(bad)


def _setup_full(workload: FullWorkload, seed: int, tiny: bool):
    from repro import FlexConfig
    from repro.core import FlexLegalizer

    start = time.perf_counter()
    designs = generate_designs(workload, seed, tiny)
    legalizer = FlexLegalizer(FlexConfig(kernel_backend=workload.backend))
    return time.perf_counter() - start, designs, legalizer


def run_full(workload: FullWorkload, seed: int, seconds: float, trace: bool,
             tiny: bool) -> Dict[str, Any]:
    from repro import FlexConfig
    from repro.core import FlexLegalizer
    from repro.designio import layout_fingerprint
    from repro.kernels import resolve_backend

    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, designs, legalizer = _setup_full(workload, seed, tiny)
        setups.append(elapsed)
    # Warm-up on a throwaway copy: lazy imports and first-call costs.
    legalizer.legalize(designs[0].copy())

    walls: List[float] = []
    quality: Dict[int, Tuple[float, float]] = {}
    fingerprints: Dict[int, List[str]] = {}
    traced_walls: List[float] = []
    tracer = Tracer()
    modeled_cpu: Dict[str, float] = {stage: 0.0 for stage in MODEL_STAGES}
    attempted = failed = 0
    start = time.perf_counter()
    calls = 0
    while True:
        index = calls % len(designs)
        layout = designs[index].copy()
        t0 = time.perf_counter()
        result = legalizer.legalize(layout)
        walls.append(time.perf_counter() - t0)
        calls += 1
        fingerprints.setdefault(index, []).append(layout_fingerprint(layout))
        if index not in quality:
            # Output checks, outside the timed call, once per design.
            stats = result.legalization.stats
            quality[index] = (stats.average_displacement, stats.max_displacement)
            attempted += result.legalization.trace.num_movable
            failed += _illegal_cells(layout, result.legalization.failed_cells)
        del result, layout
        if trace:
            # Paired traced call on the same design, right after the
            # untraced one, so the overhead ratio compares like with like.
            traced_layout = designs[index].copy()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = legalizer.legalize(traced_layout)
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            fingerprints[index].append(layout_fingerprint(traced_layout))
            for stage in MODEL_STAGES:
                modeled_cpu[stage] += traced.cpu_breakdown[stage]
        if calls >= len(designs) and (trace or time.perf_counter() - start >= seconds):
            break

    # ---- remaining output checks (untimed) ----------------------------
    notes: List[str] = []
    movable = [len(d.movable_cells()) for d in designs]
    for index, prints in sorted(fingerprints.items()):
        if len(set(prints)) != 1:
            notes.append(f"design {index}: repeated legalizations disagree")
            failed += movable[index]
    if workload.backend != "numpy":
        # The parallel engine must reproduce the sequential placement bit
        # for bit (checked on the first design to bound the cost).
        reference = designs[0].copy()
        FlexLegalizer(FlexConfig(kernel_backend="numpy")).legalize(reference)
        if layout_fingerprint(reference) != fingerprints[0][0]:
            notes.append("design 0: multiprocess placement differs from numpy")
            failed += movable[0]
        resolve_backend(workload.backend).close()
        # The pool started multiprocessing's resource tracker; stop and
        # reap it too, so the run leaves no process behind.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    e2e = {
        "setup_s": _median(setups),
        "op_p50_s": _median(walls),
        "avedis": float(np.mean([q[0] for q in quality.values()])),
        "max_disp": float(np.mean([q[1] for q in quality.values()])),
        "peak_rss_mb": peak_rss_mb(),
    }
    out: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "notes": notes,
        "end_to_end": e2e,
        "samples": {"ops": len(walls), "designs": len(designs), "setups": len(setups)},
        "fingerprints": [fingerprints[i][0] for i in sorted(fingerprints)],
        "design_cells": [len(d.cells) for d in designs],
    }
    if trace:
        summary = tracer.summarize()
        out["trace"] = {
            "summary": summary,
            "ops": len(traced_walls),
            "traced_wall_s": sum(traced_walls),
            "untraced_wall_s": sum(walls),
            "modeled_cpu_s": modeled_cpu,
        }
        out["tracer"] = tracer
    return out


# ----------------------------------------------------------------------
# Served workload
# ----------------------------------------------------------------------
class _Daemon:
    """A ``repro serve`` subprocess (via ``daemon.py``), reaped on close."""

    def __init__(self, outdir: Path, tag: str, trace_out: Optional[Path] = None,
                 window_file: Optional[Path] = None) -> None:
        self.port_file = outdir / f"port-{tag}.txt"
        self.port_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "daemon.py"), "--port-file", str(self.port_file)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out), "--window-file", str(window_file)]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE"}
        env["PYTHONPATH"] = str(SRC)
        self.log = open(outdir / f"daemon-{tag}.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"daemon did not start (see {self.log.name})")
            time.sleep(0.005)

    def close(self, client=None) -> None:
        """Drain the daemon through ``client`` if given, else terminate it."""
        if self.proc.poll() is None:
            try:
                if client is None:
                    raise OSError("no client to request a drain")
                client.shutdown()
            except Exception:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        self.port_file.unlink(missing_ok=True)


def _open_sessions(port: int, designs, clients_n: int, tag: str):
    """One connection per client; each opens its share of the sessions,
    the clients concurrently.  Session ``k`` belongs to client ``k % n``."""
    from repro.service import ServiceClient

    clients = [ServiceClient("127.0.0.1", port, timeout=120.0) for _ in range(clients_n)]
    handles: List[Any] = [None] * len(designs)
    errors: List[str] = []

    def open_all(i: int) -> None:
        try:
            for k in range(i, len(designs), clients_n):
                handles[k] = clients[i].open_session(
                    designs[k], session=f"{tag}-{k}", config={"backend": "numpy"})
        except Exception as exc:
            errors.append(f"client {i}: open_session: {exc}")

    threads = [threading.Thread(target=open_all, args=(i,)) for i in range(clients_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        for c in clients:
            c.close()
        raise RuntimeError("; ".join(errors))
    return clients, handles


def _setup_served(workload: ServedWorkload, seed: int, tiny: bool, outdir: Path,
                  tag: str, trace_out=None, window_file=None):
    from repro.designio import layout_to_dict

    start = time.perf_counter()
    designs = generate_designs(workload, seed, tiny)
    streams = generate_streams(workload, designs, seed, tiny)
    design_dicts = [layout_to_dict(d) for d in designs]
    daemon = _Daemon(outdir, tag, trace_out, window_file)
    try:
        clients, handles = _open_sessions(daemon.port, design_dicts, workload.clients, tag)
    except Exception:
        daemon.close()
        raise
    return time.perf_counter() - start, design_dicts, streams, daemon, clients, handles


def _replay(outdir: Path, tag: str, finals, design_dicts, jobs_n: int, prefix: int):
    """Replay every session's ledger offline, ``jobs_n`` subprocesses in
    parallel; quality figures are taken after the first ``prefix`` batches."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE"}
    env["PYTHONPATH"] = str(SRC)
    procs = []
    for j in range(jobs_n):
        job = outdir / f"replay-{tag}-{j}.json"
        job.write_text(json.dumps([
            {"design": design_dicts[k], "ledger": finals[k]["ledger"],
             "config": finals[k]["config"], "prefix": prefix}
            for k in range(j, len(finals), jobs_n)]))
        procs.append((job, subprocess.Popen(
            [sys.executable, str(HERE / "replay.py"), str(job)],
            env=env, stdout=subprocess.PIPE, text=True)))
    results: List[Any] = [None] * len(finals)
    for j, (job, proc) in enumerate(procs):
        stdout, _ = proc.communicate(timeout=170.0)
        job.unlink(missing_ok=True)
        if proc.returncode == 0:
            results[j::jobs_n] = json.loads(stdout)
    return results


def run_served(workload: ServedWorkload, seed: int, seconds: float, trace: bool,
               tiny: bool, outdir: Path) -> Dict[str, Any]:
    from repro.obs.metrics import find_series, histogram_quantile

    tag = f"{workload.name}-{seed}-{os.getpid()}"
    trace_out = outdir / f"{workload.name}-seed{seed}-daemon-spans.json" if trace else None
    window_file = outdir / f"window-{tag}.json" if trace else None
    setups = []
    for r in range(1 if trace else SETUP_REPEATS):
        last = r == (0 if trace else SETUP_REPEATS - 1)
        elapsed, design_dicts, streams, daemon, clients, handles = _setup_served(
            workload, seed, tiny, outdir, f"{tag}-{r}",
            trace_out if last else None, window_file if last else None)
        setups.append(elapsed)
        if not last:
            for h in handles:
                h.close(return_ledger=False)
            daemon.close(clients[0])
            for c in clients:
                c.close()

    n = workload.clients
    warmup = 1 if tiny else workload.warmup_batches
    prefix = warmup + (2 if tiny else workload.quality_batches)
    records: List[List[Tuple[float, Dict[str, Any]]]] = [[] for _ in range(n)]
    sent = [0] * len(handles)
    errors: List[str] = []
    window = {"start": 0.0}
    barrier = threading.Barrier(n, action=lambda: window.update(start=time.perf_counter()))
    ends = [0.0] * n

    def drive(i: int) -> None:
        # Closed loop over the client's sessions in turn: the next batch
        # is sent only after the previous one was answered.
        mine = list(range(i, len(handles), n))

        def send(k: int):
            batch = streams[k][sent[k]]
            sent[k] += 1
            return handles[k].apply(batch)

        def more() -> bool:
            # Every session must reach the quality prefix, however slow.
            return (time.perf_counter() - window["start"] < seconds
                    or any(sent[k] < prefix for k in mine))

        try:
            for k in mine:
                for _ in range(warmup):
                    send(k)
            barrier.wait(timeout=120.0)
            turn = 0
            while more():
                k = mine[turn % len(mine)]
                turn += 1
                if sent[k] >= len(streams[k]):
                    break
                t0 = time.perf_counter()
                result = send(k)
                records[i].append((time.perf_counter() - t0, result))
        except Exception as exc:
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")
            barrier.abort()
        ends[i] = time.perf_counter()

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window_s = max(ends) - window["start"]

    scrape = clients[0].metrics()["metrics"]
    finals = [h.close(return_layout=False) for h in handles]
    if window_file is not None:
        window_file.write_text(json.dumps({"start": window["start"], "end": max(ends)}))
    daemon.close(clients[0])
    for c in clients:
        c.close()

    # ---- output checks (untimed) --------------------------------------
    replays = _replay(outdir, tag, finals, design_dicts, n, prefix)
    attempted = sum(sent)
    failed = sum(final["failed_batches"] + final["async_errors"] for final in finals)
    failed += sum(1 for per in records for _, res in per if not res.get("success"))
    notes = list(errors)
    failed += len(errors)
    for k, (final, replay) in enumerate(zip(finals, replays)):
        if replay is None or replay["fingerprint"] != final["fingerprint"]:
            notes.append(f"session {k}: offline replay does not match the served layout")
            failed += sent[k]

    latencies = [lat for per in records for lat, _ in per]
    responses = [res for per in records for _, res in per]
    engine = [res["wall_seconds"] for res in responses]
    ok_replays = [r for r in replays if r is not None]
    # Quality after a fixed number of batches per session (not at the end
    # of the timed stream, whose length depends on speed).
    e2e = {
        "setup_s": _median(setups),
        "op_p50_s": _median(latencies),
        "avedis": float(np.mean([r["avedis"] for r in ok_replays])) if ok_replays else 0.0,
        "max_disp": float(np.mean([r["max_disp"] for r in ok_replays])) if ok_replays else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    q = tail_quantile(len(latencies))
    op_hist = find_series(scrape, "histograms", "repro_op_latency_seconds", op="apply_deltas")
    wait_hist = find_series(scrape, "histograms", "repro_queue_wait_seconds")
    served = {
        "incremental.engine_p50_s": _median(engine),
        "incremental.dirty_mean": float(np.mean([r["dirty_total"] for r in responses])) if responses else 0.0,
        "incremental.reuse_ratio": (
            sum(r["reused_cells"] for r in responses) / max(1, sum(r["num_movable"] for r in responses))),
        "incremental.final_drift": float(np.mean([f["engine"]["avedis_drift"] for f in finals])),
        "service.batch_p95_s": float(np.quantile(latencies, q)) if latencies else 0.0,
        "service.batches_per_s": len(latencies) / window_s if window_s > 0 else 0.0,
        "service.op_p95_s": histogram_quantile(op_hist, 0.95) if op_hist else 0.0,
        "service.queue_wait_p95_s": histogram_quantile(wait_hist, 0.95) if wait_hist else 0.0,
        "service.overhead_p50_s": _median([lat - res["wall_seconds"] for lat, res in zip(latencies, responses)]),
        "service.coalesced_ratio": sum(1 for r in responses if r.get("coalesced")) / max(1, len(responses)),
    }
    out: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "notes": notes,
        "end_to_end": e2e,
        "served": served,
        "samples": {"ops": len(latencies), "tail_quantile": q, "batches_sent": attempted,
                    "sessions": len(handles), "setups": len(setups), "window_s": window_s},
        "fingerprints": [f["fingerprint"] for f in finals],
        "design_cells": [len(d["cells"]) for d in design_dicts],
    }
    if trace:
        daemon_trace = json.loads(trace_out.with_suffix(".summary.json").read_text())
        out["trace"] = {
            "summary": daemon_trace,
            "ops": len(latencies),
            "traced_wall_s": 0.0,
            "untraced_wall_s": 0.0,
            "modeled_cpu_s": daemon_trace.get("modeled", {}),
        }
    return out


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics (per operation) from a traced run's result."""
    from catalog import PER_LAYER

    values = {name: 0.0 for name, *_ in PER_LAYER}
    values.update(result.get("served", {}))
    trace = result["trace"]
    ops = max(1, trace["ops"])
    layers = trace["summary"]["layers"]

    def get(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0.0))

    for layer in ("mgl.premove", "core.ordering", "legality.metrics", "mgl.update",
                  "mgl.window_planner", "mgl.local_region", "mgl.fop", "kernels.sacs",
                  "mgl.shifting", "kernels.mp_backend"):
        values[f"{layer}.busy_s"] = get(layer, "busy_s") / ops
    for layer in ("mgl.window_planner", "mgl.local_region", "mgl.fop", "kernels.sacs"):
        values[f"{layer}.calls"] = get(layer, "calls") / ops
    values["mgl.update.moved_cells"] = get("mgl.update", "moved_cells") / ops
    values["mgl.fop.self_s"] = get("mgl.fop", "self_s") / ops
    values["mgl.fop.points"] = get("mgl.fop", "points") / ops
    values["mgl.fop.feasible_ratio"] = get("mgl.fop", "feasible") / max(1.0, get("mgl.fop", "points"))
    values["mgl.fop.retry0_rate"] = (
        get("mgl.legalize", "retry0_feasible") / max(1.0, get("mgl.legalize", "targets")))
    values["mgl.fop.retries"] = get("mgl.legalize", "retries") / ops
    values["mgl.fop.fallbacks"] = get("mgl.legalize", "fallbacks") / ops
    values["kernels.sacs.cell_visits"] = get("kernels.sacs", "cell_visits") / ops
    values["kernels.curves.build_s"] = get("kernels.curves.build", "busy_s") / ops
    values["kernels.curves.minimize_s"] = get("kernels.curves.minimize", "busy_s") / ops
    values["kernels.curves.evaluate_s"] = get("kernels.curves.evaluate", "busy_s") / ops
    values["kernels.curves.breakpoints"] = get("kernels.curves.minimize", "breakpoints") / ops
    values["kernels.mp_backend.parallel_regions"] = get("kernels.mp_backend", "calls") / ops
    values["kernels.mp_backend.parallel_share"] = (
        get("kernels.mp_backend", "calls") / max(1.0, get("mgl.fop", "calls")))
    values["perf.model_s"] = get("perf.model", "busy_s") / ops
    values["fpga.modeled_ms"] = get("perf.model", "modeled_ms") / ops
    values["fpga.busy_ms"] = get("perf.model", "fpga_busy_ms") / ops
    values["fpga.visible_transfer_ms"] = get("perf.model", "visible_transfer_ms") / ops
    for stage, layer in MODEL_STAGES.items():
        modeled = trace["modeled_cpu_s"].get(stage, 0.0) / ops
        measured = get(layer, "busy_s") / ops
        values[f"perf.model.{stage}_s"] = modeled
        values[f"perf.model.{stage}_ratio"] = modeled / measured if measured > 0 else 0.0
    top = max(get(layer, "busy_s") for layer in TOP_LAYERS)
    unattributed = sum(get(layer, "self_s") for layer in TOP_LAYERS)
    values["obs.traced_wall_s"] = top / ops
    values["obs.traced_coverage"] = 1.0 - unattributed / top if top > 0 else 0.0
    if trace["untraced_wall_s"] > 0:
        values["obs.trace_overhead_frac"] = trace["traced_wall_s"] / trace["untraced_wall_s"] - 1.0
    return values
