"""``repro`` console entry point: drive the system without writing Python.

These subcommands cover the daily workflows::

    repro legalize design.json [-o out.json] [--backend numpy]
        Load a design (JSON or .cells), legalize it, verify legality,
        print the quality / feasibility summaries, optionally save the
        legalized layout.

    repro bench [--cells 800 --density 0.65 --seed 42 --backend numpy]
        Generate a synthetic mixed-cell-height design, legalize it, and
        print the quality, wall-time and work-counter summary — a quick
        smoke/benchmark of the installed configuration.

    repro eco design.json deltas.json [--backend numpy]
        Load a legal(izable) design plus an ECO delta stream, replay the
        stream through the incremental engine, and print one
        dirty-set/reuse summary line per batch.  With ``--generate`` the
        deltas file is *written* instead (a seeded stream at the
        requested churn), so a full round trip needs no Python at all::

            repro eco design.json deltas.json --generate --churn 0.05 --batches 3
            repro eco design.json deltas.json

    repro serve [--host 127.0.0.1 --port 7733 --backend numpy
                 --max-sessions 8 --max-inflight 64 --port-file port.txt]
        Run the legalization daemon: a long-running threaded server
        holding per-design incremental-legalizer sessions and accepting
        delta batches over length-prefixed JSON frames (see
        :mod:`repro.service`).  ``--port 0`` binds an ephemeral port;
        ``--port-file`` writes the bound port for scripts to pick up.

    repro submit design.json deltas.json [--host ... --port ...]
        Open a session on a running daemon, stream the delta batches to
        it, print one summary line per batch, close the session — and
        with ``--verify`` replay the served ledger offline and assert
        the daemon's final placement is bit-for-bit identical.

    repro top [--host ... --port ...] [--interval 2.0] [--once] [--prometheus]
        Live dashboard over a running daemon's ``metrics`` op: server
        gauges (sessions, in-flight), per-op request counts and latency
        quantiles, per-session queue depth and engine counters.
        ``--prometheus`` dumps the raw exposition text instead.

    repro trace spans.jsonl [--session NAME] [--run ID]
        Fold a ``REPRO_TRACE`` span log (JSONL emitted by
        :mod:`repro.obs`) into a per-phase wall-time timeline table.

    repro lint [paths...] [--strict] [--format human|json|github]
               [--select RULE-ID] [--baseline FILE] [--update-baseline]
        Run the project's static analyzer (:mod:`repro.analysis`):
        determinism, float-exactness, lock-discipline and fork-safety
        rules over the source tree.  Exit 0 clean, 1 findings, 2 usage
        errors; per-line suppressions via ``# repro: allow[rule-id]``.

The module is installed as the ``repro`` console script via
``[project.scripts]`` and is equally runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.geometry.layout import Layout


def _load_layout(path: Path) -> Layout:
    """Load a design file, reporting corruption as one-line user errors.

    A missing file surfaces as :class:`OSError`; corrupt JSON is
    reported ``file:line:col: message`` (no traceback), and a JSON file
    whose *shape* is wrong (missing keys, wrong types) is wrapped into a
    :class:`ValueError` naming the file instead of leaking a bare
    ``KeyError`` traceback to the terminal.
    """
    from repro.designio import load_cells, load_layout_json

    try:
        if path.suffix == ".cells":
            return load_cells(path)
        return load_layout_json(path)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed design file: {exc}") from None
    except ValueError as exc:
        # Value-level errors (e.g. a negative cell width) already carry
        # file:line context from the bookshelf parser; bare ones from
        # the JSON path still need the file named.
        if str(exc).startswith(str(path)):
            raise
        raise ValueError(f"{path}: {exc}") from None


def _load_stream(path: Path):
    """Load a delta stream with the same error reporting as designs."""
    from repro.incremental import load_delta_stream

    try:
        return load_delta_stream(path)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed delta stream: {exc}") from None
    except ValueError as exc:
        if str(exc).startswith(str(path)):
            raise
        raise ValueError(f"{path}: {exc}") from None


def _save_layout(layout: Layout, path: Path) -> None:
    from repro.designio import save_cells, save_layout_json

    if path.suffix == ".cells":
        save_cells(layout, path)
    else:
        save_layout_json(layout, path)


def _make_legalizer(backend: str):
    """The CLI's legalizer on ``backend``, resolved up front so that a bad
    spelling is a one-line user error before any work starts."""
    from repro.kernels import get_kernel_backend
    from repro.mgl.legalizer import fast_mgl_legalizer

    try:
        get_kernel_backend(backend)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return fast_mgl_legalizer(backend)


def _print_run(layout: Layout, result, *, check: bool = True) -> int:
    from repro.legality import LegalityChecker
    from repro.perf.report import feasibility_summary, shard_summary

    print(f"result       : AveDis {result.average_displacement:.4f} row heights, "
          f"{len(result.trace.targets)} targets, wall {result.wall_seconds:.3f}s")
    print(f"work         : {result.trace.summary()}")
    print(f"feasibility  : {feasibility_summary(result.trace)}")
    print(f"host         : {shard_summary(result.trace)}")
    if not result.success:
        print(f"FAILED cells : {result.failed_cells}", file=sys.stderr)
        return 1
    if check:
        report = LegalityChecker().check(layout)
        print(f"legality     : {report.summary()}")
        if not report.legal:
            return 1
    return 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_legalize(args: argparse.Namespace) -> int:
    legalizer = _make_legalizer(args.backend)
    layout = _load_layout(args.design)
    print("input design :", layout.summary())
    result = legalizer.legalize(layout)
    status = _print_run(layout, result)
    if args.output is not None:
        _save_layout(layout, args.output)
        print(f"saved        : {args.output}")
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchgen import DesignSpec, generate_design

    legalizer = _make_legalizer(args.backend)
    spec = DesignSpec(
        name="bench",
        num_cells=args.cells,
        density=args.density,
        seed=args.seed,
    )
    layout = generate_design(spec)
    print("design       :", layout.summary())
    start = time.perf_counter()
    result = legalizer.legalize(layout)
    wall = time.perf_counter() - start
    status = _print_run(layout, result)
    rate = len(result.trace.targets) / wall if wall > 0 else float("inf")
    print(f"throughput   : {rate:.1f} cells/s on backend {args.backend!r}")
    return status


def _drift_knobs(args: argparse.Namespace) -> dict:
    """Displacement-budget knobs shared by the replay and soak modes.

    Negative values disable a knob (argparse has no None spelling), so
    ``--max-drift -1`` runs the pure incremental engine.
    """
    return dict(
        max_avedis_drift=(
            args.max_drift if args.max_drift is not None and args.max_drift >= 0 else None
        ),
        repack_every=(
            args.repack_every if args.repack_every and args.repack_every > 0 else None
        ),
        max_fragmentation_drift=(
            args.max_frag_drift
            if args.max_frag_drift is not None and args.max_frag_drift >= 0
            else None
        ),
    )


def cmd_eco(args: argparse.Namespace) -> int:
    from repro.incremental import IncrementalLegalizer, save_delta_stream
    from repro.legality import LegalityChecker
    from repro.perf.report import incremental_summary

    legalizer = _make_legalizer(args.backend)
    layout = _load_layout(args.design)
    if args.generate:
        from repro.benchgen import EcoSpec, generate_eco_stream

        if args.deltas is None:
            raise ValueError("eco --generate needs a DELTAS output path")
        spec = EcoSpec(
            churn=args.churn,
            batches=args.batches,
            seed=args.seed,
            macro_move_probability=args.macro_churn,
        )
        stream = generate_eco_stream(layout, spec)
        save_delta_stream(stream, args.deltas)
        print(f"wrote {sum(len(b) for b in stream)} deltas in "
              f"{len(stream)} batches to {args.deltas}")
        return 0

    if args.soak:
        return _run_soak(args, layout)

    if args.deltas is None:
        raise ValueError("eco needs a DELTAS file to replay (or --generate / --soak)")
    stream = _load_stream(args.deltas)
    print("input design :", layout.summary())
    engine = IncrementalLegalizer(
        legalizer,
        full_threshold=args.churn_threshold,
        **_drift_knobs(args),
    )
    base = engine.begin(layout)
    if base is not None:
        print(f"base run     : AveDis {base.average_displacement:.4f}, "
              f"wall {base.wall_seconds:.3f}s")
    status = 0
    for i, batch in enumerate(stream):
        result = engine.apply(batch)
        print(f"batch {i:<3}    : {incremental_summary(result.stats)}")
        if not result.success:
            print(f"FAILED cells : {result.legalization.failed_cells}", file=sys.stderr)
            status = 1
    report = LegalityChecker().check(layout)
    print(f"legality     : {report.summary()}")
    final = engine.history[-1] if engine.history else None
    if final is not None:
        total_dirty = sum(s.dirty_total for s in engine.history)
        print(f"stream total : {len(stream)} batches, {total_dirty} cells "
              f"re-legalized, {engine.repacks_total} repacks, "
              f"{sum(s.wall_seconds for s in engine.history):.3f}s")
    if args.output is not None:
        _save_layout(layout, args.output)
        print(f"saved        : {args.output}")
    return status if report.legal else 1


def _run_soak(args: argparse.Namespace, layout: Layout) -> int:
    """``repro eco --soak``: long-stream quality-drift soak of a design."""
    from repro.experiments.eco_soak import soak_layout, soak_result_table
    from repro.legality import LegalityChecker

    knobs = _drift_knobs(args)
    if args.max_drift is None:
        # The soak exists to exercise the governor: default the budget on.
        knobs["max_avedis_drift"] = 0.05
    print("input design :", layout.summary())
    payload = soak_layout(
        layout,
        batches=args.soak_batches,
        churn=args.churn,
        backend=args.backend,
        eco_seed=args.seed,
        macro_move_probability=args.macro_churn,
        full_threshold=args.churn_threshold,
        **knobs,
    )
    print(soak_result_table(payload, sample_every=args.sample_every).format())
    if args.soak_json is not None:
        Path(args.soak_json).write_text(
            json.dumps(payload, indent=1), encoding="utf-8"
        )
        print(f"trajectory   : {args.soak_json}")
    report = LegalityChecker().check(layout)
    print(f"legality     : {report.summary()}")
    if args.output is not None:
        _save_layout(layout, args.output)
        print(f"saved        : {args.output}")
    status = 0 if report.legal and not payload["final"]["failed_batches"] else 1
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import LegalizationServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        default_backend=args.backend,
    )
    server = LegalizationServer(config).start()
    host, port = server.address
    print(f"repro serve: listening on {host}:{port} "
          f"(backend {args.backend!r}, max {args.max_sessions} sessions / "
          f"{args.max_inflight} in-flight batches)", flush=True)
    if args.port_file is not None:
        args.port_file.write_text(f"{port}\n", encoding="utf-8")
    try:
        server.serve_forever()
        print("repro serve: shutdown requested, drained", flush=True)
    except KeyboardInterrupt:
        print("repro serve: interrupt, draining sessions", file=sys.stderr)
        server.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.designio import layout_from_dict, save_layout_json
    from repro.legality import LegalityChecker
    from repro.service import ServiceClient, ServiceError

    layout = _load_layout(args.design)
    stream = _load_stream(args.deltas)
    config = {
        "backend": args.backend,
        "full_threshold": args.churn_threshold,
        **{k: v for k, v in _drift_knobs(args).items() if v is not None},
    }
    config = {k: v for k, v in config.items() if v is not None}
    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        raise ValueError(
            f"cannot reach daemon at {args.host}:{args.port}: {exc}"
        ) from None
    status = 0
    with client:
        handle = client.open_session(layout, session=args.session, config=config)
        opened = handle.opened
        print(f"session      : {handle.name} on {args.host}:{args.port} "
              f"({opened['num_movable']} movable cells, "
              f"base AveDis {opened['base_avedis']:.4f})")
        for i, batch in enumerate(stream):
            try:
                r = handle.apply(batch)
            except ServiceError as exc:
                print(f"batch {i:<3}    : REJECTED [{exc.code}] {exc.detail}",
                      file=sys.stderr)
                status = 1
                continue
            print(f"batch {i:<3}    : mode={r['mode']} deltas={r['deltas_applied']} "
                  f"dirty={r['dirty_total']}/{r['num_movable']} "
                  f"reused={r['reused_cells']} AveDis={r['avedis']:.4f} "
                  f"(drift {r['avedis_drift'] * 100.0:+.1f}%) "
                  f"wall={r['wall_seconds']:.3f}s")
            if not r["success"]:
                status = 1
        if args.repack:
            r = handle.repack(wait=True)
            print(f"repack       : AveDis={r['avedis']:.4f} wall={r['wall_seconds']:.3f}s")
        final = handle.close(return_layout=args.output is not None)
        engine = final["engine"]
        print(f"stream total : {engine['batches']} batches, "
              f"{engine['cells_relegalized']} cells re-legalized, "
              f"{engine['repacks_total']} repacks, "
              f"{final['failed_batches']} failed, "
              f"{final['coalesced_batches']} coalesced, "
              f"{engine['wall_seconds']:.3f}s engine time")
        print(f"fingerprint  : {final['fingerprint']}")
        if final["failed_batches"] or final["async_errors"]:
            status = 1
        if args.verify:
            match = handle.verify(final)
            print(f"verify       : {'bit-for-bit MATCH' if match else 'MISMATCH'} "
                  "vs offline replay of the served ledger")
            if not match:
                status = 1
        if args.output is not None:
            served = layout_from_dict(final["layout"])
            report = LegalityChecker().check(served)
            print(f"legality     : {report.summary()}")
            save_layout_json(served, args.output)
            print(f"saved        : {args.output}")
            if not report.legal:
                status = 1
        if args.shutdown:
            client.shutdown()
            print("daemon       : shutdown requested")
    return status


def _print_top(response: dict) -> None:
    """Render one ``metrics`` scrape as the ``repro top`` dashboard."""
    from repro.obs.metrics import histogram_quantile
    from repro.perf.report import format_table

    server = response.get("server", {})
    draining = " (draining)" if server.get("draining") else ""
    print(f"server       : {server.get('sessions', 0)}/{server.get('max_sessions', '?')} "
          f"sessions, {server.get('inflight', 0)}/{server.get('max_inflight', '?')} "
          f"in-flight{draining}")

    snapshot = response.get("metrics", {})
    requests: dict = {}
    for counter in snapshot.get("counters", []):
        if counter["name"] != "repro_requests_total":
            continue
        labels = dict(counter["labels"])
        entry = requests.setdefault(labels.get("op", "?"), {"total": 0.0, "errors": 0.0})
        entry["total"] += counter["value"]
        if labels.get("status") != "ok":
            entry["errors"] += counter["value"]
    latencies = {}
    for hist in snapshot.get("histograms", []):
        if hist["name"] == "repro_op_latency_seconds":
            latencies[dict(hist["labels"]).get("op", "?")] = hist
    rows = []
    for op in sorted(set(requests) | set(latencies)):
        entry = requests.get(op, {"total": 0.0, "errors": 0.0})
        hist = latencies.get(op)
        mean = hist["sum"] / hist["count"] if hist and hist["count"] else 0.0
        rows.append([
            op,
            int(entry["total"]),
            int(entry["errors"]),
            mean,
            histogram_quantile(hist, 0.5) if hist else 0.0,
            histogram_quantile(hist, 0.95) if hist else 0.0,
        ])
    if rows:
        print(format_table(
            ["op", "count", "errors", "mean_s", "p50_s", "p95_s"],
            rows, float_format="{:.4f}",
        ))

    for name, info in sorted(response.get("sessions", {}).items()):
        engine = info.get("engine", {})
        print(f"session {name}: queue={info.get('queue_depth', 0)} "
              f"dispatches={info.get('dispatches', 0)} "
              f"coalesced={info.get('coalesced_batches', 0)} "
              f"failed={info.get('failed_batches', 0)} "
              f"batches={engine.get('batches', 0)} "
              f"repacks={engine.get('repacks_total', 0)} "
              f"engine_wall={engine.get('wall_seconds', 0.0):.3f}s")


def cmd_top(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        raise ValueError(
            f"cannot reach daemon at {args.host}:{args.port}: {exc}"
        ) from None
    with client:
        try:
            while True:
                response = client.metrics(
                    format="prometheus" if args.prometheus else None
                )
                if args.prometheus:
                    print(response["text"], end="", flush=True)
                else:
                    _print_top(response)
                if args.once:
                    return 0
                print(flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_events
    from repro.perf.report import span_timeline_table

    events = load_events(args.log)
    if args.session is not None:
        events = [e for e in events if e.get("session") == args.session]
    if args.run is not None:
        events = [e for e in events if e.get("run") == args.run]
    spans = sum(1 for e in events if e.get("ev") == "span")
    points = sum(1 for e in events if e.get("ev") == "event")
    print(f"span log     : {args.log} — {spans} spans, {points} events")
    if not spans:
        print("no span records matched; was the log written with "
              f"REPRO_TRACE set{' / the given filter' if args.session or args.run else ''}?",
              file=sys.stderr)
        return 1
    print(span_timeline_table(events))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLEX legalization reproduction: legalize, bench and replay ECO streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_leg = sub.add_parser("legalize", help="legalize a design file (JSON or .cells)")
    p_leg.add_argument("design", type=Path, help="input design (.json or .cells)")
    p_leg.add_argument("-o", "--output", type=Path, default=None,
                       help="write the legalized layout here (.json or .cells)")
    p_leg.add_argument("--backend", default="numpy",
                       help="kernel backend (python, numpy, multiprocess[:N])")
    p_leg.set_defaults(func=cmd_legalize)

    p_bench = sub.add_parser("bench", help="generate a synthetic design and legalize it")
    p_bench.add_argument("--cells", type=int, default=800, help="movable cell count")
    p_bench.add_argument("--density", type=float, default=0.65, help="design density")
    p_bench.add_argument("--seed", type=int, default=42, help="generator seed")
    p_bench.add_argument("--backend", default="numpy",
                         help="kernel backend (python, numpy, multiprocess[:N])")
    p_bench.set_defaults(func=cmd_bench)

    p_eco = sub.add_parser(
        "eco", help="replay (or generate) an ECO delta stream against a design, "
                    "or soak it over a long stream"
    )
    p_eco.add_argument("design", type=Path, help="input design (.json or .cells)")
    p_eco.add_argument("deltas", type=Path, nargs="?", default=None,
                       help="delta-stream JSON (read, or written with --generate; "
                            "unused with --soak)")
    p_eco.add_argument("-o", "--output", type=Path, default=None,
                       help="write the final layout here (.json or .cells)")
    p_eco.add_argument("--backend", default="numpy",
                       help="kernel backend (python, numpy, multiprocess[:N])")
    p_eco.add_argument("--churn-threshold", type=float, default=0.5,
                       help="dirty fraction above which a full re-legalization runs "
                            "(default 0.5)")
    p_eco.add_argument("--max-drift", type=float, default=None,
                       help="relative AveDis drift budget triggering a repack "
                            "(e.g. 0.05; negative disables; default off, "
                            "0.05 under --soak)")
    p_eco.add_argument("--repack-every", type=int, default=None,
                       help="scheduled repack period in batches (default off)")
    p_eco.add_argument("--max-frag-drift", type=float, default=None,
                       help="absolute free-space fragmentation growth budget "
                            "triggering a repack (negative disables; default off)")
    p_eco.add_argument("--generate", action="store_true",
                       help="generate a seeded delta stream into DELTAS instead of replaying")
    p_eco.add_argument("--churn", type=float, default=0.05,
                       help="with --generate/--soak: fraction of cells touched per batch")
    p_eco.add_argument("--batches", type=int, default=3,
                       help="with --generate: number of delta batches")
    p_eco.add_argument("--seed", type=int, default=0,
                       help="with --generate/--soak: stream seed")
    p_eco.add_argument("--macro-churn", type=float, default=0.0,
                       help="with --generate/--soak: per-batch fixed-macro move probability")
    p_eco.add_argument("--soak", action="store_true",
                       help="long-stream quality-drift soak: generate and replay "
                            "--soak-batches seeded batches, record the AveDis/"
                            "fragmentation trajectory, compare the final layout "
                            "against a from-scratch full legalization")
    p_eco.add_argument("--soak-batches", type=int, default=200,
                       help="with --soak: number of delta batches (default 200)")
    p_eco.add_argument("--soak-json", type=Path, default=None,
                       help="with --soak: write the trajectory payload here "
                            "(e.g. BENCH_eco_soak.json)")
    p_eco.add_argument("--sample-every", type=int, default=10,
                       help="with --soak: trajectory table sampling period")
    p_eco.set_defaults(func=cmd_eco)

    p_serve = sub.add_parser(
        "serve", help="run the legalization daemon (sessions + ECO batches "
                      "over length-prefixed JSON frames)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=7733,
                         help="bind port (0 = ephemeral; default 7733)")
    p_serve.add_argument("--port-file", type=Path, default=None,
                         help="write the bound port here (for scripts/CI)")
    p_serve.add_argument("--backend", default="numpy",
                         help="default kernel backend of sessions that do not "
                              "choose one (python, numpy, multiprocess[:N])")
    p_serve.add_argument("--max-sessions", type=int, default=8,
                         help="admission control: max concurrently open sessions")
    p_serve.add_argument("--max-inflight", type=int, default=64,
                         help="admission control: max delta batches queued or "
                              "applying across all sessions")
    p_serve.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="stream an ECO delta file to a running daemon session"
    )
    p_sub.add_argument("design", type=Path, help="input design (.json or .cells)")
    p_sub.add_argument("deltas", type=Path, help="delta-stream JSON to replay")
    p_sub.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_sub.add_argument("--port", type=int, default=7733, help="daemon port")
    p_sub.add_argument("--timeout", type=float, default=120.0,
                       help="per-request socket timeout in seconds")
    p_sub.add_argument("--session", default=None,
                       help="session name (default: daemon-assigned)")
    p_sub.add_argument("--backend", default=None,
                       help="session kernel backend (default: daemon default)")
    p_sub.add_argument("--churn-threshold", type=float, default=None,
                       help="dirty fraction above which the session runs a "
                            "full re-legalization")
    p_sub.add_argument("--max-drift", type=float, default=None,
                       help="relative AveDis drift budget triggering a repack "
                            "(negative disables)")
    p_sub.add_argument("--repack-every", type=int, default=None,
                       help="scheduled repack period in batches")
    p_sub.add_argument("--max-frag-drift", type=float, default=None,
                       help="absolute fragmentation growth budget (negative disables)")
    p_sub.add_argument("--repack", action="store_true",
                       help="request one explicit repack after the stream")
    p_sub.add_argument("--verify", action="store_true",
                       help="offline-replay the served ledger and require a "
                            "bit-for-bit fingerprint match")
    p_sub.add_argument("-o", "--output", type=Path, default=None,
                       help="fetch the final served layout and write it here")
    p_sub.add_argument("--shutdown", action="store_true",
                       help="ask the daemon to drain and exit afterwards")
    p_sub.set_defaults(func=cmd_submit)

    p_top = sub.add_parser(
        "top", help="live dashboard over a running daemon's metrics op"
    )
    p_top.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_top.add_argument("--port", type=int, default=7733, help="daemon port")
    p_top.add_argument("--timeout", type=float, default=10.0,
                       help="per-request socket timeout in seconds")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh period in seconds (default 2.0)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit (for scripts/CI)")
    p_top.add_argument("--prometheus", action="store_true",
                       help="print the Prometheus exposition text instead of "
                            "the dashboard")
    p_top.set_defaults(func=cmd_top)

    p_lint = sub.add_parser(
        "lint", help="static analysis: determinism / float-exactness / "
                     "lock-discipline / fork-safety rules"
    )
    from repro.analysis.cli import add_lint_arguments, cmd_lint

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_trace = sub.add_parser(
        "trace", help="fold a REPRO_TRACE span log into a per-phase timeline"
    )
    p_trace.add_argument("log", type=Path, help="span log (JSONL) to aggregate")
    p_trace.add_argument("--session", default=None,
                         help="only events carrying this session id")
    p_trace.add_argument("--run", default=None,
                         help="only events carrying this run id")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point (``repro`` / ``python -m repro``).

    Subcommand exit codes propagate unchanged (0 success, 1 failed
    legalization / legality); user errors — missing or corrupt design
    and delta files, bad parameter values — exit 2 with a one-line
    ``file:line``-style message instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro ... | head`): not an error.
        # Point stdout at devnull so interpreter shutdown doesn't raise
        # again while flushing the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # Bad paths: prefer the "path: reason" spelling over the raw
        # "[Errno 2] ..." repr.
        detail = (
            f"{exc.filename}: {exc.strerror}"
            if exc.filename and exc.strerror
            else str(exc)
        )
        print(f"repro {args.command}: error: {detail}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Malformed design/delta files and bad parameters are user
        # errors: report them in one line instead of a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A structured daemon rejection (ServiceError) is a user-facing
        # condition, not a crash; anything else keeps its traceback.
        # Imported lazily: only the serve/submit paths load the service
        # stack at all.
        from repro.service.client import ServiceError

        if isinstance(exc, ServiceError):
            print(f"repro {args.command}: error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
