"""Run ``repro serve`` for the served workload, optionally traced.

Usage: ``python3 perfbench/daemon.py --port-file PORT [--trace-out SPANS
--window-file WINDOW]`` with ``src`` on ``PYTHONPATH``.  With
``--trace-out`` the layer tracer is installed before the daemon starts;
after the daemon shuts down, every span is written to ``SPANS`` and the
per-layer summary of the spans that started inside the measured window
(read from ``WINDOW``, written by the benchmark before shutdown) to
``SPANS`` with the suffix ``.summary.json``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--window-file", type=Path)
    args = parser.parse_args()

    from repro.__main__ import main as repro_main

    tracer = Tracer().install() if args.trace_out else None
    try:
        return repro_main(["serve", "--port", "0", "--port-file", args.port_file,
                           "--backend", "numpy", "--max-sessions", "64"])
    finally:
        if tracer is not None:
            tracer.uninstall()
            window = json.loads(args.window_file.read_text()) if args.window_file.exists() else {}
            summary = tracer.summarize(window.get("start", float("-inf")),
                                       window.get("end", float("inf")))
            args.trace_out.with_suffix(".summary.json").write_text(json.dumps(summary))
            tracer.write(args.trace_out, window=window)
            args.window_file.unlink(missing_ok=True)


if __name__ == "__main__":
    raise SystemExit(main())
