"""Repository benchmark: full-chip and served-ECO legalization workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_full --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (see ``catalog.py``).  Every run checks its outputs
outside the timed region, writes a report stamped with the seed and a
host fingerprint to ``.perfbench/``, and prints one JSON result object as
its last line of output.  The workloads and their reasons are in
``workloads.py``; ``smoke_check.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk inputs, for the benchmark's own smoke check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_TRACE", None)  # measure with the program's telemetry off

    from catalog import END_TO_END, PER_LAYER
    from tracer import MODEL_STAGES
    from workloads import WORKLOADS, FullWorkload, layer_metrics, run_full, run_served

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if isinstance(workload, FullWorkload):
        result = run_full(workload, args.seed, args.seconds, trace, args.tiny)
    else:
        result = run_served(workload, args.seed, args.seconds, trace, args.tiny, outdir)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if trace:
        values = layer_metrics(result)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
        tracer = result.pop("tracer", None)
        if tracer is not None:
            tracer.write(outdir / f"{stem}-spans.json")
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit, *_ in END_TO_END}
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host_fingerprint(),
        "metrics": metrics,
        **result,
    }
    (outdir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"samples={result['samples']} host={report['host']}")
    for note in result["notes"]:
        print(f"  CHECK FAILED: {note}")
    if trace:
        print("  CpuCostModel stage seconds beside traced busy seconds, per operation:")
        for stage, layer in MODEL_STAGES.items():
            print(f"    {stage:9s} modeled {values[f'perf.model.{stage}_s']:.6g} s"
                  f"  measured {values[f'{layer}.busy_s']:.6g} s"
                  f"  ratio {values[f'perf.model.{stage}_ratio']:.4g}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  report: {outdir / (stem + '.json')}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
