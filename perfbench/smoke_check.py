"""Smoke check of the benchmark itself, on shrunk inputs.

Usage (from the repository root; under a minute)::

    python3 perfbench/smoke_check.py

Checks that

* ``BENCHMARK.json`` lists the workloads of ``workloads.py`` with their
  reasons, and the metrics of ``catalog.py`` with their units, directions
  and bounds;
* every workload, untraced and traced, ends with a correct result that
  carries every metric ``BENCHMARK.json`` names for that mode, each with
  its unit;
* workload generation is deterministic in the seed, and another seed
  gives other inputs;
* ``dense_full_mp2`` places every design exactly as ``dense_full`` does on
  the same seed (same layout fingerprints);
* on the full workloads, the traced layers' self times sum to no more
  than the traced wall time.

Prints each problem found and exits 1 if there is any.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run(workload: str, trace: int):
    """Run one tiny benchmark invocation; return (last line, report)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(report_path.read_text())


def check_catalog(bench, problems) -> None:
    from catalog import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    listed = {w["name"]: w["why"] for w in bench["workloads"]}
    if listed != {name: w.why for name, w in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if bench["end_to_end"] != [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
    ]:
        problems.append("BENCHMARK.json end_to_end differs from catalog.py")
    if bench["per_layer"] != [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from catalog.py")


def check_determinism(problems) -> None:
    from repro.designio import layout_fingerprint
    from workloads import WORKLOADS, ServedWorkload, generate_designs, generate_streams

    for name, workload in WORKLOADS.items():
        def inputs(seed):
            designs = generate_designs(workload, seed, tiny=True)
            prints = [layout_fingerprint(d) for d in designs]
            if isinstance(workload, ServedWorkload):
                prints.append(json.dumps(generate_streams(workload, designs, seed, tiny=True)))
            return prints

        first, again, other = inputs(SEED), inputs(SEED), inputs(SEED + 1)
        if first != again:
            problems.append(f"{name}: the same seed generated different inputs")
        if first == other:
            problems.append(f"{name}: two seeds generated the same inputs")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from catalog import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, FullWorkload

    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_catalog(bench, problems)
    check_determinism(problems)

    expected = {0: {n: u for n, u, *_ in END_TO_END}, 1: {n: u for n, u, *_ in PER_LAYER}}
    fingerprints = {}
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            result, report = run(name, trace)
            tag = f"{name} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: result not correct: {report['notes']}")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{tag}: printed metrics/units differ from BENCHMARK.json")
            fingerprints[name, trace] = report["fingerprints"]
            if trace and isinstance(workload, FullWorkload):
                layers = report["trace"]["summary"]["layers"]
                self_total = sum(agg["self_s"] for agg in layers.values())
                wall = report["trace"]["traced_wall_s"]
                if self_total > wall:
                    problems.append(f"{tag}: layer self times {self_total:.4f}s exceed "
                                    f"traced wall time {wall:.4f}s")
    for trace in (0, 1):
        if fingerprints["dense_full_mp2", trace] != fingerprints["dense_full", trace]:
            problems.append(f"trace={trace}: dense_full_mp2 placements differ from dense_full")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
