"""Reporting helpers: speedup summaries and ASCII tables.

The experiment harness prints its results as plain-text tables shaped
like the paper's tables and figure series so that paper-vs-measured
comparisons are easy to eyeball (and to paste into EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Format a list of rows as an aligned ASCII table (columns at least 6 wide)."""

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(v) for v in row] for row in rows]
    widths = [max(6, len(h)) for h in headers]
    for row in rendered:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


@dataclass
class SpeedupReport:
    """Per-design runtime and quality comparison against baselines.

    ``runtimes`` maps a configuration label to modeled seconds;
    ``qualities`` maps it to the measured average displacement.  The FLEX
    entry is identified by ``ours_label``.
    """

    design: str
    runtimes: Dict[str, float] = field(default_factory=dict)
    qualities: Dict[str, float] = field(default_factory=dict)
    ours_label: str = "flex"

    def add(self, label: str, runtime_s: float, quality: Optional[float] = None) -> None:
        self.runtimes[label] = runtime_s
        if quality is not None:
            self.qualities[label] = quality

    def speedup_over(self, label: str) -> float:
        """Speedup of the FLEX configuration over ``label``."""
        ours = self.runtimes.get(self.ours_label)
        other = self.runtimes.get(label)
        if ours is None or other is None or ours <= 0:
            return float("nan")
        return other / ours

    def row(self, baseline_labels: Sequence[str]) -> List[object]:
        """One Table-1-style row: qualities, runtimes and speedups."""
        row: List[object] = [self.design]
        for label in list(baseline_labels) + [self.ours_label]:
            row.append(self.qualities.get(label, float("nan")))
            row.append(self.runtimes.get(label, float("nan")))
        for label in baseline_labels:
            row.append(self.speedup_over(label))
        return row


def shard_summary(trace) -> str:
    """One-line host-parallelism summary of a legalization trace.

    Reports the backend and the processes that executed FOP work; a
    ``multiprocess`` run that chunked regions' insertion points across
    its worker pool adds how many regions it farmed out.
    """
    text = f"backend={trace.kernel_backend} workers={trace.worker_count}"
    if trace.parallel_regions:
        text += f" parallel-regions={trace.parallel_regions}"
    return text


def feasibility_summary(trace) -> str:
    """One-line window-planning feasibility summary of a trace.

    Reports the retry-0 feasibility rate (targets whose planned window
    admitted them without any expansion retry), the total expansion
    retries paid, the planner growth steps spent buying that rate, and
    the whole-chip fallbacks — the counters the occupancy-aware window
    planner is meant to move.
    """
    n = len(trace.targets)
    return (
        f"targets={n} "
        f"retry0_feasible={trace.retry0_feasible_targets}"
        f" ({trace.retry0_feasibility_rate * 100.0:.1f}%) "
        f"retries_total={trace.retries_total} "
        f"planner_growths={trace.planner_growths_total} "
        f"fallbacks={trace.fallback_targets}"
    )


def incremental_summary(stats) -> str:
    """One-line summary of an incremental (ECO) legalization call.

    Reports how much of the design the engine actually re-legalized: the
    dirty-set size and its direct/overlap split, the reused placements,
    the rows whose index entries were invalidated, and whether the call
    fell back to a full re-legalization because dirtiness exceeded the
    threshold.
    """
    line = (
        f"mode={stats.mode} "
        f"deltas={stats.deltas_applied} "
        f"dirty={stats.dirty_total}/{stats.num_movable}"
        f" ({stats.dirty_fraction * 100.0:.1f}%:"
        f" {stats.dirty_direct} direct + {stats.dirty_overlap} overlap) "
        f"reused={stats.reused_cells} "
        f"rows_touched={stats.rows_touched} "
        f"AveDis={stats.avedis:.4f}"
        f" (drift {stats.avedis_drift * 100.0:+.1f}%) "
        f"wall={stats.wall_seconds:.3f}s"
    )
    if stats.fragmentation_tracked:
        line += f" frag={stats.fragmentation:.3f}"
    if stats.repack_reason:
        line += f" repack={stats.repack_reason} (total {stats.repacks_total})"
    if stats.mode == "full":
        line += f" (dirty fraction exceeded threshold {stats.full_threshold:.2f})"
    return line


def span_timeline(events: Sequence[dict]) -> List[dict]:
    """Fold span events (``repro.obs`` JSONL records) into per-phase rows.

    Groups the ``ev == "span"`` records by name and returns one row per
    phase — count, total/mean/p95/max seconds, share of the total span
    time — sorted by total descending.  Point events and records without
    a duration are ignored.  This is the aggregation behind
    ``repro trace``.
    """
    by_name: Dict[str, List[float]] = {}
    for record in events:
        if record.get("ev") != "span":
            continue
        dur = record.get("dur_s")
        if not isinstance(dur, (int, float)):
            continue
        by_name.setdefault(record.get("name", "?"), []).append(float(dur))
    grand_total = sum(sum(durs) for durs in by_name.values())
    rows = []
    for name, durs in by_name.items():
        durs.sort()
        total = sum(durs)
        p95 = durs[min(len(durs) - 1, int(0.95 * len(durs)))]
        rows.append(
            {
                "name": name,
                "count": len(durs),
                "total_s": total,
                "mean_s": total / len(durs),
                "p95_s": p95,
                "max_s": durs[-1],
                "share": total / grand_total if grand_total > 0 else 0.0,
            }
        )
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


def span_timeline_table(events: Sequence[dict]) -> str:
    """Render :func:`span_timeline` rows as an aligned ASCII table."""
    rows = span_timeline(events)
    return format_table(
        ["phase", "count", "total_s", "mean_s", "p95_s", "max_s", "share"],
        [
            [
                row["name"],
                row["count"],
                row["total_s"],
                row["mean_s"],
                row["p95_s"],
                row["max_s"],
                f"{row['share'] * 100.0:.1f}%",
            ]
            for row in rows
        ],
        float_format="{:.4f}",
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean ignoring NaNs and non-positive entries."""
    import math

    clean = [v for v in values if v > 0 and v == v]
    if not clean:
        return float("nan")
    return math.exp(sum(math.log(v) for v in clean) / len(clean))
