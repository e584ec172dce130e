"""In-memory span tracer around the public functions of each layer.

The benchmark attributes time to layers without touching ``src/``: it
replaces the public functions and methods listed in :data:`LAYER_SITES`
with thin wrappers that record one span per call.  A span is
``(layer, start, end, self_seconds, counters)``; self time is the
span's duration minus the time covered by wrapped calls made beneath it
on the same thread.  Spans stay in memory while the workload runs and
are written out once, at the end (:meth:`Tracer.write`).

Functions imported by name into another module are patched where they
are looked up (``repro.mgl.legalizer.find_optimal_position``, not
``repro.mgl.fop.find_optimal_position``), so the wrapper is what the
legalizer actually calls.  A span whose layer is already open on the
same thread (``OriginalShifter.shift`` calling ``prepare``) counts
toward self time but not again toward busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The top-level layers: their self time is the part of an operation
#: that no named layer accounts for.
TOP_LAYERS = ("core.flex", "mgl.legalize", "incremental.apply")

#: CpuCostModel stages and the traced layer measuring the same work.
MODEL_STAGES = {
    "premove": "mgl.premove",
    "ordering": "core.ordering",
    "region": "mgl.local_region",
    "fop": "mgl.fop",
    "update": "mgl.update",
}


def _count_legalization(result) -> Dict[str, Any]:
    trace = result.trace
    return {
        "targets": len(trace.targets),
        "retry0_feasible": trace.retry0_feasible_targets,
        "retries": trace.retries_total,
        "fallbacks": trace.fallback_targets,
        "_trace": trace,
    }


def _count_fop(result) -> Dict[str, Any]:
    return {"points": result.n_points_evaluated, "feasible": result.n_points_feasible}


def _count_update(result) -> Dict[str, Any]:
    return {"moved_cells": result or 0}


def _count_sacs(result) -> Dict[str, Any]:
    return {"cell_visits": result.cell_visits}


def _count_minimize(result) -> Dict[str, Any]:
    evaluations = result if isinstance(result, list) else [result]
    return {"breakpoints": sum(e.n_breakpoints for e in evaluations)}


def _count_model(result) -> Dict[str, Any]:
    timeline = result.timeline
    return {
        "modeled_ms": timeline.total * 1e3,
        "fpga_busy_ms": timeline.fpga_busy * 1e3,
        "visible_transfer_ms": timeline.visible_transfer * 1e3,
    }


#: (module, attribute path, layer, counter hook) for every wrapped call.
LAYER_SITES: List[Tuple[str, str, str, Optional[Callable[[Any], Any]]]] = [
    ("repro.core.flex_legalizer", "FlexLegalizer.legalize", "core.flex", None),
    ("repro.core.flex_legalizer", "FlexLegalizer.model_run", "perf.model", _count_model),
    ("repro.mgl.legalizer", "MGLLegalizer.legalize", "mgl.legalize", _count_legalization),
    ("repro.mgl.legalizer", "MGLLegalizer.legalize_subset", "mgl.legalize", _count_legalization),
    ("repro.incremental.engine", "IncrementalLegalizer.apply", "incremental.apply", None),
    ("repro.mgl.legalizer", "premove", "mgl.premove", None),
    ("repro.mgl.legalizer", "premove_cell", "mgl.premove", None),
    ("repro.core.ordering", "SlidingWindowOrdering.__call__", "core.ordering", None),
    ("repro.mgl.legalizer", "size_descending_order", "core.ordering", None),
    ("repro.mgl.legalizer", "plan_initial_window", "mgl.window_planner", None),
    ("repro.mgl.local_region", "RegionBuilder.build", "mgl.local_region", None),
    ("repro.mgl.legalizer", "find_optimal_position", "mgl.fop", _count_fop),
    ("repro.mgl.legalizer", "commit_placement", "mgl.update", _count_update),
    ("repro.legality.metrics", "PlacementMetrics.compute", "legality.metrics", None),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.build_sacs_context", "kernels.sacs", None),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.shift_sacs", "kernels.sacs", _count_sacs),
    ("repro.mgl.shifting", "OriginalShifter.prepare", "mgl.shifting", None),
    ("repro.mgl.shifting", "OriginalShifter.shift", "mgl.shifting", None),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.build_curves", "kernels.curves.build", None),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.minimize", "kernels.curves.minimize", _count_minimize),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.minimize_batch", "kernels.curves.minimize", _count_minimize),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.evaluate", "kernels.curves.evaluate", None),
    ("repro.kernels.numpy_backend", "NumpyKernelBackend.evaluate_batch", "kernels.curves.evaluate", None),
    ("repro.kernels.mp_backend", "MultiprocessKernelBackend.evaluate_points_parallel", "kernels.mp_backend", None),
]


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, float, Optional[Dict[str, Any]]]] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, layer: str, hook: Optional[Callable]) -> Callable:
        spans, stack_of = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            nested = any(f[0] == layer for f in stack)
            counters = hook(result) if hook is not None else None
            if nested:
                counters = dict(counters or {}, _nested=True)
            spans.append((layer, start, end, end - start - frame[1], counters))
            return result

        return traced

    def install(self) -> "Tracer":
        """Patch every site of :data:`LAYER_SITES` (idempotent per tracer)."""
        if self._patches:
            return self
        for module_name, path, layer, hook in LAYER_SITES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, layer, hook))
            self._patches.append((owner, attr, original, own))
        return self

    def uninstall(self) -> None:
        """Restore every patched site."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    def summarize(self, start: float = float("-inf"), end: float = float("inf")) -> Dict[str, Any]:
        """Per-layer busy/self seconds, calls and counters of spans that
        started inside ``[start, end]``, plus the CpuCostModel stage
        seconds of the legalization traces recorded in that interval."""
        from repro.perf.cost_model import CpuCostModel

        model = CpuCostModel()
        layers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        modeled: Dict[str, float] = defaultdict(float)
        for layer, t0, t1, self_s, counters in self.spans:
            if not start <= t0 <= end:
                continue
            agg = layers[layer]
            agg["self_s"] += self_s
            if counters and counters.get("_nested"):
                continue
            agg["busy_s"] += t1 - t0
            agg["calls"] += 1
            for key, value in (counters or {}).items():
                if key == "_trace":
                    for stage, seconds in model.breakdown(value).as_dict().items():
                        if stage in MODEL_STAGES:
                            modeled[stage] += seconds
                elif not key.startswith("_"):
                    agg[key] += value
        return {
            "layers": {name: dict(agg) for name, agg in sorted(layers.items())},
            "modeled": dict(modeled),
        }

    def write(self, path, **extra: Any) -> None:
        """Write every recorded span (and ``extra`` fields) as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = dict(extra)
        payload["layers"] = names
        payload["spans"] = [
            [index[layer], round(t0, 7), round(t1, 7), round(self_s, 7)]
            for layer, t0, t1, self_s, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
