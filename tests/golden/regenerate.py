"""Regenerate the golden end-to-end fixtures.

Run from the repository root after an *intentional* algorithm change::

    PYTHONPATH=src python tests/golden/regenerate.py

Each fixture stores a small serialized input layout plus the exact
placements, displacement statistics and work-counter aggregates the
pure-Python reference backend produces for it.  The golden suite
(``tests/test_golden.py``) then checks **every registered kernel
backend** against these files: unlike the pairwise equivalence suite
(which compares two live runs and would follow a behavior drift in both
backends at once), the committed fixtures catch silent cross-version
drift of the legalization pipeline itself.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.benchgen import iccad2017_design
from repro.core.sacs import SortAheadShifter
from repro.designio.serialize import layout_to_dict
from repro.mgl import MGLLegalizer
from repro.mgl.fop import FOPConfig
from repro.mgl.shifting import OriginalShifter
from repro.testing import small_design

GOLDEN_DIR = Path(__file__).resolve().parent

#: name -> (layout factory, legalizer keyword-config)
FIXTURES = {
    "tiny_sacs": (
        lambda: small_design(num_cells=60, density=0.5, seed=5),
        dict(shifter="sacs"),
    ),
    "dense_sacs": (
        lambda: small_design(num_cells=110, density=0.8, seed=9),
        dict(shifter="sacs"),
    ),
    "tall_original": (
        lambda: small_design(
            num_cells=80,
            density=0.55,
            seed=12,
            height_mix={1: 0.5, 2: 0.2, 3: 0.15, 4: 0.1, 5: 0.05},
        ),
        dict(shifter="original"),
    ),
    "iccad_like_sacs": (
        lambda: iccad2017_design("des_perf_b_md2", scale=0.0012, seed=2017),
        dict(shifter="sacs"),
    ),
}


def build_legalizer(config: dict, backend: str = "python") -> MGLLegalizer:
    shifter = SortAheadShifter() if config["shifter"] == "sacs" else OriginalShifter()
    return MGLLegalizer(FOPConfig(shifter=shifter), backend=backend)


def generate(name: str) -> dict:
    factory, config = FIXTURES[name]
    layout = factory()
    fixture = {"name": name, "config": config, "layout": layout_to_dict(layout)}
    result = build_legalizer(config).legalize(layout)
    trace = result.trace
    fixture["expected"] = {
        "positions": [[c.x, c.y, c.legalized] for c in layout.cells],
        "failed_cells": result.failed_cells,
        "average_displacement": result.average_displacement,
        "counters": {
            "targets": len(trace.targets),
            "total_insertion_points": trace.total_insertion_points,
            "total_shift_visits": trace.total_shift_visits,
            "total_breakpoints": trace.total_breakpoints,
            "total_sort_items": trace.total_sort_items,
            "total_update_moves": trace.total_update_moves,
        },
    }
    return fixture


def main() -> None:
    for name in FIXTURES:
        fixture = generate(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=1), encoding="utf-8")
        n_targets = fixture["expected"]["counters"]["targets"]
        print(f"wrote {path.name}: {n_targets} targets")


if __name__ == "__main__":
    main()
