"""The repo benchmark's hooks into the package keep resolving.

``perfbench/`` measures the package from outside: its tracer patches
functions and methods by dotted name, and its workloads select kernel
backends by spec string.  A rename or a deleted method in ``src/`` would
only surface when the benchmark runs, so these tests import the two
modules (without writing bytecode next to them) and resolve every name
they depend on.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.kernels import KernelBackend, resolve_backend

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("tracer", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """The ``tracer`` and ``workloads`` modules of ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in MODULES)
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_layer_site_resolves(perfbench):
    tracer, _ = perfbench
    assert tracer.LAYER_SITES
    for module_name, path, layer, _ in tracer.LAYER_SITES:
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name)
        assert callable(owner), f"{module_name}.{path} ({layer}) is not callable"


def test_every_workload_backend_resolves(perfbench):
    _, workloads = perfbench
    specs = {
        w.backend for w in workloads.WORKLOADS.values() if isinstance(w, workloads.FullWorkload)
    }
    # Served workloads open their sessions with a fixed backend config.
    assert 'config={"backend": "numpy"}' in inspect.getsource(workloads._open_sessions)
    specs.add("numpy")
    for spec in sorted(specs):
        backend = resolve_backend(spec)
        assert isinstance(backend, KernelBackend), spec


def test_traced_layers_agree_across_the_backend_chain(perfbench):
    """``multiprocess`` inherits ``numpy``'s kernels, so the tracer's
    class patches reach it: a traced legalization records the same
    layers on both backends.  The original shifter runs the staged
    curve kernels; SACS regions run in the native search, which returns
    the winner's shift outcome, so no SACS kernel runs in Python."""
    from repro.core import FlexConfig, FlexLegalizer
    from repro.core.pipeline import PipelineOrganization
    from repro.testing import small_design

    tracer_module, _ = perfbench
    layers = {}
    for shifter, options in (
        ("sacs", {}),
        ("original", {"use_sacs": False, "pipeline": PipelineOrganization.NORMAL}),
    ):
        for spec in ("numpy", "multiprocess:2"):
            tracer = tracer_module.Tracer().install()
            try:
                FlexLegalizer(FlexConfig(kernel_backend=spec, **options)).legalize(
                    small_design(num_cells=80, density=0.7, seed=4)
                )
            finally:
                tracer.uninstall()
                resolve_backend("multiprocess:2").close()
            summary = tracer.summarize()["layers"]
            layers[shifter, spec] = {
                name for name, agg in summary.items() if agg.get("calls", 0) > 0
            }
        assert layers[shifter, "multiprocess:2"] == layers[shifter, "numpy"]
    assert "kernels.sacs" not in layers["sacs", "numpy"]
    assert "kernels.curves.minimize" in layers["original", "numpy"]
