"""Pluggable kernel backends for the legalizer hot paths.

The three FOP inner loops — displacement-curve construction/merging,
curve minimization, and SACS shifting-chain evaluation — are behind the
:class:`~repro.kernels.base.KernelBackend` interface so that multiple
implementations can be swapped without touching the algorithm layer:

``python``
    The scalar reference implementation (the oracle).  Always available.
``numpy``
    The reference kernels plus a native region search: FOP's whole
    insertion-point search over every SACS region (enumerate, score,
    reduce) runs in one call into the C kernel of
    :mod:`repro.kernels.native`, bit-for-bit equal to the reference
    (:mod:`repro.kernels.numpy_backend`).  Registered only when numpy is
    importable.
``multiprocess``
    Host-side process parallelism over the fastest sequential kernels
    (:mod:`repro.kernels.mp_backend`): a persistent worker pool chunks
    heavy regions' insertion points for the original shifter and
    reassembles them in enumeration order.  Accepts a ``"multiprocess:N"``
    spelling to pin the worker count from string-only configuration.

Selecting a backend
-------------------
Every entry point takes a backend name (or instance):

>>> from repro.core import FlexConfig, FlexLegalizer
>>> flex = FlexLegalizer(FlexConfig(kernel_backend="numpy"))

>>> from repro.mgl import MGLLegalizer
>>> mgl = MGLLegalizer(backend="numpy")

or at the kernel level:

>>> from repro.kernels import get_kernel_backend
>>> backend = get_kernel_backend("numpy")

Adding a backend
----------------
Subclass :class:`~repro.kernels.base.KernelBackend` (implementing its
five staged methods) or, to keep the reference stages and add a
whole-region path, :class:`~repro.kernels.python_backend.PythonKernelBackend`
(overriding :meth:`~repro.kernels.base.KernelBackend.search_region`).
Register a factory with :func:`register_backend`, and add the backend
name to the parametrized equivalence suite in ``tests/test_kernels.py``
— the suite asserts bit-for-bit agreement with the ``python`` oracle on
curves, FOP positions and SACS shifts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.kernels.base import KernelBackend

#: Backend used when no explicit choice is made anywhere.
DEFAULT_BACKEND = "python"

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_PARAM_FACTORIES: Dict[str, Callable[[str], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    parameterized: Optional[Callable[[str], KernelBackend]] = None,
) -> None:
    """Register a backend factory under ``name`` (overwrites silently).

    ``parameterized`` optionally accepts ``"name:arg"`` spellings — e.g.
    ``"multiprocess:4"`` resolves through ``parameterized("4")`` — so
    string-only configuration surfaces (:class:`~repro.core.config
    .FlexConfig`, CLI flags, environment files) can select tuned
    instances without holding object references.
    """
    _FACTORIES[name] = factory
    if parameterized is not None:
        _PARAM_FACTORIES[name] = parameterized
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Names of the registered (importable) backends, sorted."""
    return sorted(_FACTORIES)


def get_kernel_backend(name: str) -> KernelBackend:
    """Return the shared backend instance registered under ``name``.

    Accepts plain registry names and parameterized ``"name:arg"``
    spellings for backends registered with a parameterized factory.
    Invalid parameterized arguments (e.g. ``"multiprocess:0"`` or
    ``"multiprocess:x"``) raise a :class:`ValueError` naming the
    offending spelling; unknown backend names raise :class:`KeyError`.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is not None:
        instance = _INSTANCES[name] = factory()
        return instance
    base, sep, arg = name.partition(":")
    if sep and base in _PARAM_FACTORIES:
        # Factories validate their argument and raise a clear ValueError
        # (e.g. a non-integer or < 1 worker count); let it propagate
        # instead of burying it under a registry KeyError.
        instance = _INSTANCES[name] = _PARAM_FACTORIES[base](arg)
        return instance
    raise KeyError(
        f"unknown kernel backend {name!r}; available: {available_backends()}"
    )


#: Anything the configuration layer accepts as a backend choice.
BackendSpec = Union[str, KernelBackend, None]


def resolve_backend(spec: BackendSpec) -> KernelBackend:
    """Resolve a config value (name, instance or None) to a backend."""
    if spec is None:
        return get_kernel_backend(DEFAULT_BACKEND)
    if isinstance(spec, KernelBackend):
        return spec
    return get_kernel_backend(spec)


# ----------------------------------------------------------------------
# Built-in backend registration (kept after the registry definitions:
# repro.mgl.fop imports this module while the backends below import
# repro.mgl — the functions above must already exist at that point).
# ----------------------------------------------------------------------
from repro.kernels.python_backend import PythonKernelBackend  # noqa: E402

register_backend("python", PythonKernelBackend)

from repro.kernels import numpy_backend as _numpy_backend  # noqa: E402

if _numpy_backend.np is not None:
    register_backend("numpy", _numpy_backend.NumpyKernelBackend)

NumpyKernelBackend = _numpy_backend.NumpyKernelBackend

from repro.kernels.mp_backend import MultiprocessKernelBackend, parse_worker_count  # noqa: E402


def _multiprocess_from_arg(arg: str) -> MultiprocessKernelBackend:
    workers = parse_worker_count(arg, source=f'"multiprocess:{arg}"')
    return MultiprocessKernelBackend(workers=workers)


register_backend(
    "multiprocess",
    MultiprocessKernelBackend,
    parameterized=_multiprocess_from_arg,
)

__all__ = [
    "KernelBackend",
    "PythonKernelBackend",
    "NumpyKernelBackend",
    "MultiprocessKernelBackend",
    "BackendSpec",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_kernel_backend",
    "register_backend",
    "resolve_backend",
]
