"""Kernel backends for the legalizer hot paths.

The three FOP inner loops — displacement-curve construction/merging,
curve minimization, and SACS shifting-chain evaluation — run through a
kernel backend, so that the algorithm layer is the same whichever
backend scores a region.  The backends form one inheritance chain, each
bit-for-bit equal to the one before:

``python``
    :class:`~repro.kernels.base.KernelBackend`, the scalar reference
    implementation (the oracle).
``numpy``
    The reference kernels plus a native region search: FOP's whole
    insertion-point search over every SACS region (enumerate, score,
    reduce) runs in one call into the C kernel of
    :mod:`repro.kernels.native` (:mod:`repro.kernels.numpy_backend`).
``multiprocess``
    The ``numpy`` backend plus a persistent worker pool
    (:mod:`repro.kernels.mp_backend`) that chunks heavy regions'
    insertion points for the original shifter and reassembles them in
    enumeration order.  Accepts a ``"multiprocess:N"`` spelling to pin
    the worker count from string-only configuration.

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
Subclass the backend whose behaviour you keep — usually
:class:`~repro.kernels.base.KernelBackend`, overriding the staged
methods or :meth:`~repro.kernels.base.KernelBackend.search_region` —
add it to ``_BACKENDS`` in this module, and add it to the parametrized
equivalence suite in ``tests/test_kernels.py``, which asserts bit-for-bit
agreement with the ``python`` oracle on curves, FOP positions and SACS
shifts.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.kernels.base import KernelBackend
from repro.kernels.mp_backend import MultiprocessKernelBackend, parse_worker_count
from repro.kernels.numpy_backend import NumpyKernelBackend

#: Backend used when no explicit choice is made anywhere.
DEFAULT_BACKEND = "python"

#: Backend names and the class each one builds.
_BACKENDS = {
    "python": KernelBackend,
    "numpy": NumpyKernelBackend,
    "multiprocess": MultiprocessKernelBackend,
}

#: One shared instance per spelling (``"multiprocess"`` and
#: ``"multiprocess:2"`` are distinct instances with distinct pools).
_INSTANCES: Dict[str, KernelBackend] = {}


def available_backends() -> List[str]:
    """Names of the backends, sorted."""
    return sorted(_BACKENDS)


def _build_backend(name: str) -> KernelBackend:
    backend_class = _BACKENDS.get(name)
    if backend_class is not None:
        return backend_class()
    base, sep, arg = name.partition(":")
    if sep and base == "multiprocess":
        return MultiprocessKernelBackend(parse_worker_count(arg, source=f'"{name}"'))
    raise KeyError(
        f"unknown kernel backend {name!r}; available: {available_backends()}"
    )


def get_kernel_backend(name: str) -> KernelBackend:
    """Return the shared backend instance for ``name``.

    Accepts the names of :func:`available_backends` and the
    ``"multiprocess:N"`` spelling.  An invalid worker count (e.g.
    ``"multiprocess:0"`` or ``"multiprocess:x"``) raises a
    :class:`ValueError` naming the offending spelling; unknown backend
    names raise :class:`KeyError`.
    """
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = _build_backend(name)
    return instance


#: Anything the configuration layer accepts as a backend choice.
BackendSpec = Union[str, KernelBackend, None]


def resolve_backend(spec: BackendSpec) -> KernelBackend:
    """Resolve a config value (name, instance or None) to a backend."""
    if spec is None:
        return get_kernel_backend(DEFAULT_BACKEND)
    if isinstance(spec, KernelBackend):
        return spec
    return get_kernel_backend(spec)


__all__ = [
    "KernelBackend",
    "NumpyKernelBackend",
    "MultiprocessKernelBackend",
    "BackendSpec",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_kernel_backend",
    "resolve_backend",
]
