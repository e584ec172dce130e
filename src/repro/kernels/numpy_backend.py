"""NumPy kernel backend: the Python reference plus the fused native kernel.

For SACS configurations FOP first offers a region's whole
insertion-point list to :meth:`NumpyKernelBackend.score_points`, which
scores it in one call into the C kernel of :mod:`repro.kernels.native`
(SACS shifting, curves, minimization and snapping, bit for bit equal to
the reference).  Everything else — the original shifter's staged curve
pipeline, single SACS shifts (FOP re-deriving the winner's outcome) and
every SACS region on a host that cannot build the kernel — runs the
scalar reference inherited from
:class:`~repro.kernels.python_backend.PythonKernelBackend`.

The backend is registered only when numpy is importable, because the
kernel's packed region arrays are numpy arrays.
"""

from __future__ import annotations

try:  # numpy is an optional dependency of the package
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None  # type: ignore[assignment]

from repro.kernels.python_backend import PythonKernelBackend


class NumpyKernelBackend(PythonKernelBackend):
    """The reference kernels, with SACS regions scored by the native kernel."""

    name = "numpy"

    def __init__(self) -> None:
        if np is None:  # pragma: no cover - exercised only on numpy-less hosts
            raise RuntimeError(
                "the 'numpy' kernel backend requires numpy; install it or "
                "select backend='python'"
            )
        from repro.kernels.native import NativeFOP  # imports numpy unconditionally

        #: The fused C kernel scoring whole SACS regions (built lazily).
        self.native = NativeFOP()

    def score_points(self, region, target, points, config):
        """Score a SACS region's insertion points in one native call.

        Returns ``None`` (FOP then runs the staged reference pipeline)
        for other shifters, an empty point list, or a host on which the
        kernel cannot be built; see :mod:`repro.kernels.native`.
        """
        from repro.core.sacs import SortAheadShifter  # repro.core imports this module

        shifter = config.shifter
        if not points or not isinstance(shifter, SortAheadShifter):
            return None
        return self.native.score_points(
            region, target, points, shifter.context_for(region), config
        )
