"""The ``numpy`` kernel backend: the Python reference plus the native region search.

For SACS configurations FOP hands each region's candidate bottom rows to
:meth:`NumpyKernelBackend.search_region` before any Python enumeration.
One call into the C kernel of :mod:`repro.kernels.native` then
enumerates the region's insertion points, scores each (SACS shifting,
curves, minimization and snapping) and reduces them to the winner, bit
for bit equal to the reference, and returns the winner's shift outcome
with it.  Everything else — the original shifter's staged curve
pipeline and every SACS region on a host that cannot build the kernel —
runs the scalar reference inherited from
:class:`~repro.kernels.base.KernelBackend`.
"""

from __future__ import annotations

from repro.kernels.base import KernelBackend


class NumpyKernelBackend(KernelBackend):
    """The reference kernels, with SACS regions searched by the native kernel."""

    name = "numpy"

    def __init__(self) -> None:
        from repro.kernels.native import NativeFOP  # imports repro.mgl, which imports us

        #: The C kernel searching whole SACS regions (built lazily).
        self.native = NativeFOP()

    def search_region(self, region, target, bottom_rows, config):
        """Search a SACS region's insertion points in one native call.

        Returns ``None`` (FOP then enumerates and runs the staged
        reference pipeline) for other shifters, or on a host on which the
        kernel cannot be built; see :mod:`repro.kernels.native`.
        """
        from repro.core.sacs import SortAheadShifter  # repro.core imports this module

        if not isinstance(config.shifter, SortAheadShifter):
            return None
        return self.native.search_region(region, target, bottom_rows)
