"""Configuration of the FLEX accelerator.

:class:`FlexConfig` gathers every knob evaluated in the paper's
breakdown analyses so that the experiment harness can sweep them:

* the FOP PE parallelism (Fig. 8, "1P"/"2P"),
* the pipeline organisation the FPGA model prices (normal / SACS /
  multi-granularity, Fig. 8; the host always minimizes in fwd/bwd form),
* the SACS architecture and bandwidth optimisations (Fig. 9),
* the CPU/FPGA task partition (Fig. 10),
* the sliding-window processing ordering (Sec. 3.1.2).

The default configuration reproduces the full FLEX design: 2 FOP PEs,
multi-granularity pipeline, all SACS optimisations, step (d) on the FPGA
and steps (a)(b)(c)(e) on the CPU.  The platform is fixed: the 285 MHz
kernel clock of :func:`repro.fpga.clock.pe_clock`, the 12 Gbit/s
:class:`repro.fpga.link.HostLink`, and the sliding window ``W_s = 8`` of
:class:`repro.core.ordering.SlidingWindowOrdering`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.pipeline import PipelineOrganization
from repro.core.task_assignment import TaskPartition


@dataclass(frozen=True)
class FlexConfig:
    """Full configuration of a FLEX instance."""

    # --- FOP datapath ------------------------------------------------------
    fop_pe_parallelism: int = 2
    """Number of FOP PEs evaluating insertion points of the same region
    concurrently (Fig. 8: 2 PEs give ~1.7x)."""

    pipeline: PipelineOrganization = PipelineOrganization.MULTI_GRANULARITY
    """FOP datapath organisation."""

    use_sacs: bool = True
    """Use Sort-Ahead Cell Shifting instead of the multi-pass original."""

    # --- SACS architecture options (Fig. 9) --------------------------------
    sacs_architecture_opt: bool = True
    """Dedicated LCT/LCPT/CST/LSC dataflow ("SACS-Ar")."""

    sacs_bandwidth_opt: bool = True
    """Odd/even RAM split, LCT duplication and the doubled memory clock
    ("SACS-ImpBW"); mainly helps designs with cells taller than 3 rows."""

    sacs_parallel_moves: bool = True
    """Run the left-move and right-move phases in parallel ("SACS-Paral")."""

    # --- Host-side options ---------------------------------------------------
    task_partition: TaskPartition = TaskPartition.FOP_ON_FPGA
    """Which steps run on the FPGA (Fig. 10 compares FOP-only against
    FOP+update)."""

    sliding_window_ordering: bool = True
    """Use the sliding-window processing ordering instead of plain size order."""

    kernel_backend: str = "python"
    """Kernel backend executing the host-side numeric hot paths (curve
    construction/minimization and SACS chains): a name registered in
    :mod:`repro.kernels` (``"python"`` reference, ``"numpy"`` with the
    fused native SACS kernel, or process-parallel ``"multiprocess"`` /
    ``"multiprocess:N"`` with a pinned worker count).  Backends are bit-for-bit equivalent, so this
    only changes measured wall time, never results or recorded work."""

    # --------------------------------------------------------------------
    def with_updates(self, **kwargs) -> "FlexConfig":
        """Return a modified copy (convenience for ablation sweeps)."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity-check the configuration; raises ``ValueError`` on issues."""
        if self.fop_pe_parallelism < 1:
            raise ValueError("fop_pe_parallelism must be at least 1")
        from repro.kernels import available_backends, get_kernel_backend

        try:
            get_kernel_backend(self.kernel_backend)
        except KeyError:
            raise ValueError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                f"available: {available_backends()}"
            ) from None
        except ValueError as exc:
            raise ValueError(f"invalid kernel_backend: {exc}") from None
        if self.pipeline is PipelineOrganization.MULTI_GRANULARITY and not self.use_sacs:
            raise ValueError(
                "the multi-granularity pipeline requires SACS: the original "
                "cell shifting cannot stream its outputs (paper Sec. 3.2.1)"
            )

    def label(self) -> str:
        """Short human-readable description of the configuration."""
        parts = [
            f"{self.fop_pe_parallelism}PE",
            self.pipeline.value,
            "sacs" if self.use_sacs else "orig-shift",
            self.task_partition.value,
        ]
        if self.kernel_backend != "python":
            parts.append(self.kernel_backend)
        return "+".join(parts)


#: The configuration used for the paper's headline results.
DEFAULT_FLEX_CONFIG = FlexConfig()

#: An FPGA baseline without any of the FLEX contributions: original cell
#: shifting on a normal (operation-at-a-time) pipeline with a single PE.
NORMAL_PIPELINE_CONFIG = FlexConfig(
    fop_pe_parallelism=1,
    pipeline=PipelineOrganization.NORMAL,
    use_sacs=False,
    sacs_architecture_opt=False,
    sacs_bandwidth_opt=False,
    sacs_parallel_moves=False,
    sliding_window_ordering=False,
)
