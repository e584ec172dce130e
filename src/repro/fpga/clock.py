"""Clock domains of the FLEX design.

The PE logic runs at the kernel clock (285 MHz on the Alveo U50); when
the SACS bandwidth optimisation is enabled the LCT/LCPT/CST/LSC tables
live in a domain running at twice that frequency, with split/merge
registers crossing between the domains (paper Sec. 4.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockDomain:
    """A clock domain characterised by its frequency."""

    name: str
    frequency_mhz: float

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError("clock frequency must be positive")

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count in this domain to seconds."""
        return cycles / (self.frequency_mhz * 1e6)


def pe_clock(frequency_mhz: float = 285.0) -> ClockDomain:
    """The PE (kernel) clock domain."""
    return ClockDomain("pe", frequency_mhz)

