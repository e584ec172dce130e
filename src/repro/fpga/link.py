"""Host <-> FPGA card transfer model.

FLEX streams each target's localRegion descriptor to the card and reads
back a small result record.  The sliding-window ordering keeps ``C_next``
fixed, so every region after the first is preloaded into the free
ping-pong RAM while the previous one computes; the timeline model
(:mod:`repro.perf.timeline`) therefore charges only the first region's
transfer.  This module only converts word counts into seconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HostLink:
    """A PCIe-like host link.

    Attributes
    ----------
    bandwidth_gbps:
        Effective payload bandwidth in Gbit/s.
    latency_us:
        Per-transfer latency (descriptor setup, doorbell, completion).
    word_bytes:
        Size of one descriptor word.
    """

    bandwidth_gbps: float = 12.0
    latency_us: float = 5.0
    word_bytes: int = 4

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_us < 0:
            raise ValueError("latency must be non-negative")

    def transfer_seconds(self, words: int) -> float:
        """Time to move ``words`` descriptor words across the link."""
        if words <= 0:
            return 0.0
        payload_bits = words * self.word_bytes * 8
        return self.latency_us * 1e-6 + payload_bits / (self.bandwidth_gbps * 1e9)
