"""On-chip memory models: BRAM banks, odd/even splitting, ping-pong buffers.

The SACS dataflow keeps all its tables (LCT, LCPT, CST, LSC, Cs) in BRAM.
Accessing a multi-row cell touches one entry per covered row in CST/LSC,
which can exceed the ports of a single bank and stall the PE — the
bottleneck the bandwidth optimisations of Sec. 4.3.2 attack:

* **odd/even splitting** puts odd and even rows in separate banks,
  doubling the entries reachable per cycle;
* **ping-pong buffering** initialises the tables of the next region while
  the current one is processed, hiding initialisation latency;
* **a doubled memory clock** lets the tables serve two PE-cycle's worth
  of requests per PE cycle;
* **LCT duplication** doubles LCT read bandwidth outright (its content is
  not row-dependent).

These classes provide both the cycle arithmetic used by
:mod:`repro.fpga.sacs_dataflow` and the BRAM36 bank counting used by
:mod:`repro.fpga.resources`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: Capacity of one BRAM36 block in bits (36 Kib).
BRAM36_BITS = 36 * 1024


@dataclass(frozen=True)
class BramBank:
    """A logical memory implemented in BRAM.

    Attributes
    ----------
    name:
        Table name (LCT, LCPT, CST, LSC, ...).
    depth:
        Number of entries.
    width_bits:
        Bits per entry.
    read_ports / write_ports:
        Simultaneous accesses per cycle (BRAM36 is true dual-port; the
        design typically configures one read and one write port or two
        read ports).
    """

    name: str
    depth: int
    width_bits: int
    read_ports: int = 2
    write_ports: int = 1

    def bram36_count(self) -> int:
        """Number of physical BRAM36 blocks needed for this logical memory."""
        if self.depth <= 0 or self.width_bits <= 0:
            return 0
        # BRAM36 can be configured as 1Kx36, 2Kx18, 4Kx9 ...; approximate by
        # capacity with a width-granularity penalty.
        width_blocks = math.ceil(self.width_bits / 36)
        depth_blocks = math.ceil(self.depth / 1024)
        capacity_blocks = math.ceil(self.depth * self.width_bits / BRAM36_BITS)
        return max(capacity_blocks, width_blocks, min(width_blocks * depth_blocks, 4 * capacity_blocks))

    def access_cycles(self, n_parallel_reads: int) -> int:
        """Cycles to serve ``n_parallel_reads`` simultaneous read requests."""
        if n_parallel_reads <= 0:
            return 0
        return math.ceil(n_parallel_reads / self.read_ports)


@dataclass(frozen=True)
class OddEvenRam:
    """A table split into odd-row and even-row banks (Sec. 4.3.2).

    Requests to adjacent rows hit different banks, so up to
    ``2 * read_ports`` adjacent-row entries are served per cycle.
    """

    inner: BramBank

    def bram36_count(self) -> int:
        """Both halves together need roughly the same capacity plus padding."""
        half = BramBank(
            name=self.inner.name,
            depth=math.ceil(self.inner.depth / 2),
            width_bits=self.inner.width_bits,
            read_ports=self.inner.read_ports,
            write_ports=self.inner.write_ports,
        )
        return 2 * half.bram36_count()

    def access_cycles(self, n_adjacent_rows: int) -> int:
        """Cycles to read entries of ``n_adjacent_rows`` consecutive rows."""
        if n_adjacent_rows <= 0:
            return 0
        return math.ceil(n_adjacent_rows / (2 * self.inner.read_ports))


@dataclass(frozen=True)
class PingPongRam:
    """Two alternating copies of a table so that the next localRegion can be
    loaded while the current one is processed (Fig. 4 Ping/Pong RAM)."""

    inner: BramBank

    def bram36_count(self) -> int:
        return 2 * self.inner.bram36_count()

    def access_cycles(self, n_parallel_reads: int) -> int:
        return self.inner.access_cycles(n_parallel_reads)
