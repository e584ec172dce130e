"""Multi-granularity pipeline organisation of the FOP datapath (Sec. 3.2).

The original FOP consists of six operations executed strictly one after
another, each writing its complete intermediate result to RAM before the
next starts (the "Normal Pipeline").  FLEX reorganises the last four
operations into two streaming traversals:

* ``fwdtraverse`` = forward-merge + ``sum slopesR`` + ``calculate vR``;
* ``bwdtraverse`` = backward-merge + ``sum slopesL`` + ``calculate vL``
  and ``v``;

with **fine-grained pipelining** (stream I/O, element-at-a-time handoff)
inside each traversal and between SACS, ``sort bp`` and ``fwdtraverse``,
and **coarse-grained pipelining** between the two traversals (the
backward traversal can only start once the forward traversal has seen all
breakpoints).  This module describes the organisation; the cycle-level
consequences are computed by :mod:`repro.fpga.pipeline_sim`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class PipelineOrganization(enum.Enum):
    """FOP datapath organisation evaluated in Fig. 8."""

    NORMAL = "normal"
    """Every operation waits for its predecessor and round-trips its
    intermediate results through RAM."""

    SACS_ONLY = "sacs"
    """SACS replaces the multi-pass cell shifting, but the remaining
    operations still execute sequentially."""

    MULTI_GRANULARITY = "multi-granularity"
    """SACS + stream I/O + the fwdtraverse/bwdtraverse reorganisation."""


@dataclass(frozen=True)
class StageSpec:
    """Static description of one pipeline stage.

    ``per_item_cycles`` is the initiation interval of the stage (cycles
    per streamed element); ``fixed_cycles`` is its fill/flush latency;
    ``memory_roundtrip`` marks stages that, in the *normal* organisation,
    write their full output to RAM and force the successor to read it
    back (costing extra cycles per element).
    """

    name: str
    per_item_cycles: float
    fixed_cycles: float
    memory_roundtrip: bool = True


#: Stage parameters of the FOP datapath.  The absolute values are
#: engineering estimates for a 285 MHz Alveo U50 implementation; the
#: experiments only rely on their relative magnitudes.
FOP_STAGES_SPEC: Tuple[StageSpec, ...] = (
    StageSpec("cell_shift", per_item_cycles=2.0, fixed_cycles=8.0),
    StageSpec("sort_bp", per_item_cycles=1.0, fixed_cycles=6.0),
    StageSpec("merge_bp", per_item_cycles=1.0, fixed_cycles=4.0),
    StageSpec("sum_slopesR", per_item_cycles=1.0, fixed_cycles=4.0),
    StageSpec("sum_slopesL", per_item_cycles=1.0, fixed_cycles=4.0),
    StageSpec("calculate_value", per_item_cycles=1.0, fixed_cycles=6.0),
)

#: Extra cycles per element for a RAM round-trip between stages of the
#: normal pipeline (write by the producer + read by the consumer).
MEMORY_ROUNDTRIP_CYCLES_PER_ITEM: float = 2.0
