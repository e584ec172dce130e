"""Legalization as a service: a daemon serving concurrent ECO streams.

The :class:`~repro.incremental.IncrementalLegalizer` is a
session-oriented engine — one layout, one delta stream, one caller.
This package wraps it in a long-running multi-client service:

* :mod:`repro.service.protocol` — the wire format: length-prefixed JSON
  frames over a TCP socket, the request/response envelopes, and the
  structured error codes every failure maps to;
* :mod:`repro.service.session` — one :class:`Session` per open design:
  a private ``IncrementalLegalizer`` with per-session kernel-backend /
  governor knobs, a FIFO apply queue whose dispatcher
  serializes (and coalesces) batches, and the replay ledger that makes
  the service auditable — :func:`offline_replay` re-runs a ledger
  through a fresh engine and must land on a bit-for-bit identical
  layout;
* :mod:`repro.service.server` — :class:`LegalizationServer`, a threaded
  daemon with admission control (max sessions, max in-flight batches)
  and graceful drain;
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  client used by the tests, the service benchmark and the ``repro
  serve`` / ``repro submit`` CLI.

The headline contract is exactness under concurrency: whatever
interleaving the daemon serves, each session's final placement equals an
offline replay of that session's delta order on any backend at any
worker count.  ``tests/test_service.py`` and
``benchmarks/test_bench_service.py`` hold it to that.
"""

from repro.service.client import ServiceClient, ServiceError, SessionHandle
from repro.service.protocol import ERROR_CODES, PROTOCOL_VERSION, ProtocolError
from repro.service.server import LegalizationServer, ServeConfig
from repro.service.session import Session, SessionConfig, offline_replay

__all__ = [
    "ServiceClient",
    "ServiceError",
    "SessionHandle",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "LegalizationServer",
    "ServeConfig",
    "Session",
    "SessionConfig",
    "offline_replay",
]
