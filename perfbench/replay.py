"""Replay served sessions' ledgers offline and print what they produced.

Usage: ``python3 perfbench/replay.py JOB.json`` with ``src`` on
``PYTHONPATH``; ``JOB.json`` is a list of sessions, each with its
``design``, ``ledger``, ``config`` and ``prefix``.  Prints one JSON list:
per session, the fingerprint of the full replay, and AveDis and maximum
displacement after the first ``prefix`` ledger entries.
"""

from __future__ import annotations

import json
import sys


def replay(session) -> dict:
    from repro.designio import layout_fingerprint
    from repro.service import SessionConfig, offline_replay

    config = SessionConfig(**{k: v for k, v in session["config"].items() if v is not None})
    final = offline_replay(session["design"], session["ledger"], config)
    early = offline_replay(session["design"], session["ledger"][: session["prefix"]], config)
    engine = config.make_engine()
    stats = engine.legalizer.metrics.compute(early)
    engine.close()
    return {
        "fingerprint": layout_fingerprint(final),
        "avedis": stats.average_displacement,
        "max_disp": stats.max_displacement,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        sessions = json.load(handle)
    print(json.dumps([replay(session) for session in sessions]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
