#!/usr/bin/env python
"""Dump a running TRAPP server's metrics in Prometheus text exposition.

``--host H --port P`` connects a :class:`TrappClient` to a server started
with ``python -m repro serve`` and prints the ``metrics`` op's text
exposition, optionally followed by the most recent query spans
(``--traces N``).  ``--json`` prints the raw snapshot document (the exact
``metrics`` op payload) instead of text.  Run with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import TrappClient  # noqa: E402
from repro.service.protocol import json_safe  # noqa: E402


async def _live_report(args) -> tuple[dict | None, str | None, list[dict]]:
    async with await TrappClient.connect(
        args.host, args.port, client_id="metrics-report"
    ) as client:
        snapshot = await client.metrics() if args.json else None
        text = None if args.json else await client.metrics_text()
        traces = await client.trace(limit=args.traces) if args.traces else []
    return snapshot, text, traces


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", required=True, help="the server's host")
    parser.add_argument("--port", type=int, required=True, help="the server's port")
    parser.add_argument(
        "--traces", type=int, default=0, metavar="N",
        help="also print the N most recent query spans (NDJSON)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw snapshot document instead of text exposition",
    )
    args = parser.parse_args(argv)

    snapshot, text, traces = asyncio.run(_live_report(args))

    if args.json:
        print(json.dumps(json_safe(snapshot), indent=2))
    else:
        print(text, end="")
    for span in traces:
        print(json.dumps(json_safe(span)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
