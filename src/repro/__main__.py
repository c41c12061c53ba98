"""Command-line entry points: ``python -m repro serve`` / ``demo``.

``serve`` stands up a demo TRAPP deployment (a synthetic network-
monitoring source, one cache) behind the concurrent query service and
serves the NDJSON protocol until interrupted.  ``demo`` does the same on
an ephemeral port, drives a handful of concurrent closed-loop clients
through :class:`~repro.service.client.TrappClient`, prints what the
serving layer did (coalescing, result-cache hits, read from the
``metrics`` op), and exits 0 — it doubles as the CI smoke test for the
full client/server path.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys

from repro.extensions.batching import BatchedCostModel
from repro.replication.system import TrappSystem
from repro.service import QueryService, TrappClient, serve
from repro.workloads.netmon import build_master_table, generate_topology
from repro.workloads.service import closed_loop_scripts, run_closed_loop

__all__ = ["main"]

CACHE_ID = "monitor"


def _build_demo_system(n_links: int, seed: int, age: float) -> TrappSystem:
    """A one-source deployment over a synthetic monitored network.

    ``age`` advances the clock after subscription so cached bounds have
    widened — queries then actually exercise refreshes instead of reading
    zero-width just-subscribed bounds.
    """
    rng = random.Random(seed)
    system = TrappSystem()
    source = system.add_source("net-source")
    n_nodes = max(2, n_links // 3)
    source.add_table(build_master_table(generate_topology(n_nodes, n_links, rng), rng))
    cache = system.add_cache(CACHE_ID)
    cache.subscribe_table(source, "links")
    if age > 0:
        system.clock.advance(age)
        cache.sync_bounds()
    return system


def _sample(snapshot: dict, name: str, **labels: str) -> int:
    """One counter sample of a ``metrics`` snapshot (0 when absent)."""
    for family in snapshot["families"]:
        if family["name"] == name:
            for sample in family["samples"]:
                if sample["labels"] == labels:
                    return int(sample["value"])
    return 0


def _build_service(system: TrappSystem, args: argparse.Namespace) -> QueryService:
    return QueryService(
        system,
        max_inflight=args.max_inflight,
        max_inflight_per_client=args.max_inflight_per_client,
        precision_floor=args.precision_floor,
        result_ttl=args.result_ttl,
        cost_model=BatchedCostModel(setup=args.setup_cost, marginal=args.marginal_cost),
        tick_interval=args.tick_interval,
    )


async def _serve_forever(args: argparse.Namespace) -> int:
    system = _build_demo_system(args.links, args.seed, args.age)
    service = _build_service(system, args)
    server = await serve(service, host=args.host, port=args.port)
    print(
        f"TRAPP query service on {server.host}:{server.port} "
        f"(cache {CACHE_ID!r}, {args.links} links; Ctrl-C to stop)",
        flush=True,
    )
    try:
        async with server:
            await asyncio.Event().wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


async def _demo(args: argparse.Namespace) -> int:
    system = _build_demo_system(args.links, args.seed, args.age)
    service = _build_service(system, args)
    server = await serve(service, host=args.host, port=0)
    print(f"demo server on {server.host}:{server.port}")

    scripts = closed_loop_scripts(
        system.cache(CACHE_ID).table("links"),
        "traffic",
        n_clients=args.clients,
        queries_per_client=args.queries,
        seed=args.seed,
    )
    clients = {
        script.client_id: await TrappClient.connect(
            server.host, server.port, client_id=script.client_id
        )
        for script in scripts
    }

    async def issue(client_id: str, sql: str):
        return await clients[client_id].query(CACHE_ID, sql)

    def report_error(client_id: str, sql: str, exc: Exception) -> None:
        print(f"  {client_id}: {sql!r} failed: {exc}", file=sys.stderr)

    try:
        result = await run_closed_loop(issue, scripts, on_error=report_error)
        metrics = await next(iter(clients.values())).metrics()
    finally:
        for client in clients.values():
            await client.close()
        await server.close()

    print(
        f"{args.clients} clients x {args.queries} queries: "
        f"{result.completed} completed, {result.errors} errors"
    )
    scheduler = {
        event: _sample(metrics, "trapp_scheduler_events_total", event=event)
        for event in (
            "tick", "plan_submitted", "tuple_requested", "tuple_refreshed",
            "source_request",
        )
    }
    print(
        f"{scheduler['tick']} ticks, {scheduler['plan_submitted']} plans "
        f"submitted; {scheduler['tuple_requested']} tuples requested vs "
        f"{scheduler['tuple_refreshed']} refreshed in "
        f"{scheduler['source_request']} source requests"
    )
    print(
        "result-cache hits "
        f"{_sample(metrics, 'trapp_result_cache_events_total', event='hit')}, "
        "single-flight joins "
        f"{_sample(metrics, 'trapp_service_events_total', event='singleflight_join')}"
    )
    ok = result.errors == 0 and result.completed == args.clients * args.queries
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TRAPP/AG concurrent query service (Olston & Widom, VLDB 2000)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--links", type=int, default=60, help="synthetic network size")
        sub.add_argument("--seed", type=int, default=11)
        sub.add_argument(
            "--age",
            type=float,
            default=100.0,
            help="simulated seconds of bound growth before serving",
        )
        sub.add_argument("--max-inflight", type=int, default=64)
        sub.add_argument("--max-inflight-per-client", type=int, default=8)
        sub.add_argument("--precision-floor", type=float, default=0.0)
        sub.add_argument("--result-ttl", type=float, default=1.0)
        sub.add_argument("--setup-cost", type=float, default=5.0)
        sub.add_argument("--marginal-cost", type=float, default=1.0)
        sub.add_argument("--tick-interval", type=float, default=0.0)

    serve_cmd = commands.add_parser("serve", help="run the query service until killed")
    add_common(serve_cmd)
    serve_cmd.add_argument("--port", type=int, default=7474)

    demo_cmd = commands.add_parser(
        "demo", help="serve on an ephemeral port, run concurrent clients, exit"
    )
    add_common(demo_cmd)
    demo_cmd.add_argument("--clients", type=int, default=3)
    demo_cmd.add_argument("--queries", type=int, default=5)

    args = parser.parse_args(argv)
    runner = _serve_forever if args.command == "serve" else _demo
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
