"""CLI entrypoint: ``python -m repro.server`` / ``repro-psql-server``."""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.server.demo import DEFAULT_FACTORY_SPEC, resolve_factory
from repro.server.protocol import DEFAULT_PORT
from repro.server.server import PsqlServer, ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-psql-server",
        description="Serve PSQL queries over TCP from a packed "
                    "pictorial database.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port; 0 picks an ephemeral one "
                             f"(default {DEFAULT_PORT})")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker pool size (default 4)")
    parser.add_argument("--executor", choices=("thread",),
                        default="thread",
                        help="worker pool kind: a thread pool over the "
                             "one served database (the only kind)")
    parser.add_argument("--database", default=DEFAULT_FACTORY_SPEC,
                        metavar="MODULE:CALLABLE",
                        help="factory building the database to serve "
                             f"(default {DEFAULT_FACTORY_SPEC})")
    parser.add_argument("--max-inflight", type=int, default=0,
                        help="admission gate: queries in flight before "
                             "BUSY is returned (default 2*workers)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-query timeout in seconds; <=0 "
                             "disables (default 30)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="result cache entries; 0 disables "
                             "(default 256)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        factory = resolve_factory(args.database)
    except ValueError as exc:
        parser.error(str(exc))
    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_inflight=args.max_inflight, query_timeout=args.timeout,
        cache_size=args.cache_size)
    server = PsqlServer(config, db=factory())

    async def run() -> None:
        await server.start()
        print(f"repro-psql-server listening on "
              f"{config.host}:{server.port} "
              f"({config.workers} thread workers, "
              f"max {config.effective_max_inflight()} in flight)",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
