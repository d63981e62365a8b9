"""CLI entry points for cluster nodes: ``python -m repro.cluster``.

Three roles, each printing ``PORT <n>`` on stdout once bound (the
handshake :class:`~repro.cluster.launcher.ProcessCluster` waits for)::

    python -m repro.cluster shard   --shard-id 0 --nshards 2 \
        --data-dir /tmp/c/shard0
    python -m repro.cluster replica --shard-id 0 --nshards 2 \
        --primary-data-dir /tmp/c/shard0 --replica-dir /tmp/c/r0 \
        --poll-interval 0.2
    python -m repro.cluster router  --nshards 2 \
        --backend shard0:127.0.0.1:40001:0:primary \
        --backend shard1:127.0.0.1:40002:1:primary

Every node rebuilds the same demo dataset from ``--scale``/``--seed``
(the dataset is deterministic, so independently started processes agree
on schemas, gids and shard ranges).  Failpoints arm from the
``REPRO_FAILPOINTS`` environment variable exactly as for the single
server — that is how the cluster crash matrix reaches
``cluster.shard.commit`` and ``cluster.replica.apply`` inside children.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.server.server import ServerConfig
from repro.cluster.dataset import build_database
from repro.cluster.demo import demo_dataset
from repro.cluster.partition import ShardMap
from repro.cluster.replica import LogShipper
from repro.cluster.router import BackendSpec, Router, RouterConfig
from repro.cluster.shardserver import ShardServer


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nshards", type=int, required=True)
    parser.add_argument("--order", type=int, default=5,
                        help="routing grid Hilbert order")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache-size", type=int, default=256)


def _parse_backend(text: str) -> BackendSpec:
    try:
        name, host, port, shard_id, role = text.split(":")
        return BackendSpec(name, host, int(port), int(shard_id), role)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"backend spec must be name:host:port:shard_id:role, "
            f"got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="run one node of a sharded PSQL cluster")
    sub = parser.add_subparsers(dest="role", required=True)

    shard = sub.add_parser("shard", help="a primary shard server")
    _common(shard)
    shard.add_argument("--shard-id", type=int, required=True)
    shard.add_argument("--data-dir", required=True)

    replica = sub.add_parser("replica", help="a log-shipped read replica")
    _common(replica)
    replica.add_argument("--shard-id", type=int, required=True)
    replica.add_argument("--primary-data-dir", required=True)
    replica.add_argument("--replica-dir", required=True)
    replica.add_argument("--poll-interval", type=float, default=0.2)

    router = sub.add_parser("router", help="the scatter-gather router")
    _common(router)
    router.add_argument("--backend", action="append", default=[],
                        type=_parse_backend, dest="backends",
                        help="name:host:port:shard_id:role (repeatable)")
    router.add_argument("--lag-threshold", type=float, default=0.0)
    router.add_argument("--health-interval", type=float, default=0.0)
    return parser


async def _serve(server) -> None:
    await server.start()
    print(f"PORT {server.port}", flush=True)
    await server.serve_forever()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    dataset = demo_dataset(scale=args.scale, seed=args.seed)
    shardmap = ShardMap(dataset.universe, args.nshards, order=args.order)
    config = ServerConfig(host=args.host, port=args.port,
                          workers=args.workers,
                          cache_size=args.cache_size)
    if args.role == "shard":
        os.makedirs(args.data_dir, exist_ok=True)
        db = build_database(dataset, shardmap, args.shard_id,
                            data_dir=args.data_dir)
        node = ShardServer(config, db=db, role="primary",
                           shard_id=args.shard_id)
    elif args.role == "replica":
        shipper = LogShipper(dataset, args.primary_data_dir,
                             args.replica_dir)
        node = ShardServer(config, role="replica",
                           shard_id=args.shard_id, shipper=shipper,
                           poll_interval=args.poll_interval)
    else:
        node = Router(
            RouterConfig(host=args.host, port=args.port,
                         cache_size=args.cache_size,
                         replica_lag_threshold=args.lag_threshold,
                         health_interval=args.health_interval),
            dataset, shardmap, args.backends)
    try:
        asyncio.run(_serve(node))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
