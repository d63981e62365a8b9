"""End-to-end cluster smoke check: ``python -m repro.cluster.smoke``.

Starts an in-process cluster — 2 primary shards with durable heaps +
1 log-shipped read replica each + the scatter-gather router — and runs
a 500-query equivalence sweep against a single-server oracle built from
the same dataset, with inserts/deletes and replica replays mixed in.
Exits non-zero on the first divergence.  ``--binary`` runs the same
sweep over a client that negotiated the binary protocol with the
router.  CI runs both as the ``cluster-smoke`` job.
"""

from __future__ import annotations

import random
import sys
import tempfile

from repro.geometry.point import Point
from repro.psql.executor import Session
from repro.rtree.search import knn_search
from repro.server import protocol
from repro.cluster.client import ClusterClient
from repro.cluster.dataset import GID_COLUMN, build_database
from repro.cluster.demo import demo_dataset
from repro.cluster.launcher import LocalCluster
from repro.cluster.workload import random_queries

N_QUERIES = 500
N_KNN = 25
N_MUTATIONS = 10
SEED = 1234


def oracle_rows(session: Session, text: str) -> list[tuple[str, ...]]:
    """The single-server answer, formatted exactly like wire rows."""
    result = session.execute(text)
    return sorted(tuple(protocol.format_value(v) for v in row)
                  for row in result.rows)


def oracle_knn(db, picture: str, relation: str, x: float, y: float,
               k: int) -> list[tuple[float, int]]:
    tree = db.picture(picture).index(relation, "loc")
    rel = db.relation(relation)
    hits = knn_search(tree, Point(x, y), k)
    return sorted((float(d), int(rel.get(rid)[GID_COLUMN]))
                  for d, rid in hits)[:k]


def main(binary: bool = False) -> int:
    rng = random.Random(SEED)
    dataset = demo_dataset()
    oracle_db = build_database(dataset)
    oracle = Session(oracle_db)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as tmp, \
            LocalCluster(dataset, nshards=2, replicas_per_shard=1,
                         data_root=tmp) as cluster:
        client = ClusterClient(cluster.router_host, cluster.router_port,
                               binary=binary)
        if client.binary != binary:
            failures += 1
            print("MISMATCH: the router did not acknowledge HELLO bin",
                  file=sys.stderr)
        queries = random_queries(rng, dataset.universe, N_QUERIES)
        mutate_at = set(rng.sample(range(N_QUERIES), N_MUTATIONS))
        inserted_gids: list[int] = []
        for i, text in enumerate(queries):
            response = client.query(text).raise_for_status()
            got = sorted(response.rows)
            want = oracle_rows(oracle, text)
            if got != want:
                failures += 1
                print(f"MISMATCH query {i}: {text}\n"
                      f"  routed {len(got)} rows, oracle {len(want)}",
                      file=sys.stderr)
                if failures >= 3:
                    break
            if i in mutate_at:
                if inserted_gids and rng.random() < 0.4:
                    gid = inserted_gids.pop()
                    client.delete_row("cities", gid).raise_for_status()
                    for rid, row in list(
                            oracle_db.relation("cities").rows()):
                        if row[GID_COLUMN] == gid:
                            oracle_db.delete("cities", rid)
                            break
                else:
                    u = dataset.universe
                    row = {"city": f"smoke-city-{i}", "state": "ZZ",
                           "population": rng.randrange(1000, 9_000_000),
                           "loc": Point(rng.uniform(u.x1, u.x2),
                                        rng.uniform(u.y1, u.y2))}
                    ack = client.insert_row(
                        "cities", row).raise_for_status()
                    gid = ack.nrows
                    inserted_gids.append(gid)
                    oracle_db.insert("cities", {GID_COLUMN: gid, **row})
                # Catch the replicas up so reads keep rotating onto them.
                for sid in range(len(cluster.shards)):
                    cluster.replica_client(sid).replay()
            if (i + 1) % 100 == 0:
                print(f"  {i + 1}/{N_QUERIES} queries checked")
        for _ in range(N_KNN):
            u = dataset.universe
            x = round(rng.uniform(u.x1, u.x2), 1)
            y = round(rng.uniform(u.y1, u.y2), 1)
            k = rng.randrange(1, 12)
            response = client.knn("us-map", "cities", x, y,
                                  k).raise_for_status()
            got_knn = [(float(d), int(g)) for d, g in response.rows]
            want_knn = oracle_knn(oracle_db, "us-map", "cities", x, y, k)
            if got_knn != want_knn:
                failures += 1
                print(f"MISMATCH knn ({x},{y},k={k}):\n"
                      f"  routed {got_knn}\n  oracle {want_knn}",
                      file=sys.stderr)
        stats = client.stats()
        mode = "binary" if binary else "text"
        print(f"cluster-smoke ({mode}): {N_QUERIES} queries + "
              f"{N_KNN} kNN + {N_MUTATIONS} mutations, "
              f"replica reads={stats.get('router.reads.replica', 0):.0f}, "
              f"cache hit rate="
              f"{stats.get('router.cache.hit_rate', 0):.2f}, "
              f"failures={failures}")
        client.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(binary="--binary" in sys.argv[1:]))
