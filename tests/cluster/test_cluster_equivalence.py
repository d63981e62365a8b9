"""Socket-level equivalence: LocalCluster answers == single server.

The property suite proves the pure routing pipeline correct; this file
proves the asyncio transport around it — router, shard servers, wire
protocol, replicas — preserves those answers end to end, including
mutations and EXPLAIN plan merging.
"""

import random
import tempfile

import pytest

from repro.geometry.point import Point
from repro.psql.executor import Session
from repro.server import protocol
from repro.cluster.client import ClusterClient
from repro.cluster.dataset import GID_COLUMN, build_database
from repro.cluster.demo import demo_dataset
from repro.cluster.launcher import LocalCluster
from repro.cluster.smoke import oracle_knn, oracle_rows
from repro.cluster.workload import random_queries

N_QUERIES = 60
SEED = 97


@pytest.fixture(scope="module")
def cluster():
    dataset = demo_dataset()
    with tempfile.TemporaryDirectory(prefix="cluster-eq-") as tmp, \
            LocalCluster(dataset, nshards=3, replicas_per_shard=1,
                         data_root=tmp) as local:
        yield dataset, local


@pytest.fixture(scope="module")
def oracle():
    dataset = demo_dataset()
    db = build_database(dataset)
    return db, Session(db)


def _clients(local):
    """A text and then a binary client to the router: every test below
    runs once over each codec."""
    yield local.client()
    client = ClusterClient(local.router_host, local.router_port,
                           binary=True)
    assert client.binary
    yield client


def test_workload_sweep_matches_oracle(cluster, oracle):
    dataset, local = cluster
    _db, session = oracle
    for client in _clients(local):
        try:
            rng = random.Random(SEED)
            for text in random_queries(rng, dataset.universe, N_QUERIES):
                response = client.query(text).raise_for_status()
                assert sorted(response.rows) == \
                    oracle_rows(session, text), text
        finally:
            client.close()


def test_knn_matches_oracle(cluster, oracle):
    dataset, local = cluster
    db, _session = oracle
    for client in _clients(local):
        try:
            rng = random.Random(SEED + 1)
            u = dataset.universe
            for _ in range(10):
                x = round(rng.uniform(u.x1, u.x2), 1)
                y = round(rng.uniform(u.y1, u.y2), 1)
                k = rng.randrange(1, 9)
                response = client.knn("us-map", "cities", x, y,
                                      k).raise_for_status()
                got = [(float(d), int(g)) for d, g in response.rows]
                assert got == oracle_knn(db, "us-map", "cities", x, y, k)
        finally:
            client.close()


def test_insert_delete_roundtrip(cluster):
    _dataset, local = cluster
    for client in _clients(local):
        try:
            row = {"city": "equiv-city", "state": "EQ", "population": 123456,
                   "loc": Point(31.5, 27.25)}
            ack = client.insert_row("cities", row).raise_for_status()
            gid = ack.nrows
            probe = ("select city , population from cities on us-map at loc "
                     "covered-by {31.5 +- 0.01, 27.25 +- 0.01}")
            response = client.query(probe).raise_for_status()
            assert ("equiv-city", "123456") in response.rows
            # Exactly once, despite duplicated storage on boundary shards.
            assert [r for r in response.rows if r[0] == "equiv-city"] == \
                [("equiv-city", "123456")]
            client.delete_row("cities", gid).raise_for_status()
            response = client.query(probe).raise_for_status()
            assert ("equiv-city", "123456") not in response.rows
        finally:
            client.close()


def test_binary_insert_past_the_text_line_limit():
    # The row's hex encoding is longer than any line the text edge can
    # frame, so only a binary client can insert it; the router forwards
    # it to the shards in one binary frame as well.  Primaries are kept
    # in memory: a durable heap record must fit one page.
    city = "big-" + "x" * 70_000
    row = {"city": city, "state": "BG", "population": 1,
           "loc": Point(512.5, 487.25)}
    probe = ("select city from cities on us-map at loc covered-by "
             "{512.5 +- 0.01, 487.25 +- 0.01}")
    with LocalCluster(demo_dataset(), nshards=2) as local:
        text = local.client()
        try:
            refused = text.insert_row("cities", row)
            assert refused.error_kind == "ProtocolError"
        finally:
            text.close()
        with ClusterClient(local.router_host, local.router_port,
                           binary=True) as client:
            assert client.binary
            client.insert_row("cities", row).raise_for_status()
            rows = client.query(probe).raise_for_status().rows
            assert rows.count((city,)) == 1


def test_replicas_replay_to_primary_state(cluster):
    _dataset, local = cluster
    for client in _clients(local):
        try:
            row = {"city": "replica-city", "state": "RC", "population": 777,
                   "loc": Point(62.0, 14.0)}
            client.insert_row("cities", row).raise_for_status()
            probe = ("select city from cities on us-map at loc covered-by "
                     "{62.0 +- 0.01, 14.0 +- 0.01}")
            for sid in range(len(local.shards)):
                rclient = local.replica_client(sid)
                try:
                    rclient.replay().raise_for_status()
                    lag = rclient.stats()["cluster.replica.commits_behind"]
                    assert lag == 0
                    rows = rclient.query(probe).raise_for_status().rows
                    # Only shards owning the point store (and serve) the row.
                    direct = local.shards[sid].service.db
                    has_row = any(r["city"] == "replica-city"
                                  for _rid, r in
                                  direct.relation("cities").rows())
                    assert (("replica-city",) in rows) == has_row
                finally:
                    rclient.close()
        finally:
            client.close()


def test_explain_merges_shard_plans(cluster):
    dataset, local = cluster
    for client in _clients(local):
        try:
            u = dataset.universe
            cx, cy = (u.x1 + u.x2) / 2, (u.y1 + u.y2) / 2
            dx, dy = (u.x2 - u.x1) / 2, (u.y2 - u.y1) / 2
            response = client.query(
                f"explain select city from cities on us-map at loc "
                f"intersecting {{{cx} +- {dx}, {cy} +- {dy}}}"
            ).raise_for_status()
            plan = [row[0] for row in response.rows]
            assert any(line.startswith("Scatter-gather over") for line in plan)
            # A universe-wide window targets every shard.
            assert sum(line.startswith("-- shard") for line in plan) == \
                len(local.shards)
        finally:
            client.close()


def test_aggregates_are_rejected(cluster):
    _dataset, local = cluster
    for client in _clients(local):
        try:
            response = client.query("select count(city) from cities")
            assert response.status == "error"
            assert "aggregate" in response.error_message
        finally:
            client.close()
