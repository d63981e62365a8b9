"""ADVISE / HEALTH through the router: per-shard merge, repack recovery.

The router scatters the advisor verbs to every primary and stitches the
per-shard reports under ``-- shard N`` headers, so a degradation on one
shard stays attributable to that shard.  LocalCluster runs the shard
servers in-process, which lets the tests degrade one shard's catalog
directly and deterministically.
"""

import random

import pytest

from repro.advisor import packed_degradation
from repro.cluster.dataset import GID_COLUMN
from repro.cluster.demo import demo_dataset
from repro.cluster.launcher import LocalCluster
from repro.geometry.point import Point
from repro.rtree import QuadraticSplit


@pytest.fixture()
def cluster():
    with LocalCluster(demo_dataset(), nshards=2) as local:
        yield local


def degrade_shard0(local, churn=2500, sigma=40.0) -> None:
    """Clustered churn straight into shard 0's catalog (Section 3.4).

    The churn splits quadratically: under the served R* split the same
    churn stays under the 1.25x WARN line.
    """
    rng = random.Random(9)
    db = local.shards[0].service.db
    db.picture("us-map").index("cities").split_strategy = QuadraticSplit()
    centers = ((120, 130), (300, 700), (80, 800), (400, 300))
    for i in range(churn):
        cx, cy = centers[i % 4]
        db.insert("cities", {
            GID_COLUMN: 1_000_000 + i, "city": f"churn-{i}",
            "state": "CH", "population": 1,
            "loc": Point(min(max(rng.gauss(cx, sigma), 0), 499),
                         min(max(rng.gauss(cy, sigma), 0), 999))})
    ratio, _, _ = packed_degradation(db, "us-map", "cities", "loc")
    assert ratio >= 1.25, f"fixture failed to degrade (ratio {ratio:.2f})"


def report(client, command):
    response = client.command(command)
    response.raise_for_status()
    return [row[0] for row in response.rows]


def shard_section(lines, shard):
    """The report lines under one ``-- shard N`` header."""
    start = lines.index(f"-- shard {shard} (shard{shard})")
    out = []
    for line in lines[start + 1:]:
        if line.startswith("-- "):
            break
        out.append(line)
    return out


class TestHealthRouting:
    def test_health_merges_per_shard(self, cluster):
        client = cluster.client()
        try:
            lines = report(client, "HEALTH")
            assert lines[0] == "Scatter-gather over 2 shard(s)"
            for shard in (0, 1):
                section = shard_section(lines, shard)
                assert section[0].lstrip().startswith("health: ")
                assert any("tree.us-map/cities.loc" in line
                           for line in section)
        finally:
            client.close()

    def test_degraded_shard_warns_then_repack_recovers(self, cluster):
        degrade_shard0(cluster)
        client = cluster.client()
        try:
            lines = report(client, "HEALTH")
            sick = [line for line in shard_section(lines, 0)
                    if "tree.us-map/cities.loc" in line]
            well = [line for line in shard_section(lines, 1)
                    if "tree.us-map/cities.loc" in line]
            assert sick and sick[0].split()[0] in ("WARN", "FAIL")
            assert well and well[0].split()[0] == "OK"
            client.command("REPACK us-map cities loc").raise_for_status()
            lines = report(client, "HEALTH")
            for shard in (0, 1):
                section = shard_section(lines, shard)
                assert section[0].lstrip().startswith("health: OK")
        finally:
            client.close()


class TestAdviseRouting:
    def test_advise_merges_and_recommends(self, cluster):
        client = cluster.client()
        try:
            # An unindexed string filter every shard captures; the
            # router's own result cache only spares repeats, so send it
            # once and let weight=1 carry the recommendation.
            client.query("select city from cities where city = 'Nowhere'"
                         ).raise_for_status()
            lines = report(client, "ADVISE")
            assert lines[0] == "Scatter-gather over 2 shard(s)"
            for shard in (0, 1):
                section = shard_section(lines, shard)
                assert any("workload: " in line for line in section)
                assert any("CREATE INDEX cities.city" in line
                           for line in section)
        finally:
            client.close()

    def test_advise_accepts_top_argument(self, cluster):
        client = cluster.client()
        try:
            lines = report(client, "ADVISE 5")
            assert lines[0] == "Scatter-gather over 2 shard(s)"
            bad = client.command("ADVISE nope")
            assert bad.status == "error"
        finally:
            client.close()

    def test_replica_serves_advisor_verbs_directly(self, cluster):
        # Not routed — pointed at a shard, the verbs still answer (they
        # are read-only, so replicas and primaries treat them alike).
        client = cluster.client()
        try:
            lines = report(client, "HEALTH")
            assert lines
        finally:
            client.close()
        from repro.cluster.client import ClusterClient
        shard = cluster.shards[0]
        direct = ClusterClient("127.0.0.1", shard.port)
        try:
            response = direct.health()
            response.raise_for_status()
            assert response.rows[0][0].startswith("health: ")
        finally:
            direct.close()
