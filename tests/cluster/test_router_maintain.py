"""MAINTAIN through the router: toggle fan-out and per-shard reports.

The router scatters ``MAINTAIN on|off`` to every primary (summing the
resulting enabled states into the ack) and merges ``status``/``run``
reports under ``-- shard N`` headers, the same stitching the advisor
verbs use.  LocalCluster runs the shard servers in-process, so the test
can degrade one shard's catalog directly and watch the cycle repair only
that shard.
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


class TestMaintainRouting:
    def test_status_merges_per_shard(self, cluster):
        client = cluster.client()
        try:
            lines = report(client, "MAINTAIN status")
            assert lines[0] == "Scatter-gather over 2 shard(s)"
            for shard in (0, 1):
                section = shard_section(lines, shard)
                assert section[0].lstrip().startswith("maintenance: off")
        finally:
            client.close()

    def test_on_off_ack_sums_enabled_states(self, cluster):
        client = cluster.client()
        try:
            on = client.command("MAINTAIN on")
            on.raise_for_status()
            assert on.nrows == 2  # both shards enabled
            for shard in (0, 1):
                section = shard_section(
                    report(client, "MAINTAIN status"), shard)
                assert section[0].lstrip().startswith("maintenance: on")
            off = client.command("MAINTAIN off")
            off.raise_for_status()
            assert off.nrows == 0
        finally:
            client.close()

    def test_run_repairs_only_the_degraded_shard(self, cluster):
        degrade_shard0(cluster)
        client = cluster.client()
        try:
            lines = report(client, "MAINTAIN run")
            sick = shard_section(lines, 0)
            well = shard_section(lines, 1)
            assert any("repack" in line and "cities.loc" in line
                       for line in sick), sick
            assert all("repack" not in line for line in well), well
            ratio, _, _ = packed_degradation(
                cluster.shards[0].service.db, "us-map", "cities", "loc")
            assert ratio < 1.25
        finally:
            client.close()

    def test_bad_action_is_router_error(self, cluster):
        client = cluster.client()
        try:
            bad = client.command("MAINTAIN sideways")
            assert bad.status == "error"
            assert client.ping()
        finally:
            client.close()
