"""The protocol core every endpoint shares, checked on each of them.

A single server, a primary shard, a read replica and the router all run
one connection loop over one verb table.  The table is the contract:
every verb in it is answered over both codecs, an unknown verb's error
lists exactly the table, a replica refuses the verbs flagged mutating,
and a request line too long to frame is answered with a framed error
before the connection closes — on every endpoint alike.
"""

import re
import socket
import tempfile

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.demo import demo_dataset
from repro.cluster.launcher import LocalCluster
from repro.server.demo import demo_database
from repro.server.server import LINE_LIMIT, PsqlServer, ServerConfig

ENDPOINTS = ["server", "primary", "replica", "router"]


@pytest.fixture(scope="module")
def endpoints():
    """name -> (host, port, endpoint object)."""
    server = PsqlServer(ServerConfig(port=0, workers=2),
                        db=demo_database())
    host, port = server.start_background()
    with tempfile.TemporaryDirectory(prefix="protocol-core-") as tmp, \
            LocalCluster(demo_dataset(), nshards=1, replicas_per_shard=1,
                         data_root=tmp) as local:
        primary, replica = local.shards[0], local.replicas[0][0]
        yield {
            "server": (host, port, server),
            "primary": (primary.config.host, primary.port, primary),
            "replica": (replica.config.host, replica.port, replica),
            "router": (local.router_host, local.router_port, local.router),
        }
    server.stop_background()


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
@pytest.mark.parametrize("name", ENDPOINTS)
def test_every_table_verb_is_answered(endpoints, name, binary):
    host, port, endpoint = endpoints[name]
    # QUIT goes last: the endpoint answers it and then hangs up.
    verbs = sorted(endpoint.VERBS, key=lambda verb: verb == "QUIT")
    with ClusterClient(host, port, binary=binary) as client:
        assert client.binary == binary
        for verb in verbs:
            reply = client.command(verb)
            assert "unknown command" not in reply.error_message, verb
            if endpoint.VERBS[verb].mutating and endpoint.read_only:
                assert reply.error_kind == "ReadOnly", verb
        assert reply.status == "bye"


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
@pytest.mark.parametrize("name", ENDPOINTS)
def test_unknown_verb_lists_the_table(endpoints, name, binary):
    host, port, endpoint = endpoints[name]
    with ClusterClient(host, port, binary=binary) as client:
        reply = client.command("FROBNICATE now")
        assert reply.error_kind == "ProtocolError"
        listed = re.search(r"\(try (\S+)\)$", reply.error_message)
        assert listed.group(1).split("/") == list(endpoint.VERBS)
        assert client.ping()


def test_replica_is_the_only_read_only_node(endpoints):
    assert [name for name in ENDPOINTS if endpoints[name][2].read_only] \
        == ["replica"]


@pytest.mark.parametrize("name", ENDPOINTS)
def test_overlong_line_is_answered_then_closed(endpoints, name):
    # asyncio's StreamReader cannot frame a line past its limit; the
    # newline is lost with it, so the endpoint answers once and closes.
    host, port, _endpoint = endpoints[name]
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(b"QUERY " + b"x" * (LINE_LIMIT + 5_000) + b"\n")
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    assert received.startswith(b"ERR ProtocolError request line longer")
    assert received.endswith(b"\nEND\n")
    assert received.count(b"\nEND\n") == 1
