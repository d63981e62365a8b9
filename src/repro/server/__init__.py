"""repro.server — a concurrent PSQL query service.

The production shape of the paper's system: a *static, packed*
pictorial database (built once, Section 3.3) serving interactive PSQL
(Section 2) to many concurrent clients.  An asyncio TCP front end
frames a line protocol; CPU-bound search work runs on a worker pool; a
generation-checked LRU cache replays repeated queries; and the
``STATS`` command surfaces :mod:`repro.obs`-backed metrics — QPS, cache
hit rate, nodes visited, page I/O.

Pieces:

- :mod:`repro.server.protocol` — the wire format (frames, escaping,
  the canonical result encoding);
- :mod:`repro.server.service` — the thread pool executing queries
  against the shared database;
- :mod:`repro.server.cache` — the LRU result cache keyed on
  ``(normalized query, database generation)``;
- :mod:`repro.server.server` — the asyncio server: session manager,
  admission gate (``BUSY``), per-query timeout (``TIMEOUT``), error
  framing (``ERR``), graceful draining shutdown;
- :mod:`repro.server.client` — a blocking client;
- ``python -m repro.server`` — the CLI entrypoint (also installed as
  the ``repro-psql-server`` console script).

Quickstart::

    $ PYTHONPATH=src python -m repro.server --port 7751 &
    $ PYTHONPATH=src python - <<'EOF'
    from repro.server.client import Client
    with Client(port=7751) as c:
        print(c.query("select city from cities on us-map "
                      "at loc covered-by {400+-150, 300+-150}").rows)
        print({k: v for k, v in c.stats().items() if "cache" in k})
    EOF
"""

from repro.server.cache import QueryCache
from repro.server.client import Client
from repro.server.protocol import (
    DEFAULT_PORT,
    ProtocolError,
    Response,
    ServerBusyError,
    ServerError,
    ServerTimeoutError,
    encode_result,
)
from repro.server.server import PsqlServer, ServerConfig
from repro.server.service import QueryOutcome, QueryService

__all__ = [
    "Client",
    "DEFAULT_PORT",
    "ProtocolError",
    "PsqlServer",
    "QueryCache",
    "QueryOutcome",
    "QueryService",
    "Response",
    "ServerBusyError",
    "ServerConfig",
    "ServerError",
    "ServerTimeoutError",
    "encode_result",
]
