"""The database the spine's two serving workloads query.

The server names its database by a zero-argument ``module:callable``
factory spec, so the knobs travel in the environment: the benchmark
sets ``SPINE_INDEX_PATH`` (and ``SPINE_SCALE`` for ``--smoke``) before
it starts ``python -m repro.server --database factory:spine_database``
with this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import os

from repro.relational.catalog import Database
from repro.server.demo import demo_database

#: ``demo_database`` scale of a full run: 14,400 cities, 1,000 lakes.
FULL_SCALE = 200
#: Buffer frames of the cities index.  The index is ~150 pages, so it
#: fits its cache: ``serve_uncached`` is the cache-resident counterpart
#: of ``disk_search``, whose tree is ~30x larger than its pool.
CITIES_POOL_FRAMES = 256


def build_database(scale: int, index_path: str) -> Database:
    """usmap at *scale* with ``cities.loc`` re-registered on disk."""
    db = demo_database(scale=scale)
    db.picture("us-map").register_disk(
        db.relation("cities"), "loc", index_path,
        buffer_capacity=CITIES_POOL_FRAMES)
    return db


def spine_database() -> Database:
    """Factory spec target; reads its knobs from the environment."""
    return build_database(int(os.environ.get("SPINE_SCALE", FULL_SCALE)),
                          os.environ["SPINE_INDEX_PATH"])
