"""Deterministic demo database + factory resolution for the server.

``python -m repro.server --database`` names the database to serve by a
**factory spec** string ``"package.module:callable"``;
:func:`resolve_factory` turns the spec into the callable.
:func:`demo_database` is the default factory — the same synthetic US
map the test suite and the paper's figures use, fully registered with
pictures and packed R-tree indexes.  It is a pure function of its
arguments, so cached results are reproducible run to run.
"""

from __future__ import annotations

import importlib
import os
from typing import Callable

from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.workloads import build_us_map

__all__ = ["DEFAULT_FACTORY_SPEC", "bench_database", "demo_database",
           "resolve_factory"]

DEFAULT_FACTORY_SPEC = "repro.server.demo:demo_database"


def demo_database(scale: int = 1, seed: int = 7) -> Database:
    """A fully loaded pictorial database over the synthetic US map.

    Args:
        scale: linear size multiplier (cities per state etc.); the
            throughput benchmark raises it to make queries CPU-heavier.
        seed: RNG seed; the database is a pure function of
            ``(scale, seed)``.
    """
    us_map = build_us_map(seed=seed, states_x=4, states_y=3,
                          cities_per_state=6 * scale, lakes=5 * scale,
                          highways=3 * scale)
    db = Database()
    cities = db.create_relation("cities", [
        Column("city", "str"), Column("state", "str"),
        Column("population", "int"), Column("loc", "point")])
    for c in us_map.cities:
        cities.insert({"city": c.name, "state": c.state,
                       "population": c.population, "loc": c.loc})
    states = db.create_relation("states", [
        Column("state", "str"), Column("population-density", "float"),
        Column("loc", "region")])
    for s in us_map.states:
        states.insert({"state": s.name,
                       "population-density": s.population_density,
                       "loc": s.loc})
    zones = db.create_relation("time-zones", [
        Column("zone", "str"), Column("hour-diff", "int"),
        Column("loc", "region")])
    for z in us_map.time_zones:
        zones.insert({"zone": z.zone, "hour-diff": z.hour_diff,
                      "loc": z.loc})
    lakes = db.create_relation("lakes", [
        Column("lake", "str"), Column("area", "float"),
        Column("volume", "float"), Column("loc", "region")])
    for lake in us_map.lakes:
        lakes.insert({"lake": lake.name, "area": lake.area,
                      "volume": lake.volume, "loc": lake.loc})
    highways = db.create_relation("highways", [
        Column("hwy-name", "str"), Column("hwy-section", "int"),
        Column("loc", "segment")])
    for h in us_map.highways:
        highways.insert({"hwy-name": h.hwy_name,
                         "hwy-section": h.hwy_section, "loc": h.loc})

    us_pic = db.create_picture("us-map", us_map.universe)
    us_pic.register(cities, "loc")
    us_pic.register(states, "loc")
    us_pic.register(highways, "loc")
    lake_pic = db.create_picture("lake-map", us_map.universe)
    lake_pic.register(lakes, "loc")
    zone_pic = db.create_picture("time-zone-map", us_map.universe)
    zone_pic.register(zones, "loc")
    return db


def bench_database() -> Database:
    """Factory for the throughput benchmark: scale set via environment.

    Factory specs name zero-argument callables, so ``REPRO_DEMO_SCALE``
    sizes the database (default 2).
    """
    scale = int(os.environ.get("REPRO_DEMO_SCALE", "2"))
    return demo_database(scale=scale)


def resolve_factory(spec: str) -> Callable[[], Database]:
    """Resolve a ``"module:callable"`` factory spec.

    Raises:
        ValueError: when the spec is malformed or does not resolve to a
            callable.
    """
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"factory spec {spec!r} is not of the form 'module:callable'")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ValueError(f"cannot import {module_name!r}: {exc}") from exc
    factory = getattr(module, attr, None)
    if not callable(factory):
        raise ValueError(f"{spec!r} does not name a callable")
    return factory
