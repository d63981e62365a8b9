"""The benchmark spine's contract with the library, checked in tier-1.

``benchmarks/spine/`` imports ``repro`` names, wraps library methods
with its tracer and calls a few entry points with fixed argument
shapes.  A change that deletes or renames one of those fails here, in
the unit suite, rather than later in the spine's own smoke run.
"""

import ast
import importlib
import os
import random
import types
from pathlib import Path

import pytest

from repro.geometry import Point, Rect
from repro.psql import executor
from repro.psql.executor import Session
from repro.relational.catalog import Database
from repro.relational.relation import Column
from repro.rtree import RTree
from repro.rtree.repack import local_repack_disk
from repro.storage.buffer import BufferPool
from repro.storage.disk_rtree import DiskRTree
from repro.storage.pager import Pager

SPINE = Path(__file__).resolve().parent.parent / "benchmarks" / "spine"
SOURCES = {path.name: ast.parse(path.read_text())
           for path in sorted(SPINE.glob("*.py"))}

#: What the spine's tracer wraps (``tracer.wrap(obj, attr, span)``),
#: by the type of ``obj``.
WRAPPED = {
    executor: ("parse_statement", "spatial_join", "nested_window_join"),
    Session: ("plan",),
    RTree: ("search", "search_within"),
    DiskRTree: ("search", "point_query", "knn", "insert", "delete",
                "flush"),
    BufferPool: ("get", "put"),
    Pager: ("read_page", "write_page", "sync"),
}
#: What it wraps on the ``cities`` index, whatever ``register_disk``
#: returns.
DISK_INDEX_WRAPPED = ("search", "search_within")


def _disk_index_type(directory):
    """The type of what ``register_disk`` returns."""
    db = Database()
    db.create_relation("r", [Column("loc", "point")]).insert(
        {"loc": Point(1, 1)})
    picture = db.create_picture("p", Rect(0, 0, 2, 2))
    index = picture.register_disk(db.relation("r"), "loc",
                                  os.path.join(str(directory), "r.idx"))
    index.close()
    return type(index)


def _repro_imports():
    """``(file, module, name, alias)`` per ``repro`` name the spine
    imports (``name`` is None for a plain ``import repro.x``)."""
    for file, tree in SOURCES.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for a in node.names:
                    yield file, node.module, a.name, a.asname or a.name
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "repro":
                        yield file, a.name, None, a.asname or a.name


def _resolve(module: str, name):
    mod = importlib.import_module(module)
    if name is None:
        return mod
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def test_spine_sources_found():
    assert {"run.py", "serving.py", "storage.py", "layers.py",
            "factory.py"} <= set(SOURCES)


def test_every_imported_name_resolves():
    imports = list(_repro_imports())
    assert imports
    for file, module, name, _alias in imports:
        try:
            _resolve(module, name)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{file}: from {module} import {name}: {exc}")


def test_attributes_read_off_imported_names_exist():
    """``alias.attr`` on an imported module or class (for example
    ``binproto.encode_result_body``) names something that exists."""
    for file, tree in SOURCES.items():
        aliases = {alias: _resolve(module, name)
                   for f, module, name, alias in _repro_imports()
                   if f == file}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                target = aliases[node.value.id]
                if isinstance(target, (types.ModuleType, type)):
                    assert hasattr(target, node.attr), \
                        f"{file}: {node.value.id}.{node.attr}"


def _wrapped_attrs(tree):
    """The attribute names ``tracer.wrap(obj, attr, span)`` calls patch:
    string constants, or the names a ``for attr in (...)`` loop binds."""
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            for inner in ast.walk(node):
                loops[id(inner)] = (node.target.id, [
                    e.value for e in node.iter.elts
                    if isinstance(e, ast.Constant)])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and len(node.args) >= 2):
            attr = node.args[1]
            if isinstance(attr, ast.Constant):
                yield attr.value
            elif isinstance(attr, ast.Name):
                var, names = loops[id(node)]
                assert var == attr.id, ast.dump(node)
                yield from names


def test_every_wrapped_attribute_is_listed_and_exists(tmp_path):
    wrapped = {attr for tree in SOURCES.values()
               for attr in _wrapped_attrs(tree)}
    owners = [*WRAPPED.items(),
              (_disk_index_type(tmp_path), DISK_INDEX_WRAPPED)]
    listed = {attr for _owner, attrs in owners for attr in attrs}
    assert wrapped and wrapped <= listed, sorted(wrapped - listed)
    for owner, attrs in owners:
        for attr in attrs:
            assert callable(getattr(owner, attr, None)), (owner, attr)


# -- the call shapes, on tiny inputs ------------------------------------------


def _items(n=300, seed=3):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        w, h = rng.uniform(0, 4), rng.uniform(0, 4)
        out.append((Rect(x, y, x + w, y + h), i))
    return out


@pytest.mark.parametrize("method", ["hilbert", "str"])
def test_bulk_load_shape(tmp_path, method):
    tree = DiskRTree(str(tmp_path / "t.db"))
    tree.bulk_load(_items(), method=method)
    assert len(tree) == 300
    tree.close()


def test_bulk_load_stream_adaptive_shape(tmp_path):
    tree = DiskRTree(str(tmp_path / "t.db"))
    tree.bulk_load_stream(_items(), method="adaptive",
                          tmp_dir=str(tmp_path))
    assert len(tree) == 300
    tree.close()


def test_register_disk_shape(tmp_path):
    db = Database()
    cities = db.create_relation("cities", [Column("city", "str"),
                                           Column("loc", "point")])
    for i in range(50):
        cities.insert({"city": f"c{i}", "loc": Point(i * 7 % 100, i)})
    picture = db.create_picture("us-map", Rect(0, 0, 100, 100))
    index = picture.register_disk(db.relation("cities"), "loc",
                                  os.path.join(str(tmp_path), "c.idx"),
                                  buffer_capacity=8)
    assert len(index.search(Rect(0, 0, 100, 100))) == 50
    index.close()


def test_local_repack_disk_shape(tmp_path):
    tree = DiskRTree(str(tmp_path / "t.db"), max_entries=8)
    tree.bulk_load(_items(), method="str")
    for i in range(60):
        tree.insert(Rect(100 + i % 7, 100 + i // 7, 101 + i % 7,
                         101 + i // 7), 1000 + i)
    result = local_repack_disk(tree, Rect(100, 100, 108, 110))
    assert result.entries_repacked > 0
    tree.validate(check_fill=False)
    tree.close()
