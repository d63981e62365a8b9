"""Unit tests for the node record and the in-memory node store.

A node is ``(is_leaf, entries)`` with flat ``(x1, y1, x2, y2, ref)``
entries; the list store keeps nodes behind fetch/write/allocate/free.
"""

import pytest

from repro.geometry import Rect
from repro.rtree import ListStore, RTree, node_mbr


def leaf_with(store: ListStore, *rects: Rect) -> int:
    ref = store.allocate()
    store.write(ref, True, [(*r, i) for i, r in enumerate(rects)])
    return ref


def parent_of(store: ListStore, *children: int) -> int:
    ref = store.allocate()
    store.write(ref, False, [node_mbr(store.fetch(c)[1]) + (c,)
                             for c in children])
    return ref


def tree_over(store: ListStore, root: int, size: int) -> RTree:
    tree = RTree(max_entries=4, min_entries=1)
    tree.store, tree.root, tree._size = store, root, size
    return tree


def test_mbr_of_entries():
    store = ListStore()
    leaf = leaf_with(store, Rect(0, 0, 1, 1), Rect(4, 2, 6, 8))
    assert node_mbr(store.fetch(leaf)[1]) == (0, 0, 6, 8)


def test_mbr_of_empty_node_raises():
    with pytest.raises(ValueError):
        node_mbr([])


def test_add_sets_parent_pointer():
    """A parent entry's ref fetches the child node it bounds."""
    store = ListStore()
    child = leaf_with(store, Rect(0, 0, 1, 1))
    parent = parent_of(store, child)
    (entry,) = store.fetch(parent)[1]
    assert entry[4] == child
    assert store.fetch(entry[4]) == store.fetch(child)


def test_remove_by_identity():
    """Delete removes exactly the matching entry, once."""
    t = RTree(max_entries=4)
    t.insert(Rect(0, 0, 1, 1), 0)
    t.insert(Rect(2, 2, 3, 3), 1)
    assert t.delete(Rect(0, 0, 1, 1), 0)
    assert len(t) == 1
    assert not t.delete(Rect(0, 0, 1, 1), 0)


def test_entry_for_child():
    """ChooseLeaf's slots name, in each node, the entry for the next."""
    t = RTree(max_entries=4)
    for i in range(30):
        t.insert(Rect(i, i % 7, i + 1, i % 7 + 1), i)
    refs, slots = t._choose_path(Rect(3, 3, 4, 4))
    assert len(refs) == t.depth + 1
    for ref, slot, child in zip(refs, slots, refs[1:]):
        assert t.store.fetch(ref)[1][slot][4] == child


def test_freed_ref_is_reused():
    """A freed ref is reused by the next allocation; live refs are not."""
    store = ListStore()
    a = leaf_with(store, Rect(0, 0, 1, 1))
    b = leaf_with(store, Rect(9, 9, 10, 10))
    store.free(a)
    assert store.live_nodes() == 1
    assert store.allocate() == a
    assert store.allocate() not in (a, b)


def test_descend_preorder():
    """The walk yields the root first, then its children."""
    store = ListStore()
    a = leaf_with(store, Rect(0, 0, 1, 1))
    b = leaf_with(store, Rect(2, 2, 3, 3))
    root = parent_of(store, a, b)
    walked = list(tree_over(store, root, 2).walk())
    assert [(level, ref) for level, ref, _leaf, _e in walked] == [
        (0, root), (1, a), (1, b)]


def test_leaf_entries_flattens_subtree():
    store = ListStore()
    a = leaf_with(store, Rect(0, 0, 1, 1), Rect(1, 1, 2, 2))
    b = leaf_with(store, Rect(5, 5, 6, 6))
    tree = tree_over(store, parent_of(store, a, b), 3)
    assert sorted(rect for rect, _oid in tree.items()) == sorted(
        [Rect(0, 0, 1, 1), Rect(1, 1, 2, 2), Rect(5, 5, 6, 6)])
    tree.validate()


def test_height():
    store = ListStore()
    leaf = leaf_with(store, Rect(0, 0, 1, 1))
    mid = parent_of(store, leaf)
    root = parent_of(store, mid)
    assert tree_over(store, leaf, 1).depth == 0
    assert tree_over(store, mid, 1).depth == 1
    assert tree_over(store, root, 1).depth == 2


def test_is_leaf_entry():
    store = ListStore()
    leaf = leaf_with(store, Rect(0, 0, 1, 1))
    internal = parent_of(store, leaf)
    assert store.fetch(leaf)[0] is True
    assert store.fetch(internal)[0] is False
