"""Ratchet tree layout and resolution tests.

The layout oracle rebuilds the complete-tree structure independently by
recursive range splitting (root of [lo, hi] is the midpoint) and the index
arithmetic must agree with it for every capacity in use.
"""

from __future__ import annotations

import random

import pytest

from chatgate import primitives, tree
from chatgate.errors import MalformedControl

CAPACITIES = [1, 2, 4, 8, 16, 32, 64]


def reference_layout(capacity: int):
    """parent/children maps built from the definition, not the bit tricks."""
    parents: dict[int, int] = {}
    children: dict[int, tuple[int, int]] = {}

    def build(lo: int, hi: int) -> int:
        mid = (lo + hi) // 2
        if lo != hi:
            l = build(lo, mid - 1)
            r = build(mid + 1, hi)
            children[mid] = (l, r)
            parents[l] = mid
            parents[r] = mid
        return mid

    root = build(0, 2 * capacity - 2)
    return root, parents, children


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_index_arithmetic_matches_reference(capacity):
    root, parents, children = reference_layout(capacity)
    assert tree.root_index(capacity) == root
    assert tree.node_count(capacity) == 2 * capacity - 1
    for x in range(tree.node_count(capacity)):
        if x in parents:
            assert tree.parent(x, capacity) == parents[x]
        else:
            assert x == root
        if x in children:
            assert (tree.left(x), tree.right(x)) == children[x]
            assert not tree.is_leaf(x)
        else:
            assert tree.is_leaf(x)
    for leaf in range(capacity):
        assert tree.leaf_node(leaf) == 2 * leaf


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_direct_path_and_copath(capacity):
    _, parents, _ = reference_layout(capacity)
    for leaf in range(capacity):
        path = tree.direct_path(leaf, capacity)
        assert path[0] == tree.leaf_node(leaf)
        assert path[-1] == tree.root_index(capacity)
        for a, b in zip(path, path[1:]):
            assert parents[a] == b
        cop = tree.copath(leaf, capacity)
        assert len(cop) == len(path) - 1
        for c, p in zip(cop, path):
            assert parents[c] == parents[p]
            assert c != p


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_ancestry_matches_reference(capacity):
    root, parents, _ = reference_layout(capacity)

    def ancestors(x):
        out = []
        while x in parents:
            x = parents[x]
            out.append(x)
        return out

    for x in range(tree.node_count(capacity)):
        anc = set(ancestors(x))
        for a in range(tree.node_count(capacity)):
            assert tree.is_ancestor(a, x) == (a in anc)


def test_resolution_blank_semantics():
    rng = random.Random(2026)
    for capacity in (2, 4, 8, 16):
        for _ in range(50):
            t = tree.RatchetTree.blank_tree(capacity)
            for x in range(tree.node_count(capacity)):
                if rng.random() < 0.5:
                    t.nodes[x].public_key = bytes([x]) * 32
            res = t.resolution(t.root)
            # all non-blank, mutually non-overlapping
            assert all(not t.nodes[x].is_blank for x in res)
            for a in res:
                for b in res:
                    if a != b:
                        assert not tree.is_ancestor(a, b)
            # every non-blank leaf is covered exactly once
            for leaf in range(capacity):
                x = tree.leaf_node(leaf)
                if not t.nodes[x].is_blank:
                    covering = [a for a in res if a == x or tree.is_ancestor(a, x)]
                    assert len(covering) == 1


def test_resolution_of_nonblank_node_is_itself():
    t = tree.RatchetTree.blank_tree(4)
    t.nodes[3].public_key = b"\x01" * 32
    assert t.resolution(3) == [3]


def test_resolution_all_blank_is_empty():
    t = tree.RatchetTree.blank_tree(8)
    assert t.resolution(t.root) == []


def test_grow_preserves_indices():
    t = tree.RatchetTree.blank_tree(4)
    for x in range(7):
        t.nodes[x].public_key = bytes([x + 1]) * 32
    t.members[0] = "alice"
    t.members[3] = "dora"
    t.grow()
    assert t.capacity == 8
    assert len(t.nodes) == 15
    for x in range(7):
        assert t.nodes[x].public_key == bytes([x + 1]) * 32
    assert all(t.nodes[x].is_blank for x in range(7, 15))
    assert t.members == {0: "alice", 3: "dora"}
    # old root is now the left child of the new root
    assert tree.left(t.root) == 3


def test_leftmost_blank_leaf_skips_occupied():
    t = tree.RatchetTree.blank_tree(4)
    t.nodes[0].public_key = b"\x01" * 32
    t.members[0] = "a"
    assert t.leftmost_blank_leaf() == 1
    for leaf in range(1, 4):
        t.nodes[tree.leaf_node(leaf)].public_key = b"\x02" * 32
        t.members[leaf] = f"m{leaf}"
    assert t.leftmost_blank_leaf() is None


def test_public_snapshot_roundtrip():
    t = tree.RatchetTree.blank_tree(4)
    t.nodes[0].public_key = b"\x07" * 32
    t.nodes[0].secret = b"\x08" * 32
    t.nodes[0].key_pair = primitives.KeyPair(secret_key=b"\x09" * 32,
                                             public_key=b"\x07" * 32)
    t.nodes[3].public_key = b"\x0a" * 32
    t.members[0] = "alice"
    blob = t.to_public_bytes()
    # secrets must not appear in the public snapshot
    assert b"\x08" * 32 not in blob
    assert b"\x09" * 32 not in blob
    back = tree.RatchetTree.from_public_bytes(blob)
    assert back.capacity == 4
    assert back.nodes[0].public_key == b"\x07" * 32
    assert back.nodes[0].secret is None
    assert back.nodes[3].public_key == b"\x0a" * 32
    assert back.members == {0: "alice"}
    # byte-stable
    assert back.to_public_bytes() == blob


def test_public_snapshot_rejects_garbage():
    with pytest.raises(MalformedControl):
        tree.RatchetTree.from_public_bytes(b"\x00\x01\x02")
    t = tree.RatchetTree.blank_tree(2)
    blob = t.to_public_bytes()
    with pytest.raises(MalformedControl):
        tree.RatchetTree.from_public_bytes(blob + b"\x00")


def test_blank_tree_rejects_bad_capacity():
    for bad in (0, 3, 5, 6, 12):
        with pytest.raises(ValueError):
            tree.RatchetTree.blank_tree(bad)
