"""Ratchet tree layout and resolution tests.

The layout oracle rebuilds the complete-tree structure independently by
recursive range splitting (root of [lo, hi] is the midpoint) and the index
arithmetic must agree with it for every capacity in use.
"""

from __future__ import annotations

import random

import pytest

from chatgate import tree
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
    assert set(range(tree.node_count(capacity))) - set(parents) == {root}
    for x in range(tree.node_count(capacity)):
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
                    t.nodes[x] = bytes([x]) * 32
            res = t.resolution(t.root)
            # all non-blank, mutually non-overlapping
            assert all(t.nodes[x] is not None for x in res)
            for a in res:
                for b in res:
                    if a != b:
                        assert not tree.is_ancestor(a, b)
            # every non-blank leaf is covered exactly once
            for leaf in range(capacity):
                x = tree.leaf_node(leaf)
                if t.nodes[x] is not None:
                    covering = [a for a in res if a == x or tree.is_ancestor(a, x)]
                    assert len(covering) == 1


def test_resolution_of_nonblank_node_is_itself():
    t = tree.RatchetTree.blank_tree(4)
    t.nodes[3] = b"\x01" * 32
    assert t.resolution(3) == [3]


def test_resolution_all_blank_is_empty():
    t = tree.RatchetTree.blank_tree(8)
    assert t.resolution(t.root) == []


def test_grow_preserves_indices():
    t = tree.RatchetTree.blank_tree(4)
    for x in range(7):
        t.nodes[x] = bytes([x + 1]) * 32
    t.members[0] = "alice"
    t.members[3] = "dora"
    t.grow()
    assert t.capacity == 8
    assert len(t.nodes) == 15
    for x in range(7):
        assert t.nodes[x] == bytes([x + 1]) * 32
    assert all(t.nodes[x] is None for x in range(7, 15))
    assert t.members == {0: "alice", 3: "dora"}
    # old root is now the left child of the new root
    assert tree.left(t.root) == 3


def test_leftmost_blank_leaf_skips_occupied():
    t = tree.RatchetTree.blank_tree(4)
    t.nodes[0] = b"\x01" * 32
    t.members[0] = "a"
    assert t.leftmost_blank_leaf() == 1
    for leaf in range(1, 4):
        t.nodes[tree.leaf_node(leaf)] = b"\x02" * 32
        t.members[leaf] = f"m{leaf}"
    assert t.leftmost_blank_leaf() is None


def test_blank_path_blanks_the_nodes_above_a_leaf():
    t = tree.RatchetTree.blank_tree(8)
    t.nodes = [bytes([x + 1]) * 32 for x in range(15)]
    t.blank_path(2)
    assert tree.direct_path(2, 8)[1:] == [5, 3, 7]
    assert [x for x in range(15) if t.nodes[x] is None] == [3, 5, 7]


def test_public_snapshot_roundtrip():
    t = tree.RatchetTree.blank_tree(4)
    t.nodes[0] = b"\x07" * 32
    t.nodes[3] = b"\x0a" * 32
    t.members[0] = "alice"
    blob = t.to_public_bytes()
    back = tree.RatchetTree.from_public_bytes(blob)
    assert back.capacity == 4
    assert back.nodes[0] == b"\x07" * 32
    assert back.nodes[3] == b"\x0a" * 32
    assert back.nodes == t.nodes
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


# -- arithmetic against the loops it replaced ------------------------------------

def _trailing_ones(x: int) -> int:
    k = 0
    while (x >> k) & 1:
        k += 1
    return k


def _is_ancestor(a: int, x: int) -> bool:
    spread = (1 << _trailing_ones(a)) - 1
    return a != x and a - spread <= x <= a + spread


def _first_ancestor_on(path: list[int], x: int) -> int | None:
    for i, p in enumerate(path):
        if _is_ancestor(p, x):
            return i
    return None


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_level_and_ancestry_are_the_loops(capacity):
    # past the tree too: the arithmetic holds for every index
    nodes = range(2 * tree.node_count(capacity) + 2)
    for x in nodes:
        assert tree.level(x) == _trailing_ones(x), x
        for a in nodes:
            assert tree.is_ancestor(a, x) == _is_ancestor(a, x), (a, x)


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_merge_index_is_the_first_ancestor_on_the_senders_path(capacity):
    # The receiver confirms the arithmetic index with one ancestry test and
    # refuses where it fails or runs past the root: exactly where the scan
    # along the path finds no ancestor. Nodes past the tree are refusals.
    root = tree.root_index(capacity)
    for sender in range(capacity):
        path = tree.direct_path(sender, capacity)
        for x in range(2 * tree.node_count(capacity) + 2):
            if x == root or x in path:
                continue
            i = tree.merge_index(x, sender)
            confirmed = i < len(path) and tree.is_ancestor(path[i], x)
            assert (i if confirmed else None) == _first_ancestor_on(path, x), (sender, x)
            if x < tree.node_count(capacity):
                assert confirmed, (sender, x)
