"""Left-balanced binary ratchet tree with blank nodes.

Array layout over a power-of-two leaf capacity c: node indices 0..2c-2,
leaf i at index 2i, root at index c-1. A node's level is the number of
trailing one bits in its index. Capacity doubles in place: the old array is
a prefix of the new one (the old root becomes the new root's left child),
so node indices never move.

The tree is public: each node is a public key, or None when blank, plus
the leaf -> member id roster. Private keys never live here; each member
keeps those for its own direct path in `CgkaState.path`. Chaining and key
generation belong to the CGKA layer.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field

from .encoding import TEXT, TREE_NODE, U32, Record, items
from .errors import MalformedControl


# node index arithmetic -----------------------------------------------------

def node_count(capacity: int) -> int:
    return 2 * capacity - 1


def leaf_node(leaf: int) -> int:
    return 2 * leaf


def is_leaf(x: int) -> bool:
    return x % 2 == 0


def level(x: int) -> int:
    k = 0
    while (x >> k) & 1:
        k += 1
    return k


def root_index(capacity: int) -> int:
    return capacity - 1


def left(x: int) -> int:
    return x ^ (0b01 << (level(x) - 1))


def right(x: int) -> int:
    return x ^ (0b11 << (level(x) - 1))


def direct_path(leaf: int, capacity: int) -> list[int]:
    """Node indices from the leaf up to and including the root."""
    x = leaf_node(leaf)
    root = root_index(capacity)
    path = [x]
    k = 0  # level of x, one level per step
    while x != root:
        x = (x | (1 << k)) ^ (((x >> (k + 1)) & 1) << (k + 1))
        k += 1
        path.append(x)
    return path


def copath(leaf: int, capacity: int) -> list[int]:
    """copath[i] is the sibling of direct_path[i], which sits at level i;
    empty for capacity 1."""
    return [x ^ (2 << i) for i, x in enumerate(direct_path(leaf, capacity)[:-1])]


def subtree_range(x: int) -> tuple[int, int]:
    spread = (1 << level(x)) - 1
    return x - spread, x + spread


def is_ancestor(a: int, x: int) -> bool:
    """Strict: a is above x."""
    lo, hi = subtree_range(a)
    return a != x and lo <= x <= hi


# seats ------------------------------------------------------------------------

def capacity_for(members: int) -> int:
    """The smallest power of two that seats every member."""
    return 1 << max(members - 1, 0).bit_length()


def newcomer_seat(seated: Container[int], capacity: int) -> tuple[int, int]:
    """Where an add seats its newcomer, and the capacity it leaves: the
    leftmost leaf not in `seated`, or, when every leaf is taken, the first
    leaf past `capacity`, which then doubles."""
    for leaf in range(capacity):
        if leaf not in seated:
            return leaf, capacity
    return capacity, 2 * capacity


# tree -----------------------------------------------------------------------

# The public tree's wire layout: node keys, then (leaf, member id) by leaf.
_PUBLIC_TREE = Record(("capacity", U32), ("nodes", items(TREE_NODE)),
                      ("members", items(Record(("leaf", U32), ("member_id", TEXT)))))


@dataclass
class RatchetTree:
    capacity: int
    nodes: list[bytes | None] = field(default_factory=list)  # public keys
    members: dict[int, str] = field(default_factory=dict)  # leaf -> member id

    @classmethod
    def blank_tree(cls, capacity: int) -> "RatchetTree":
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        return cls(capacity=capacity, nodes=[None] * node_count(capacity))

    @property
    def root(self) -> int:
        return root_index(self.capacity)

    def node(self, x: int) -> bytes | None:
        return self.nodes[x]

    def leaf_of(self, member_id: str) -> int | None:
        for leaf, mid in self.members.items():
            if mid == member_id:
                return leaf
        return None

    def leftmost_blank_leaf(self) -> int | None:
        """The leftmost leaf no member sits at, or None when all are taken."""
        leaf, capacity = newcomer_seat(self.members, self.capacity)
        return leaf if capacity == self.capacity else None

    def copy(self) -> "RatchetTree":
        return RatchetTree(self.capacity, list(self.nodes), dict(self.members))

    def grow(self) -> None:
        """Double capacity in place; existing node indices are unchanged."""
        old_count = node_count(self.capacity)
        self.capacity *= 2
        self.nodes.extend([None] * (node_count(self.capacity) - old_count))

    def resolution(self, x: int) -> list[int]:
        """Minimal non-blank cover of the subtree at x; blank leaves vanish."""
        if self.nodes[x] is not None:
            return [x]
        if is_leaf(x):
            return []
        return self.resolution(left(x)) + self.resolution(right(x))

    def blank_path(self, leaf: int) -> None:
        """Blank the internal nodes above a leaf (the leaf itself stays)."""
        for x in direct_path(leaf, self.capacity)[1:]:
            self.nodes[x] = None

    # public snapshot ---------------------------------------------------------

    def to_public_bytes(self) -> bytes:
        """Public keys and membership: the whole tree."""
        return _PUBLIC_TREE.encode(
            (self.capacity, self.nodes, sorted(self.members.items())))

    @classmethod
    def from_public_bytes(cls, data: bytes) -> "RatchetTree":
        capacity, nodes, seats = _PUBLIC_TREE.decode(data)
        if capacity < 1 or capacity & (capacity - 1):
            raise MalformedControl("bad tree capacity")
        if len(nodes) != node_count(capacity):
            raise MalformedControl("bad tree node count")
        members = dict(seats)
        if len(members) != len(seats) or len(set(members.values())) != len(seats):
            raise MalformedControl("a member leaf or id listed twice")
        if any(leaf >= capacity for leaf in members):
            raise MalformedControl("member leaf out of range")
        return cls(capacity=capacity, nodes=nodes, members=members)
