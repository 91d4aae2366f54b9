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
from functools import lru_cache

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
    """The number of trailing one bits of x: the trailing zero bits of
    x + 1, whose lowest set bit alone `(x + 1) & -(x + 1)` keeps."""
    return ((x + 1) & -(x + 1)).bit_length() - 1


def root_index(capacity: int) -> int:
    return capacity - 1


def left(x: int) -> int:
    return x ^ (0b01 << (level(x) - 1))


def right(x: int) -> int:
    return x ^ (0b11 << (level(x) - 1))


def direct_path(leaf: int, capacity: int) -> list[int]:
    """Node indices from the leaf up to and including the root, for a leaf
    below `capacity`: the node at level k above leaf i is the one whose
    2^(k+1)-wide span of indices, the (i >> k)-th, it centres. Worked out
    once per leaf and capacity (see `_direct_path`); each caller gets a
    list of its own."""
    return list(_direct_path(leaf, capacity))


# a path for each of the last 4,096 (leaf, capacity) pairs asked for: every
# leaf of a 4,096-leaf tree, about 1 MB at most
@lru_cache(maxsize=4096)
def _direct_path(leaf: int, capacity: int) -> tuple[int, ...]:
    return tuple(((leaf >> k) << (k + 1)) + (1 << k) - 1
                 for k in range(capacity.bit_length()))


def copath(leaf: int, capacity: int) -> list[int]:
    """copath[i] is the sibling of direct_path[i], which sits at level i;
    empty for capacity 1."""
    return [x ^ (2 << i) for i, x in enumerate(direct_path(leaf, capacity)[:-1])]


def is_ancestor(a: int, x: int) -> bool:
    """Strict: a is above x, within the 2^(level(a)+1) - 1 indices that a
    centres."""
    spread = (a + 1) & -(a + 1)
    return a != x and a - spread < x < a + spread


def merge_index(x: int, sender_leaf: int) -> int:
    """The level of the lowest node strictly above x on `sender_leaf`'s
    direct path, and so its index in that path, if the path reaches it:
    a level above x's own (`level(x) + 1`), and at least where the direct
    paths of the sender's leaf and of `x >> 1`, a leaf below x, meet."""
    return max(((x + 1) & -(x + 1)).bit_length(), ((x >> 1) ^ sender_leaf).bit_length())


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

@dataclass(slots=True)
class TreeEdit:
    """A change to a public tree, not yet made: the capacity it leaves
    (grown in place), the leaf above which it blanks the path (None for
    none), then the nodes it writes, and the seats it fills with a member
    id or empties (None). Reading a tree through it (`written`,
    `seats_member`) gives what the edited tree would hold, so a change can
    be checked and worked with before any tree is touched, and made with
    `RatchetTree.edited` on the tree itself or on a copy."""

    capacity: int
    blank: int | None = None
    nodes: dict[int, bytes | None] = field(default_factory=dict)
    seats: dict[int, str | None] = field(default_factory=dict)

    def written(self) -> dict[int, bytes | None]:
        """Every node the edit writes, with the value it leaves: the
        blanked path's nodes None, unless written after the blanking."""
        if self.blank is None:
            return self.nodes
        return dict.fromkeys(direct_path(self.blank, self.capacity)[1:]) | self.nodes

    def seats_member(self, t: RatchetTree | None, leaf: int) -> bool:
        """Whether `leaf` seats a member of `t`, or of a blank tree, once
        edited."""
        if leaf in self.seats:
            return self.seats[leaf] is not None
        return t is not None and leaf in t.members


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

    def edited(self, edit: "TreeEdit") -> "RatchetTree":
        """Make `edit` in this tree, in place; returns the tree."""
        while self.capacity < edit.capacity:
            self.grow()
        if edit.blank is not None:
            self.blank_path(edit.blank)
        nodes = self.nodes
        for x, pk in edit.nodes.items():
            nodes[x] = pk
        for leaf, member_id in edit.seats.items():
            if member_id is None:
                self.members.pop(leaf, None)
            else:
                self.members[leaf] = member_id
        return self

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
