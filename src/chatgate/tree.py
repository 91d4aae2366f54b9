"""Left-balanced binary ratchet tree with blank nodes.

Array layout over a power-of-two leaf capacity c: node indices 0..2c-2,
leaf i at index 2i, root at index c-1. A node's level is the number of
trailing one bits in its index. Capacity doubles in place: the old array is
a prefix of the new one (the old root becomes the new root's left child),
so node indices never move.

The tree stores key material but never derives it; chaining and key
generation belong to the CGKA layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import Reader, Writer
from .errors import MalformedControl
from .primitives import KeyPair


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


def parent(x: int, capacity: int) -> int:
    if x == root_index(capacity):
        raise ValueError("root has no parent")
    k = level(x)
    b = (x >> (k + 1)) & 1
    return (x | (1 << k)) ^ (b << (k + 1))


def sibling(x: int, capacity: int) -> int:
    p = parent(x, capacity)
    return right(p) if x < p else left(p)


def direct_path(leaf: int, capacity: int) -> list[int]:
    """Node indices from the leaf up to and including the root."""
    x = leaf_node(leaf)
    root = root_index(capacity)
    path = [x]
    k = 0  # level of x: `parent` without recounting it, one level per step
    while x != root:
        x = (x | (1 << k)) ^ (((x >> (k + 1)) & 1) << (k + 1))
        k += 1
        path.append(x)
    return path


def copath(leaf: int, capacity: int) -> list[int]:
    """copath[i] is the sibling of direct_path[i]; empty for capacity 1."""
    path = direct_path(leaf, capacity)
    return [sibling(x, capacity) for x in path[:-1]]


def subtree_range(x: int) -> tuple[int, int]:
    spread = (1 << level(x)) - 1
    return x - spread, x + spread


def is_ancestor(a: int, x: int) -> bool:
    """Strict: a is above x."""
    lo, hi = subtree_range(a)
    return a != x and lo <= x <= hi


# nodes ----------------------------------------------------------------------

@dataclass
class Node:
    """A tree node. Blank means no key at all.

    A member holds private material only on its own direct path: secret is
    the 32-byte seed for the node, and key_pair the decryption key pair
    (derived from the seed, or the member's init key at a leaf joined by
    init key, where no seed exists). key_pair is the pair `pke_keygen`
    returned, so it carries its X25519 key object for opening.
    """

    public_key: bytes | None = None
    secret: bytes | None = None
    key_pair: KeyPair | None = None

    @property
    def is_blank(self) -> bool:
        return self.public_key is None

    def blank(self) -> None:
        self.public_key = None
        self.secret = None
        self.key_pair = None


@dataclass
class RatchetTree:
    capacity: int
    nodes: list[Node] = field(default_factory=list)
    members: dict[int, str] = field(default_factory=dict)  # leaf -> member id

    @classmethod
    def blank_tree(cls, capacity: int) -> "RatchetTree":
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        return cls(capacity=capacity,
                   nodes=[Node() for _ in range(node_count(capacity))])

    @property
    def root(self) -> int:
        return root_index(self.capacity)

    def node(self, x: int) -> Node:
        return self.nodes[x]

    def leaf_of(self, member_id: str) -> int | None:
        for leaf, mid in self.members.items():
            if mid == member_id:
                return leaf
        return None

    def leftmost_blank_leaf(self) -> int | None:
        for leaf in range(self.capacity):
            if self.nodes[leaf_node(leaf)].is_blank and leaf not in self.members:
                return leaf
        return None

    def grow(self) -> None:
        """Double capacity in place; existing node indices are unchanged."""
        old_count = node_count(self.capacity)
        self.capacity *= 2
        self.nodes.extend(Node() for _ in range(node_count(self.capacity) - old_count))

    def resolution(self, x: int) -> list[int]:
        """Minimal non-blank cover of the subtree at x; blank leaves vanish."""
        if not self.nodes[x].is_blank:
            return [x]
        if is_leaf(x):
            return []
        return self.resolution(left(x)) + self.resolution(right(x))

    def blank_path(self, leaf: int) -> None:
        """Blank the internal nodes above a leaf (the leaf itself stays)."""
        for x in direct_path(leaf, self.capacity)[1:]:
            self.nodes[x].blank()

    # public snapshot ---------------------------------------------------------

    def to_public_bytes(self) -> bytes:
        """Public keys and membership only; secrets never serialize here."""
        def write_member(wr: Writer, kv: tuple[int, str]) -> None:
            wr.u32(kv[0])
            wr.text(kv[1])

        w = Writer()
        w.u32(self.capacity)
        w.items([n.public_key or b"" for n in self.nodes],
                lambda wr, pk: wr.field(pk))
        w.items(sorted(self.members.items()), write_member)
        return w.done()

    @classmethod
    def from_public_bytes(cls, data: bytes) -> "RatchetTree":
        r = Reader(data)
        capacity = r.u32()
        if capacity < 1 or capacity & (capacity - 1):
            raise MalformedControl("bad tree capacity")
        pks = r.items(Reader.field)
        if len(pks) != node_count(capacity):
            raise MalformedControl("bad tree node count")
        members = dict(r.items(lambda rr: (rr.u32(), rr.text())))
        r.finish()
        tree = cls.blank_tree(capacity)
        for x, pk in enumerate(pks):
            if pk:
                tree.nodes[x].public_key = pk
        for leaf, mid in members.items():
            if leaf >= capacity:
                raise MalformedControl("member leaf out of range")
            tree.members[leaf] = mid
        return tree
