"""Continuous group key agreement over the ratchet tree.

Every control (create, add, remove, update) rekeys the sender's direct path:
a fresh leaf secret is chained upward (parent = derive(child)) and each
chained secret is sealed to the resolution of the corresponding copath node,
so exactly the members beneath that copath node can open it and re-derive
the path up to the root. The root secret of the current epoch is the group
secret; the key pair generated from it is the group key pair that the
chatbot layer shares with addressed chatbots.

Senders stage their own fresh path secrets and install them when they
process their own control, so sender and receivers advance through the same
epoch sequence: one control processed, epoch plus exactly one.

A member holds private material only on its own direct path (its init key
or leaf key, and the chained secrets above it), always as the KeyPair that
`pke_keygen` returned, so opening reuses the key object. A receiver looks
for its entry among the keys on its own direct path, opens exactly one
entry, and re-derives the path from the merge point up, checking each
derived public key against the control.

Adds place the newcomer at the leftmost blank leaf (doubling capacity in
place when full), blank the newcomer's path, and embed an immediate update;
the newcomer bootstraps from the public tree snapshot carried in the
control and opens the ordinary path entry addressed to its init key.
Removes blank the target's leaf and path before the embedded update, so
sealed entries can no longer reach the removed member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tree as treemod
from .encoding import Reader, Writer, peek_type
from .errors import (
    AlreadyMember,
    CannotRemoveSelf,
    DecryptFailed,
    FutureEpoch,
    MalformedControl,
    NoGroup,
    NotMember,
    StaleEpoch,
    UnknownMember,
)
from .primitives import (
    KeyPair,
    derive,
    pke_keygen,
    pke_open,
    pke_seal,
    random_secret,
)

CONTROL_CREATE = 0x01
CONTROL_ADD = 0x02
CONTROL_REMOVE = 0x03
CONTROL_UPDATE = 0x04

_KIND_BY_TYPE = {
    CONTROL_CREATE: "create",
    CONTROL_ADD: "add",
    CONTROL_REMOVE: "remove",
    CONTROL_UPDATE: "update",
}
_TYPE_BY_KIND = {v: k for k, v in _KIND_BY_TYPE.items()}

# (target public key, sealed chained secret)
PathEntry = tuple[bytes, bytes]


class InitKeyDirectory:
    """Published init keys, one per member id; latest registration wins."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def register(self, member_id: str, public_key: bytes) -> None:
        self._keys[member_id] = public_key

    def lookup(self, member_id: str) -> bytes:
        try:
            return self._keys[member_id]
        except KeyError:
            raise UnknownMember(f"no init key published for {member_id!r}") from None

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._keys


@dataclass
class CgkaControl:
    """One group operation on the wire. Canonical, byte-stable encoding."""

    kind: str
    group_id: str
    epoch: int
    sender_leaf: int
    new_public_path: list[bytes] = field(default_factory=list)
    path_entries: list[PathEntry] = field(default_factory=list)
    # create
    capacity: int = 0
    roster: list[tuple[str, bytes]] = field(default_factory=list)
    # add
    new_member_id: str = ""
    new_member_init_pk: bytes = b""
    new_leaf: int = 0
    welcome: bytes = b""
    # remove
    removed_leaf: int = 0
    removed_id: str = ""

    def to_bytes(self) -> bytes:
        w = Writer(_TYPE_BY_KIND[self.kind])
        w.text(self.group_id)
        w.u32(self.epoch)
        w.u32(self.sender_leaf)
        if self.kind == "create":
            w.u32(self.capacity)
            w.items(self.roster, _write_roster_entry)
        elif self.kind == "add":
            w.text(self.new_member_id)
            w.field(self.new_member_init_pk)
            w.u32(self.new_leaf)
            w.field(self.welcome)
        elif self.kind == "remove":
            w.u32(self.removed_leaf)
            w.text(self.removed_id)
        w.items(self.new_public_path, lambda wr, pk: wr.field(pk))
        w.items(self.path_entries, _write_path_entry)
        return w.done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CgkaControl":
        kind = _KIND_BY_TYPE.get(peek_type(data))
        if kind is None:
            raise MalformedControl("unknown control type")
        r = Reader(data, expect_type=_TYPE_BY_KIND[kind])
        ctl = cls(kind=kind, group_id=r.text(), epoch=r.u32(), sender_leaf=r.u32())
        if kind == "create":
            ctl.capacity = r.u32()
            ctl.roster = r.items(lambda rr: (rr.text(), rr.field()))
        elif kind == "add":
            ctl.new_member_id = r.text()
            ctl.new_member_init_pk = r.field()
            ctl.new_leaf = r.u32()
            ctl.welcome = r.field()
        elif kind == "remove":
            ctl.removed_leaf = r.u32()
            ctl.removed_id = r.text()
        ctl.new_public_path = r.items(Reader.field)
        ctl.path_entries = r.items(lambda rr: (rr.field(), rr.field()))
        r.finish()
        return ctl


def _write_roster_entry(w: Writer, entry: tuple[str, bytes]) -> None:
    w.text(entry[0])
    w.field(entry[1])


def _write_path_entry(w: Writer, entry: PathEntry) -> None:
    w.field(entry[0])
    w.field(entry[1])


@dataclass
class _Pending:
    """Sender-side staged path secrets, installed on processing own control."""

    control_bytes: bytes
    secrets: dict[int, tuple[bytes, KeyPair]]


@dataclass
class CgkaState:
    member_id: str
    init_key: KeyPair
    directory: InitKeyDirectory
    group_id: str | None = None
    epoch: int = 0
    tree: treemod.RatchetTree | None = None
    own_leaf: int | None = None
    group_secret: bytes | None = None
    group_key_pair: KeyPair | None = None
    _pending: _Pending | None = None

    # -- senders ------------------------------------------------------------

    def create(self, group_id: str, member_ids: list[str]) -> CgkaControl:
        if self.tree is not None:
            raise AlreadyMember(f"{self.member_id!r} is already in a group")
        if self.member_id not in member_ids:
            raise NotMember("creator must be in the member list")
        if len(set(member_ids)) != len(member_ids):
            raise AlreadyMember("duplicate ids in member list")
        roster = [(mid, self.directory.lookup(mid)) for mid in member_ids]

        capacity = 1
        while capacity < len(member_ids):
            capacity *= 2
        t = treemod.RatchetTree.blank_tree(capacity)
        own_leaf = member_ids.index(self.member_id)
        for leaf, (mid, init_pk) in enumerate(roster):
            t.members[leaf] = mid
            if leaf != own_leaf:
                t.nodes[treemod.leaf_node(leaf)].public_key = init_pk
        self.tree = t
        self.own_leaf = own_leaf
        self.group_id = group_id
        self.epoch = 0

        ctl = CgkaControl(kind="create", group_id=group_id, epoch=0,
                          sender_leaf=own_leaf, capacity=capacity, roster=roster)
        self._build_update_path(ctl)
        return ctl

    def add(self, member_id: str) -> CgkaControl:
        self._require_group()
        if self.tree.leaf_of(member_id) is not None:
            raise AlreadyMember(f"{member_id!r} already occupies a leaf")
        init_pk = self.directory.lookup(member_id)

        leaf = self.tree.leftmost_blank_leaf()
        if leaf is None:
            self.tree.grow()
            leaf = self.tree.leftmost_blank_leaf()
        self.tree.nodes[treemod.leaf_node(leaf)].public_key = init_pk
        self.tree.members[leaf] = member_id
        self.tree.blank_path(leaf)

        ctl = CgkaControl(kind="add", group_id=self.group_id, epoch=self.epoch,
                          sender_leaf=self.own_leaf, new_member_id=member_id,
                          new_member_init_pk=init_pk, new_leaf=leaf,
                          welcome=self.tree.to_public_bytes())
        self._build_update_path(ctl)
        return ctl

    def remove(self, member_id: str) -> CgkaControl:
        self._require_group()
        if member_id == self.member_id:
            raise CannotRemoveSelf("use a second member to leave")
        leaf = self.tree.leaf_of(member_id)
        if leaf is None:
            raise NotMember(f"{member_id!r} occupies no leaf")
        self.tree.nodes[treemod.leaf_node(leaf)].blank()
        del self.tree.members[leaf]
        self.tree.blank_path(leaf)

        ctl = CgkaControl(kind="remove", group_id=self.group_id, epoch=self.epoch,
                          sender_leaf=self.own_leaf, removed_leaf=leaf,
                          removed_id=member_id)
        self._build_update_path(ctl)
        return ctl

    def update(self) -> CgkaControl:
        self._require_group()
        ctl = CgkaControl(kind="update", group_id=self.group_id, epoch=self.epoch,
                          sender_leaf=self.own_leaf)
        self._build_update_path(ctl)
        return ctl

    def _require_group(self) -> None:
        if self.tree is None or self.own_leaf is None:
            raise NoGroup(f"{self.member_id!r} has no established group")

    def _build_update_path(self, ctl: CgkaControl) -> None:
        """Fresh leaf secret, chained path, sealed entries; stages pending."""
        t = self.tree
        path = treemod.direct_path(self.own_leaf, t.capacity)
        secrets = [random_secret()]
        for _ in path[1:]:
            secrets.append(derive(secrets[-1]))
        pairs = [pke_keygen(s) for s in secrets]

        for x, kp in zip(path, pairs):
            node = t.nodes[x]
            node.public_key = kp.public_key
            node.secret = None
            node.key_pair = None
        ctl.new_public_path = [kp.public_key for kp in pairs]

        entries: list[PathEntry] = []
        for i, c in enumerate(treemod.copath(self.own_leaf, t.capacity)):
            chained = secrets[i + 1]
            for r in t.resolution(c):
                target_pk = t.nodes[r].public_key
                entries.append((target_pk, pke_seal(target_pk, chained)))
        ctl.path_entries = entries

        self._pending = _Pending(
            control_bytes=ctl.to_bytes(),
            secrets={x: (s, kp) for x, s, kp in zip(path, secrets, pairs)},
        )

    # -- receivers ------------------------------------------------------------

    def process(self, control: CgkaControl) -> bytes:
        """Apply one control; returns the new group secret."""
        if control.kind == "create":
            return self._process_create(control)
        if self.tree is None:
            if control.kind == "add" and control.new_member_id == self.member_id:
                return self._process_welcome(control)
            raise NoGroup(f"{self.member_id!r} has no group to apply control to")
        if control.group_id != self.group_id:
            raise MalformedControl("control for a different group")
        if control.epoch < self.epoch:
            raise StaleEpoch(f"control epoch {control.epoch} < local {self.epoch}")
        if control.epoch > self.epoch:
            raise FutureEpoch(f"control epoch {control.epoch} > local {self.epoch}")

        if self._pending is not None and control.to_bytes() == self._pending.control_bytes:
            return self._install_pending()
        self._pending = None

        if control.kind == "add":
            self._place_newcomer(control)
        elif control.kind == "remove":
            if control.removed_id == self.member_id:
                raise NotMember("removed from the group")
            self.tree.nodes[treemod.leaf_node(control.removed_leaf)].blank()
            self.tree.members.pop(control.removed_leaf, None)
            self.tree.blank_path(control.removed_leaf)
        return self._apply_update_path(control)

    def _process_create(self, control: CgkaControl) -> bytes:
        if self.tree is not None:
            if self._pending is not None and control.to_bytes() == self._pending.control_bytes:
                return self._install_pending()
            raise AlreadyMember(f"{self.member_id!r} is already in a group")
        ids = [mid for mid, _ in control.roster]
        if self.member_id not in ids:
            raise NotMember(f"create roster does not include {self.member_id!r}")
        if control.capacity < len(control.roster):
            raise MalformedControl("roster exceeds capacity")
        t = treemod.RatchetTree.blank_tree(control.capacity)
        for leaf, (mid, init_pk) in enumerate(control.roster):
            t.members[leaf] = mid
            if leaf != control.sender_leaf:
                t.nodes[treemod.leaf_node(leaf)].public_key = init_pk
        self.tree = t
        self.own_leaf = ids.index(self.member_id)
        own = t.nodes[treemod.leaf_node(self.own_leaf)]
        if own.public_key != self.init_key.public_key:
            raise MalformedControl("roster carries a different init key for me")
        own.key_pair = self.init_key
        self.group_id = control.group_id
        self.epoch = control.epoch
        return self._apply_update_path(control)

    def _process_welcome(self, control: CgkaControl) -> bytes:
        t = treemod.RatchetTree.from_public_bytes(control.welcome)
        if t.members.get(control.new_leaf) != self.member_id:
            raise MalformedControl("welcome does not seat me at the stated leaf")
        own = t.nodes[treemod.leaf_node(control.new_leaf)]
        if own.public_key != self.init_key.public_key:
            raise MalformedControl("welcome carries a different init key for me")
        own.key_pair = self.init_key
        self.tree = t
        self.own_leaf = control.new_leaf
        self.group_id = control.group_id
        self.epoch = control.epoch
        return self._apply_update_path(control)

    def _place_newcomer(self, control: CgkaControl) -> None:
        if self.tree.leaf_of(control.new_member_id) is not None:
            raise AlreadyMember(f"{control.new_member_id!r} already present")
        if control.new_leaf >= self.tree.capacity:
            self.tree.grow()
        if control.new_leaf >= self.tree.capacity:
            raise MalformedControl("newcomer leaf beyond doubled capacity")
        node = self.tree.nodes[treemod.leaf_node(control.new_leaf)]
        if not node.is_blank or control.new_leaf in self.tree.members:
            raise MalformedControl("newcomer leaf is occupied")
        node.public_key = control.new_member_init_pk
        self.tree.members[control.new_leaf] = control.new_member_id
        self.tree.blank_path(control.new_leaf)

    def _install_pending(self) -> bytes:
        staged = self._pending
        self._pending = None
        root = self.tree.root
        for x, (secret, kp) in staged.secrets.items():
            node = self.tree.nodes[x]
            node.public_key = kp.public_key
            node.secret = secret
            node.key_pair = kp
        self.group_secret, self.group_key_pair = staged.secrets[root]
        self.epoch += 1
        return self.group_secret

    def _apply_update_path(self, control: CgkaControl) -> bytes:
        t = self.tree
        path = treemod.direct_path(control.sender_leaf, t.capacity)
        if len(control.new_public_path) != len(path):
            raise MalformedControl("path length does not match tree shape")
        if control.sender_leaf == self.own_leaf:
            raise MalformedControl("unexpected control from own leaf")

        # Private keys live only on the receiver's own direct path.
        held: dict[bytes, int] = {}
        for x in treemod.direct_path(self.own_leaf, t.capacity):
            own = t.nodes[x].key_pair
            if own is not None:
                held[own.public_key] = x
        opened: bytes | None = None
        opened_at: int | None = None
        for target_pk, box in control.path_entries:
            x = held.get(target_pk)
            if x is None:
                continue
            opened = pke_open(t.nodes[x].key_pair, box)
            opened_at = x
            break
        if opened is None:
            raise DecryptFailed("no path entry addressed to this member")
        if len(opened) != 32:
            raise MalformedControl("path entry payload has wrong size")

        merge_idx = None
        for i, p in enumerate(path):
            if treemod.is_ancestor(p, opened_at):
                merge_idx = i
                break
        if merge_idx is None:
            raise MalformedControl("opened entry does not sit under the path")

        for i, (x, pk) in enumerate(zip(path, control.new_public_path)):
            node = t.nodes[x]
            node.public_key = pk
            node.secret = None
            node.key_pair = None
            if i >= merge_idx:
                kp = pke_keygen(opened)
                if kp.public_key != pk:
                    raise MalformedControl("chained secret does not match path key")
                node.secret = opened
                node.key_pair = kp
                if i + 1 < len(path):
                    opened = derive(opened)

        root_node = t.nodes[t.root]
        self.group_secret = root_node.secret
        self.group_key_pair = root_node.key_pair
        self.epoch = control.epoch + 1
        return self.group_secret

    # -- inspection -------------------------------------------------------------

    def members(self) -> list[str]:
        self._require_group()
        return [self.tree.members[leaf] for leaf in sorted(self.tree.members)]

    def snapshot(self) -> dict:
        """Full canonical state, secrets included (compromise model)."""
        def hx(b: bytes | None) -> str | None:
            return b.hex() if b is not None else None

        state: dict = {
            "member_id": self.member_id,
            "group_id": self.group_id,
            "epoch": self.epoch,
            "own_leaf": self.own_leaf,
            "group_secret": hx(self.group_secret),
            "group_public_key": hx(self.group_key_pair.public_key) if self.group_key_pair else None,
            "group_secret_key": hx(self.group_key_pair.secret_key) if self.group_key_pair else None,
            "init_public_key": hx(self.init_key.public_key),
            "init_secret_key": hx(self.init_key.secret_key),
            "tree": None,
            "pending": None,
        }
        if self.tree is not None:
            state["tree"] = {
                "capacity": self.tree.capacity,
                "members": {str(k): v for k, v in sorted(self.tree.members.items())},
                "nodes": [
                    {
                        "public_key": hx(n.public_key),
                        "secret": hx(n.secret),
                        "private_key": None if n.key_pair is None
                        else hx(n.key_pair.secret_key),
                    }
                    for n in self.tree.nodes
                ],
            }
        if self._pending is not None:
            state["pending"] = {
                str(x): {"secret": s.hex(), "private_key": kp.secret_key.hex()}
                for x, (s, kp) in sorted(self._pending.secrets.items())
            }
        return state


def init(member_id: str, directory: InitKeyDirectory) -> CgkaState:
    """Fresh state with a published init key, ready to create or be added."""
    init_key = pke_keygen(random_secret())
    directory.register(member_id, init_key.public_key)
    return CgkaState(member_id=member_id, init_key=init_key, directory=directory)
