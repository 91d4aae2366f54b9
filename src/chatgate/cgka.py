"""Continuous group key agreement over the ratchet tree.

Every control (create, add, remove, update) rekeys the sender's direct path:
a fresh leaf secret is chained upward (parent = derive(child)) and each
chained secret is sealed to the resolution of the corresponding copath node,
so exactly the members beneath that copath node can open it and re-derive
the path up to the root. Each path entry names the node it was sealed to
by its index, not by its key: every member holds that key in its public
tree already (RFC 9420's UpdatePathNode carries no recipient key either).
A control's entries are one batch of boxes (`primitives.pke_seal_batch`):
its tail is the new public path, the batch's ephemeral public key, once,
a bare u32 `first`, then the entries, each a u32 target node and a BOX_LEN
box bound to its position in the batch. The sender's control holds the
whole batch, `first` 0. A member can open only the entries sealed into the
subtree of its copath level of the sender, a contiguous run of the batch,
so it is sent a slice (`slices_by_level`): the same control with that run
alone, `first` naming the batch position of the run's first entry. Entry
i of a control sits at batch position `first + i`, whole or sliced, so
receivers and the adversary open both alike. The entries are the last
field, ENTRY_LEN each, so a slice is cut from the control's bytes.
The root secret of the current epoch is the group secret. The root's
slot of a new public path, in the control and then in the tree, holds no
public key but the secret's confirmation, `derive(root secret, CONFIRM)`,
as RFC 9420 binds members to an epoch by a confirmation derived from its
secrets (§6.1 and §8). No copath resolution names the root, so nothing
is ever sealed to it, and a receiver checks the root by one hash instead
of one X25519 base multiplication. The key pair generated from the group
secret is the group key pair that the chatbot layer shares with
addressed chatbots. `group_key_pair` builds it on first use and caches it
in the root's entry of `path` for that epoch, so a member builds it only
in an epoch that it sends or attaches a chatbot in; a member whose
chatbot a message fires keeps the pair's secret key alone (`group`).

A control's public step is `public_step`: its membership edit
(`edit_membership`), the checks that its sender leaf seats a member and
its new path fits that leaf's direct path, and that path. It changes no
tree: it returns the control's `tree.TreeEdit`, the node writes (the new
path, a blanked path), seat edits and capacity, which
`RatchetTree.edited` makes in a tree. Receivers, the newcomer and the
adversary's follower in `provider` (through `advance`, which makes the
edit on a copy) all run it, so a check added there reaches each.

A control takes effect in two steps. `stage` works out what it leaves
behind, reading the tree through the edit and copying none of it: the
edit, the own leaf, and the own `path`, less each node that the edit
blanks or gives another key. A joiner, which holds no tree yet,
stages the whole tree it joins with. `commit` makes that `Staged` so: it
makes the edit in the member's own tree, in place, and is the only writer
of the tree, own leaf, path, group id and epoch, so a control that fails
any check changes nothing, and a caller can check more (the group layer
opens the message sealed under the staged root) before it commits. A
member's receive is so O(log n) work, as RFC 9420's path update is, with
no O(n) copy of the tree. A `Staged` from another epoch of the member's
tree is refused on commit.
A sender builds its control over the same membership edit, made on a copy
of its tree for the copath resolutions it seals to, and keeps the
resulting `Staged` as pending; staging a control equal to it returns it,
so sender and receivers advance through the same epoch sequence (one
control processed, epoch plus exactly one), and a control that is never
processed leaves the sender as it was.

The tree itself is public. A member's private material sits in one map,
`CgkaState.path`, and only for the nodes on its own direct path: its leaf
key and the chained secrets above it, each with the KeyPair that
`pke_keygen` returned, so opening reuses the key object. Its init key is
`path[None]` until it joins, then its leaf's entry until replaced. The group
secret and group key pair are read from the root's entry, which holds no
key pair until `group_key_pair` builds one. A receiver looks for its entry
among the node indices in `path` but the root, opens exactly one entry,
and re-derives the path from the merge point up, checking each derived
public key against the control, and at the root the confirmation. A node
whose key the control blanks or replaces leaves `path` too, and so does
the old root's entry.

Adds place the newcomer at the leftmost blank leaf (doubling capacity in
place when full), blank the newcomer's path, and embed an immediate update.
The control carries no tree. The newcomer gets, separately, its welcome:
the sender's public tree of the add's epoch, which only the newcomer is
sent (the group layer wraps it apart from the control, and the provider
delivers it to the newcomer alone). It makes the add's membership edit on
that tree as every member does on its own, and opens the ordinary path
entry addressed to its init key.
Removes blank the target's leaf and path before the embedded update, so
sealed entries can no longer reach the removed member. The only tree
indices a control carries are the sender leaf, checked in `public_step`
before it is used, and the entries' target nodes, which a receiver only
looks up in its own `path`; the create's capacity, the add's newcomer
leaf and the remove's removed leaf are derived in `edit_membership` by
every party from the tree it holds (the newcomer from its welcome).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import compress, count
from operator import itemgetter

from . import tree as treemod
from .encoding import BOX, KEY, TEXT, U32, Record, items, wire_variants
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
    BOX_LEN,
    CONFIRM,
    NO_EPHEMERAL,
    PUBLIC_KEY_LEN,
    KeyPair,
    derive,
    pke_keygen,
    pke_open,
    pke_seal_batch,
    random_secret,
)

CONTROL_CREATE = 0x01
CONTROL_ADD = 0x02
CONTROL_REMOVE = 0x03
CONTROL_UPDATE = 0x04

# (target node index, box of the chained secret)
PathEntry = tuple[int, bytes]

# The control's wire layout: the head, the middle of its type byte, the tail.
_HEAD = (("group_id", TEXT), ("epoch", U32), ("sender_leaf", U32))
_MIDDLES = {
    CONTROL_CREATE: ("create", (
        ("roster", items(Record(("member_id", TEXT), ("init_pk", KEY)))),)),
    CONTROL_ADD: ("add", (("new_member_id", TEXT), ("new_member_init_pk", KEY))),
    CONTROL_REMOVE: ("remove", (("removed_id", TEXT),)),
    CONTROL_UPDATE: ("update", ()),
}
_TAIL = (("new_public_path", items(KEY)), ("ephemeral", KEY), ("first", U32),
         ("path_entries", items(Record(("target", U32), ("box", BOX)))))
# the width of a path entry on the wire: its u32 target node and its
# length-prefixed box; a slice's `first` and entry count, ahead of them
ENTRY_LEN = 4 + 4 + BOX_LEN
_RUN = struct.Struct(">II")


class InitKeyDirectory:
    """Published init keys, one per member id; latest registration wins."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def register(self, member_id: str, public_key: bytes) -> None:
        if len(public_key) != PUBLIC_KEY_LEN:
            raise MalformedControl("init key of the wrong width")
        self._keys[member_id] = public_key

    def lookup(self, member_id: str) -> bytes:
        try:
            return self._keys[member_id]
        except KeyError:
            raise UnknownMember(f"no init key published for {member_id!r}") from None

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._keys


@wire_variants("kind", _HEAD, _MIDDLES, _TAIL)
@dataclass
class CgkaControl:
    """One group operation on the wire, laid out as `_HEAD`, the middle of
    its kind and `_TAIL`."""

    kind: str
    group_id: str
    epoch: int
    sender_leaf: int
    new_public_path: list[bytes] = field(default_factory=list)
    ephemeral: bytes = NO_EPHEMERAL  # the path entries' batch ephemeral key
    first: int = 0  # the batch position of the first of `path_entries`
    path_entries: list[PathEntry] = field(default_factory=list)
    # create
    roster: list[tuple[str, bytes]] = field(default_factory=list)
    # add
    new_member_id: str = ""
    new_member_init_pk: bytes = b""
    # remove
    removed_id: str = ""


@dataclass
class Staged:
    """What one control leaves behind, worked out without changing
    anything; `commit` makes it so. `edit` is the control's change to the
    public tree, which a member makes in its own tree; a joiner's `tree` is
    the whole tree it joins with. The group id and epoch follow from the
    control."""

    control: CgkaControl
    edit: treemod.TreeEdit
    own_leaf: int
    path: dict[int, tuple[bytes | None, KeyPair | None]]
    tree: treemod.RatchetTree | None = None

    @property
    def group_secret(self) -> bytes:
        return self.path[treemod.root_index(self.edit.capacity)][0]


@dataclass
class CgkaState:
    member_id: str
    directory: InitKeyDirectory
    group_id: str | None = None
    epoch: int = 0
    tree: treemod.RatchetTree | None = None
    own_leaf: int | None = None
    # node -> (chained secret, key pair) on the own direct path; the secret
    # is None at a leaf joined by init key, the node None before joining,
    # the root's key pair None until `group_key_pair` builds it
    path: dict[int | None, tuple[bytes | None, KeyPair | None]] = field(
        default_factory=dict)
    _pending: Staged | None = None

    @property
    def group_secret(self) -> bytes | None:
        if self.tree is None:
            return None
        return self.path[self.tree.root][0]

    @property
    def group_key_pair(self) -> KeyPair | None:
        """`pke_keygen(group_secret)`, built on first use and cached in the
        root's entry for the epoch."""
        if self.tree is None:
            return None
        root = self.tree.root
        secret, pair = self.path[root]
        if pair is None:
            pair = pke_keygen(secret)
            self.path[root] = (secret, pair)
        return pair

    # -- senders ------------------------------------------------------------

    def create(self, group_id: str, member_ids: list[str]) -> CgkaControl:
        if self.tree is not None:
            raise AlreadyMember(f"{self.member_id!r} is already in a group")
        if self.member_id not in member_ids:
            raise NotMember("creator must be in the member list")
        roster = [(mid, self.directory.lookup(mid)) for mid in member_ids]
        return self._build(CgkaControl(
            kind="create", group_id=group_id, epoch=0,
            sender_leaf=member_ids.index(self.member_id), roster=roster))

    def add(self, member_id: str) -> CgkaControl:
        self._require_group()
        return self._build(CgkaControl(
            kind="add", group_id=self.group_id, epoch=self.epoch,
            sender_leaf=self.own_leaf, new_member_id=member_id,
            new_member_init_pk=self.directory.lookup(member_id)))

    def remove(self, member_id: str) -> CgkaControl:
        self._require_group()
        if member_id == self.member_id:
            raise CannotRemoveSelf("use a second member to leave")
        return self._build(CgkaControl(
            kind="remove", group_id=self.group_id, epoch=self.epoch,
            sender_leaf=self.own_leaf, removed_id=member_id))

    def update(self) -> CgkaControl:
        self._require_group()
        return self._build(CgkaControl(
            kind="update", group_id=self.group_id, epoch=self.epoch,
            sender_leaf=self.own_leaf))

    def _require_group(self) -> None:
        if self.tree is None or self.own_leaf is None:
            raise NoGroup(f"{self.member_id!r} has no established group")

    def _build(self, ctl: CgkaControl) -> CgkaControl:
        """Fresh leaf secret, chained path and sealed entries over the
        control's membership edit; the outcome is staged in `_pending`, and
        nothing else changes."""
        edit, _ = edit_membership(ctl, self.tree)
        # the membership edit made on a copy, whose copath resolutions the
        # entries are sealed to; no copath subtree holds a node of the path
        t = _edited_copy(self.tree, edit)
        own_leaf = ctl.sender_leaf
        path = treemod.direct_path(own_leaf, t.capacity)
        secrets = [random_secret()]
        for _ in path[1:]:
            secrets.append(derive(secrets[-1]))
        # a public key below the root, the confirmation at it
        pairs = [pke_keygen(s) for s in secrets[:-1]]
        ctl.new_public_path = [kp.public_key for kp in pairs]
        ctl.new_public_path.append(derive(secrets[-1], CONFIRM))
        edit.nodes.update(zip(path, ctl.new_public_path))

        targets, sealings = [], []
        for i, c in enumerate(treemod.copath(own_leaf, t.capacity)):
            for r in t.resolution(c):
                targets.append(r)
                sealings.append((t.nodes[r], secrets[i + 1]))
        ctl.ephemeral, boxes = pke_seal_batch(sealings)
        ctl.path_entries = list(zip(targets, boxes))

        # a create's sender joins with the whole tree, its path written too
        self._pending = Staged(ctl, edit, own_leaf,
                               dict(zip(path, zip(secrets, [*pairs, None]))),
                               t.edited(edit) if self.tree is None else None)
        return ctl

    # -- receivers ------------------------------------------------------------

    def process(self, control: CgkaControl, welcome: bytes = b"") -> bytes:
        """Apply one control; returns the new group secret. `welcome` is
        read only by the newcomer of an add."""
        return self.commit(self.stage(control, welcome))

    def commit(self, staged: Staged) -> bytes:
        """Make what `stage` returned, with no other commit in between: a
        member makes the staged edit in its own tree, in place, and a
        joiner takes the tree it joins with. Returns the new group secret.
        A member's `Staged` from another epoch raises, changing nothing."""
        if self.tree is None:
            self.tree = staged.tree
        elif staged.control.epoch != self.epoch:
            raise StaleEpoch(
                f"staged at epoch {staged.control.epoch}, local {self.epoch}")
        else:
            self.tree.edited(staged.edit)
        self.own_leaf, self.path = staged.own_leaf, staged.path
        self.group_id = staged.control.group_id
        self.epoch = staged.control.epoch + 1
        self._pending = None
        return self.group_secret

    def stage(self, control: CgkaControl, welcome: bytes = b"") -> Staged:
        """What a control leaves behind, changing nothing: what its sender
        staged, for a control equal to the pending one; else the outcome of
        another member's control, which raises if any check fails. The
        newcomer of an add stages it on `welcome`, the public tree the add
        was built on."""
        if self._pending is not None and control == self._pending.control:
            return self._pending
        if self.tree is None:
            if control.kind != "create" and not (
                    control.kind == "add" and control.new_member_id == self.member_id):
                raise NoGroup(f"{self.member_id!r} has no group to apply control to")
        elif control.kind == "create":
            raise AlreadyMember(f"{self.member_id!r} is already in a group")
        elif control.group_id != self.group_id:
            raise MalformedControl("control for a different group")
        elif control.epoch < self.epoch:
            raise StaleEpoch(f"control epoch {control.epoch} < local {self.epoch}")
        elif control.epoch > self.epoch:
            raise FutureEpoch(f"control epoch {control.epoch} > local {self.epoch}")

        if self.tree is None and control.kind == "add":
            if not welcome:
                raise MalformedControl("the newcomer has no welcome to join from")
            base = treemod.RatchetTree.from_public_bytes(welcome)
        else:
            base = self.tree
        edit, leaf, sender_path = public_step(control, base)

        joined = None
        if self.tree is None:  # joining, from a create's roster or an add's welcome
            # the welcome's tree is the newcomer's own, edited in place
            t = joined = _edited_copy(None, edit) if base is None else base.edited(edit)
            own_leaf = t.leaf_of(self.member_id) if control.kind == "create" else leaf
            if own_leaf is None:
                raise NotMember(f"create roster does not include {self.member_id!r}")
            own = treemod.leaf_node(own_leaf)
            path = {own: self.path[None]}
            if t.nodes[own] != path[own][1].public_key:
                raise MalformedControl("my leaf carries a different init key")
        elif control.kind == "remove" and control.removed_id == self.member_id:
            raise NotMember("removed from the group")
        else:
            own_leaf = self.own_leaf
            # a node whose key the control blanks or replaces leaves `path`,
            # and so does the old root's entry, which no entry is sealed to.
            # Every other entry's key is its node's, as commit leaves them,
            # so only the nodes the edit writes are compared, and the tree
            # is left as it is
            written, path = edit.written(), dict(self.path)
            path.pop(self.tree.root, None)
            for x in written.keys() & path.keys():
                if written[x] != path[x][1].public_key:
                    del path[x]
        _apply_update_path(control, sender_path, own_leaf, path)
        return Staged(control, edit, own_leaf, path, joined)

    # -- inspection -------------------------------------------------------------

    def members(self) -> list[str]:
        self._require_group()
        return [self.tree.members[leaf] for leaf in sorted(self.tree.members)]

    def snapshot(self) -> dict:
        """Full canonical state, secrets included (compromise model)."""
        state: dict = {
            "member_id": self.member_id,
            "group_id": self.group_id,
            "epoch": self.epoch,
            "own_leaf": self.own_leaf,
            "tree": None,
            "path": _path_snapshot(self.path, -1 if self.tree is None else self.tree.root),
            "pending": None,
        }
        if self.tree is not None:
            state["tree"] = {
                "capacity": self.tree.capacity,
                "members": {str(k): v for k, v in sorted(self.tree.members.items())},
                "nodes": [hx(pk) for pk in self.tree.nodes],
            }
        if self._pending is not None:
            pending = self._pending
            state["pending"] = _path_snapshot(
                pending.path, treemod.root_index(pending.edit.capacity))
        return state


def hx(b: bytes | None) -> str | None:
    """`b` as hex, or None: the spelling of optional bytes in snapshots."""
    return b.hex() if b is not None else None


def _path_snapshot(path: dict, root: int) -> dict:
    """`path` as snapshots spell it, `root` the tree's root (-1 before
    joining, when `path` holds no root). The root's private key is null:
    its key pair, the group key pair, is a function of the root secret
    written beside it, built on first use, so no snapshot depends on
    whether it has been built yet, and writing one builds nothing."""
    return {str(x): {"secret": hx(s),
                     "private_key": None if x == root else kp.secret_key.hex()}
            for x, (s, kp) in sorted(path.items())}


def edit_membership(control: CgkaControl, t: treemod.RatchetTree | None) -> tuple[
        treemod.TreeEdit, int | None]:
    """The control's membership edit of `t`, which stays as it is: seat a
    create's roster on a blank tree, seat an add's newcomer, or blank a
    removed leaf. Returns the edit and the leaf an add seated or a remove
    blanked (None for a create or an update). Senders run it, and
    receivers and the adversary's follower run it inside `public_step`,
    so it alone works out the tree indices a control does not carry and
    enforces the membership rules."""
    if control.kind == "create":
        if control.epoch != 0:
            raise MalformedControl("create at an epoch other than 0")
        ids = [mid for mid, _ in control.roster]
        if len(set(ids)) != len(ids):
            raise AlreadyMember("create roster lists an id twice")
        edit = treemod.TreeEdit(treemod.capacity_for(len(ids)))
        for leaf, (mid, init_pk) in enumerate(control.roster):
            edit.seats[leaf] = mid
            if leaf != control.sender_leaf:
                edit.nodes[treemod.leaf_node(leaf)] = init_pk
        return edit, None
    if control.kind == "add":
        if t.leaf_of(control.new_member_id) is not None:
            raise AlreadyMember(f"{control.new_member_id!r} already present")
        leaf, capacity = treemod.newcomer_seat(t.members, t.capacity)
        return treemod.TreeEdit(
            capacity, blank=leaf,
            nodes={treemod.leaf_node(leaf): control.new_member_init_pk},
            seats={leaf: control.new_member_id}), leaf
    if control.kind == "remove":
        leaf = t.leaf_of(control.removed_id)
        if leaf is None:
            raise NotMember(f"{control.removed_id!r} occupies no leaf")
        return treemod.TreeEdit(t.capacity, blank=leaf,
                                nodes={treemod.leaf_node(leaf): None},
                                seats={leaf: None}), leaf
    return treemod.TreeEdit(t.capacity), None


def public_step(control: CgkaControl, t: treemod.RatchetTree | None) -> tuple[
        treemod.TreeEdit, int | None, list[int]]:
    """The public step of a control, as an edit of `t`, which stays as it
    is: its membership edit (`edit_membership`), then its sender's new
    path, once the sender leaf seats a member and the path fits that
    leaf's direct path. Returns the edit, the leaf an add seated or a
    remove blanked (None for a create or an update), and the sender's
    direct path. Members run it and make the edit in their own tree on
    commit; the adversary's follower makes it on a copy (`advance`)."""
    edit, leaf = edit_membership(control, t)
    if not edit.seats_member(t, control.sender_leaf):
        raise MalformedControl("sender leaf seats no member")
    sender_path = treemod.direct_path(control.sender_leaf, edit.capacity)
    if len(control.new_public_path) != len(sender_path):
        raise MalformedControl("path length does not match tree shape")
    edit.nodes.update(zip(sender_path, control.new_public_path))
    return edit, leaf, sender_path


def advance(control: CgkaControl, t: treemod.RatchetTree | None) -> tuple[
        treemod.RatchetTree, int | None, list[int]]:
    """`public_step`, its edit made on a copy of `t`: returns the new tree,
    the leaf an add seated or a remove blanked, and the sender's direct
    path."""
    edit, leaf, sender_path = public_step(control, t)
    return _edited_copy(t, edit), leaf, sender_path


def _edited_copy(t: treemod.RatchetTree | None,
                 edit: treemod.TreeEdit) -> treemod.RatchetTree:
    """`edit` made on a copy of `t`, or on a blank tree for a create."""
    base = treemod.RatchetTree.blank_tree(edit.capacity) if t is None else t.copy()
    return base.edited(edit)


def copath_level(leaf: int, sender_leaf: int) -> int:
    """The level of the sender's copath node above `leaf`, into whose
    subtree the entries `leaf` can open were sealed; -1 for the sender's
    own leaf. It needs no tree: two leaves' direct paths meet one level
    above the highest bit in which the leaves differ."""
    return (leaf ^ sender_leaf).bit_length() - 1


def slice_start(data: bytes, control: CgkaControl) -> int:
    """Where `data`, the encoding of `control`, reaches its `first` field:
    the entries are its last field, ENTRY_LEN each, so every slice of one
    control shares all of its encoding before that point."""
    return len(data) - _RUN.size - ENTRY_LEN * len(control.path_entries)


def slices_by_level(data: bytes) -> tuple[CgkaControl, dict[int | None, bytes]]:
    """The control `data` encodes and, per copath level of its sender,
    that control with only the entries sealed into the level's subtree: a
    contiguous run of the batch, its `first` the batch position of the
    run's first entry. None maps to the control with no entries. An
    entry's level is its target node's, and `target >> 1` is a leaf below
    that node, so this needs no tree either. The slices are cut from
    `data`, not re-encoded. Entries of one level that are not contiguous
    are malformed."""
    control = CgkaControl.from_bytes(data)
    runs: dict[int, tuple[int, int]] = {}
    for position, (target, _) in enumerate(control.path_entries):
        level = copath_level(target >> 1, control.sender_leaf)
        start, count = runs.setdefault(level, (position, 0))
        if start + count != position:
            raise MalformedControl("a copath level's path entries are not contiguous")
        runs[level] = (start, count + 1)
    cut = slice_start(data, control)
    head, entries = data[:cut], cut + _RUN.size
    slices: dict[int | None, bytes] = {None: head + _RUN.pack(control.first, 0)}
    for level, (start, count) in runs.items():
        at = entries + ENTRY_LEN * start
        slices[level] = (head + _RUN.pack(control.first + start, count)
                         + data[at:at + ENTRY_LEN * count])
    return control, slices


def _apply_update_path(control: CgkaControl, sender_path: list[int], own_leaf: int,
                       path: dict[int, tuple[bytes | None, KeyPair | None]]) -> None:
    """Open the one entry whose target node is in `path`, which holds no
    root, and re-derive the sender's path from the merge point up into
    `path`, checking each key, and the root's confirmation, against the
    control's new path. The root's entry gets the secret alone."""
    if control.sender_leaf == own_leaf:
        raise MalformedControl("unexpected control from own leaf")

    # Private keys live only on the receiver's own direct path, keyed by
    # node index, and each entry names the node it was sealed to. The
    # entry opened is the first on the wire whose node is in `path`; the
    # lazy scan runs in C and stops there, so the Python work grows with
    # the depth. An index outside the tree is simply in no `path`.
    entries = control.path_entries
    addressed = map(path.__contains__, map(itemgetter(0), entries))
    position = next(compress(count(), addressed), None)
    if position is None:
        raise DecryptFailed("no path entry addressed to this member")
    opened_at, box = entries[position]
    opened = pke_open(path[opened_at][1], box, control.ephemeral,
                      control.first + position)
    if len(opened) != 32:
        raise MalformedControl("path entry payload has wrong size")

    # the lowest node of the sender's path above the opened node, by
    # arithmetic; one ancestry test confirms that the path reaches it
    merge_idx = treemod.merge_index(opened_at, control.sender_leaf)
    if merge_idx >= len(sender_path) or not treemod.is_ancestor(
            sender_path[merge_idx], opened_at):
        raise MalformedControl("opened entry does not sit under the path")

    root = len(sender_path) - 1
    for i in range(merge_idx, root):
        kp = pke_keygen(opened)
        if kp.public_key != control.new_public_path[i]:
            raise MalformedControl("chained secret does not match path key")
        path[sender_path[i]] = (opened, kp)
        opened = derive(opened)
    if derive(opened, CONFIRM) != control.new_public_path[root]:
        raise MalformedControl("chained secret does not match path key at the root")
    path[sender_path[root]] = (opened, None)


def init(member_id: str, directory: InitKeyDirectory) -> CgkaState:
    """Fresh state with a published init key, ready to create or be added."""
    init_key = pke_keygen(random_secret())
    directory.register(member_id, init_key.public_key)
    return CgkaState(member_id, directory, path={None: (None, init_key)})
