"""Simulated service provider: PKI, sequencer, router, and the adversary.

The provider is honest-but-curious infrastructure. It validates registrations,
assigns a total order to published bundles, and routes each recipient class
its own view. Users get the user view, except that an add's welcome goes
to the newcomer the add names and no one else: every other member gets the
same wrapped control without it (RFC 9420 sends a Commit to the group and
a Welcome to new members only). It never sees plaintext or secret keys;
everything it stores (the transcript) is exactly what a network observer
would capture.

`adversary_decrypt` plays the compromise game: given one party's serialized
state and an `Adversary`, which holds the public transcript and the public
PKI, it exhaustively combines every 32-byte value it can see or derive
(chains as long as the deepest tree path on the wire, message keys, key
pairs) against every sealed box and ciphertext until nothing new falls
out. A sealed box opens only under the secret of the public key it was
sealed to, and public data names that key for every box the protocol
seals: a tree control's entries name their target nodes, whose keys sit in
the group's public tree, which the adversary follows through the
transcript as members do; chatbot entries, which only chatbot views carry,
name a bot whose node key is on the wire, bot replies go to a group key
that some chatbot view or attach control carries, and attach seeds go to
the bot's registered key. Ciphertexts are named too: every AEAD key is
`derive(x, MSG_KEY)`, and the view carrying the ciphertext names
`pke_keygen(x).public_key` (chatbot views their group key, member views
the root key of their control, bot replies their node key). Derivation
domains are disjoint, so a chain link or `pke_keygen` scalar is never a
message key, and a message key or chain link is never a recipient scalar.
So each candidate meets only the boxes and ciphertexts it could open, and
the search stays exhaustive, barring a SHA-256 or X25519 clamping
collision. Security claims in the probes are statements about its output.
One `Adversary` attacks any number of snapshots of its transcript: it
decodes the wire once and does each candidate's chain, opens and decrypts
once, so the snapshots of one probe share that work. The transcript must
not grow while an `Adversary` over it is in use.
"""

from __future__ import annotations

import base64
import json
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .cgka import CONTROL_ADD, CgkaControl, InitKeyDirectory, advance
from .encoding import peek_type
from .errors import (
    BadSignature,
    ChatGateError,
    DecryptFailed,
    DuplicateChatbot,
    DuplicateId,
    MalformedControl,
    NotMember,
    NotPresent,
    UnknownChatbot,
    UnknownMember,
)
from .group import (
    ADD_BOT,
    BOT_MESSAGE,
    GROUP_CONTROL,
    VIEW_CHATBOT_MESSAGE,
    VIEW_USER_MESSAGE,
    AddBotControl,
    BotLookup,
    BotMessage,
    ChatbotMessageView,
    GroupControl,
    PseudonymRegistration,
    UserMessageView,
    _parse_payload,
)
from .primitives import (
    CHAIN,
    MSG_KEY,
    KeyPair,
    derive,
    pke_keygen,
    pke_open,
    sym_decrypt,
    sym_key,
    x25519_key_pair,
)
from .tree import RatchetTree
from .triggers import BotRegistration


@dataclass
class _Channel:
    members: set[str] = field(default_factory=set)
    bots: set[str] = field(default_factory=set)


class Provider:
    """PKI plus an ordered broadcast channel per group."""

    def __init__(self) -> None:
        self.directory = InitKeyDirectory()
        self._bots: dict[str, BotRegistration] = {}
        self._channels: dict[str, _Channel] = {}
        self._inboxes: dict[str, list[bytes]] = {}
        self._parties: dict[str, object] = {}
        self._seq = 0
        self.transcript: list[dict] = []

    # -- PKI -----------------------------------------------------------------

    def register_bot(self, registration: BotRegistration) -> None:
        if registration.chatbot_id in self._bots:
            raise DuplicateId(f"chatbot {registration.chatbot_id!r} already registered")
        BotRegistration.from_bytes(registration.to_bytes())  # its widths and rules
        if not registration.verify_signature():
            raise BadSignature("registration signature does not verify")
        self._bots[registration.chatbot_id] = registration

    def lookup_bot(self, chatbot_id: str) -> BotRegistration:
        if chatbot_id not in self._bots:
            raise UnknownChatbot(f"no registration for {chatbot_id!r}")
        return self._bots[chatbot_id]

    # -- group routing tables --------------------------------------------------

    def create_group(self, group_id: str, member_ids: list[str]) -> None:
        if group_id in self._channels:
            raise DuplicateId(f"group {group_id!r} already exists")
        for uid in member_ids:
            if uid not in self.directory:
                raise UnknownMember(f"{uid!r} has no registered init key")
        self._channels[group_id] = _Channel(members=set(member_ids))

    def add_member(self, group_id: str, member_id: str) -> None:
        ch = self._channel(group_id)
        if member_id not in self.directory:
            raise UnknownMember(f"{member_id!r} has no registered init key")
        ch.members.add(member_id)

    def remove_member(self, group_id: str, member_id: str) -> None:
        ch = self._channel(group_id)
        if member_id not in ch.members:
            raise NotMember(f"{member_id!r} is not in {group_id!r}")
        ch.members.discard(member_id)

    def attach_chatbot(self, group_id: str, chatbot_id: str) -> None:
        ch = self._channel(group_id)
        if chatbot_id not in self._bots:
            raise UnknownChatbot(f"no registration for {chatbot_id!r}")
        # a chatbot holds one group at a time
        if any(chatbot_id in c.bots for c in self._channels.values()):
            raise DuplicateChatbot(f"{chatbot_id!r} already attached to a group")
        ch.bots.add(chatbot_id)

    def detach_chatbot(self, group_id: str, chatbot_id: str) -> None:
        ch = self._channel(group_id)
        ch.bots.discard(chatbot_id)

    def members(self, group_id: str) -> set[str]:
        return set(self._channel(group_id).members)

    def chatbots(self, group_id: str) -> set[str]:
        return set(self._channel(group_id).bots)

    def _channel(self, group_id: str) -> _Channel:
        if group_id not in self._channels:
            raise UnknownMember(f"no group {group_id!r}")
        return self._channels[group_id]

    # -- publishing ---------------------------------------------------------------

    def publish(self, group_id: str, sender: str, *,
                user_view: bytes | None = None,
                bot_view: bytes | None = None,
                bot_targets: tuple[str, ...] | None = None) -> int:
        """Broadcast one logical bundle. Users other than the sender get
        `user_view`, but only the newcomer of an add gets its welcome;
        attached chatbots (or exactly `bot_targets`, each registered and
        attached) get `bot_view`. Returns the sequence number."""
        ch = self._channel(group_id)
        if sender not in ch.members and sender not in ch.bots:
            raise NotMember(f"{sender!r} may not publish to {group_id!r}")
        newcomer = None
        if user_view is not None:
            newcomer, member_view = _split_welcome(user_view)
            if newcomer is not None and (newcomer == sender
                                         or newcomer not in ch.members):
                raise NotMember(f"the add's newcomer {newcomer!r} is not "
                                f"routed in {group_id!r}")
        if bot_view is not None:
            targets = [cid for cid in (sorted(ch.bots) if bot_targets is None
                                       else bot_targets) if cid != sender]
            for cid in targets:
                if cid not in self._bots:
                    raise UnknownChatbot(f"no registration for {cid!r}")
                if cid not in ch.bots:
                    raise NotPresent(f"{cid!r} is not attached to {group_id!r}")
        self._seq += 1
        seq = self._seq
        if user_view is not None:
            member_b64 = base64.b64encode(member_view).decode("ascii")
            for uid in sorted(ch.members):
                if uid == newcomer:
                    self._deliver(seq, group_id, "user", uid, user_view,
                                  base64.b64encode(user_view).decode("ascii"))
                elif uid != sender:
                    self._deliver(seq, group_id, "user", uid, member_view,
                                  member_b64)
        if bot_view is not None:
            view_b64 = base64.b64encode(bot_view).decode("ascii")
            for cid in targets:
                self._deliver(seq, group_id, "chatbot", cid, bot_view, view_b64)
        return seq

    def _deliver(self, seq: int, group_id: str, recipient_class: str,
                 recipient: str, view: bytes, view_b64: str) -> None:
        """One transcript row per recipient; every row of a view shares
        the one `view_b64` string encoded by `publish`."""
        self.transcript.append({
            "seq": seq,
            "group_id": group_id,
            "recipient_class": recipient_class,
            "recipient": recipient,
            "view_b64": view_b64,
        })
        self._inboxes.setdefault(recipient, []).append(view)

    def inbox(self, party_id: str) -> list[bytes]:
        """Drain and return the party's pending views, oldest first."""
        out = self._inboxes.get(party_id, [])
        self._inboxes[party_id] = []
        return out

    def write_transcript(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for row in self.transcript:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    # -- party state (for compromise experiments) -----------------------------------

    def register_party(self, party_id: str, party: object) -> None:
        self._parties[party_id] = party

    def snapshot_state(self, party_id: str) -> bytes:
        """Serialize one party's full state, exactly as a device compromise
        at this moment would capture it."""
        party = self._parties[party_id]
        return json.dumps(party.snapshot(), sort_keys=True,
                          separators=(",", ":")).encode("ascii")


def _split_welcome(user_view: bytes) -> tuple[str | None, bytes]:
    """The newcomer an add's user view names, and the view every other
    member gets: the same wrapped control without the welcome. Any other
    view names no newcomer and goes to every member unchanged. A welcome
    without an add, or an add without a welcome, is malformed."""
    if peek_type(user_view) != GROUP_CONTROL:
        return None, user_view
    wrapped = GroupControl.from_bytes(user_view)
    is_add = peek_type(wrapped.control) == CONTROL_ADD
    if is_add != (wrapped.welcome is not None):
        raise MalformedControl("a welcome goes with an add, and only with one")
    if not is_add:
        return None, user_view
    newcomer = CgkaControl.from_bytes(wrapped.control).new_member_id
    return newcomer, replace(wrapped, welcome=None).to_bytes()


# ---------------------------------------------------------------------------
# the adversary
# ---------------------------------------------------------------------------

_HEX32 = re.compile(r"^[0-9a-f]{64}$")


@dataclass(frozen=True)
class AdversaryReport:
    plaintexts: frozenset[bytes]   # application messages recovered
    payloads: frozenset[bytes]     # raw decrypted payloads (superset info)
    secrets: frozenset[bytes]      # every 32-byte value the adversary holds
    boxes_opened: int
    ciphertexts_opened: int


def _harvest_hex(node) -> set[bytes]:
    found: set[bytes] = set()
    if isinstance(node, dict):
        for v in node.values():
            found |= _harvest_hex(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            found |= _harvest_hex(v)
    elif isinstance(node, str) and _HEX32.match(node):
        found.add(bytes.fromhex(node))
    return found


def _collect_material(transcript, registry: BotLookup) -> tuple[
        dict[bytes, set[bytes]], dict[bytes, set[bytes]], int]:
    """All sealed boxes and symmetric ciphertexts visible on the wire, each
    once, in wire order, as box -> hints and ciphertext -> hints, and the
    length of the longest `new_public_path` on the wire (at least 1).

    A box's hints are the public keys that public data names as its
    possible recipient. A seal binds the recipient key pair, so the
    adversary only needs to try secrets whose public key is a hint;
    everything else fails with certainty. The hints come from:

    * tree controls, whose path entries name their target nodes: each is
      named by the key at that node in the group's public tree, which
      `_entry_keys` follows through the transcript;
    * chatbot entries, which travel in chatbot views only (a member's view
      carries no chatbot boxes) and name a chatbot id whose current node key
      is on the wire (attach controls announce it, every chatbot reply
      announces the rotated one), tracked in transcript order;
    * bot replies, sealed to the bot's group public key, which it only ever
      takes from an attach control or a chatbot view: every such key on the
      transcript is a hint;
    * attach seeds, sealed to the named chatbot's registered encryption
      key, which the registry publishes.

    A box whose recipient public data cannot name has no hints and is tried
    against every candidate: so is each entry of a control that the
    follower cannot apply.

    A ciphertext's hints are the `pke_keygen` public keys of the seed its
    key was derived from (`derive(seed, MSG_KEY)`): a message view names
    the group key pair of the group secret it was sent under (a member's
    view as the root key of its control's path), a bot reply the node key
    of its fresh seed.
    """
    hints: dict[bytes, set[bytes]] = {}
    ct_hints: dict[bytes, set[bytes]] = {}
    seen: set[bytes] = set()
    bot_pk: dict[str, bytes] = {}
    group_keys: set[bytes] = set()
    replies: list[bytes] = []
    path_lengths = {1}
    groups: dict[str, tuple[RatchetTree, int] | None] = {}
    controls: set[bytes] = set()

    def add_box(box: bytes, hint: bytes | None) -> None:
        named = hints.setdefault(box, set())
        if hint is not None:
            named.add(hint)

    def control_boxes(data: bytes, in_message: bool) -> CgkaControl:
        # an add reaches its newcomer and the other members in two views
        control = CgkaControl.from_bytes(data)
        if data not in controls:
            controls.add(data)
            path_lengths.add(len(control.new_public_path))
            keys = _entry_keys(groups, control, in_message)
            for key, (_, box) in zip(keys, control.path_entries):
                add_box(box, key)
        return control

    def enc_key(chatbot_id: str) -> bytes | None:
        try:
            return registry.lookup_bot(chatbot_id).enc_public_key
        except UnknownChatbot:
            return None

    for row in transcript:
        view = base64.b64decode(row["view_b64"])
        if view in seen:
            continue
        seen.add(view)
        kind = peek_type(view)
        if kind == VIEW_USER_MESSAGE:
            v = UserMessageView.from_bytes(view)
            control = control_boxes(v.control, in_message=True)
            ct_hints.setdefault(v.ciphertext, set()).update(control.new_public_path[-1:])
        elif kind == VIEW_CHATBOT_MESSAGE:
            v = ChatbotMessageView.from_bytes(view)
            ct_hints.setdefault(v.ciphertext, set()).add(v.group_public_key)
            group_keys.add(v.group_public_key)
            for cid, box in v.entries:
                add_box(box, bot_pk.get(cid))
        elif kind == BOT_MESSAGE:
            v = BotMessage.from_bytes(view)
            ct_hints.setdefault(v.ciphertext, set()).add(v.node_public_key)
            replies.append(v.sealed_key)
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == ADD_BOT:
            v = AddBotControl.from_bytes(view)
            group_keys.add(v.group_public_key)
            add_box(v.sealed_seed, enc_key(v.chatbot_id))
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == GROUP_CONTROL:
            control_boxes(GroupControl.from_bytes(view).control, in_message=False)
    for box in replies:
        hints.setdefault(box, set()).update(group_keys)
    return hints, ct_hints, max(path_lengths)


def _entry_keys(groups: dict[str, tuple[RatchetTree, int] | None],
                control: CgkaControl, in_message: bool) -> list[bytes | None]:
    """The public key each path entry of `control` was sealed to, or None
    where that cannot be read: the key at the entry's target node, in the
    tree the control leaves. `groups` follows each group's public tree and
    epoch in transcript order, from its create, through the public step
    members run (`advance`: the membership edit, the sender path checks
    and the new path); a member's message view carries only an update. An
    entry's target lies in a copath resolution, off the sender's path, so
    its key is the same before and after the new path. A control that
    fails any of that names no key, and its group is dropped (None) for
    the rest of the transcript, since the follower can no longer tell
    which tree the group's members hold. The checks that need a member's
    secrets (the opened box, the derived path keys) it cannot make: a
    control that members refuse for those is followed, and the group's
    next control, an epoch behind the follower, drops the group."""
    group_id = control.group_id
    if control.kind == "create":
        base, applies = None, group_id not in groups
    else:
        base, epoch = groups.get(group_id) or (None, None)
        applies = base is not None and control.epoch == epoch
    groups[group_id] = None  # dropped, unless the control applies
    if not applies or (in_message and control.kind != "update"):
        return [None] * len(control.path_entries)
    try:
        t, _, _ = advance(control, base)
    except ChatGateError:
        return [None] * len(control.path_entries)
    groups[group_id] = (t, control.epoch + 1)
    return [t.nodes[x] if x < len(t.nodes) else None for x, _ in control.path_entries]


def _by_hint(material: dict[bytes, set[bytes]]) -> tuple[
        dict[bytes, list[bytes]], list[bytes]]:
    """Invert item -> hints: item lists per hint, and the unhinted."""
    by_hint: dict[bytes, list[bytes]] = {}
    unhinted: list[bytes] = []
    for item, hints in material.items():
        if not hints:
            unhinted.append(item)
        for hint in hints:
            by_hint.setdefault(hint, []).append(item)
    return by_hint, unhinted


def _expand(secret: bytes, depth: int) -> list[tuple[bytes, bytes, KeyPair]]:
    """The chain above one 32-byte value (as a possible tree path secret),
    starting at the value itself and `depth` links long: each link with its
    message key and its `pke_keygen` key pair."""
    links: list[tuple[bytes, bytes, KeyPair]] = []
    seen: set[bytes] = set()
    s = secret
    for _ in range(depth):
        if s in seen:
            break
        message_key = derive(s, MSG_KEY)
        pair = pke_keygen(s)
        links.append((s, message_key, pair))
        seen.update((s, message_key, pair.secret_key))
        s = derive(s, CHAIN)
    return links


class _Wire(NamedTuple):
    """A transcript's boxes and ciphertexts, indexed for the attack."""

    boxes_for: dict[bytes, list[bytes]]  # hint -> boxes
    unhinted: list[bytes]                # boxes public data names no key for
    cts_for: dict[bytes, list[bytes]]    # named key -> ciphertexts
    all_cts: list[bytes]
    depth: int                           # the longest path on the wire
    rows: int                            # transcript rows collected


class Adversary:
    """The wire side of the compromise game against one transcript, shared
    by every snapshot attacked with it.

    It collects the transcript's boxes and ciphertexts once, on the first
    attack, and remembers each candidate's work, which is a pure function
    of bytes: a value's chain, what a scalar opens, and what a key reads.
    So snapshots that share candidates pay for them once. A fresh one per
    snapshot makes exactly the trials of an unshared attack. The transcript
    must not grow while it is in use: an attack after it has grown raises
    ValueError, since the memo would miss the new rows.

    Like the honest-but-curious provider, the adversary knows the public
    PKI: `registry` (anything with `lookup_bot`) gives each chatbot's
    registered encryption key, which names the recipient of its attach
    seed."""

    def __init__(self, transcript, registry: BotLookup) -> None:
        self._source = (transcript, registry)
        self._links: dict[bytes, list[tuple[bytes, bytes, KeyPair]]] = {}
        self._opened: dict[bytes, tuple[bytes, ...]] = {}
        self._read: dict[tuple[bytes, bytes | None], tuple[bytes, ...]] = {}

    @cached_property
    def _wire(self) -> _Wire:
        """Collected on the first attack, so that a traced run books it
        under `adversary_decrypt` as it books the rest of the attack."""
        transcript, registry = self._source
        boxes, ciphertexts, depth = _collect_material(transcript, registry)
        boxes_for, unhinted = _by_hint(boxes)
        cts_for, _ = _by_hint(ciphertexts)  # every ciphertext names a key
        return _Wire(boxes_for, unhinted, cts_for, list(ciphertexts), depth,
                     len(transcript))

    def check_current(self) -> None:
        """Collect the wire if this is the first attack; refuse if the
        transcript has grown since it was collected."""
        if len(self._source[0]) != self._wire.rows:
            raise ValueError("the transcript grew after this Adversary "
                             "collected it; build a new one")

    def links(self, value: bytes) -> list[tuple[bytes, bytes, KeyPair]]:
        """`_expand(value)`, as deep as the longest path on the wire."""
        links = self._links.get(value)
        if links is None:
            links = self._links[value] = _expand(value, self._wire.depth)
        return links

    def opened(self, scalar: bytes, pair: KeyPair | None) -> tuple[bytes, ...]:
        """The plaintexts of the boxes `scalar` opens, trying those hinted
        with its public key and the unhinted ones. `pair` is its key pair
        when a `pke_keygen` made it."""
        opened = self._opened.get(scalar)
        if opened is None:
            wire = self._wire
            pair = pair or x25519_key_pair(scalar)
            out = []
            for box in (*wire.boxes_for.get(pair.public_key, ()), *wire.unhinted):
                try:
                    out.append(pke_open(pair, box))
                except DecryptFailed:
                    continue
            opened = self._opened[scalar] = tuple(out)
        return opened

    def read(self, key: bytes, link: bytes | None) -> tuple[bytes, ...]:
        """The payloads `key` decrypts: from every ciphertext for a raw
        value (`link` None), else from those that name `link`, the public
        key of the chain link whose message key it is."""
        payloads = self._read.get((key, link))
        if payloads is None:
            wire = self._wire
            aead = sym_key(key)
            out = []
            for ct in wire.all_cts if link is None else wire.cts_for.get(link, ()):
                try:
                    out.append(sym_decrypt(aead, ct))
                except DecryptFailed:
                    continue
            payloads = self._read[(key, link)] = tuple(out)
        return payloads


def adversary_decrypt(snapshot: bytes, adversary: Adversary) -> AdversaryReport:
    """Exhaustive key-recovery attack from one compromised state plus the
    wire transcript `adversary` holds. Runs to a fixpoint: every recovered
    value is fed back as a candidate key until nothing new opens. Each
    value's chain climbs as far as the longest path on the transcript,
    which any path secret, held or opened, needs to reach its root."""
    # Each candidate meets only what it could open. A raw value (harvested,
    # or the plaintext of an opened box) could be any key: it meets every
    # ciphertext, and as a scalar the boxes hinted with its public key plus
    # the unhinted ones. A link's message key `derive(s, MSG_KEY)` opens
    # only ciphertexts that name `pke_keygen(s)`; the link's key pair only
    # boxes hinted with its public key, or unhinted. Chain links above a
    # raw value and `pke_keygen` scalars are neither keys nor recipient
    # scalars in any other domain, so they meet nothing more.
    adversary.check_current()
    secrets: set[bytes] = set()
    raw = _harvest_hex(json.loads(snapshot))
    payloads: set[bytes] = set()
    boxes_opened = 0
    cts_opened = 0
    # Boxes and ciphertexts are fixed, so trying each candidate only in the
    # round it first appears tries every pair it could open exactly once.
    while raw:
        pairs: dict[bytes, KeyPair | None] = dict.fromkeys(raw)
        message_keys: dict[bytes, bytes] = {}  # message key -> link public key
        frontier: set[bytes] = set()
        for value in raw:
            for s, message_key, pair in adversary.links(value):
                frontier.update((s, message_key, pair.secret_key))
                message_keys[message_key] = pair.public_key
                pairs[pair.secret_key] = pair
        frontier -= secrets
        secrets |= frontier
        new: set[bytes] = set()
        for key in sorted(frontier):
            if key in pairs:
                opened = adversary.opened(key, pairs[key])
                boxes_opened += len(opened)
                new.update(plain for plain in opened
                           if len(plain) == 32 and plain not in secrets)
            if key in raw:
                link = None
            elif key in message_keys:
                link = message_keys[key]
            else:
                continue
            read = adversary.read(key, link)
            cts_opened += len(read)
            payloads.update(read)
        raw = new

    plaintexts: set[bytes] = set()
    for payload in payloads:
        plaintexts.add(_payload_message(payload))
    return AdversaryReport(plaintexts=frozenset(plaintexts),
                           payloads=frozenset(payloads),
                           secrets=frozenset(secrets),
                           boxes_opened=boxes_opened,
                           ciphertexts_opened=cts_opened)


def _payload_message(payload: bytes) -> bytes:
    """Best-effort message extraction from a decrypted payload."""
    try:
        result, _sig = _parse_payload(payload)
    except MalformedControl:
        return payload  # chatbot replies carry the raw message
    if isinstance(result, PseudonymRegistration):
        return result.public_key
    return result.message
