"""Simulated service provider: PKI, sequencer, router, and the adversary.

The provider is honest-but-curious infrastructure. It validates registrations,
assigns a total order to published bundles, and routes each recipient class
its own view. It never sees plaintext or secret keys; everything it stores
(the transcript) is exactly what a network observer would capture.

`adversary_decrypt` plays the compromise game: given one party's serialized
state and the public transcript, it exhaustively combines every 32-byte
value it can see or derive (chains, message keys, key pairs) against every
sealed box and ciphertext until nothing new falls out. Security claims in
the probes are statements about its output.
"""

from __future__ import annotations

import base64
import json
import re
from dataclasses import dataclass, field

from .cgka import CgkaControl, InitKeyDirectory
from .encoding import peek_type
from .errors import (
    BadSignature,
    DuplicateChatbot,
    DuplicateId,
    MalformedControl,
    NotMember,
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
    BotMessage,
    ChatbotMessageView,
    GroupControl,
    UserMessageView,
)
from .primitives import (
    CHAIN,
    MSG_KEY,
    derive,
    pke_keygen,
    pke_open,
    sym_decrypt,
    x25519_key_pair,
)
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
        if chatbot_id in ch.bots:
            raise DuplicateChatbot(f"{chatbot_id!r} already attached")
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
        `user_view`; attached chatbots (or exactly `bot_targets`) get
        `bot_view`. Returns the sequence number."""
        ch = self._channel(group_id)
        if sender not in ch.members and sender not in ch.bots:
            raise NotMember(f"{sender!r} may not publish to {group_id!r}")
        self._seq += 1
        seq = self._seq
        if user_view is not None:
            for uid in sorted(ch.members):
                if uid != sender:
                    self._deliver(seq, group_id, "user", uid, user_view)
        if bot_view is not None:
            targets = sorted(ch.bots) if bot_targets is None else list(bot_targets)
            for cid in targets:
                if cid == sender:
                    continue
                if cid not in self._bots:
                    raise UnknownChatbot(f"no registration for {cid!r}")
                self._deliver(seq, group_id, "chatbot", cid, bot_view)
        return seq

    def _deliver(self, seq: int, group_id: str, recipient_class: str,
                 recipient: str, view: bytes) -> None:
        self.transcript.append({
            "seq": seq,
            "group_id": group_id,
            "recipient_class": recipient_class,
            "recipient": recipient,
            "view_b64": base64.b64encode(view).decode("ascii"),
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


def _collect_material(transcript) -> tuple[list[tuple[bytes | None, bytes]], list[bytes]]:
    """All sealed boxes and symmetric ciphertexts visible on the wire.

    Boxes come back as (recipient_pk_hint, box). A seal binds the recipient
    key pair, so when the wire names the target public key the adversary
    only needs to try matching secrets: everything else fails with
    certainty. Tree controls name their targets directly; chatbot entries
    name a chatbot id whose current node key is itself wire-visible (attach
    controls announce it, every chatbot reply announces the rotated one), so
    those are tracked in transcript order. Boxes without a hint are tried
    against every candidate.
    """
    boxes: dict[bytes, bytes | None] = {}
    ciphertexts: list[bytes] = []
    seen: set[bytes] = set()
    bot_pk: dict[str, bytes] = {}

    def add_box(box: bytes, hint: bytes | None) -> None:
        if box not in boxes or boxes[box] is None:
            boxes[box] = hint

    def control_boxes(control: CgkaControl) -> None:
        for target_pk, box in control.path_entries:
            add_box(box, target_pk)

    for row in transcript:
        view = base64.b64decode(row["view_b64"])
        if view in seen:
            continue
        seen.add(view)
        kind = peek_type(view)
        if kind == VIEW_USER_MESSAGE:
            v = UserMessageView.from_bytes(view)
            ciphertexts.append(v.ciphertext)
            for cid, box in v.entries:
                add_box(box, bot_pk.get(cid))
            control_boxes(CgkaControl.from_bytes(v.control))
        elif kind == VIEW_CHATBOT_MESSAGE:
            v = ChatbotMessageView.from_bytes(view)
            ciphertexts.append(v.ciphertext)
            for cid, box in v.entries:
                add_box(box, bot_pk.get(cid))
        elif kind == BOT_MESSAGE:
            v = BotMessage.from_bytes(view)
            ciphertexts.append(v.ciphertext)
            add_box(v.sealed_key, None)
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == ADD_BOT:
            v = AddBotControl.from_bytes(view)
            add_box(v.sealed_seed, None)
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == GROUP_CONTROL:
            control_boxes(CgkaControl.from_bytes(GroupControl.from_bytes(view).control))
    return [(hint, box) for box, hint in boxes.items()], list(dict.fromkeys(ciphertexts))


def _expand(secret: bytes, max_chain: int) -> set[bytes]:
    """Everything derivable from one 32-byte value: the chain above it (as a
    possible tree path secret), each link's message key, and each link's
    asymmetric secret key."""
    out: set[bytes] = set()
    s = secret
    for _ in range(max_chain):
        if s in out:
            break
        out.add(s)
        out.add(derive(s, MSG_KEY))
        out.add(pke_keygen(s).secret_key)
        s = derive(s, CHAIN)
    return out


def adversary_decrypt(snapshot: bytes, transcript,
                      max_chain: int = 12) -> AdversaryReport:
    """Exhaustive key-recovery attack from one compromised state plus the
    wire transcript. Runs to a fixpoint: every recovered value is fed back
    as a candidate key until nothing new opens."""
    seeds = _harvest_hex(json.loads(snapshot))
    boxes, ciphertexts = _collect_material(transcript)

    secrets: set[bytes] = set()
    frontier: set[bytes] = set()
    for seed in seeds:
        frontier |= _expand(seed, max_chain)

    payloads: set[bytes] = set()
    pk_of: dict[bytes, bytes] = {}  # candidate -> its X25519 public key
    tried_boxes: set[tuple[bytes, bytes]] = set()
    tried_cts: set[tuple[bytes, bytes]] = set()
    boxes_opened = 0
    cts_opened = 0

    def try_open(key: bytes, box: bytes) -> bytes | None:
        nonlocal boxes_opened
        pair = (key, box)
        if pair in tried_boxes:
            return None
        tried_boxes.add(pair)
        try:
            opened = pke_open(key, box)
        except Exception:
            return None
        boxes_opened += 1
        return opened

    while frontier:
        secrets |= frontier
        fresh = sorted(frontier)
        frontier = set()
        new: set[bytes] = set()
        for key in fresh:
            pk_of[key] = x25519_key_pair(key).public_key
        for key in sorted(secrets):
            for hint, box in boxes:
                if hint is not None and pk_of.get(key) != hint:
                    continue  # seal binds the recipient key: certain miss
                opened = try_open(key, box)
                if opened is not None and len(opened) == 32 and opened not in secrets:
                    new |= _expand(opened, max_chain)
            for ct in ciphertexts:
                pair = (key, ct)
                if pair in tried_cts:
                    continue
                tried_cts.add(pair)
                try:
                    payload = sym_decrypt(key, ct)
                except Exception:
                    continue
                cts_opened += 1
                payloads.add(payload)
        frontier = new - secrets

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
    from .group import _parse_payload, PseudonymRegistration

    try:
        result, _sig = _parse_payload(payload)
    except MalformedControl:
        return payload  # chatbot replies carry the raw message
    if isinstance(result, PseudonymRegistration):
        return result.public_key
    return result.message
