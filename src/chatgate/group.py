"""User and chatbot protocol state over the group key agreement.

The asymmetry that makes selective access work: every user message embeds a
tree update, so the group secret is fresh per message, and the per-message
key is sealed only to the chatbots the message actually addresses. Each
chatbot holds exactly one group public key and its own two-node channel;
users hold, per chatbot, the group secret key from the last epoch that
addressed it. A chatbot that is not addressed learns nothing and its
channel simply stays at the older key, which is what keeps its storage and
the users' bookkeeping constant.

Chatbot views carry no sender identity and no tree control: they are
encoded independently of the user view, never sliced out of it.

Wire layout (type byte first, all fields length-prefixed):
    0x10 user message, user view      0x11 user message, chatbot view
    0x12 chatbot message              0x13 add-chatbot control
    0x14 remove-chatbot control       0x15 wrapped tree control
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Union

from .cgka import CgkaControl, CgkaState
from .encoding import Reader, Writer
from .errors import (
    BadPseudonymSignature,
    BadTriggerSignature,
    DecryptFailed,
    DuplicateChatbot,
    MalformedControl,
    NoChatbots,
    NoGroup,
    NotInGroup,
    NotPresent,
    PseudonymNotRegistered,
    UnknownChatbotId,
)
from .primitives import (
    HANDLE,
    MSG_KEY,
    SEALED_LEN,
    KeyPair,
    derive,
    pke_keygen,
    pke_open,
    pke_seal,
    random_bytes,
    random_secret,
    sign,
    sign_keygen,
    sym_decrypt,
    sym_encrypt,
    verify,
)
from .triggers import BotRegistration, TriggerRule, TriggerSpec, make_registration

VIEW_USER_MESSAGE = 0x10
VIEW_CHATBOT_MESSAGE = 0x11
BOT_MESSAGE = 0x12
ADD_BOT = 0x13
REMOVE_BOT = 0x14
GROUP_CONTROL = 0x15

_PAYLOAD_PLAIN = 0x01
_PAYLOAD_PSEUDONYMOUS = 0x02
_PAYLOAD_REGISTRATION = 0x03

_PSEUDONYM_CONTEXT = 0x30

_FLAG_ADDRESS_ALL = 0x01


class BotLookup(Protocol):
    """Where registrations come from; the provider implements this."""

    def lookup_bot(self, chatbot_id: str) -> BotRegistration: ...


class _NotAddressed:
    """Uniform outcome for `not addressed`: absent entry and failed open
    return the very same object, so the two cases are indistinguishable."""

    _instance: "_NotAddressed | None" = None

    def __new__(cls) -> "_NotAddressed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_ADDRESSED"

    def __bool__(self) -> bool:
        return False


NOT_ADDRESSED = _NotAddressed()


@dataclass(frozen=True)
class ReceivedMessage:
    message: bytes
    pseudonym: bytes | None = None  # verified handle, when pseudonymous


@dataclass(frozen=True)
class PseudonymRegistration:
    public_key: bytes
    handle: bytes | None = None  # chatbots compute and store the handle


ReceiveResult = Union[ReceivedMessage, PseudonymRegistration, _NotAddressed]


@dataclass
class ChatbotRecord:
    """A user's per-chatbot bookkeeping: O(1) per chatbot."""

    trigger: TriggerSpec
    channel_secret_key: KeyPair | None  # group key pair at last addressing
    bot_public_key: bytes             # the chatbot's current channel key


@dataclass
class Pseudonym:
    key: KeyPair
    handle: bytes


@dataclass(frozen=True)
class SendOutcome:
    """A published user message plus what the harness needs to route it."""

    user_view: bytes
    chatbot_view: bytes
    epoch: int
    addressed: tuple[str, ...]
    concealed: tuple[str, ...]


# ---------------------------------------------------------------------------
# payloads (inside the symmetric ciphertext)
# ---------------------------------------------------------------------------

def _encode_plain(message: bytes) -> bytes:
    return Writer().u8(_PAYLOAD_PLAIN).field(message).done()

def _encode_pseudonymous(message: bytes, handle: bytes, signature: bytes) -> bytes:
    w = Writer().u8(_PAYLOAD_PSEUDONYMOUS)
    w.field(message)
    w.field(handle)
    w.field(signature)
    return w.done()

def _encode_registration(public_key: bytes) -> bytes:
    return Writer().u8(_PAYLOAD_REGISTRATION).field(public_key).done()


def pseudonym_context(group_id: str, epoch: int, message: bytes) -> bytes:
    """The signed binding for pseudonymous payloads; epoch is in it so a
    payload replayed into a different epoch cannot verify."""
    w = Writer(_PSEUDONYM_CONTEXT)
    w.text(group_id)
    w.u32(epoch)
    w.field(message)
    return w.done()


# ---------------------------------------------------------------------------
# bundle encodings
# ---------------------------------------------------------------------------

Entry = tuple[str, bytes]  # (chatbot id, sealed key or dummy of equal length)


def _write_entry(w: Writer, entry: Entry) -> None:
    w.text(entry[0])
    w.field(entry[1])


def _read_entry(r: Reader) -> Entry:
    return (r.text(), r.field())


@dataclass(frozen=True)
class UserMessageView:
    group_id: str
    epoch: int
    flags: int
    control: bytes
    ciphertext: bytes
    group_public_key: bytes
    entries: tuple[Entry, ...]

    def to_bytes(self) -> bytes:
        w = Writer(VIEW_USER_MESSAGE)
        w.text(self.group_id)
        w.u32(self.epoch)
        w.u8(self.flags)
        w.field(self.control)
        w.field(self.ciphertext)
        w.field(self.group_public_key)
        w.items(list(self.entries), _write_entry)
        return w.done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "UserMessageView":
        r = Reader(data, expect_type=VIEW_USER_MESSAGE)
        out = cls(group_id=r.text(), epoch=r.u32(), flags=r.u8(),
                  control=r.field(), ciphertext=r.field(),
                  group_public_key=r.field(),
                  entries=tuple(r.items(_read_entry)))
        r.finish()
        return out


@dataclass(frozen=True)
class ChatbotMessageView:
    group_id: str
    epoch: int
    ciphertext: bytes
    group_public_key: bytes
    entries: tuple[Entry, ...]

    def to_bytes(self) -> bytes:
        w = Writer(VIEW_CHATBOT_MESSAGE)
        w.text(self.group_id)
        w.u32(self.epoch)
        w.field(self.ciphertext)
        w.field(self.group_public_key)
        w.items(list(self.entries), _write_entry)
        return w.done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ChatbotMessageView":
        r = Reader(data, expect_type=VIEW_CHATBOT_MESSAGE)
        out = cls(group_id=r.text(), epoch=r.u32(), ciphertext=r.field(),
                  group_public_key=r.field(),
                  entries=tuple(r.items(_read_entry)))
        r.finish()
        return out


def chatbot_view_shape(data: bytes) -> tuple:
    """Field-length vector of a chatbot view, for structural comparison."""
    v = ChatbotMessageView.from_bytes(data)
    return (
        ("group_id", len(v.group_id.encode())),
        ("epoch", 4),
        ("ciphertext", len(v.ciphertext)),
        ("group_public_key", len(v.group_public_key)),
        ("entries", tuple((len(cid.encode()), len(box)) for cid, box in v.entries)),
    )


@dataclass(frozen=True)
class BotMessage:
    group_id: str
    chatbot_id: str
    ciphertext: bytes
    sealed_key: bytes
    node_public_key: bytes

    def to_bytes(self) -> bytes:
        w = Writer(BOT_MESSAGE)
        w.text(self.group_id)
        w.text(self.chatbot_id)
        w.field(self.ciphertext)
        w.field(self.sealed_key)
        w.field(self.node_public_key)
        return w.done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BotMessage":
        r = Reader(data, expect_type=BOT_MESSAGE)
        out = cls(group_id=r.text(), chatbot_id=r.text(), ciphertext=r.field(),
                  sealed_key=r.field(), node_public_key=r.field())
        r.finish()
        return out


@dataclass(frozen=True)
class AddBotControl:
    group_id: str
    chatbot_id: str
    group_public_key: bytes
    node_public_key: bytes
    sealed_seed: bytes

    def to_bytes(self) -> bytes:
        w = Writer(ADD_BOT)
        w.text(self.group_id)
        w.text(self.chatbot_id)
        w.field(self.group_public_key)
        w.field(self.node_public_key)
        w.field(self.sealed_seed)
        return w.done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "AddBotControl":
        r = Reader(data, expect_type=ADD_BOT)
        out = cls(group_id=r.text(), chatbot_id=r.text(),
                  group_public_key=r.field(), node_public_key=r.field(),
                  sealed_seed=r.field())
        r.finish()
        return out


@dataclass(frozen=True)
class RemoveBotControl:
    group_id: str
    chatbot_id: str

    def to_bytes(self) -> bytes:
        return Writer(REMOVE_BOT).text(self.group_id).text(self.chatbot_id).done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "RemoveBotControl":
        r = Reader(data, expect_type=REMOVE_BOT)
        out = cls(group_id=r.text(), chatbot_id=r.text())
        r.finish()
        return out


@dataclass(frozen=True)
class GroupControl:
    """A tree control for users, plus the chatbot roster for a newcomer."""

    group_id: str
    control: bytes
    roster: tuple[tuple[str, bytes], ...] = ()

    def to_bytes(self) -> bytes:
        w = Writer(GROUP_CONTROL)
        w.text(self.group_id)
        w.field(self.control)
        w.items(list(self.roster), _write_entry)
        return w.done()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GroupControl":
        r = Reader(data, expect_type=GROUP_CONTROL)
        out = cls(group_id=r.text(), control=r.field(),
                  roster=tuple(r.items(_read_entry)))
        r.finish()
        return out


# ---------------------------------------------------------------------------
# user state
# ---------------------------------------------------------------------------

@dataclass
class UserState:
    cgka: CgkaState
    registry: BotLookup
    records: dict[str, ChatbotRecord] = field(default_factory=dict)
    pseudonym: Pseudonym | None = None

    @property
    def member_id(self) -> str:
        return self.cgka.member_id

    @property
    def group_id(self) -> str | None:
        return self.cgka.group_id

    @property
    def epoch(self) -> int:
        return self.cgka.epoch

    # -- group membership (tree controls pass through) ----------------------

    def create_group(self, group_id: str, member_ids: list[str]) -> bytes:
        ctl = self.cgka.create(group_id, member_ids)
        self.cgka.process(ctl)
        return GroupControl(group_id=group_id, control=ctl.to_bytes()).to_bytes()

    def add_user(self, member_id: str) -> bytes:
        self._require_group()
        ctl = self.cgka.add(member_id)
        self.cgka.process(ctl)
        roster = tuple((cid, self.records[cid].bot_public_key)
                       for cid in sorted(self.records))
        return GroupControl(group_id=self.group_id, control=ctl.to_bytes(),
                            roster=roster).to_bytes()

    def remove_user(self, member_id: str) -> bytes:
        self._require_group()
        ctl = self.cgka.remove(member_id)
        self.cgka.process(ctl)
        return GroupControl(group_id=self.group_id, control=ctl.to_bytes()).to_bytes()

    def update_keys(self) -> bytes:
        self._require_group()
        ctl = self.cgka.update()
        self.cgka.process(ctl)
        return GroupControl(group_id=self.group_id, control=ctl.to_bytes()).to_bytes()

    def process_group_control(self, data: bytes) -> None:
        wrapped = GroupControl.from_bytes(data)
        joining = self.cgka.tree is None
        self.cgka.process(CgkaControl.from_bytes(wrapped.control))
        if joining:
            # Newcomer: adopt the chatbot roster. No channel key yet; the
            # next message addressing each chatbot refreshes every record.
            for cid, bot_pk in wrapped.roster:
                reg = self.registry.lookup_bot(cid)
                if not reg.verify_signature():
                    raise BadTriggerSignature(f"registration for {cid!r}")
                self.records[cid] = ChatbotRecord(
                    trigger=reg.trigger, channel_secret_key=None,
                    bot_public_key=bot_pk)

    # -- chatbot membership ---------------------------------------------------

    def add_chatbot(self, chatbot_id: str) -> bytes:
        self._require_group()
        if chatbot_id in self.records:
            raise DuplicateChatbot(f"{chatbot_id!r} already attached")
        reg = self.registry.lookup_bot(chatbot_id)
        if not reg.verify_signature():
            raise BadTriggerSignature(f"registration for {chatbot_id!r}")
        seed = random_secret()
        node = pke_keygen(seed)
        sealed = pke_seal(reg.enc_public_key, seed)
        self.records[chatbot_id] = ChatbotRecord(
            trigger=reg.trigger,
            channel_secret_key=self.cgka.group_key_pair,
            bot_public_key=node.public_key)
        return AddBotControl(group_id=self.group_id, chatbot_id=chatbot_id,
                             group_public_key=self.cgka.group_key_pair.public_key,
                             node_public_key=node.public_key,
                             sealed_seed=sealed).to_bytes()

    def process_add_chatbot(self, data: bytes) -> None:
        ctl = AddBotControl.from_bytes(data)
        self._check_group(ctl.group_id)
        if ctl.chatbot_id in self.records:
            raise DuplicateChatbot(f"{ctl.chatbot_id!r} already attached")
        reg = self.registry.lookup_bot(ctl.chatbot_id)
        if not reg.verify_signature():
            raise BadTriggerSignature(f"registration for {ctl.chatbot_id!r}")
        self.records[ctl.chatbot_id] = ChatbotRecord(
            trigger=reg.trigger,
            channel_secret_key=self.cgka.group_key_pair,
            bot_public_key=ctl.node_public_key)

    def remove_chatbot(self, chatbot_id: str) -> bytes:
        self._require_group()
        if chatbot_id not in self.records:
            raise NotPresent(f"{chatbot_id!r} is not attached")
        del self.records[chatbot_id]
        return RemoveBotControl(group_id=self.group_id,
                                chatbot_id=chatbot_id).to_bytes()

    def process_remove_chatbot(self, data: bytes) -> None:
        ctl = RemoveBotControl.from_bytes(data)
        self._check_group(ctl.group_id)
        if ctl.chatbot_id not in self.records:
            raise NotPresent(f"{ctl.chatbot_id!r} is not attached")
        del self.records[ctl.chatbot_id]

    # -- messaging --------------------------------------------------------------

    def send(self, message: bytes, conceal: bool = False,
             address_all: bool = False, pseudonymous: bool = False) -> SendOutcome:
        """One group message: embedded tree update, per-message key sealed
        to exactly the addressed chatbots (plus same-size dummies for the
        rest when concealing)."""
        self._require_group()
        if pseudonymous and self.pseudonym is None:
            raise PseudonymNotRegistered("broadcast a pseudonym key first")

        def build_payload(epoch: int) -> bytes:
            if not pseudonymous:
                return _encode_plain(message)
            ctx = pseudonym_context(self.group_id, epoch, message)
            return _encode_pseudonymous(
                message, self.pseudonym.handle,
                sign(self.pseudonym.key.secret_key, ctx))

        return self._send_raw(build_payload, trigger_message=message,
                              conceal=conceal, address_all=address_all)

    def register_pseudonym(self) -> SendOutcome:
        """Broadcast a fresh pseudonym key to every chatbot; replaces and
        erases any previous pseudonym secret."""
        self._require_group()
        if not self.records:
            raise NoChatbots("no chatbot to register a pseudonym with")
        key = sign_keygen(random_secret())
        handle = derive(key.public_key, HANDLE)
        outcome = self._send_raw(lambda _epoch: _encode_registration(key.public_key),
                                 trigger_message=None, conceal=False,
                                 address_all=True)
        self.pseudonym = Pseudonym(key=key, handle=handle)
        return outcome

    def _send_raw(self, build_payload, trigger_message: bytes | None,
                  conceal: bool, address_all: bool) -> SendOutcome:
        ctl = self.cgka.update()
        group_key = self.cgka.process(ctl)
        epoch = self.cgka.epoch
        pair = self.cgka.group_key_pair
        message_key = derive(group_key, MSG_KEY)
        ciphertext = sym_encrypt(message_key, build_payload(epoch))

        addressed: list[str] = []
        concealed: list[str] = []
        entries: list[Entry] = []
        for cid in sorted(self.records):
            record = self.records[cid]
            if address_all or (trigger_message is not None
                               and record.trigger.matches(trigger_message)):
                entries.append((cid, pke_seal(record.bot_public_key, message_key)))
                record.channel_secret_key = pair
                addressed.append(cid)
            elif conceal:
                entries.append((cid, random_bytes(SEALED_LEN)))
                concealed.append(cid)

        flags = _FLAG_ADDRESS_ALL if address_all else 0
        user_view = UserMessageView(
            group_id=self.group_id, epoch=epoch, flags=flags,
            control=ctl.to_bytes(), ciphertext=ciphertext,
            group_public_key=pair.public_key, entries=tuple(entries))
        chatbot_view = ChatbotMessageView(
            group_id=self.group_id, epoch=epoch, ciphertext=ciphertext,
            group_public_key=pair.public_key, entries=tuple(entries))
        return SendOutcome(user_view=user_view.to_bytes(),
                           chatbot_view=chatbot_view.to_bytes(),
                           epoch=epoch, addressed=tuple(addressed),
                           concealed=tuple(concealed))

    def process_user_message(self, data: bytes) -> ReceiveResult:
        """Apply another user's message: advance the tree, read the payload,
        and refresh exactly the records whose triggers the message fires
        (senders' entry lists are never trusted for that)."""
        view = UserMessageView.from_bytes(data)
        self._check_group(view.group_id)
        group_key = self.cgka.process(CgkaControl.from_bytes(view.control))
        if view.epoch != self.cgka.epoch:
            raise MalformedControl("bundle epoch disagrees with control")
        pair = self.cgka.group_key_pair
        if view.group_public_key != pair.public_key:
            raise MalformedControl("bundle group key disagrees with tree")
        for cid, _ in view.entries:
            if cid not in self.records:
                raise UnknownChatbotId(f"entry for unknown chatbot {cid!r}")

        message_key = derive(group_key, MSG_KEY)
        payload = sym_decrypt(message_key, view.ciphertext)
        result, _signature = _parse_payload(payload)

        address_all = bool(view.flags & _FLAG_ADDRESS_ALL)
        for cid in sorted(self.records):
            record = self.records[cid]
            fired = address_all or (
                isinstance(result, ReceivedMessage)
                and record.trigger.matches(result.message))
            if fired:
                record.channel_secret_key = pair
        return result

    def receive_from_chatbot(self, data: bytes) -> bytes:
        msg = BotMessage.from_bytes(data)
        self._check_group(msg.group_id)
        record = self.records.get(msg.chatbot_id)
        if record is None:
            raise UnknownChatbotId(f"no record of {msg.chatbot_id!r}")
        if record.channel_secret_key is None:
            raise DecryptFailed("no channel key for this chatbot yet")
        message_key = pke_open(record.channel_secret_key, msg.sealed_key)
        message = sym_decrypt(message_key, msg.ciphertext)
        record.bot_public_key = msg.node_public_key
        return message

    # -- plumbing -----------------------------------------------------------------

    def _require_group(self) -> None:
        if self.cgka.tree is None:
            raise NoGroup(f"{self.member_id!r} has no group")

    def _check_group(self, group_id: str) -> None:
        self._require_group()
        if group_id != self.group_id:
            raise MalformedControl("bundle for a different group")

    def snapshot(self) -> dict:
        def hx(b: bytes | None):
            return b.hex() if b is not None else None

        return {
            "kind": "user",
            "id": self.member_id,
            "group": self.cgka.snapshot(),
            "records": {
                cid: {
                    "trigger": rec.trigger.canonical_bytes().hex(),
                    "channel_secret_key": None if rec.channel_secret_key is None
                    else hx(rec.channel_secret_key.secret_key),
                    "bot_public_key": hx(rec.bot_public_key),
                }
                for cid, rec in sorted(self.records.items())
            },
            "pseudonym": None if self.pseudonym is None else {
                "secret_key": hx(self.pseudonym.key.secret_key),
                "public_key": hx(self.pseudonym.key.public_key),
                "handle": hx(self.pseudonym.handle),
            },
        }


def _parse_payload(payload: bytes) -> tuple[ReceiveResult, bytes | None]:
    """Returns the decoded result and, for pseudonymous payloads, the
    signature over the pseudonym context."""
    r = Reader(payload)
    tag = r.u8()
    signature = None
    if tag == _PAYLOAD_PLAIN:
        out: ReceiveResult = ReceivedMessage(message=r.field())
    elif tag == _PAYLOAD_PSEUDONYMOUS:
        out = ReceivedMessage(message=r.field(), pseudonym=r.field())
        signature = r.field()
    elif tag == _PAYLOAD_REGISTRATION:
        out = PseudonymRegistration(public_key=r.field())
    else:
        raise MalformedControl("unknown payload tag")
    r.finish()
    return out, signature


# ---------------------------------------------------------------------------
# chatbot state
# ---------------------------------------------------------------------------

@dataclass
class ChatbotState:
    chatbot_id: str
    enc_identity: KeyPair
    sig_identity: KeyPair
    registration: BotRegistration
    group_id: str | None = None
    group_public_key: bytes | None = None
    node_key: KeyPair | None = None
    pseudonyms: dict[bytes, bytes] = field(default_factory=dict)

    def process_add(self, data: bytes) -> None:
        ctl = AddBotControl.from_bytes(data)
        if ctl.chatbot_id != self.chatbot_id:
            raise MalformedControl("add control for a different chatbot")
        seed = pke_open(self.enc_identity, ctl.sealed_seed)
        node = pke_keygen(seed)
        if node.public_key != ctl.node_public_key:
            raise MalformedControl("channel key disagrees with sealed seed")
        self.node_key = node
        self.group_public_key = ctl.group_public_key
        self.group_id = ctl.group_id

    def process_remove(self, data: bytes) -> None:
        ctl = RemoveBotControl.from_bytes(data)
        if ctl.chatbot_id != self.chatbot_id:
            raise MalformedControl("remove control for a different chatbot")
        self.group_id = None
        self.group_public_key = None
        self.node_key = None
        self.pseudonyms.clear()

    def receive(self, data: bytes) -> ReceiveResult:
        """Read a user message view. Absent entry and undecryptable entry
        both return NOT_ADDRESSED (the same object); nothing is retained in
        either case."""
        if self.node_key is None or self.group_public_key is None:
            raise NotInGroup(f"{self.chatbot_id!r} is not in a group")
        view = ChatbotMessageView.from_bytes(data)
        if view.group_id != self.group_id:
            raise MalformedControl("view for a different group")

        my_entry = None
        for cid, box in view.entries:
            if cid == self.chatbot_id:
                my_entry = box
                break
        if my_entry is None:
            return NOT_ADDRESSED
        try:
            message_key = pke_open(self.node_key, my_entry)
        except DecryptFailed:
            return NOT_ADDRESSED

        result, signature = _parse_payload(sym_decrypt(message_key, view.ciphertext))
        if isinstance(result, ReceivedMessage) and result.pseudonym is not None:
            self._verify_pseudonymous(view.epoch, result, signature)
        elif isinstance(result, PseudonymRegistration):
            handle = derive(result.public_key, HANDLE)
            self.pseudonyms[handle] = result.public_key
            result = PseudonymRegistration(public_key=result.public_key,
                                           handle=handle)
        self.group_public_key = view.group_public_key
        return result

    def _verify_pseudonymous(self, epoch: int, result: ReceivedMessage,
                             signature: bytes) -> None:
        public_key = self.pseudonyms.get(result.pseudonym)
        if public_key is None:
            raise BadPseudonymSignature("unknown pseudonym handle")
        ctx = pseudonym_context(self.group_id, epoch, result.message)
        if not verify(public_key, signature, ctx):
            raise BadPseudonymSignature("pseudonym signature does not verify")

    def send(self, message: bytes) -> bytes:
        """Broadcast under the stored group key; self-heals the channel by
        rotating to a fresh node key, erasing the old one."""
        if self.group_public_key is None:
            raise NotInGroup(f"{self.chatbot_id!r} has no group key")
        seed = random_secret()
        node = pke_keygen(seed)
        message_key = derive(seed, MSG_KEY)
        ciphertext = sym_encrypt(message_key, message)
        sealed = pke_seal(self.group_public_key, message_key)
        self.node_key = node
        return BotMessage(group_id=self.group_id, chatbot_id=self.chatbot_id,
                          ciphertext=ciphertext, sealed_key=sealed,
                          node_public_key=node.public_key).to_bytes()

    def snapshot(self) -> dict:
        def hx(b: bytes | None):
            return b.hex() if b is not None else None

        return {
            "kind": "chatbot",
            "id": self.chatbot_id,
            "group_id": self.group_id,
            "group_public_key": hx(self.group_public_key),
            "node": None if self.node_key is None else {
                "secret_key": hx(self.node_key.secret_key),
                "public_key": hx(self.node_key.public_key),
            },
            "identity_enc": {
                "secret_key": hx(self.enc_identity.secret_key),
                "public_key": hx(self.enc_identity.public_key),
            },
            "identity_sig": {
                "secret_key": hx(self.sig_identity.secret_key),
                "public_key": hx(self.sig_identity.public_key),
            },
            "pseudonyms": {h.hex(): pk.hex()
                           for h, pk in sorted(self.pseudonyms.items())},
        }


def chatbot_init(chatbot_id: str, rules: tuple[TriggerRule, ...]) -> ChatbotState:
    """Long-term identities plus the signed registration to publish."""
    enc_identity = pke_keygen(random_secret())
    sig_identity = sign_keygen(random_secret())
    registration = make_registration(chatbot_id, enc_identity.public_key,
                                     sig_identity.secret_key,
                                     sig_identity.public_key, rules)
    return ChatbotState(chatbot_id=chatbot_id, enc_identity=enc_identity,
                        sig_identity=sig_identity, registration=registration)


def user_init(cgka_state: CgkaState, registry: BotLookup) -> UserState:
    return UserState(cgka=cgka_state, registry=registry)
