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
encoded independently of the user view, never sliced out of it. The sealed
keys travel in the chatbot view alone; a member's view carries no chatbot
boxes, since members never open them and work out the addressed set from
the group-public triggers. A send's chatbot entries are one batch of boxes
(`primitives.pke_seal_batch`): the view carries the batch's ephemeral
public key once, then per entry a chatbot id, the entry's position in the
batch and a BOX_LEN box bound to that position, or a dummy of the same
width. A send whose batch has entries, dummies only included, carries a
genuine ephemeral; one without carries NO_EPHEMERAL. A chatbot reply's
sealed key and an attach control's sealed seed are single seals,
SEALED_LEN wide.

A chatbot view is a header (group id, epoch) and a list of at most one
body: the ciphertext, the group public key, the batch ephemeral and the
entries. The sender builds one chatbot view, its body holding every
entry. Which view each recipient of a bundle is sent is decided here,
by `project_view`, and the provider delivers what it returns: each
chatbot that an entry names gets the header and a body with only its own
entries, as an add's newcomer alone gets its welcome. Every other chatbot
gets one shared notice, the header without a body: it could open nothing
in the body, so it is not sent the ciphertext at all. So a chatbot's view
has the same length whatever the number of bots a send reaches, and all
a chatbot learns about the others is its own entry's position: its rank
among the bots of the batch.

A member is sent only the path entries it could open, in the same way.
Every view that carries a tree control (a user view, a wrapped control)
reaches each member with the control cut to the entries sealed into that
member's copath level of the sender (`cgka.slices_by_level`); the
provider names each member's level by its seat, the leaf the member's
tree gives it. Members of one level share one view. On a full tree each
level is one entry, so a member's view has one length whatever the
group's size.

Wire types, each declared once by its `wire` decorator below (field
order and kinds), and the payloads inside the ciphertext as `Record`s:
    0x10 user message, user view:     0x11 user message, chatbot view:
         control sliced per level          header, at most one body
    0x12 chatbot message              0x13 add-chatbot control
    0x14 remove-chatbot control       0x15 wrapped tree control, sliced
                                           per level, at most one welcome

A member reads the group id and epoch from the tree control alone: its
user views and wrapped controls carry no copy. The control's root slot is
no key but the confirmation of the group secret (see `cgka`), and a
member builds the group key pair from that secret only when it uses it:
to send or to attach a chatbot. A fired chatbot's record keeps the group
secret key alone, and builds its pair only to open a reply. The
chatbot view, which has no control, states each group fact itself: the
group id and epoch in its header, the group public key in its body.

A wrapped tree control ends in a list of at most one newcomer section;
only an add's has one: the welcome (the public tree the add was built on)
and the chatbot roster. `project_view` gives that section to the newcomer
alone, with the newcomer's slice; every other member gets its slice with
an empty list, so what an add costs each of them is the path entries of
its level, not the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, Union

from .cgka import CgkaControl, CgkaState, copath_level, hx, slices_by_level
from .encoding import (
    BOX,
    BYTES,
    KEY,
    SEALED,
    SIGNATURE,
    TEXT,
    U8,
    U32,
    Record,
    Writer,
    at_most_one,
    items,
    peek_type,
    wire,
)
from .errors import (
    BadPseudonymSignature,
    BadSignature,
    DecryptFailed,
    DuplicateChatbot,
    MalformedControl,
    NoChatbots,
    NoGroup,
    NotMember,
    NotPresent,
    PseudonymNotRegistered,
)
from .primitives import (
    HANDLE,
    MSG_KEY,
    KeyPair,
    derive,
    pke_key_pair,
    pke_keygen,
    pke_open,
    pke_seal,
    pke_seal_batch,
    pke_secret_key,
    random_secret,
    sign,
    sign_keygen,
    sym_decrypt,
    sym_encrypt,
    verify,
)
from .triggers import (
    BotRegistration,
    TriggerIndex,
    TriggerRule,
    TriggerSpec,
    make_registration,
)

VIEW_USER_MESSAGE = 0x10
VIEW_CHATBOT_MESSAGE = 0x11
BOT_MESSAGE = 0x12
ADD_BOT = 0x13
REMOVE_BOT = 0x14
GROUP_CONTROL = 0x15

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


def _handler(handlers: dict[int, str], view: bytes) -> tuple[int, str]:
    """The type byte of `view` and the name of the handler `handlers` runs
    on it; a type the party kind does not handle is malformed."""
    kind = peek_type(view)
    name = handlers.get(kind)
    if name is None:
        raise MalformedControl(f"no handler for view type 0x{kind:02x}")
    return kind, name


def _dispatch(party, handlers: dict[int, str], view: bytes):
    _, name = _handler(handlers, view)
    return getattr(party, name)(view)


@dataclass
class ChatbotRecord:
    """A user's per-chatbot bookkeeping: O(1) per chatbot. It keeps the
    group secret key of the last epoch that addressed the chatbot, a hash
    of that epoch's group secret, and builds its key pair only to open a
    reply: the base multiplication is paid by a member that reads a reply,
    not by every member for every message that fires a chatbot."""

    trigger: TriggerSpec
    channel_secret_key: bytes | None  # group secret key at last addressing
    bot_public_key: bytes             # the chatbot's current channel key
    # the key pair of `channel_secret_key`, once a reply has been opened
    channel_pair: KeyPair | None = field(default=None, repr=False, compare=False)


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

_PLAIN = Record(("message", BYTES), type_byte=0x01)
_PSEUDONYMOUS = Record(("message", BYTES), ("handle", KEY), ("signature", SIGNATURE),
                       type_byte=0x02)
_REGISTRATION = Record(("public_key", KEY), type_byte=0x03)
_PAYLOADS = {record.type_byte: record
             for record in (_PLAIN, _PSEUDONYMOUS, _REGISTRATION)}

# what a pseudonymous payload's signature covers
_PSEUDONYM_CONTEXT = Record(("group_id", TEXT), ("epoch", U32), ("message", BYTES),
                            type_byte=0x30)


def _encode_plain(message: bytes) -> bytes:
    return _PLAIN.encode((message,))

def _encode_pseudonymous(message: bytes, handle: bytes, signature: bytes) -> bytes:
    return _PSEUDONYMOUS.encode((message, handle, signature))

def _encode_registration(public_key: bytes) -> bytes:
    return _REGISTRATION.encode((public_key,))


def pseudonym_context(group_id: str, epoch: int, message: bytes) -> bytes:
    """The signed binding for pseudonymous payloads; epoch is in it so a
    payload replayed into a different epoch cannot verify."""
    return _PSEUDONYM_CONTEXT.encode((group_id, epoch, message))


# ---------------------------------------------------------------------------
# bundle encodings
# ---------------------------------------------------------------------------

@wire(VIEW_USER_MESSAGE, ("flags", U8), ("control", BYTES), ("ciphertext", BYTES))
@dataclass(frozen=True)
class UserMessageView:
    """A member's view of a message. The group id and epoch are the
    embedded control's: its group id and its epoch plus one. The root slot
    of its `new_public_path` confirms the group secret; the group public
    key is no field of it, since a member builds that key pair from the
    secret. It carries no chatbot boxes: members work out the addressed
    chatbots from the group-public triggers. A flag bit that is not
    defined is malformed, so the flags byte has one meaning."""

    flags: int
    control: bytes
    ciphertext: bytes

    def __post_init__(self) -> None:
        if self.flags & ~_FLAG_ADDRESS_ALL:
            raise MalformedControl(f"undefined message flags 0x{self.flags:02x}")


# A chatbot view's entry: the box at `position` of the batch, which is the
# message key sealed to the named chatbot under the batch's ephemeral key
# and bound to that position, or a concealment dummy of the same width.
_ENTRY = Record(("chatbot_id", TEXT), ("position", U32), ("box", BOX))


@dataclass(frozen=True)
class ChatbotViewBody:
    """What an addressed chatbot reads: the message and the keys to open
    its entry and to reply."""

    ciphertext: bytes
    group_public_key: bytes
    ephemeral: bytes                             # the entries' batch ephemeral key
    entries: tuple[tuple[str, int, bytes], ...]  # (chatbot id, position, box or dummy)


_BODY = Record(("ciphertext", BYTES), ("group_public_key", KEY), ("ephemeral", KEY),
               ("entries", items(_ENTRY, into=tuple)), build=ChatbotViewBody)


@wire(VIEW_CHATBOT_MESSAGE, ("group_id", TEXT), ("epoch", U32),
      ("body", at_most_one(_BODY)))
@dataclass(frozen=True)
class ChatbotMessageView:
    """A chatbot's view of a message: the header, then a body for a
    chatbot that an entry names. Every other chatbot gets the header alone,
    a notice that a message was sent, with nothing it could open."""

    group_id: str
    epoch: int
    body: ChatbotViewBody | None = None


def chatbot_view_shape(data: bytes) -> tuple:
    """Field-length vector of a chatbot view, for structural comparison."""
    (layout,) = ChatbotMessageView.wire_layouts.values()
    return layout.shape(ChatbotMessageView.from_bytes(data))


@wire(BOT_MESSAGE, ("group_id", TEXT), ("chatbot_id", TEXT), ("ciphertext", BYTES),
      ("sealed_key", SEALED), ("node_public_key", KEY))
@dataclass(frozen=True)
class BotMessage:
    group_id: str
    chatbot_id: str
    ciphertext: bytes
    sealed_key: bytes
    node_public_key: bytes


@wire(ADD_BOT, ("group_id", TEXT), ("chatbot_id", TEXT), ("group_public_key", KEY),
      ("node_public_key", KEY), ("sealed_seed", SEALED))
@dataclass(frozen=True)
class AddBotControl:
    group_id: str
    chatbot_id: str
    group_public_key: bytes
    node_public_key: bytes
    sealed_seed: bytes


@wire(REMOVE_BOT, ("group_id", TEXT), ("chatbot_id", TEXT))
@dataclass(frozen=True)
class RemoveBotControl:
    group_id: str
    chatbot_id: str


@dataclass(frozen=True)
class Welcome:
    """An add's newcomer section: the public tree the add was built on,
    and the chatbot roster (id, current channel key) to admit."""

    tree: bytes
    roster: tuple[tuple[str, bytes], ...] = ()


_WELCOME = Record(("tree", BYTES),
                  ("roster", items(Record(("chatbot_id", TEXT), ("key", KEY)), into=tuple)),
                  build=Welcome)


@wire(GROUP_CONTROL, ("control", BYTES), ("welcome", at_most_one(_WELCOME)))
@dataclass(frozen=True)
class GroupControl:
    """A tree control for users. An add's also carries the welcome for its
    newcomer, which the provider delivers to the newcomer alone."""

    control: bytes
    welcome: Welcome | None = None


# type byte -> name of the handler each party kind runs on a delivered view;
# looked up on the instance, so a handler replaced on the class is called
_USER_HANDLERS = {
    GROUP_CONTROL: "process_group_control",
    VIEW_USER_MESSAGE: "process_user_message",
    ADD_BOT: "process_add_chatbot",
    REMOVE_BOT: "process_remove_chatbot",
    BOT_MESSAGE: "receive_from_chatbot",
}
_BOT_HANDLERS = {
    VIEW_CHATBOT_MESSAGE: "receive",
    ADD_BOT: "process_add",
    REMOVE_BOT: "process_remove",
}
# the outer record of each view type
_RECORDS = {GROUP_CONTROL: GroupControl, VIEW_USER_MESSAGE: UserMessageView,
            VIEW_CHATBOT_MESSAGE: ChatbotMessageView, ADD_BOT: AddBotControl,
            REMOVE_BOT: RemoveBotControl, BOT_MESSAGE: BotMessage}


# where a view that carries a tree control holds the control's length
# prefix: after the type byte, and after a user message's flags
_CONTROL_AT = {VIEW_USER_MESSAGE: 2, GROUP_CONTROL: 1}
_NO_WELCOME = bytes(4)  # a wrapped control's empty list of newcomer sections


def project_view(data: bytes, handlers: dict[int, str],
                 seats: dict[int, str] | None = None) -> tuple[bytes, dict[str, bytes]]:
    """What each recipient of `data` is sent, for the party kind that runs
    `handlers`: the view all recipients share, and each recipient's own
    view where it gets another. A view that carries a tree control goes to
    each member of `seats` (leaf -> member id) but the control's sender
    with only the path entries it could open: those sealed into its copath
    level's subtree (`cgka.slices_by_level`); members of one level share
    one view, and the shared view holds no entries. An add's newcomer alone
    also gets the welcome (RFC 9420 sends a Welcome to new members only).
    Of a chatbot message view, each chatbot with an entry gets the header
    and a body with only its own entries, whose boxes open as in the whole
    view since the entry keeps its position; the rest share the notice,
    the header alone. Any other view goes to all alike. Decodes the outer
    record once, so a type no such party handles, or a view that does not
    decode, raises before anything is delivered."""
    kind, _ = _handler(handlers, data)
    view = _RECORDS[kind].from_bytes(data)
    if kind in _CONTROL_AT:
        return _project_control(kind, data, view, seats or {})
    if kind == VIEW_CHATBOT_MESSAGE:
        notice = ChatbotMessageView(group_id=view.group_id, epoch=view.epoch).to_bytes()
        if view.body is None:
            return notice, {}
        # the entries are the last field: without them the view ends in the
        # 4-byte count of an empty list
        head = replace(view, body=replace(view.body, entries=())).to_bytes()[:-4]
        named: dict[str, list[tuple[str, int, bytes]]] = {}
        for entry in view.body.entries:
            named.setdefault(entry[0], []).append(entry)
        return notice, {cid: head + Writer().items(own, _ENTRY.write).done()
                        for cid, own in named.items()}
    return data, {}


def _project_control(kind: int, data: bytes, view: UserMessageView | GroupControl,
                     seats: dict[int, str]) -> tuple[bytes, dict[str, bytes]]:
    """`project_view` of a view carrying a tree control: each view is `data`
    with the control's bytes swapped for a slice, and a wrapped control's
    newcomer section kept for the newcomer alone."""
    control, slices = slices_by_level(view.control)
    at = _CONTROL_AT[kind]
    tail = newcomer_tail = data[at + 4 + len(view.control):]
    newcomer = None
    if kind == GROUP_CONTROL:
        is_add = control.kind == "add"
        if is_add != (view.welcome is not None):
            raise MalformedControl("a welcome goes with an add, and only with one")
        newcomer = control.new_member_id if is_add else None
        tail = _NO_WELCOME

    def wrap(level: int | None, tail: bytes = tail) -> bytes:
        part = slices.get(level, slices[None])
        return data[:at] + len(part).to_bytes(4, "big") + part + tail

    sender = control.sender_leaf
    levels = {uid: copath_level(leaf, sender) for leaf, uid in seats.items()
              if leaf != sender}
    views = {level: wrap(level) for level in set(levels.values())}
    own = {uid: views[level] for uid, level in levels.items()}
    if newcomer is not None:
        if newcomer not in own:
            raise NotMember(f"the add's newcomer {newcomer!r} has no seat")
        own[newcomer] = wrap(levels[newcomer], newcomer_tail)
    return wrap(None), own


# ---------------------------------------------------------------------------
# user state
# ---------------------------------------------------------------------------

@dataclass
class UserState:
    cgka: CgkaState
    registry: BotLookup
    records: dict[str, ChatbotRecord] = field(default_factory=dict)
    pseudonym: Pseudonym | None = None
    # derived from `records`; each writer of `records` calls `_reindex`
    _triggers: TriggerIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._reindex()

    @property
    def member_id(self) -> str:
        return self.cgka.member_id

    @property
    def group_id(self) -> str | None:
        return self.cgka.group_id

    @property
    def epoch(self) -> int:
        return self.cgka.epoch

    def process(self, view: bytes) -> ReceiveResult | bytes | None:
        """Apply one delivered view, routed by its type byte. Returns the
        handler's result: the ReceiveResult of a user message, the plaintext
        of a chatbot reply, None for a control."""
        return _dispatch(self, _USER_HANDLERS, view)

    # -- group membership (tree controls pass through) ----------------------

    def create_group(self, group_id: str, member_ids: list[str]) -> bytes:
        ctl = self.cgka.create(group_id, member_ids)
        return self._apply(GroupControl(control=ctl.to_bytes()))

    def add_user(self, member_id: str) -> bytes:
        ctl = self.cgka.add(member_id)
        roster = tuple((cid, self.records[cid].bot_public_key)
                       for cid in sorted(self.records))
        welcome = Welcome(tree=self.cgka.tree.to_public_bytes(), roster=roster)
        return self._apply(GroupControl(control=ctl.to_bytes(), welcome=welcome))

    def remove_user(self, member_id: str) -> bytes:
        ctl = self.cgka.remove(member_id)
        return self._apply(GroupControl(control=ctl.to_bytes()))

    def update_keys(self) -> bytes:
        ctl = self.cgka.update()
        return self._apply(GroupControl(control=ctl.to_bytes()))

    def process_group_control(self, data: bytes) -> None:
        wrapped = GroupControl.from_bytes(data)
        welcome = wrapped.welcome or Welcome(tree=b"")
        roster = {}
        if self.cgka.tree is None:
            # Newcomer: admit the chatbot roster before joining. No channel
            # key yet; the next message addressing each chatbot refreshes it.
            roster = {cid: self._admit(cid, bot_pk, None)
                      for cid, bot_pk in welcome.roster}
        self.cgka.process(CgkaControl.from_bytes(wrapped.control), welcome.tree)
        if roster:
            self.records.update(roster)
            self._reindex()

    # -- chatbot membership ---------------------------------------------------

    def add_chatbot(self, chatbot_id: str) -> bytes:
        self._require_group()
        reg = self.registry.lookup_bot(chatbot_id)
        seed = random_secret()
        node = pke_keygen(seed)
        sealed = pke_seal(reg.enc_public_key, seed)
        return self._apply(AddBotControl(
            group_id=self.group_id, chatbot_id=chatbot_id,
            group_public_key=self.cgka.group_key_pair.public_key,
            node_public_key=node.public_key, sealed_seed=sealed))

    def process_add_chatbot(self, data: bytes) -> None:
        ctl = AddBotControl.from_bytes(data)
        self._check_group(ctl.group_id)
        self.records[ctl.chatbot_id] = self._admit(
            ctl.chatbot_id, ctl.node_public_key, pke_secret_key(self.cgka.group_secret))
        self._reindex()

    def remove_chatbot(self, chatbot_id: str) -> bytes:
        self._require_group()
        return self._apply(RemoveBotControl(group_id=self.group_id,
                                            chatbot_id=chatbot_id))

    def process_remove_chatbot(self, data: bytes) -> None:
        ctl = RemoveBotControl.from_bytes(data)
        self._check_group(ctl.group_id)
        if ctl.chatbot_id not in self.records:
            raise NotPresent(f"{ctl.chatbot_id!r} is not attached")
        del self.records[ctl.chatbot_id]
        self._reindex()

    def _apply(self, bundle: GroupControl | AddBotControl | RemoveBotControl) -> bytes:
        """Apply a control this user built through `process`, the handler
        its receivers run; returns the bytes to publish."""
        data = bundle.to_bytes()
        self.process(data)
        return data

    def _admit(self, chatbot_id: str, bot_public_key: bytes,
               channel_secret_key: bytes | None) -> ChatbotRecord:
        """The one chatbot admission: not yet attached, registered, and its
        registration signed."""
        if chatbot_id in self.records:
            raise DuplicateChatbot(f"{chatbot_id!r} already attached")
        reg = self.registry.lookup_bot(chatbot_id)
        if not reg.verify_signature():
            raise BadSignature(f"registration for {chatbot_id!r} does not verify")
        return ChatbotRecord(trigger=reg.trigger, channel_secret_key=channel_secret_key,
                             bot_public_key=bot_public_key)

    def _reindex(self) -> None:
        """Rebuild the trigger index from `records`, after any edit of them."""
        self._triggers = TriggerIndex({cid: record.trigger
                                       for cid, record in self.records.items()})

    # -- messaging --------------------------------------------------------------

    def send(self, message: bytes, conceal: bool = False,
             address_all: bool = False, pseudonymous: bool = False) -> SendOutcome:
        """One group message: embedded tree update, per-message key sealed
        to exactly the addressed chatbots (plus same-size dummies for the
        rest when concealing)."""
        self._require_group()
        if pseudonymous and self.pseudonym is None:
            raise PseudonymNotRegistered("broadcast a pseudonym key first")
        if pseudonymous:
            ctx = pseudonym_context(self.group_id, self.epoch + 1, message)
            payload = _encode_pseudonymous(message, self.pseudonym.handle,
                                           sign(self.pseudonym.key, ctx))
        else:
            payload = _encode_plain(message)
        return self._send_raw(payload, trigger_message=message,
                              conceal=conceal, address_all=address_all)

    def register_pseudonym(self) -> SendOutcome:
        """Broadcast a fresh pseudonym key to every chatbot; replaces and
        erases any previous pseudonym secret."""
        self._require_group()
        if not self.records:
            raise NoChatbots("no chatbot to register a pseudonym with")
        key = sign_keygen(random_secret())
        handle = derive(key.public_key, HANDLE)
        outcome = self._send_raw(_encode_registration(key.public_key),
                                 trigger_message=None, conceal=False,
                                 address_all=True)
        self.pseudonym = Pseudonym(key=key, handle=handle)
        return outcome

    def _send_raw(self, payload: bytes, trigger_message: bytes | None,
                  conceal: bool, address_all: bool) -> SendOutcome:
        """Publishable views of `payload`, sent at epoch `self.epoch + 1`."""
        # A send commits when it is built rather than through `process`:
        # decoding its own view would add one counted `derive` and one
        # counted `sym_decrypt` per send.
        ctl = self.cgka.update()
        group_key = self.cgka.process(ctl)
        epoch = self.cgka.epoch
        message_key = derive(group_key, MSG_KEY)
        ciphertext = sym_encrypt(message_key, payload)

        fired = self._rotate(trigger_message, address_all)
        roster = [(cid, record) for cid, record in sorted(self.records.items())
                  if cid in fired or conceal]
        ephemeral, boxes = pke_seal_batch(
            [(record.bot_public_key, message_key) if cid in fired else None
             for cid, record in roster])
        entries = tuple((cid, position, box)
                        for position, ((cid, _), box) in enumerate(zip(roster, boxes)))

        flags = _FLAG_ADDRESS_ALL if address_all else 0
        user_view = UserMessageView(flags=flags, control=ctl.to_bytes(),
                                    ciphertext=ciphertext)
        chatbot_view = ChatbotMessageView(
            group_id=self.group_id, epoch=epoch, body=ChatbotViewBody(
                ciphertext=ciphertext,
                group_public_key=self.cgka.group_key_pair.public_key,
                ephemeral=ephemeral, entries=entries))
        return SendOutcome(user_view=user_view.to_bytes(),
                           chatbot_view=chatbot_view.to_bytes(), epoch=epoch,
                           addressed=tuple(cid for cid, _ in roster if cid in fired),
                           concealed=tuple(cid for cid, _ in roster if cid not in fired))

    def process_user_message(self, data: bytes) -> ReceiveResult:
        """Apply another user's message: advance the tree, read the payload,
        and refresh exactly the records whose triggers the message fires
        (the view names no chatbot, so no sender claim decides that). A
        message embeds an update and no other control: membership changes
        travel as tree controls, which the provider routes by. The control
        commits only
        once the message has been read under its staged root, so a message
        that fails any check changes nothing."""
        view = UserMessageView.from_bytes(data)
        self._require_group()
        control = CgkaControl.from_bytes(view.control)
        if control.kind != "update":
            raise MalformedControl(f"a message embeds an update, not a {control.kind}")
        # `stage` refuses another group or epoch, and checks every key the
        # control's path derives, up to the confirmation at its root
        staged = self.cgka.stage(control)
        message_key = derive(staged.group_secret, MSG_KEY)
        payload = sym_decrypt(message_key, view.ciphertext)
        result, _signature = _parse_payload(payload)
        self.cgka.commit(staged)
        message = result.message if isinstance(result, ReceivedMessage) else None
        self._rotate(message, bool(view.flags & _FLAG_ADDRESS_ALL))
        return result

    def _rotate(self, message: bytes | None, address_all: bool) -> set[str]:
        """The one addressing rule, shared by the sender and its receivers:
        `address_all`, or the record's trigger fires on the message. Moves
        each addressed record's channel to the group secret key of the
        epoch just committed; returns their ids."""
        if address_all:
            fired = set(self.records)
        elif message is None:
            fired = set()
        else:
            fired = self._triggers.fired(message)
        if fired:
            secret_key = pke_secret_key(self.cgka.group_secret)
            for cid in fired:
                # the old key's pair goes with it
                record = self.records[cid]
                record.channel_secret_key, record.channel_pair = secret_key, None
        return fired

    def receive_from_chatbot(self, data: bytes) -> bytes:
        msg = BotMessage.from_bytes(data)
        self._check_group(msg.group_id)
        record = self.records.get(msg.chatbot_id)
        if record is None:
            raise NotPresent(f"no record of {msg.chatbot_id!r}")
        if record.channel_secret_key is None:
            raise DecryptFailed("no channel key for this chatbot yet")
        if record.channel_pair is None:
            record.channel_pair = pke_key_pair(record.channel_secret_key)
        message_key = pke_open(record.channel_pair, msg.sealed_key)
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
        return {
            "kind": "user",
            "id": self.member_id,
            "group": self.cgka.snapshot(),
            "records": {
                cid: {
                    "trigger": rec.trigger.canonical_bytes().hex(),
                    "channel_secret_key": hx(rec.channel_secret_key),
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
    record = _PAYLOADS.get(peek_type(payload))
    if record is None:
        raise MalformedControl("unknown payload tag")
    values = record.decode(payload)
    if record is _REGISTRATION:
        return PseudonymRegistration(*values), None
    if record is _PSEUDONYMOUS:
        return ReceivedMessage(*values[:2]), values[2]
    return ReceivedMessage(*values), None


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

    def process(self, view: bytes) -> ReceiveResult | None:
        """Apply one delivered view, routed by its type byte. Returns the
        ReceiveResult of a user message view, None for a control."""
        return _dispatch(self, _BOT_HANDLERS, view)

    def process_add(self, data: bytes) -> None:
        ctl = AddBotControl.from_bytes(data)
        if ctl.chatbot_id != self.chatbot_id:
            raise MalformedControl("add control for a different chatbot")
        if self.group_id is not None:
            raise DuplicateChatbot(f"{self.chatbot_id!r} already holds {self.group_id!r}")
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
        if ctl.group_id != self.group_id:
            raise MalformedControl("remove control for a different group")
        self.group_id = None
        self.group_public_key = None
        self.node_key = None
        self.pseudonyms.clear()

    def receive(self, data: bytes) -> ReceiveResult:
        """Read a user message view. A notice without a body, an absent
        entry and an undecryptable entry all return NOT_ADDRESSED (the same
        object); nothing is retained in any of these cases."""
        if self.node_key is None or self.group_public_key is None:
            raise NoGroup(f"{self.chatbot_id!r} is not in a group")
        view = ChatbotMessageView.from_bytes(data)
        if view.group_id != self.group_id:
            raise MalformedControl("view for a different group")
        body = view.body
        if body is None:
            return NOT_ADDRESSED

        for cid, position, box in body.entries:
            if cid == self.chatbot_id:
                break
        else:
            return NOT_ADDRESSED
        try:
            message_key = pke_open(self.node_key, box, body.ephemeral, position)
        except DecryptFailed:
            return NOT_ADDRESSED

        result, signature = _parse_payload(sym_decrypt(message_key, body.ciphertext))
        if isinstance(result, ReceivedMessage) and result.pseudonym is not None:
            self._verify_pseudonymous(view.epoch, result, signature)
        elif isinstance(result, PseudonymRegistration):
            handle = derive(result.public_key, HANDLE)
            self.pseudonyms[handle] = result.public_key
            result = PseudonymRegistration(public_key=result.public_key,
                                           handle=handle)
        self.group_public_key = body.group_public_key
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
            raise NoGroup(f"{self.chatbot_id!r} has no group key")
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
                                     sig_identity, rules)
    return ChatbotState(chatbot_id=chatbot_id, enc_identity=enc_identity,
                        sig_identity=sig_identity, registration=registration)


def user_init(cgka_state: CgkaState, registry: BotLookup) -> UserState:
    return UserState(cgka=cgka_state, registry=registry)
