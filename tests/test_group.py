"""Protocol layer: selective chatbot access, concealment, channels, pseudonyms.

The recurring oracle here is key agreement plus record consistency: after any
sequence of operations, every live user holds the same group secret, and a
chatbot can decrypt exactly the messages whose triggers its registration
fires on (or that were explicitly addressed to everyone).
"""

import json
from dataclasses import replace

import pytest

from chatgate import cgka, counters, group as group_module, primitives, tree as treemod
from chatgate.cgka import CgkaControl, InitKeyDirectory
from chatgate.encoding import Writer
from chatgate.errors import (
    BadPseudonymSignature,
    BadSignature,
    ChatGateError,
    DecryptFailed,
    DuplicateChatbot,
    FutureEpoch,
    MalformedControl,
    NoChatbots,
    NoGroup,
    NotPresent,
    PseudonymNotRegistered,
    UnknownChatbot,
)
from chatgate.group import (
    _BOT_HANDLERS,
    NOT_ADDRESSED,
    AddBotControl,
    BotMessage,
    ChatbotMessageView,
    ChatbotState,
    GroupControl,
    PseudonymRegistration,
    ReceivedMessage,
    RemoveBotControl,
    SendOutcome,
    UserMessageView,
    UserState,
    chatbot_init,
    chatbot_view_shape,
    project_view,
    user_init,
)
from chatgate.harness import bench, probes
from chatgate.primitives import (
    BOX_LEN,
    MSG_KEY,
    NO_EPHEMERAL,
    derive,
    pke_open,
    seeded,
    sym_encrypt,
)
from chatgate.triggers import rules_from_text
from test_cgka import WRONG_WIDTHS


class DictRegistry:
    """Minimal stand-in for the provider's registration store."""

    def __init__(self):
        self._bots = {}

    def register(self, registration):
        self._bots[registration.chatbot_id] = registration

    def lookup_bot(self, chatbot_id):
        if chatbot_id not in self._bots:
            raise UnknownChatbot(f"no registration for {chatbot_id!r}")
        return self._bots[chatbot_id]


def build_group(n, bots=(), group_id="grp-main"):
    """n users in a group, with the given (chatbot_id, rules_text) attached.

    Returns (users dict, bots dict, registry). users[0]'s id is 'user-00'.
    """
    registry = DictRegistry()
    directory = InitKeyDirectory()
    ids = [f"user-{i:02d}" for i in range(n)]
    users = {}
    for uid in ids:
        users[uid] = user_init(cgka.init(uid, directory), registry)

    creator = users[ids[0]]
    blob = creator.create_group(group_id, ids)
    for uid in ids[1:]:
        users[uid].process_group_control(blob)

    bot_states = {}
    for cid, rules_text in bots:
        bot = chatbot_init(cid, rules_from_text(rules_text))
        registry.register(bot.registration)
        blob = creator.add_chatbot(cid)
        for uid in ids[1:]:
            users[uid].process_add_chatbot(blob)
        bot.process_add(blob)
        bot_states[cid] = bot
    return users, bot_states, registry


def deliver(users, sender_id, outcome):
    """Hand the user view to every user except the sender; returns results."""
    results = {}
    for uid, user in users.items():
        if uid != sender_id:
            results[uid] = user.process_user_message(outcome.user_view)
    return results


def assert_agreement(users):
    secrets = {u.cgka.group_secret for u in users.values()}
    epochs = {u.epoch for u in users.values()}
    assert len(secrets) == 1 and None not in secrets
    assert len(epochs) == 1


# -- plain send/receive -------------------------------------------------------

def test_triggered_message_reaches_chatbot():
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"hey @echo say hi")
    assert out.addressed == ("echo-bot-01",)
    assert out.concealed == ()

    results = deliver(users, "user-00", out)
    for res in results.values():
        assert res == ReceivedMessage(b"hey @echo say hi")
    got = bots["echo-bot-01"].receive(out.chatbot_view)
    assert got == ReceivedMessage(b"hey @echo say hi")
    assert_agreement(users)


def test_untriggered_message_hidden_from_chatbot():
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-01"].send(b"private chat, no bots")
    assert out.addressed == ()

    deliver(users, "user-01", out)
    res = bots["echo-bot-01"].receive(out.chatbot_view)
    assert res is NOT_ADDRESSED
    assert_agreement(users)


def test_users_always_read_the_message():
    users, bots, _ = build_group(4, bots=[("echo-bot-01", "mention:@echo")])
    for i, text in enumerate([b"no bot here", b"@echo ping", b"again nothing"]):
        sender = f"user-{i:02d}"
        out = users[sender].send(text)
        results = deliver(users, sender, out)
        assert all(r == ReceivedMessage(text) for r in results.values())
    assert_agreement(users)


def test_multiple_bots_selective_addressing():
    users, bots, _ = build_group(
        2, bots=[("echo-bot-01", "mention:@echo"),
                 ("memo-bot-02", "contains:remember")])
    out = users["user-00"].send(b"@echo please remember this")
    assert out.addressed == ("echo-bot-01", "memo-bot-02")

    out2 = users["user-00"].send(b"remember the milk")
    assert out2.addressed == ("memo-bot-02",)
    assert bots["echo-bot-01"].receive(out2.chatbot_view) is NOT_ADDRESSED
    assert bots["memo-bot-02"].receive(out2.chatbot_view) == ReceivedMessage(
        b"remember the milk")


def test_send_without_group():
    registry = DictRegistry()
    user = user_init(cgka.init("user-00", InitKeyDirectory()), registry)
    with pytest.raises(NoGroup):
        user.send(b"hello")


# -- concealment --------------------------------------------------------------

def test_concealed_entries_pad_to_full_roster():
    users, bots, _ = build_group(
        2, bots=[("echo-bot-01", "mention:@echo"),
                 ("memo-bot-02", "contains:remember"),
                 ("log-bot-03", "never")])
    out = users["user-00"].send(b"@echo hi", conceal=True)
    assert out.addressed == ("echo-bot-01",)
    assert set(out.concealed) == {"memo-bot-02", "log-bot-03"}

    from chatgate.group import ChatbotMessageView
    view = ChatbotMessageView.from_bytes(out.chatbot_view).body
    assert len(view.entries) == 3
    assert [position for _, position, _ in view.entries] == [0, 1, 2]
    assert all(len(box) == BOX_LEN for _, _, box in view.entries)

    # absent entry and dummy entry give back the very same sentinel
    plain = users["user-01"].send(b"@echo hi again")  # no concealment
    assert bots["log-bot-03"].receive(out.chatbot_view) is NOT_ADDRESSED
    assert bots["log-bot-03"].receive(plain.chatbot_view) is NOT_ADDRESSED


def test_concealment_dummies_cannot_be_told_from_boxes():
    # A box is an AEAD ciphertext and a dummy is random bytes of its width,
    # so no bit position sets them apart. (A box that began with its own
    # X25519 key never had the top bit of byte 31 set; half the dummies
    # did.) 100 concealed sends: 200 boxes and 400 dummies.
    with seeded(5):
        world = bench.World(4, 0)
        for i in range(6):
            world.attach_bot(f"bot-{i}", "always" if i < 2 else "never")
        sender = world.users["user-000"]
        boxes, dummies = [], []
        for _ in range(100):
            out = sender.send(b"to two of six", conceal=True)
            entries = {cid: box for cid, _, box
                       in ChatbotMessageView.from_bytes(out.chatbot_view).body.entries}
            boxes += [entries[cid] for cid in out.addressed]
            dummies += [entries[cid] for cid in out.concealed]
    assert (len(boxes), len(dummies)) == (200, 400)
    (width,) = {len(entry) for entry in boxes + dummies}
    for bit in range(8 * width):
        for entries in (boxes, dummies):
            share = sum(entry[bit // 8] >> (bit % 8) & 1 for entry in entries)
            assert 0.3 < share / len(entries) < 0.7, bit


def test_view_draws_an_ephemeral_only_for_entries():
    # A view of dummies only carries a genuine ephemeral, like one with a
    # box; a view with no entries has no body, so it carries no ephemeral
    # and draws no key pair, and the sender builds no group key pair for
    # it. The sender's 2-node path and its control's one-entry batch draw
    # 2; a body adds its ephemeral and the group key pair it names.
    users, _, _ = build_group(
        2, bots=[("echo-bot-01", "mention:@echo"), ("log-bot-02", "never")])
    seen = []
    for message, conceal in ((b"plain", False), (b"plain", True), (b"@echo hi", False)):
        ops = counters.OpCounters()
        with counters.collect(ops):
            out = users["user-00"].send(message, conceal=conceal)
        body = ChatbotMessageView.from_bytes(out.chatbot_view).body
        assert (body is None) == (not out.addressed and not out.concealed)
        entries, ephemeral = (body.entries, body.ephemeral) if body else ((), NO_EPHEMERAL)
        seen.append((len(entries), ops.total("pke_keygen"),
                     probes._is_public_key(ephemeral)))
        if not entries:
            assert ephemeral == NO_EPHEMERAL
    assert seen == [(0, 2, False), (2, 4, True), (1, 4, True)]


def test_view_naming_one_bot_key_twice_seals_each_box_under_its_own_key():
    # A forged bot reply can set one record's channel key to another bot's.
    # Under the zero nonce, one AEAD key over one payload gives one
    # ciphertext: the two boxes differ, so their keys do.
    users, bots, _ = build_group(
        2, bots=[("echo-bot-01", "always"), ("echo-bot-02", "always")])
    sender = users["user-00"]
    sender.records["echo-bot-02"].bot_public_key = (
        sender.records["echo-bot-01"].bot_public_key)
    view = ChatbotMessageView.from_bytes(sender.send(b"one key twice").chatbot_view).body
    (_, _, first), (_, _, second) = view.entries
    assert first != second
    key = bots["echo-bot-01"].node_key
    assert pke_open(key, first, view.ephemeral, 0) == pke_open(
        key, second, view.ephemeral, 1)
    with pytest.raises(DecryptFailed):
        pke_open(key, first, view.ephemeral, 1)


@pytest.mark.parametrize("edit", ["moved_entry", "other_ephemeral"])
def test_bot_box_opens_only_at_its_position_under_its_ephemeral(edit):
    users, bots, _ = build_group(
        2, bots=[("echo-bot-01", "always"), ("memo-bot-02", "always")])
    out = users["user-00"].send(b"for both")
    view = ChatbotMessageView.from_bytes(out.chatbot_view)
    body = view.body
    if edit == "moved_entry":
        # each bot's own box, with its position field rewritten to the other's
        (first, _, first_box), (second, _, second_box) = body.entries
        body = replace(body, entries=((first, 1, first_box), (second, 0, second_box)))
    else:
        other = ChatbotMessageView.from_bytes(users["user-00"].send(b"again").chatbot_view)
        body = replace(body, ephemeral=other.body.ephemeral)
    edited = replace(view, body=body)
    for bot in bots.values():
        assert bot.receive(edited.to_bytes()) is NOT_ADDRESSED
        assert bot.receive(out.chatbot_view) == ReceivedMessage(b"for both")


def test_send_keeps_no_batch_ephemeral_scalar(monkeypatch):
    # The scalar of each batch's ephemeral, the path entries' and the bot
    # boxes', is in no party's snapshot once the send is delivered.
    drawn = []
    real = primitives.pke_keygen

    def logged(seed):
        drawn.append(real(seed))
        return drawn[-1]

    with seeded(11):
        world = bench.World(4, 2)
        monkeypatch.setattr(primitives, "pke_keygen", logged)
        out = world.users["user-001"].send(b"two batches")
        world.publish("user-001", out.user_view, out.chatbot_view)
        world.deliver()
    control = CgkaControl.from_bytes(UserMessageView.from_bytes(out.user_view).control)
    ephemerals = {control.ephemeral,
                  ChatbotMessageView.from_bytes(out.chatbot_view).body.ephemeral}
    scalars = [kp.secret_key.hex() for kp in drawn if kp.public_key in ephemerals]
    assert len(scalars) == 2
    snapshots = [json.dumps(party.snapshot())
                 for party in (*world.users.values(), *world.bots.values())]
    # the sender keeps the path secrets the same send drew
    sender = json.dumps(world.users["user-001"].snapshot())
    assert all(kp.secret_key.hex() in sender
               for _, kp in world.users["user-001"].cgka.path.values())
    for scalar in scalars:
        assert not any(scalar in snapshot for snapshot in snapshots)


def test_member_view_carries_no_chatbot_box():
    # Every member got one box or dummy per addressed or concealed bot,
    # though no member ever opens one: the boxes travel only in the chatbot
    # view. Each view's batch of four boxes carries one ephemeral key.
    with seeded(7):
        world = bench.World(16, 4)
        first = world.users["user-000"].send(b"hello, four bots!", conceal=True)
        world.attach_bot("quiet-bot-004", "never")
        out = world.users["user-001"].send(b"hello, five bots!", conceal=True)
    # each of the sender's four entries is a 13-character id, a position
    # and a box: 4 + 13 + 4 + 4 + 48 = 73 B; each bot is delivered its own,
    # and a bot with none would get the header alone: 1 + 13 + 4 + 4 B.
    # The sender's member view holds its control whole, `first` 0 included
    assert (len(first.user_view), len(first.chatbot_view)) == (534, 444)
    shared, own = project_view(first.chatbot_view, _BOT_HANDLERS)
    assert (len(shared), sorted(map(len, own.values()))) == (22, [444 - 3 * 73] * 4)
    assert out.concealed == ("quiet-bot-004",)
    bot_view = ChatbotMessageView.from_bytes(out.chatbot_view).body
    assert len(bot_view.entries) == 5
    for _, _, box in bot_view.entries:
        assert box not in out.user_view
    (layout,) = UserMessageView.wire_layouts.values()
    assert [name for name, _ in layout.fields] == ["flags", "control", "ciphertext"]
    view = UserMessageView.from_bytes(out.user_view)
    assert view == UserMessageView(flags=0, control=view.control,
                                   ciphertext=bot_view.ciphertext)
    assert CgkaControl.from_bytes(view.control).kind == "update"
    assert view.to_bytes() == out.user_view


@pytest.mark.parametrize("message,conceal,role", [
    (b"@echo hi", False, "addressed"), (b"plain hi", True, "concealed"),
    (b"plain hi", False, None),
], ids=["triggered", "concealed", "neither"])
def test_member_reads_a_send_whose_bot_roster_lags_a_removal(message, conceal, role):
    # The receiver dropped the bot; the sender did not process the removal.
    # A member view names no chatbot, so whether the sender still seals to,
    # or conceals, the removed bot, members read the message alike.
    users, _, _ = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    users["user-01"].remove_chatbot("echo-bot-01")
    out = users["user-00"].send(message, conceal=conceal)
    assert {"addressed": out.addressed, "concealed": out.concealed} == {
        key: ("echo-bot-01",) if key == role else () for key in ("addressed", "concealed")}
    receiver = users["user-01"]
    assert receiver.process_user_message(out.user_view) == ReceivedMessage(message)
    assert receiver.cgka.group_secret == users["user-00"].cgka.group_secret
    assert "echo-bot-01" not in receiver.records


def test_dummy_entries_do_not_leak_to_addressed_bot():
    users, bots, _ = build_group(
        2, bots=[("echo-bot-01", "mention:@echo"), ("log-bot-03", "never")])
    out = users["user-00"].send(b"@echo over here", conceal=True)
    assert bots["echo-bot-01"].receive(out.chatbot_view) == ReceivedMessage(
        b"@echo over here")
    assert bots["log-bot-03"].receive(out.chatbot_view) is NOT_ADDRESSED


# -- record bookkeeping -------------------------------------------------------

def test_records_rotate_only_when_addressed():
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    before = {uid: u.records["echo-bot-01"].channel_secret_key
              for uid, u in users.items()}

    out = users["user-00"].send(b"nothing for the bot")
    deliver(users, "user-00", out)
    after = {uid: u.records["echo-bot-01"].channel_secret_key
             for uid, u in users.items()}
    assert after == before  # untouched: bot was not addressed

    out = users["user-00"].send(b"@echo now you")
    deliver(users, "user-00", out)
    rotated = {uid: u.records["echo-bot-01"].channel_secret_key
               for uid, u in users.items()}
    assert all(rotated[uid] != before[uid] for uid in users)
    assert len(set(rotated.values())) == 1  # everyone agrees on the new key


def test_receivers_do_not_trust_entry_list_for_records():
    # A sender that addresses everyone explicitly must not trick receivers
    # into rotating records for bots whose triggers did not fire: receivers
    # re-evaluate triggers locally (the flag is honored, plain entries not).
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"@echo hi", conceal=True)
    # the dummy-bearing view parses fine and receiver rotates only echo's
    before = users["user-01"].records["echo-bot-01"].channel_secret_key
    users["user-01"].process_user_message(out.user_view)
    after = users["user-01"].records["echo-bot-01"].channel_secret_key
    assert after != before


def test_trigger_index_follows_records():
    """Each writer of a member's records keeps its trigger index in step: a
    chatbot attached mid-group, one detached, one re-attached under the same
    id with another trigger, and a newcomer's roster from the welcome. After
    each, the sender's addressed set is the set of records every member
    rotated."""
    users, _, registry = build_group(3, bots=[("echo-bot-01", "mention:@echo")])

    def apply(sender, blob):
        for uid, user in users.items():
            if uid != sender:
                user.process(blob)

    def send(sender, message):
        out = users[sender].send(message)
        apply(sender, out.user_view)
        for uid, user in users.items():
            pair = user.cgka.group_key_pair
            rotated = {cid for cid, record in user.records.items()
                       if record.channel_secret_key == pair.secret_key}
            assert rotated == set(out.addressed), uid
        return set(out.addressed)

    def attach(actor, cid, rules):
        bot = chatbot_init(cid, rules_from_text(rules))
        registry.register(bot.registration)
        apply(actor, users[actor].add_chatbot(cid))

    attach("user-01", "memo-bot-02", "contains:note")
    assert send("user-02", b"@echo take a note") == {"echo-bot-01", "memo-bot-02"}

    apply("user-02", users["user-02"].remove_chatbot("echo-bot-01"))
    assert send("user-00", b"@echo take a note") == {"memo-bot-02"}

    # the same id again with another trigger, and no send in between
    apply("user-00", users["user-00"].remove_chatbot("memo-bot-02"))
    attach("user-01", "memo-bot-02", "mention:@memo")
    assert send("user-01", b"take a note") == set()
    attach("user-00", "echo-bot-01", "prefix:!echo")
    assert send("user-01", b"@echo take a note") == set()
    assert send("user-01", b"!echo hi @memo") == {"echo-bot-01", "memo-bot-02"}

    newcomer = user_init(cgka.init("user-77", users["user-00"].cgka.directory),
                         registry)
    blob = users["user-00"].add_user("user-77")
    apply("user-00", blob)
    newcomer.process(blob)
    users["user-77"] = newcomer
    assert send("user-02", b"!echo a note for @memo") == {"echo-bot-01", "memo-bot-02"}
    assert send("user-77", b"@echo nothing here") == set()
    assert send("user-77", b"!echo") == {"echo-bot-01"}


# -- chatbot channel ----------------------------------------------------------

def test_chatbot_reply_roundtrip():
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"@echo marco")
    deliver(users, "user-00", out)
    bots["echo-bot-01"].receive(out.chatbot_view)

    reply = bots["echo-bot-01"].send(b"polo")
    for user in users.values():
        assert user.receive_from_chatbot(reply) == b"polo"


def test_chatbot_reply_rotates_channel():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"@echo one")
    deliver(users, "user-00", out)
    bots["echo-bot-01"].receive(out.chatbot_view)

    pk_before = users["user-00"].records["echo-bot-01"].bot_public_key
    reply = bots["echo-bot-01"].send(b"first")
    for user in users.values():
        user.receive_from_chatbot(reply)
    pk_after = users["user-00"].records["echo-bot-01"].bot_public_key
    assert pk_after != pk_before

    # and the rotated channel still works end to end
    out2 = users["user-01"].send(b"@echo two")
    deliver(users, "user-01", out2)
    bots["echo-bot-01"].receive(out2.chatbot_view)
    reply2 = bots["echo-bot-01"].send(b"second")
    for user in users.values():
        assert user.receive_from_chatbot(reply2) == b"second"


def test_chatbot_reply_uses_latest_group_key():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    out = users["user-00"].send(b"take one")
    deliver(users, "user-00", out)
    bots["echo-bot-01"].receive(out.chatbot_view)
    out2 = users["user-01"].send(b"take two")
    deliver(users, "user-01", out2)
    bots["echo-bot-01"].receive(out2.chatbot_view)

    reply = bots["echo-bot-01"].send(b"done")
    for user in users.values():
        assert user.receive_from_chatbot(reply) == b"done"


def test_bot_send_before_add_rejected():
    bot = chatbot_init("echo-bot-01", rules_from_text("always"))
    with pytest.raises(NoGroup):
        bot.send(b"hello?")
    with pytest.raises(NoGroup):
        bot.receive(b"\x11junk")


def test_removed_bot_loses_state():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    out = users["user-00"].send(b"hi")
    deliver(users, "user-00", out)
    bots["echo-bot-01"].receive(out.chatbot_view)

    blob = users["user-00"].remove_chatbot("echo-bot-01")
    users["user-01"].process_remove_chatbot(blob)
    bots["echo-bot-01"].process_remove(blob)

    assert bots["echo-bot-01"].group_public_key is None
    assert bots["echo-bot-01"].node_key is None
    with pytest.raises(NoGroup):
        bots["echo-bot-01"].send(b"still here?")

    out2 = users["user-00"].send(b"bots are gone")
    assert out2.addressed == ()
    users["user-01"].process_user_message(out2.user_view)


def test_removal_for_another_group_leaves_the_bot_unchanged():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")], group_id="grp-bbb")
    bot = bots["echo-bot-01"]
    forged = RemoveBotControl(group_id="grp-aaa", chatbot_id="echo-bot-01").to_bytes()
    before = json.dumps(bot.snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl):
        bot.process(forged)
    assert json.dumps(bot.snapshot(), sort_keys=True) == before
    out = users["user-00"].send(b"still attached")
    assert bot.receive(out.chatbot_view) == ReceivedMessage(b"still attached")


def test_add_while_the_bot_holds_a_group_leaves_it_unchanged():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    bot = bots["echo-bot-01"]
    others, _, registry = build_group(2, group_id="grp-bbb")
    registry.register(bot.registration)
    second = others["user-00"].add_chatbot("echo-bot-01")
    before = json.dumps(bot.snapshot(), sort_keys=True)
    ops = counters.OpCounters()
    with counters.collect(ops), counters.attribute("bot"):
        with pytest.raises(DuplicateChatbot):
            bot.process(second)
    assert ops.total("pke_open") == 0
    assert json.dumps(bot.snapshot(), sort_keys=True) == before
    out = users["user-00"].send(b"still attached")
    assert bot.receive(out.chatbot_view) == ReceivedMessage(b"still attached")


def _memo_add(users):
    return AddBotControl.from_bytes(users["user-00"].add_chatbot("memo-bot-02"))


def _reply(bots, **changes):
    reply = BotMessage.from_bytes(bots["echo-bot-01"].send(b"a reply"))
    return replace(reply, **changes).to_bytes()


def _chatbot_view(users, **changes):
    view = ChatbotMessageView.from_bytes(users["user-00"].send(b"hello").chatbot_view)
    return replace(view, **changes).to_bytes()


_OTHER_GROUP = (MalformedControl, "bundle for a different group")

# name -> ((users, bots) -> (party, view), error, message fragment): one
# fault each, in a group of two members with echo-bot-01 attached, and
# memo-bot-02 and note-bot-03 registered but not attached
MISADDRESSED = {
    "member_add_bot_for_another_group": (
        lambda users, bots: (users["user-01"], replace(
            _memo_add(users), group_id="grp-other").to_bytes()), *_OTHER_GROUP),
    "member_rem_bot_for_another_group": (
        lambda users, bots: (users["user-01"], RemoveBotControl(
            group_id="grp-other", chatbot_id="echo-bot-01").to_bytes()), *_OTHER_GROUP),
    "member_reply_for_another_group": (
        lambda users, bots: (users["user-01"], _reply(bots, group_id="grp-other")),
        *_OTHER_GROUP),
    "member_reply_from_an_unknown_bot": (
        lambda users, bots: (users["user-01"], _reply(bots, chatbot_id="ghost-bot-99")),
        NotPresent, "no record of 'ghost-bot-99'"),
    "bot_add_for_another_chatbot": (
        lambda users, bots: (bots["note-bot-03"], _memo_add(users).to_bytes()),
        MalformedControl, "add control for a different chatbot"),
    "bot_add_with_a_channel_key_off_its_seed": (
        lambda users, bots: (bots["memo-bot-02"], replace(
            _memo_add(users), node_public_key=bytes(32)).to_bytes()),
        MalformedControl, "channel key disagrees with sealed seed"),
    "bot_remove_for_another_chatbot": (
        lambda users, bots: (bots["echo-bot-01"], RemoveBotControl(
            group_id="grp-main", chatbot_id="memo-bot-02").to_bytes()),
        MalformedControl, "remove control for a different chatbot"),
    "bot_view_for_another_group": (
        lambda users, bots: (bots["echo-bot-01"],
                             _chatbot_view(users, group_id="grp-other")),
        MalformedControl, "view for a different group"),
}


@pytest.mark.parametrize("name", sorted(MISADDRESSED))
def test_misaddressed_view_is_refused_and_leaves_its_party_unchanged(name):
    users, bots, registry = build_group(2, bots=[("echo-bot-01", "always")])
    for cid in ("memo-bot-02", "note-bot-03"):
        bots[cid] = chatbot_init(cid, rules_from_text("always"))
        registry.register(bots[cid].registration)
    build, error, match = MISADDRESSED[name]
    party, view = build(users, bots)
    before = snapshot_text(party)
    with pytest.raises(error, match=match):
        party.process(view)
    assert snapshot_text(party) == before


def test_add_chatbot_refuses_a_registration_filed_under_another_id():
    # The signed trigger names the chatbot id: a copy whose trigger names
    # another id is not signed for that id.
    users, _, registry = build_group(2)
    bot = chatbot_init("echo-bot-01", rules_from_text("always"))
    registry.register(replace(bot.registration, trigger=replace(
        bot.registration.trigger, chatbot_id="other-bot-02")))
    adder = users["user-00"]
    before = snapshot_text(adder)
    with pytest.raises(BadSignature):
        adder.add_chatbot("other-bot-02")
    assert snapshot_text(adder) == before


def test_chatbot_membership_errors():
    users, bots, registry = build_group(2, bots=[("echo-bot-01", "always")])
    with pytest.raises(DuplicateChatbot):
        users["user-00"].add_chatbot("echo-bot-01")
    with pytest.raises(UnknownChatbot):
        users["user-00"].add_chatbot("ghost-bot-99")
    with pytest.raises(NotPresent):
        users["user-00"].remove_chatbot("ghost-bot-99")


# -- newcomers ----------------------------------------------------------------

def test_newcomer_adopts_roster_and_catches_up():
    users, bots, registry = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    directory = users["user-00"].cgka.directory
    newcomer = user_init(cgka.init("user-77", directory), registry)

    blob = users["user-00"].add_user("user-77")
    users["user-01"].process_group_control(blob)
    newcomer.process_group_control(blob)
    users["user-77"] = newcomer
    assert_agreement(users)

    rec = newcomer.records["echo-bot-01"]
    assert rec.channel_secret_key is None  # not yet entitled to the channel
    assert rec.bot_public_key == users["user-00"].records["echo-bot-01"].bot_public_key

    out = users["user-01"].send(b"@echo welcome the newcomer")
    deliver(users, "user-01", out)
    bots["echo-bot-01"].receive(out.chatbot_view)
    assert newcomer.records["echo-bot-01"].channel_secret_key is not None

    reply = bots["echo-bot-01"].send(b"welcome!")
    assert newcomer.receive_from_chatbot(reply) == b"welcome!"


def test_newcomer_cannot_read_bot_reply_to_older_epoch():
    users, bots, registry = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"@echo before the add")
    deliver(users, "user-00", out)
    bots["echo-bot-01"].receive(out.chatbot_view)

    directory = users["user-00"].cgka.directory
    newcomer = user_init(cgka.init("user-77", directory), registry)
    blob = users["user-00"].add_user("user-77")
    users["user-01"].process_group_control(blob)
    newcomer.process_group_control(blob)

    reply = bots["echo-bot-01"].send(b"sealed to the pre-add key")
    assert users["user-00"].receive_from_chatbot(reply) == b"sealed to the pre-add key"
    with pytest.raises(DecryptFailed):
        newcomer.receive_from_chatbot(reply)


# -- pseudonyms ---------------------------------------------------------------

def test_forged_roster_is_rejected_before_the_newcomer_joins():
    users, bots, registry = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    newcomer = user_init(cgka.init("user-77", users["user-00"].cgka.directory), registry)
    wrapped = GroupControl.from_bytes(users["user-00"].add_user("user-77"))
    welcome = wrapped.welcome
    forged = replace(wrapped, welcome=replace(
        welcome, roster=welcome.roster + (("ghost-bot-99", bytes(32)),)))
    before = json.dumps(newcomer.snapshot(), sort_keys=True)
    with pytest.raises(UnknownChatbot):
        newcomer.process_group_control(forged.to_bytes())
    assert json.dumps(newcomer.snapshot(), sort_keys=True) == before


def test_welcome_key_of_the_wrong_width_leaves_the_newcomer_unchanged():
    users, bots, registry = build_group(5, bots=[("echo-bot-01", "mention:@echo")])
    newcomer = user_init(cgka.init("user-77", users["user-00"].cgka.directory), registry)
    genuine = users["user-00"].add_user("user-77")
    wrapped = GroupControl.from_bytes(genuine)
    tree = treemod.RatchetTree.from_public_bytes(wrapped.welcome.tree)
    node = treemod.copath(users["user-00"].cgka.tree.leaf_of("user-77"), tree.capacity)[0]
    assert tree.nodes[node] is not None
    tree.nodes[node] = tree.nodes[node][:5]
    forged = replace(wrapped, welcome=replace(wrapped.welcome, tree=tree.to_public_bytes()))
    before = json.dumps(newcomer.snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl):
        newcomer.process_group_control(forged.to_bytes())
    assert json.dumps(newcomer.snapshot(), sort_keys=True) == before
    newcomer.process_group_control(genuine)
    assert newcomer.cgka.group_secret == users["user-00"].cgka.group_secret
    newcomer.update_keys()


def test_bot_reply_with_a_short_node_key_leaves_the_member_unchanged():
    # A forged reply that names a 5-byte node key would set the member's
    # key for the bot, and its next send would fail inside X25519.
    world = bench.World(4, 1)
    cid = "bench-bot-000"
    genuine = world.bots[cid].send(b"a genuine reply")
    msg = BotMessage.from_bytes(genuine)
    forged = replace(msg, node_public_key=msg.node_public_key[:5]).to_bytes()
    member = world.users["user-001"]
    before = json.dumps(member.snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl):
        member.receive_from_chatbot(forged)
    assert json.dumps(member.snapshot(), sort_keys=True) == before
    assert member.receive_from_chatbot(genuine) == b"a genuine reply"
    member.send(b"still reaches the bot")


def test_chatbot_view_with_a_short_group_key_leaves_the_bot_unchanged():
    # A forged view that names a 5-byte group key would become the key the
    # bot replies under, and its next send would fail inside X25519.
    world = bench.World(4, 1)
    bot = world.bots["bench-bot-000"]
    genuine = world.users["user-001"].send(b"hello bot").chatbot_view
    view = ChatbotMessageView.from_bytes(genuine)
    forged = replace(view, body=replace(
        view.body, group_public_key=view.body.group_public_key[:5])).to_bytes()
    before = json.dumps(bot.snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl):
        bot.receive(forged)
    assert json.dumps(bot.snapshot(), sort_keys=True) == before
    assert bot.receive(genuine) == ReceivedMessage(b"hello bot")
    bot.send(b"a reply under the genuine key")


def snapshot_text(party) -> str:
    return json.dumps(party.snapshot(), sort_keys=True)


def test_add_with_a_short_init_key_leaves_the_members_unchanged():
    # Receivers seated a newcomer under a forged 5-byte init key, and each
    # one's next update then failed inside X25519.
    world = bench.World(4, 0)
    cgka.init("user-77", world.provider.directory)
    wrapped = GroupControl.from_bytes(world.users["user-000"].add_user("user-77"))
    ctl = CgkaControl.from_bytes(wrapped.control)
    short = replace(ctl, new_member_init_pk=ctl.new_member_init_pk[:5])
    forged = GroupControl(control=short.to_bytes()).to_bytes()
    for uid in ("user-001", "user-002", "user-003"):
        user = world.users[uid]
        before = snapshot_text(user)
        with pytest.raises(MalformedControl):
            user.process_group_control(forged)
        assert snapshot_text(user) == before
        user.process_group_control(replace(wrapped, welcome=None).to_bytes())
    world.users["user-003"].update_keys()


def test_welcome_with_a_short_roster_key_leaves_the_newcomer_unchanged():
    # A newcomer admitted a bot under a 5-byte roster key, and its next
    # send to every bot failed inside X25519.
    world = bench.World(4, 1)
    newcomer = user_init(cgka.init("user-77", world.provider.directory), world.provider)
    wrapped = GroupControl.from_bytes(world.users["user-000"].add_user("user-77"))
    ((cid, key),) = wrapped.welcome.roster
    forged = replace(wrapped, welcome=replace(wrapped.welcome, roster=((cid, key[:5]),)))
    before = snapshot_text(newcomer)
    with pytest.raises(MalformedControl):
        newcomer.process_group_control(forged.to_bytes())
    assert snapshot_text(newcomer) == before
    newcomer.process_group_control(wrapped.to_bytes())
    newcomer.send(b"hello every bot", address_all=True)


# payload encoder -> the same encoder with one field cut to 5 bytes
SHORT_PAYLOAD_FIELDS = {
    "registration_key": ("_encode_registration",
                         lambda encode: lambda pk: encode(pk[:5])),
    "pseudonym_handle": ("_encode_pseudonymous",
                         lambda encode: lambda m, h, sig: encode(m, h[:5], sig)),
    "pseudonym_signature": ("_encode_pseudonymous",
                            lambda encode: lambda m, h, sig: encode(m, h, sig[:5])),
}


@pytest.mark.parametrize("name", sorted(SHORT_PAYLOAD_FIELDS))
def test_payload_field_of_the_wrong_width_leaves_the_bot_unchanged(name, monkeypatch):
    # A 5-byte pseudonym key made the bot's `derive` raise ValueError; a
    # short handle or signature read as an unknown or bad pseudonym.
    world = bench.World(3, 1)
    bot, user = world.bots["bench-bot-000"], world.users["user-001"]
    if name != "registration_key":
        world.register_pseudonym("user-001")
        world.deliver()
    encoder, cut = SHORT_PAYLOAD_FIELDS[name]
    monkeypatch.setattr(group_module, encoder, cut(getattr(group_module, encoder)))
    if name == "registration_key":
        view = user.register_pseudonym().chatbot_view
    else:
        view = user.send(b"hello bot", pseudonymous=True).chatbot_view
    before = snapshot_text(bot)
    with pytest.raises(MalformedControl):
        bot.receive(view)
    assert snapshot_text(bot) == before


def welcome_tree_seating(tree, seats):
    """`tree`'s public bytes with its member list written as `seats`, a
    list of (leaf, member id) in any order, repeats included."""
    w = Writer()
    w.u32(tree.capacity)
    w.items([pk or b"" for pk in tree.nodes], lambda wr, pk: wr.field(pk))
    w.items(seats, lambda wr, seat: (wr.u32(seat[0]), wr.text(seat[1])))
    return w.done()


@pytest.mark.parametrize("extra", [(4, "user-78"), (5, "user-00")],
                         ids=["leaf_listed_twice", "id_at_two_leaves"])
def test_welcome_listing_a_leaf_or_id_twice_leaves_the_newcomer_unchanged(extra):
    users, bots, registry = build_group(5, bots=[("echo-bot-01", "mention:@echo")])
    newcomer = user_init(cgka.init("user-77", users["user-00"].cgka.directory), registry)
    genuine = users["user-00"].add_user("user-77")
    wrapped = GroupControl.from_bytes(genuine)
    tree = treemod.RatchetTree.from_public_bytes(wrapped.welcome.tree)
    seats = sorted(tree.members.items())
    assert welcome_tree_seating(tree, seats) == wrapped.welcome.tree
    forged = replace(wrapped, welcome=replace(
        wrapped.welcome, tree=welcome_tree_seating(tree, sorted(seats + [extra]))))
    before = json.dumps(newcomer.snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl, match="listed twice"):
        newcomer.process_group_control(forged.to_bytes())
    assert json.dumps(newcomer.snapshot(), sort_keys=True) == before
    newcomer.process_group_control(genuine)
    assert newcomer.cgka.group_secret == users["user-00"].cgka.group_secret
    assert newcomer.cgka.members() == users["user-00"].cgka.members()


def flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


@pytest.mark.parametrize("forge,error", [
    (lambda v, _next: replace(v, ciphertext=flip_last_byte(v.ciphertext)), DecryptFailed),
    (lambda v, _next: replace(v, ciphertext=b""), DecryptFailed),
    (lambda v, next_view: replace(v, ciphertext=next_view.ciphertext), DecryptFailed),
], ids=["flipped_ciphertext", "empty_ciphertext", "next_message_ciphertext"])
def test_bad_message_header_is_rejected_before_the_control_commits(forge, error):
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"@echo hi")
    # the sender's next message: its ciphertext is sealed under the next
    # epoch's key, not the one this control derives
    next_out = users["user-00"].send(b"@echo again")
    next_view = UserMessageView.from_bytes(next_out.user_view)
    forged = forge(UserMessageView.from_bytes(out.user_view), next_view).to_bytes()
    receiver = users["user-01"]
    before = json.dumps(receiver.snapshot(), sort_keys=True)
    with pytest.raises(error):
        receiver.process_user_message(forged)
    assert json.dumps(receiver.snapshot(), sort_keys=True) == before
    assert receiver.process_user_message(out.user_view) == ReceivedMessage(b"@echo hi")
    assert receiver.process_user_message(next_out.user_view) == ReceivedMessage(b"@echo again")
    assert receiver.cgka.group_secret == users["user-00"].cgka.group_secret
    assert receiver.records["echo-bot-01"].channel_secret_key == \
        users["user-00"].records["echo-bot-01"].channel_secret_key


@pytest.mark.parametrize("edit", sorted(WRONG_WIDTHS))
def test_wrong_width_control_leaves_user_unchanged(edit):
    users, _, _ = build_group(3)
    genuine = users["user-00"].update_keys()
    wrapped = GroupControl.from_bytes(genuine)
    ctl = CgkaControl.from_bytes(wrapped.control)
    WRONG_WIDTHS[edit](ctl)
    forged = replace(wrapped, control=ctl.to_bytes()).to_bytes()
    receiver = users["user-01"]
    before = json.dumps(receiver.snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl):
        receiver.process(forged)
    assert json.dumps(receiver.snapshot(), sort_keys=True) == before
    receiver.process(genuine)
    assert receiver.cgka.group_secret == users["user-00"].cgka.group_secret


@pytest.mark.parametrize("kind", ["add", "remove"])
def test_message_view_carrying_a_membership_control_leaves_members_unchanged(kind):
    # Members accepted a message view whose control removed user-003 and
    # dropped it from their trees, while the provider still routed to it.
    world = bench.World(4, 0)
    sender = world.users["user-000"].cgka
    if kind == "add":
        cgka.init("user-77", world.provider.directory)
        ctl = sender.add("user-77")
    else:
        ctl = sender.remove("user-003")
    message_key = derive(sender._pending.group_secret, MSG_KEY)
    forged = UserMessageView(
        flags=0, control=ctl.to_bytes(),
        ciphertext=sym_encrypt(message_key, group_module._encode_plain(b"hi"))).to_bytes()
    for uid in ("user-001", "user-002", "user-003"):
        user = world.users[uid]
        before = snapshot_text(user)
        with pytest.raises(MalformedControl):
            user.process_user_message(forged)
        assert snapshot_text(user) == before
        assert user.cgka.members() == world.ids


def test_message_view_with_an_undefined_flag_leaves_members_unchanged():
    # Only bit 0, address_all, is defined; the other seven were accepted
    # and ignored. A view with any of them set is refused, changing nothing.
    world = bench.World(4, 1)
    out = world.users["user-000"].send(b"hello", address_all=True)
    for bit in range(1, 8):
        flagged = out.user_view[:1] + bytes([out.user_view[1] | 1 << bit]) + out.user_view[2:]
        for uid in world.ids[1:]:
            user = world.users[uid]
            before = snapshot_text(user)
            with pytest.raises(MalformedControl, match="undefined message flags"):
                user.process(flagged)
            assert snapshot_text(user) == before
    for uid in world.ids[1:]:
        assert world.users[uid].process(out.user_view) == ReceivedMessage(b"hello")


@pytest.mark.parametrize("target", ["past_the_tree", "u32_max"])
def test_entries_naming_a_node_outside_the_tree_leave_members_unchanged(target):
    world = bench.World(8, 0)
    genuine = world.users["user-000"].update_keys()
    wrapped = GroupControl.from_bytes(genuine)
    ctl = CgkaControl.from_bytes(wrapped.control)
    bad = {"past_the_tree": len(world.users["user-000"].cgka.tree.nodes),
           "u32_max": 2**32 - 1}[target]
    ctl.path_entries = [(bad, box) for _, box in ctl.path_entries]
    forged = replace(wrapped, control=ctl.to_bytes()).to_bytes()
    for uid in world.ids[1:]:
        user = world.users[uid]
        before = snapshot_text(user)
        with pytest.raises(ChatGateError):
            user.process(forged)
        assert snapshot_text(user) == before
        user.process(genuine)
        assert user.cgka.group_secret == world.users["user-000"].cgka.group_secret


def test_pseudonym_roundtrip():
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    reg_out = users["user-01"].register_pseudonym()
    assert reg_out.addressed == ("echo-bot-01",)
    deliver(users, "user-01", reg_out)
    reg_res = bots["echo-bot-01"].receive(reg_out.chatbot_view)
    assert isinstance(reg_res, PseudonymRegistration)
    handle = reg_res.handle
    assert handle == users["user-01"].pseudonym.handle

    out = users["user-01"].send(b"@echo who am i", pseudonymous=True)
    deliver(users, "user-01", out)
    res = bots["echo-bot-01"].receive(out.chatbot_view)
    assert res == ReceivedMessage(b"@echo who am i", pseudonym=handle)


def test_pseudonym_preconditions():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    with pytest.raises(PseudonymNotRegistered):
        users["user-00"].send(b"hi", pseudonymous=True)

    lonely, _, _ = build_group(2)  # no chatbots attached
    with pytest.raises(NoChatbots):
        lonely["user-00"].register_pseudonym()


def test_pseudonym_replay_across_epochs_rejected():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    reg_out = users["user-00"].register_pseudonym()
    deliver(users, "user-00", reg_out)
    bots["echo-bot-01"].receive(reg_out.chatbot_view)

    out = users["user-00"].send(b"signed once", pseudonymous=True)
    deliver(users, "user-00", out)
    assert isinstance(bots["echo-bot-01"].receive(out.chatbot_view), ReceivedMessage)

    # An insider (any group member can read the payload) re-wraps the
    # identical signed payload in a fresh epoch. The signature binds the
    # epoch it was made for, so the bot rejects it.
    stale_payload = _rebuild_payload(users["user-00"], b"signed once", out.epoch)
    replayed = users["user-01"]._send_raw(stale_payload,
                                          trigger_message=b"signed once",
                                          conceal=False, address_all=True)
    with pytest.raises(BadPseudonymSignature):
        bots["echo-bot-01"].receive(replayed.chatbot_view)


def _rebuild_payload(sender, message, epoch):
    """Test-only: reconstruct the exact payload bytes a pseudonymous send
    produced (signatures are deterministic, so re-signing reproduces it)."""
    from chatgate.group import _encode_pseudonymous, pseudonym_context
    from chatgate.primitives import sign
    ctx = pseudonym_context(sender.group_id, epoch, message)
    sig = sign(sender.pseudonym.key, ctx)
    return _encode_pseudonymous(message, sender.pseudonym.handle, sig)


def test_unknown_pseudonym_handle_rejected():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    reg_out = users["user-00"].register_pseudonym()
    deliver(users, "user-00", reg_out)
    # bot never saw the registration; handle is unknown to it
    out = users["user-00"].send(b"hello", pseudonymous=True)
    with pytest.raises(BadPseudonymSignature):
        bots["echo-bot-01"].receive(out.chatbot_view)


def test_pseudonym_rotation_replaces_key():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "always")])
    users["user-00"].register_pseudonym()
    first = users["user-00"].pseudonym
    users["user-00"].register_pseudonym()
    second = users["user-00"].pseudonym
    assert first.key.secret_key != second.key.secret_key
    assert first.handle != second.handle


# -- structural properties ----------------------------------------------------

def test_chatbot_view_shape_is_sender_independent():
    users, bots, _ = build_group(4, bots=[("echo-bot-01", "mention:@echo")])
    msg = b"@echo same length message x"
    shapes = []
    for sender in ["user-00", "user-01", "user-02", "user-03"]:
        out = users[sender].send(msg)
        shapes.append(chatbot_view_shape(out.chatbot_view))
        deliver(users, sender, out)
    assert len(set(shapes)) == 1


def test_chatbot_view_has_no_control_and_no_sender():
    users, bots, _ = build_group(3, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-02"].send(b"@echo hi")
    view = UserMessageView.from_bytes(out.user_view)
    assert view.control  # users do get the tree control
    assert view.control not in out.chatbot_view
    assert b"user-02" not in out.chatbot_view


def test_tampered_views_rejected():
    # A view states its epoch only in its control, which staging checks: the
    # second of two sends, delivered first, is refused and changes nothing.
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    first = users["user-00"].send(b"@echo hi")
    second = users["user-00"].send(b"@echo again")
    receiver = users["user-01"]
    before = json.dumps(receiver.snapshot(), sort_keys=True)
    with pytest.raises(FutureEpoch):
        receiver.process_user_message(second.user_view)
    assert json.dumps(receiver.snapshot(), sort_keys=True) == before
    receiver.process_user_message(first.user_view)
    assert receiver.process_user_message(second.user_view) == \
        ReceivedMessage(b"@echo again")


def test_wrong_group_rejected():
    users_a, bots_a, _ = build_group(2, group_id="grp-aaa")
    users_b, _, _ = build_group(2, group_id="grp-bbb")
    out = users_a["user-00"].send(b"hello")
    with pytest.raises(MalformedControl):
        users_b["user-01"].process_user_message(out.user_view)


def test_snapshots_have_expected_shape():
    users, bots, _ = build_group(2, bots=[("echo-bot-01", "mention:@echo")])
    out = users["user-00"].send(b"@echo hi")
    deliver(users, "user-00", out)
    bots["echo-bot-01"].receive(out.chatbot_view)

    snap = bots["echo-bot-01"].snapshot()
    assert snap["kind"] == "chatbot"
    # exactly one group-scoped public key, nothing else group-scoped kept
    group_fields = [k for k in snap if k.startswith("group")]
    assert sorted(group_fields) == ["group_id", "group_public_key"]
    assert snap["group_public_key"] is not None

    usnap = users["user-01"].snapshot()
    assert usnap["kind"] == "user"
    assert "echo-bot-01" in usnap["records"]



# -- one handler per edit ---------------------------------------------------------

def test_sender_and_receivers_agree_on_records_and_addressing():
    """A seeded history through every control builder and every kind of
    send. After each op, every member holds the same chatbot records; after
    each send, the records whose channel moved to the new group key pair
    are exactly the addressed ones, at the sender and at every receiver."""
    registry = DictRegistry()
    directory = InitKeyDirectory()
    users, bots, attached, addressed = {}, {}, [], []
    members = ["user-00", "user-01", "user-02"]

    def check_records():
        held = [{cid: r.bot_public_key for cid, r in users[m].records.items()}
                for m in members]
        assert all(h == held[0] for h in held)
        assert sorted(held[0]) == sorted(attached)

    def control(sender, blob, bot=None):
        for m in members:
            if m != sender:
                users[m].process(blob)
        if bot is not None:
            bots[bot].process(blob)
        check_records()

    def send(sender, *args, **flags):
        user = users[sender]
        out = user.send(*args, **flags) if args else user.register_pseudonym()
        for m in members:
            if m != sender:
                users[m].process(out.user_view)
        for cid in attached:
            bots[cid].process(out.chatbot_view)
        for m in members:
            pair = users[m].cgka.group_key_pair
            moved = {cid for cid, r in users[m].records.items()
                     if r.channel_secret_key == pair.secret_key}
            assert moved == set(out.addressed), m
        check_records()
        addressed.append(out.addressed)

    with seeded(b"one-handler-per-edit"):
        for uid in [*members, "user-03"]:
            users[uid] = user_init(cgka.init(uid, directory), registry)
        for cid, rules in (("echo-bot-01", "mention:@echo"),
                           ("memo-bot-02", "contains:note"), ("audit-bot-03", "never")):
            bots[cid] = chatbot_init(cid, rules_from_text(rules))
            registry.register(bots[cid].registration)

        control("user-00", users["user-00"].create_group("grp-main", list(members)))
        for actor, cid in (("user-00", "echo-bot-01"), ("user-01", "memo-bot-02"),
                           ("user-02", "audit-bot-03")):
            attached.append(cid)
            control(actor, users[actor].add_chatbot(cid), bot=cid)
        send("user-00", b"@echo hello")
        send("user-01", b"note the figures", conceal=True)
        send("user-02")  # pseudonym registration, addressed to every chatbot
        send("user-02", b"@echo note this for both", pseudonymous=True)
        control("user-01", users["user-01"].update_keys())
        members.append("user-03")
        control("user-00", users["user-00"].add_user("user-03"))
        send("user-03", b"a note from the newcomer")
        send("user-01", b"nothing fires here", address_all=True)
        members.remove("user-02")
        control("user-00", users["user-00"].remove_user("user-02"))
        attached.remove("audit-bot-03")
        control("user-03", users["user-03"].remove_chatbot("audit-bot-03"),
                bot="audit-bot-03")
        send("user-01", b"@echo after the removals", conceal=True)
        send("user-00", b"plain chat only")

    all_three = ("audit-bot-03", "echo-bot-01", "memo-bot-02")
    assert addressed == [("echo-bot-01",), ("memo-bot-02",), all_three,
                         ("echo-bot-01", "memo-bot-02"), ("memo-bot-02",),
                         all_three, ("echo-bot-01",), ()]


# -- one delivery dispatch ------------------------------------------------------

# type byte -> the handler each party kind must route it to, written out
# here rather than read from the module under test
USER_ROUTES = {0x15: "process_group_control", 0x10: "process_user_message",
               0x13: "process_add_chatbot", 0x14: "process_remove_chatbot",
               0x12: "receive_from_chatbot"}
BOT_ROUTES = {0x11: "receive", 0x13: "process_add", 0x14: "process_remove"}


def _bare_user():
    return user_init(cgka.init("user-00", InitKeyDirectory()), DictRegistry())


def _bare_bot():
    return chatbot_init("echo-bot-01", rules_from_text("always"))


@pytest.mark.parametrize("make,cls,kind,name",
                         [(_bare_user, UserState, k, n) for k, n in USER_ROUTES.items()]
                         + [(_bare_bot, ChatbotState, k, n) for k, n in BOT_ROUTES.items()])
def test_process_routes_each_type_to_its_handler(monkeypatch, make, cls, kind, name):
    # the handler is replaced on the class, as the traced benchmark does,
    # so this also checks that `process` looks it up at call time
    monkeypatch.setattr(cls, name, lambda self, view: (name, view))
    view = bytes([kind]) + b"body"
    assert make().process(view) == (name, view)


@pytest.mark.parametrize("make,view", [
    (_bare_user, b""), (_bare_user, b"\x7f"), (_bare_user, b"\x00body"),
    (_bare_user, b"\x11body"),  # a chatbot view is not for users
    (_bare_bot, b""), (_bare_bot, b"\x7f"), (_bare_bot, b"\x00body"),
    (_bare_bot, b"\x10body"), (_bare_bot, b"\x12body"),  # user-only views
])
def test_process_rejects_unroutable_views(make, view):
    with pytest.raises(MalformedControl):
        make().process(view)


def _twin_history(deliver):
    """One seeded history that delivers every view type each party kind
    accepts, each through `deliver(party, view)`. Returns every result in
    order plus the final snapshot of every party."""
    results = []

    def to(parties, view):
        for party in parties:
            results.append((view[0], deliver(party, view)))

    with seeded(b"one-dispatch"):
        users, bots, registry = build_group(3, bots=[("echo-bot-01", "always")])
        u0, u1, u2 = users.values()
        to([u1, u2], u0.update_keys())
        out = u1.send(b"hello bots")
        to([u0, u2], out.user_view)
        to(bots.values(), out.chatbot_view)
        to([u0, u1, u2], bots["echo-bot-01"].send(b"a reply"))
        memo = chatbot_init("memo-bot-02", rules_from_text("contains:note"))
        registry.register(memo.registration)
        bots["memo-bot-02"] = memo
        add = u0.add_chatbot("memo-bot-02")
        to([u1, u2, memo], add)
        out = u2.send(b"plain chat only")
        to([u0, u1], out.user_view)
        to(bots.values(), out.chatbot_view)
        to([u1, u2, memo], u0.remove_chatbot("memo-bot-02"))
    snaps = [p.snapshot() for p in (*users.values(), *bots.values())]
    return results, snaps


def test_process_matches_calling_the_named_handler():
    def direct(party, view):
        routes = USER_ROUTES if isinstance(party, UserState) else BOT_ROUTES
        return getattr(party, routes[view[0]])(view)

    dispatched = _twin_history(lambda party, view: party.process(view))
    assert dispatched == _twin_history(direct)
    results, _ = dispatched
    assert {kind for kind, _ in results} == set(USER_ROUTES) | set(BOT_ROUTES)
    assert NOT_ADDRESSED in [r for _, r in results]
    assert b"a reply" in [r for _, r in results]


@pytest.mark.parametrize("n", [8, 32, 128])
def test_members_build_the_channel_key_pair_only_to_read_a_reply(n):
    # A member checks the sender's path from its merge point up: one key
    # pair per level below the root, and one hash for the root's
    # confirmation, so 0 key pairs at the top copath level. A send that
    # fires a bot costs it no more: the bot's record keeps the group secret
    # key, and builds its pair at the first reply it opens. The sender
    # builds one key pair per path node below the root, one ephemeral per
    # batch, and the group key pair only for a chatbot view with a body,
    # which names it: a send that fires no bot builds neither of the last
    # two for its chatbot view.
    world = bench.World(n, 0)
    for i in range(4):
        world.attach_bot(f"token-bot-{i}", f"mention:@bot{i}")
    depth = n.bit_length() - 1

    def tally(sender, act):
        with counters.collect(counters.OpCounters()) as ops:
            with counters.attribute("sender"):
                out = act()
            world.publish(sender, *((out.user_view, out.chatbot_view)
                                    if isinstance(out, SendOutcome) else (out,)))
            world.deliver()
        return ops, out

    for sender, message, fired in (("user-000", b"no token here", 0),
                                   ("user-005", b"@bot2 wake up", 1),
                                   ("user-003", b"@bot1 and @bot3", 2),
                                   ("user-000", b"quiet again", 0)):
        ops, out = tally(sender, lambda: world.users[sender].send(message))
        assert len(out.addressed) == fired
        assert ops.party("sender")["pke_keygen"] == depth + 1 + 2 * (fired > 0)
        assert ops.party("sender")["pke_seal"] == depth + fired
        sender_leaf = world.users[sender].cgka.own_leaf
        for uid in world.ids:
            if uid != sender:
                level = cgka.copath_level(world.users[uid].cgka.own_leaf, sender_leaf)
                assert ops.party(uid)["pke_keygen"] == depth - 1 - level, uid

    # each record builds its pair at its first reply, then keeps it
    for cid, built in (("token-bot-1", 1), ("token-bot-1", 0), ("token-bot-3", 1)):
        ops, _ = tally(cid, lambda: world.bots[cid].send(b"a reply"))
        assert all(ops.party(uid)["pke_keygen"] == built for uid in world.ids), cid


@pytest.mark.parametrize("n", [8, 32, 128])
def test_a_members_receive_copies_no_tree(n, monkeypatch):
    # A member's receive makes the control's edit in its own tree, in
    # place: no copy of the 2n - 1 nodes, the same tree object after as
    # before, and only the sender's direct path written. A message view
    # and an update view both go through it.
    world = bench.World(n, 2)
    sender = world.ids[1]
    copies = []
    copy = treemod.RatchetTree.copy

    def counted(tree):
        copies.append(tree)
        return copy(tree)

    for act in (lambda: world.send(sender, b"no copy here"), lambda: world.update(sender)):
        before = {uid: (user.cgka.tree, list(user.cgka.tree.nodes))
                  for uid, user in world.users.items() if uid != sender}
        act()  # the sender builds over a copy of its tree
        with monkeypatch.context() as patch:
            patch.setattr(treemod.RatchetTree, "copy", counted)
            world.deliver()
        assert copies == []
        state = world.users[sender].cgka
        path = set(treemod.direct_path(state.own_leaf, state.tree.capacity))
        for uid, (tree, nodes) in before.items():
            after = world.users[uid].cgka.tree
            assert after is tree, uid
            assert {x for x, (old, new) in enumerate(zip(nodes, after.nodes))
                    if old != new} == path, uid


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
