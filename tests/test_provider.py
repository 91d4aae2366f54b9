"""Provider: PKI checks, routing, transcript shape, and the adversary."""

import base64
import functools
import json
import math
import random
import sys
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chatgate import cgka, counters, group, primitives, provider as provider_module
from chatgate.errors import (
    AlreadyMember,
    BadSignature,
    ChatGateError,
    DuplicateChatbot,
    DuplicateId,
    MalformedControl,
    NoGroup,
    NotMember,
    NotPresent,
    UnknownChatbot,
    UnknownMember,
)
from chatgate.encoding import peek_type
from chatgate.group import (
    ADD_BOT,
    BOT_MESSAGE,
    GROUP_CONTROL,
    VIEW_CHATBOT_MESSAGE,
    VIEW_USER_MESSAGE,
    AddBotControl,
    BotMessage,
    ChatbotMessageView,
    GroupControl,
    ReceivedMessage,
    RemoveBotControl,
    UserMessageView,
    chatbot_init,
    chatbot_view_shape,
)
from chatgate.harness import bench, canned
from chatgate.harness.driver import Group
from chatgate.harness.runner import Runner, run_text
from chatgate.primitives import (
    CHAIN,
    CONFIRM,
    MSG_KEY,
    derive,
    pke_keygen,
    pke_open,
    pke_seal_batch,
    sym_decrypt,
    x25519_key_pair,
)
from chatgate.provider import (
    Adversary,
    AdversaryReport,
    Provider,
    SealedBox,
    Transcript,
    _collect_material,
    _harvest_hex,
    _payload_message,
    adversary_decrypt,
)
from chatgate.triggers import make_registration, rules_from_text


def make_world(n=3, bots=(("echo-bot-01", "mention:@echo"),), group_id="grp-main"):
    """`n` members and `bots`, each attached; every view travels through
    publish and the provider's inboxes."""
    world = Group(group_id)
    ids = [f"user-{i:02d}" for i in range(n)]
    world.create(ids[0], ids)
    for cid, rules_text in bots:
        world.declare_bot(cid, rules_from_text(rules_text))
        world.attach(ids[0], cid)
    world.deliver()
    return world


def user_send(world, sender, message, **kw):
    _, out = world.send(sender, message, **kw)
    world.deliver()
    return out


def hand_built_add(world, adder, uid):
    """`adder`'s add of `uid` with the driver's routing edit, built as the
    driver builds it but not published, so its bytes can be inspected or
    forged first."""
    world.join(uid)
    blob = world.users[adder].add_user(uid)
    world.provider.add_member(world.group_id, uid)
    return blob


# -- PKI ----------------------------------------------------------------------

def test_bot_registration_checks():
    provider = Provider()
    bot = chatbot_init("echo-bot-01", rules_from_text("always"))
    provider.register_bot(bot.registration)
    with pytest.raises(DuplicateId):
        provider.register_bot(bot.registration)
    with pytest.raises(UnknownChatbot):
        provider.lookup_bot("ghost-bot-99")

    from chatgate.triggers import BotRegistration
    forged = BotRegistration(
        enc_public_key=bot.registration.enc_public_key,
        sig_public_key=bot.registration.sig_public_key,
        trigger=replace(bot.registration.trigger, chatbot_id="evil-bot-66"),
        signature=b"\x00" * 64)
    with pytest.raises(BadSignature):
        provider.register_bot(forged)


def test_register_bot_refuses_a_registration_filed_under_another_id():
    # The signed trigger names the chatbot id; a copy of a genuine
    # registration whose trigger names another id is not signed for it.
    provider = Provider()
    bot = chatbot_init("echo-bot-01", rules_from_text("always"))
    swapped = replace(bot.registration,
                      trigger=replace(bot.registration.trigger, chatbot_id="other-bot-02"))
    with pytest.raises(BadSignature):
        provider.register_bot(swapped)
    with pytest.raises(UnknownChatbot):
        provider.lookup_bot("other-bot-02")
    provider.register_bot(bot.registration)


def test_init_key_directory_refuses_a_key_of_the_wrong_width():
    # a 5-byte init key was published, and the adder's add then raised a
    # bare ValueError inside X25519
    provider = Provider()
    with pytest.raises(MalformedControl):
        provider.directory.register("user-00", bytes(5))
    assert "user-00" not in provider.directory


def test_register_bot_refuses_a_key_of_the_wrong_width():
    # a registration signed over a 5-byte encryption key was accepted, and
    # the attaching member's add_chatbot then raised a bare ValueError
    provider = Provider()
    bot = chatbot_init("short-bot-01", rules_from_text("always"))
    short = make_registration("short-bot-01", bot.enc_identity.public_key[:5],
                              bot.sig_identity, bot.registration.trigger.rules)
    assert short.verify_signature()
    with pytest.raises(MalformedControl):
        provider.register_bot(short)
    with pytest.raises(UnknownChatbot):
        provider.lookup_bot("short-bot-01")


def test_group_table_checks():
    provider = Provider()
    cgka.init("user-00", provider.directory)
    provider.create_group("grp-x", ["user-00"])
    with pytest.raises(DuplicateId):
        provider.create_group("grp-x", ["user-00"])
    with pytest.raises(UnknownMember):
        provider.create_group("grp-y", ["nobody-55"])
    with pytest.raises(UnknownMember):
        provider.add_member("grp-x", "nobody-55")
    with pytest.raises(NotMember):
        provider.remove_member("grp-x", "nobody-55")
    # a roster seats each id once, as a create's tree does
    with pytest.raises(AlreadyMember):
        provider.create_group("grp-z", ["user-00", "user-00"])
    with pytest.raises(NoGroup):
        provider.members("grp-z")


def test_an_unknown_group_is_refused():
    provider = Provider()
    cgka.init("user-00", provider.directory)
    with pytest.raises(NoGroup, match="no group 'grp-nowhere'"):
        provider.publish("grp-nowhere", "user-00", user_view=b"\x00")
    with pytest.raises(NoGroup):
        provider.members("grp-nowhere")
    with pytest.raises(NoGroup):
        provider.add_member("grp-nowhere", "user-00")
    assert provider.transcript == []


def test_detaching_a_bot_that_is_not_attached_is_refused():
    world = make_world(2)
    provider = world.provider
    world.declare_bot("memo-bot", rules_from_text("always"))
    with pytest.raises(NotPresent, match="'memo-bot' is not attached"):
        provider.detach_chatbot("grp-main", "memo-bot")
    provider.create_group("grp-bbb", ["user-00"])
    with pytest.raises(NotPresent):
        provider.detach_chatbot("grp-bbb", "echo-bot-01")
    assert provider.chatbots("grp-main") == {"echo-bot-01"}


# -- routing -------------------------------------------------------------------

def test_views_route_by_recipient_class():
    world = make_world(3)
    user_send(world, "user-01", b"@echo hello")

    by_class = {}
    for row in world.provider.transcript:
        by_class.setdefault(row["recipient_class"], set()).add(row["recipient"])
    assert by_class["user"] <= set(world.users)
    assert by_class["chatbot"] == {"echo-bot-01"}


def test_sender_not_delivered_to_self():
    world = make_world(3)
    seq = world.update("user-01")
    recipients = [r["recipient"] for r in world.provider.transcript if r["seq"] == seq]
    assert "user-01" not in recipients
    assert set(recipients) == {"user-00", "user-02"}
    world.deliver()


def test_nonmember_cannot_publish():
    provider = make_world(2).provider
    with pytest.raises(NotMember):
        provider.publish("grp-main", "stranger-99", user_view=b"\x15junk")


def test_removed_member_stops_receiving():
    world = make_world(3)
    seq = world.remove_user("user-00", "user-02")
    recipients = [r["recipient"] for r in world.provider.transcript if r["seq"] == seq]
    assert recipients == ["user-01"]


def test_transcript_rows_carry_no_sender():
    world = make_world(2)
    user_send(world, "user-00", b"@echo hi")
    for row in world.provider.transcript:
        assert sorted(row) == ["group_id", "recipient", "recipient_class",
                               "seq", "view_b64"]


def test_publish_shares_one_view_string_per_recipient_class():
    # the members of one copath level of the sender share one view, which
    # holds that level's path entries alone, and so do the bots that no
    # entry names; the one addressed bot gets a view of its own entry
    world = make_world(5, bots=(("echo-bot-01", "mention:@echo"),
                                ("memo-bot-02", "never"), ("note-bot-03", "never")))
    provider = world.provider
    out = world.users["user-00"].send(b"@echo shared")
    # leaf 0's copath: leaf 1, then leaves 2 and 3, then leaf 4
    assert [x for x, _ in _control_of(out.user_view).path_entries] == [2, 4, 6, 8]
    seq = world.publish("user-00", out.user_view, out.chatbot_view)
    rows = [r for r in provider.transcript if r["seq"] == seq]
    full = ChatbotMessageView.from_bytes(out.chatbot_view)
    classes = {("user-01",): member_view(out.user_view, 0, 1),
               ("user-02", "user-03"): member_view(out.user_view, 1, 2),
               ("user-04",): member_view(out.user_view, 3, 1),
               ("memo-bot-02", "note-bot-03"): replace(full, body=None).to_bytes(),
               ("echo-bot-01",): out.chatbot_view}
    for recipients, view in classes.items():
        strings = [r["view_b64"] for r in rows if r["recipient"] in recipients]
        assert len(strings) == len(recipients)
        assert all(s is strings[0] for s in strings)
        assert base64.b64decode(strings[0]) == view
        inboxes = [provider.inbox(pid) for pid in recipients]
        assert all(inbox == [view] and inbox[0] is inboxes[0][0] for inbox in inboxes)
    assert len(rows) == 7


def test_transcript_file_roundtrip(tmp_path):
    world = make_world(2)
    user_send(world, "user-00", b"@echo hi")
    path = tmp_path / "transcript.jsonl"
    world.provider.write_transcript(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == world.provider.transcript


def _delivery_rows(seq, group_id, routes):
    """The rows `publish` once appended, one dict per delivery, frozen
    here: each view of a bundle encoded once, its rows sharing the string."""
    rows, encoded = [], {}
    for recipient_class, recipients, views in routes:
        for pid, view in zip(recipients, views):
            view_b64 = encoded.get(view)
            if view_b64 is None:
                view_b64 = encoded[view] = base64.b64encode(view).decode("ascii")
            rows.append({"seq": seq, "group_id": group_id,
                         "recipient_class": recipient_class, "recipient": pid,
                         "view_b64": view_b64})
    return rows


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("name", sorted(canned.ALL))
def test_transcript_reads_as_one_row_per_delivery(monkeypatch, name, seed):
    expected = []
    record = Transcript.record

    def logged(self, seq, group_id, routes):
        expected.extend(_delivery_rows(seq, group_id, routes))
        record(self, seq, group_id, routes)

    monkeypatch.setattr(Transcript, "record", logged)
    t = run_text(canned.ALL[name], seed=seed).provider.transcript
    n = len(t)
    assert n == len(expected) > 0
    assert list(t) == expected
    assert [t[i] for i in range(n)] == expected
    assert [t[i] for i in range(-n, 0)] == expected
    for cut in (slice(0, 5), slice(3, -2), slice(-7, None), slice(None),
                slice(n, None), slice(None, None, 3), slice(None, None, -1)):
        assert t[cut] == expected[cut]
    assert t == list(t) and t == expected and expected == t
    assert t != expected[:-1] and t != expected[::-1]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            t[i]
    # the rows of one view of a bundle share one string, across classes
    strings = {}
    for row in t:
        key = (row["seq"], row["view_b64"])
        assert strings.setdefault(key, row["view_b64"]) is row["view_b64"]
    attaches = [row for row in t if row["recipient_class"] == "chatbot"
                and peek_type(base64.b64decode(row["view_b64"])) == ADD_BOT]
    assert attaches
    for bot_row in attaches:
        members = [r for r in t if r["seq"] == bot_row["seq"]
                   and r["recipient_class"] == "user"]
        assert members and all(r["view_b64"] is bot_row["view_b64"] for r in members)


def test_transcript_stores_a_few_bytes_per_delivery():
    # Beyond the views' own strings, a delivery costs the two references
    # of its route's recipient and view tuples, and a share of the route's
    # record: not a dict of its own, which is about 190 B with its list slot.
    world = bench.World(32, 2)
    for uid in world.ids[:4]:
        world.send_end_to_end(uid, b"warm")
    transcript = world.provider.transcript
    start = len(transcript)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for i in range(40):
            world.send_end_to_end(world.ids[7 * i % 32], b"message %d" % i)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, provider_module.__file__)]
    grown = sum(stat.size_diff for stat in after.filter_traces(only).compare_to(
        before.filter_traces(only), "filename"))
    rows = transcript[start:]
    strings = {id(row["view_b64"]): row["view_b64"] for row in rows}
    views = sum(sys.getsizeof(s) for s in strings.values())
    assert (grown - views) / len(rows) < 48


def test_inbox_drains_once():
    world = make_world(2)
    world.send("user-00", b"plain")
    assert world.provider.inbox("user-01")
    assert world.provider.inbox("user-01") == []


# -- an add's welcome goes to its newcomer only ------------------------------------

def _control_of(view: bytes) -> cgka.CgkaControl | None:
    """The tree control a message view or a wrapped control carries."""
    record = {VIEW_USER_MESSAGE: UserMessageView, GROUP_CONTROL: GroupControl}.get(
        peek_type(view))
    return None if record is None else cgka.CgkaControl.from_bytes(
        record.from_bytes(view).control)


def member_view(blob, first=0, count=None, welcome=False):
    """`blob`, a wrapped control or a message view, re-encoded field by
    field with only `count` of its control's path entries from batch
    position `first` (all by default), and a wrapped control's welcome
    only if `welcome`."""
    record = GroupControl if peek_type(blob) == GROUP_CONTROL else UserMessageView
    view = record.from_bytes(blob)
    ctl = cgka.CgkaControl.from_bytes(view.control)
    last = None if count is None else first + count
    view = replace(view, control=replace(ctl, first=ctl.first + first,
                                         path_entries=ctl.path_entries[first:last]).to_bytes())
    if record is GroupControl and not welcome:
        view = replace(view, welcome=None)
    return view.to_bytes()


def test_welcome_reaches_the_newcomer_alone():
    # each member gets the entries of its copath level of the sender at
    # leaf 0: user-01 the first, user-02 and the newcomer, seated at leaf 3,
    # the other two; the newcomer alone also gets the welcome
    world = make_world(3)
    provider, users = world.provider, world.users
    blob = hand_built_add(world, "user-00", "user-03")
    assert GroupControl.from_bytes(blob).welcome is not None
    assert [x for x, _ in _control_of(blob).path_entries] == [2, 4, 6]
    seq = world.publish("user-00", blob)
    rows = {r["recipient"]: r for r in provider.transcript if r["seq"] == seq}
    assert sorted(rows) == ["user-01", "user-02", "user-03"]
    wants = {"user-01": member_view(blob, 0, 1), "user-02": member_view(blob, 1, 2),
             "user-03": member_view(blob, 1, 2, welcome=True)}
    for uid, row in rows.items():
        want = wants[uid]
        assert row["recipient_class"] == "user"
        assert base64.b64decode(row["view_b64"]) == want
        assert provider.inbox(uid) == [want]
        users[uid].process(want)
    secrets = {u.cgka.group_secret for u in users.values()}
    assert len(secrets) == 1
    assert sorted(users["user-03"].records) == ["echo-bot-01"]


def test_member_view_leaves_a_member_as_the_full_view_does():
    snapshots = []
    for view_of in (member_view, lambda blob: blob):
        with primitives.seeded(b"welcome routing"):
            world = make_world(3)
            blob = hand_built_add(world, "user-00", "user-03")
        world.users["user-01"].process(view_of(blob))
        snapshots.append(json.dumps(world.users["user-01"].snapshot(), sort_keys=True))
    assert snapshots[0] == snapshots[1]


def test_add_naming_an_unrouted_newcomer_is_refused():
    world = make_world(3)
    provider = world.provider
    world.join("user-03")
    blob = world.users["user-00"].add_user("user-03")  # never routed in the group
    rows = len(provider.transcript)
    with pytest.raises(NotMember):
        world.publish("user-00", blob)
    assert len(provider.transcript) == rows
    assert all(provider.inbox(uid) == [] for uid in world.users)
    provider.add_member("grp-main", "user-03")
    seq = world.publish("user-00", blob)
    assert seq == provider.transcript[rows - 1]["seq"] + 1
    assert provider.inbox("user-03") == [member_view(blob, 1, 2, welcome=True)]


def test_send_to_an_unregistered_bot_target_is_refused_before_sequencing():
    world = bench.World(3, 1)
    before = _routing_state(world.provider)
    out = world.users["user-000"].send(b"hello ghost")
    with pytest.raises(UnknownChatbot):
        world.publish("user-000", out.user_view, out.chatbot_view, ("ghost-bot",))
    assert _routing_state(world.provider) == before
    assert world.publish("user-000", out.user_view, out.chatbot_view) == before[0] + 1


def test_a_bot_target_named_twice_is_refused_before_sequencing():
    # it was sequenced with one row per naming, and the second delivery
    # raised DuplicateChatbot at the bot
    world = bench.World(3, 0)
    world.declare_bot("b1", rules_from_text("always"))
    blob = world.users["user-000"].add_chatbot("b1")
    world.provider.attach_chatbot(world.group_id, "b1")
    before = _routing_state(world.provider)
    with pytest.raises(DuplicateChatbot):
        world.publish("user-000", blob, blob, ("b1", "b1"))
    assert _routing_state(world.provider) == before
    assert world.publish("user-000", blob, blob, ("b1",)) == before[0] + 1


def test_a_second_seat_is_refused():
    # adding a member already routed in the group did nothing and raised
    # nothing; with seats it would seat one id twice
    world = make_world(3)
    provider = world.provider
    before = _routing_state(provider), provider.members("grp-main")
    with pytest.raises(AlreadyMember):
        provider.add_member("grp-main", "user-01")
    assert (_routing_state(provider), provider.members("grp-main")) == before
    world.add_user("user-00", "user-03")
    world.deliver()
    assert world.users["user-03"].cgka.tree.members == {
        0: "user-00", 1: "user-01", 2: "user-02", 3: "user-03"}


def _check_seats(provider, group_id, users):
    """The provider seats each member where every member's tree does."""
    channel = provider._channel(group_id)
    for uid in provider.members(group_id):
        tree = users[uid].cgka.tree
        assert (tree.members, tree.capacity) == (channel.seats, channel.capacity), uid


@pytest.mark.parametrize("name", sorted(canned.ALL))
def test_seats_follow_the_tree_and_slices_rebuild_each_control(monkeypatch, name):
    # After every op the provider's seats are each member's committed tree.
    # Of every sequenced tree control, the members' slices, each placed at
    # its `first`, rebuild the sender's entries exactly, and each member's
    # slice holds an entry that it opens.
    sent, checked = {}, []
    real_publish, real_post_op = Provider.publish, Runner._post_op

    def publish(self, group_id, sender, *, user_view, **routing):
        seq = real_publish(self, group_id, sender, user_view=user_view, **routing)
        sent[seq] = user_view
        return seq

    def post_op(self, seq):
        real_post_op(self, seq)
        res = self.result
        _check_seats(res.provider, self.group.group_id, res.users)
        whole = _control_of(sent[seq])
        if whole is None:
            return
        placed = {}
        for row in res.provider.transcript:
            if row["seq"] != seq or row["recipient_class"] != "user":
                continue
            part = _control_of(base64.b64decode(row["view_b64"]))
            assert replace(part, first=0, path_entries=whole.path_entries) == whole
            path = res.users[row["recipient"]].cgka.path
            with counters.paused():
                opened = [pke_open(path[x][1], box, part.ephemeral, i)
                          for i, (x, box) in enumerate(part.path_entries, part.first)
                          if x in path]
            assert opened, row["recipient"]
            for i, entry in enumerate(part.path_entries, part.first):
                assert placed.setdefault(i, entry) == entry
        assert [placed.get(i) for i in range(len(placed))] == whole.path_entries
        checked.append(seq)

    monkeypatch.setattr(Provider, "publish", publish)
    monkeypatch.setattr(Runner, "_post_op", post_op)
    run_text(canned.ALL[name], seed=7)
    assert checked


def test_seats_follow_the_tree_through_churn():
    # each remove frees a leaf that the next add refills; the add past the
    # capacity doubles it, at the provider as in every tree
    with primitives.seeded(5):
        world = bench.World(6, 1)
        _check_seats(world.provider, world.group_id, world.users)
        steps = [("remove", "user-002"), ("add", "new-0"), ("remove", "user-004"),
                 ("add", "new-1"), ("add", "new-2"), ("add", "new-3"), ("add", "new-4")]
        for kind, uid in steps:
            (world.remove_user if kind == "remove" else world.add_user)("user-001", uid)
            world.deliver()
            _check_seats(world.provider, world.group_id, world.users)
            world.send_end_to_end("user-003", f"after {kind} {uid}".encode())
            _check_seats(world.provider, world.group_id, world.users)
    channel = world.provider._channel(world.group_id)
    assert channel.capacity == 16
    assert channel.seats[2] == "new-0" and channel.seats[4] == "new-1"
    assert channel.seats[8] == "new-4"


@pytest.mark.parametrize("n", [8, 32, 128])
def test_a_warm_member_view_carries_one_entry(n):
    # every copath node of a warm tree resolves to itself, so each member's
    # view carries the one entry of its level, and all have one length;
    # the sender still seals log2(n) path entries and one box per bot
    world = bench.World(n, 4)
    ops = counters.OpCounters()
    with counters.collect(ops), counters.attribute("sender"):
        out = world.users["user-001"].send(b"one entry each")
    seq = world.publish("user-001", out.user_view, out.chatbot_view)
    views = [base64.b64decode(r["view_b64"]) for r in world.provider.transcript
             if r["seq"] == seq and r["recipient_class"] == "user"]
    assert len(views) == n - 1
    assert {len(_control_of(view).path_entries) for view in views} == {1}
    depth = int(math.log2(n))
    assert {len(view) for view in views} == {
        len(out.user_view) - cgka.ENTRY_LEN * (depth - 1)}
    assert ops.party("sender")["pke_seal"] == depth + 4
    world.deliver()


def _routing_state(provider):
    return (provider._seq, len(provider.transcript),
            {pid: list(views) for pid, views in provider._inboxes.items()})


def _width_broken(view: ChatbotMessageView, field: str) -> bytes:
    """`view` re-encoded with one field of its body a byte short; encoding
    writes any width, decoding refuses it."""
    body = view.body
    if field == "box":
        (cid, position, box), *rest = body.entries
        body = replace(body, entries=((cid, position, box[:-1]), *rest))
    else:
        body = replace(body, **{field: getattr(body, field)[:-1]})
    return replace(view, body=body).to_bytes()


@pytest.mark.parametrize("broken", ["truncated", "box", "ephemeral", "group_public_key",
                                    "user_view", "tree_control", "add_bot_short",
                                    "remove_bot_short", "chatbot_view_as_user_view",
                                    "split_level"])
def test_a_view_no_recipient_can_read_is_refused_before_sequencing(broken):
    # a member view that lost its last byte, a tree control passed as the
    # chatbot view, and an attach or detach control whose chatbot copy lost
    # its last byte, were each sequenced and delivered; no member handles a
    # chatbot view, and a copath level whose entries are not contiguous
    # cannot be cut into one slice
    world = bench.World(3, 2)
    out = world.users["user-000"].send(b"hello both")
    user_view, bot_view = out.user_view, out.chatbot_view
    if broken == "add_bot_short":
        world.declare_bot("extra-bot", rules_from_text("always"))
        user_view = world.users["user-000"].add_chatbot("extra-bot")
        bot_view = user_view[:-1]
    elif broken == "remove_bot_short":
        user_view = world.users["user-000"].remove_chatbot("bench-bot-000")
        bot_view = user_view[:-1]
    elif broken == "user_view":
        user_view = user_view[:-1]
    elif broken == "chatbot_view_as_user_view":
        user_view = bot_view
    elif broken == "split_level":
        view = UserMessageView.from_bytes(user_view)
        ctl = cgka.CgkaControl.from_bytes(view.control)
        ctl.path_entries.append(ctl.path_entries[0])
        user_view = replace(view, control=ctl.to_bytes()).to_bytes()
    elif broken == "tree_control":
        bot_view = GroupControl(UserMessageView.from_bytes(user_view).control).to_bytes()
    elif broken == "truncated":
        bot_view = bot_view[:-1]
    else:
        bot_view = _width_broken(ChatbotMessageView.from_bytes(bot_view), broken)
    before = _routing_state(world.provider)
    with pytest.raises(MalformedControl):
        world.publish("user-000", user_view, bot_view)
    assert _routing_state(world.provider) == before
    assert world.publish("user-000", out.user_view, out.chatbot_view) == before[0] + 1


def _with_flag_bit(user_view: bytes, bit: int) -> bytes:
    """`user_view` with bit `bit` of its flags byte, after the type byte, set."""
    return user_view[:1] + bytes([user_view[1] | 1 << bit]) + user_view[2:]


def test_a_user_view_with_an_undefined_flag_is_refused_before_sequencing():
    # only bit 0, address_all, is defined: a flags byte with any other bit
    # set has no one meaning, so no member is sent it
    world = bench.World(3, 1)
    out = world.users["user-000"].send(b"hello")
    before = _routing_state(world.provider)
    for bit in range(1, 8):
        with pytest.raises(MalformedControl, match="undefined message flags"):
            world.publish("user-000", _with_flag_bit(out.user_view, bit), out.chatbot_view)
        assert _routing_state(world.provider) == before
    assert world.publish("user-000", out.user_view, out.chatbot_view) == before[0] + 1


@functools.cache
def _mutation_world():
    with primitives.seeded(13):
        world = bench.World(3, 3)
        out = world.users["user-000"].send(b"to every bot", conceal=True)
    return world, out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_chatbot_view_publishes_or_leaves_no_trace(data):
    world, out = _mutation_world()
    provider = world.provider
    blob = out.chatbot_view
    if data.draw(st.booleans()):
        mutated = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)),
                                   min_size=1, max_size=3))
        mutated = bytearray(blob)
        for i, flip in edits:
            mutated[i] ^= flip
        mutated = bytes(mutated)
    before = _routing_state(provider)
    try:
        seq = world.publish("user-000", out.user_view, mutated)
    except ChatGateError:
        assert _routing_state(provider) == before
        return
    assert seq == before[0] + 1
    for row in provider.transcript[before[1]:]:
        if row["recipient_class"] == "chatbot":
            view = base64.b64decode(row["view_b64"])
            if peek_type(view) == VIEW_CHATBOT_MESSAGE:
                body = ChatbotMessageView.from_bytes(view).body
                assert body is None or {cid for cid, _, _ in body.entries} <= {
                    row["recipient"]}
    for pid in [*world.ids, *world.bots]:
        provider.inbox(pid)


def test_an_addressed_bot_gets_a_view_of_one_length_whatever_the_bot_count():
    # every bench bot fires on every message, so the sender's view has m
    # entries; the first bot's delivered view holds its own entry alone
    views = {}
    for m in (2, 8, 16):
        world = bench.World(8, m)
        world.send("user-001", b"one fixed message")
        (views[m],) = world.provider.inbox("bench-bot-000")
        assert world.bots["bench-bot-000"].process(views[m]) == ReceivedMessage(
            b"one fixed message")
    lengths = {m: len(view) for m, view in views.items()}
    assert len(set(lengths.values())) == 1, lengths
    for view in views.values():
        (entry,) = ChatbotMessageView.from_bytes(view).body.entries
        assert entry[:2] == ("bench-bot-000", 0)


def test_an_unaddressed_bot_gets_a_22_byte_notice():
    # the header alone, 1 + (4 + 9) + 4 + 4 B for "grp-bench", whatever the
    # message length, pseudonymity or bot count; it opens to nothing
    lengths = set()
    for m in (2, 8, 16):
        world = bench.World(8, m)
        world.attach_bot("quiet-bot", "never")
        world.register_pseudonyms()
        quiet = world.bots["quiet-bot"]
        for message, pseudonymous in ((b"short", False), (b"long " * 200, False),
                                      (b"signed", True), (b"signed " * 200, True)):
            world.send("user-001", message, pseudonymous=pseudonymous)
            (notice,) = world.provider.inbox("quiet-bot")
            lengths.add(len(notice))
            before = json.dumps(quiet.snapshot(), sort_keys=True)
            assert quiet.process(notice) is group.NOT_ADDRESSED
            assert json.dumps(quiet.snapshot(), sort_keys=True) == before
            world.deliver()
        assert chatbot_view_shape(notice) == (("group_id", 13), ("epoch", 4), ("body", ()))
        assert group.project_view(notice, group._BOT_HANDLERS) == (notice, {})
        elsewhere = replace(ChatbotMessageView.from_bytes(notice), group_id="grp-other")
        with pytest.raises(MalformedControl):
            quiet.process(elsewhere.to_bytes())
        assert json.dumps(quiet.snapshot(), sort_keys=True) == before
    assert lengths == {22}


def test_a_bot_target_not_attached_to_the_group_is_refused_before_sequencing():
    # memo-bot is attached to grp-bbb only; a member of grp-main names it as
    # the target of a removal in grp-main, which would wipe its state
    world = make_world(2, bots=(("memo-bot", "always"),), group_id="grp-bbb")
    provider, memo = world.provider, world.bots["memo-bot"]
    cgka.init("user-main", provider.directory)
    provider.create_group("grp-main", ["user-main"])

    before = _routing_state(provider)
    snapshot = json.dumps(memo.snapshot(), sort_keys=True)
    forged = RemoveBotControl(group_id="grp-main", chatbot_id="memo-bot").to_bytes()
    with pytest.raises(NotPresent):
        provider.publish("grp-main", "user-main", user_view=forged, bot_view=forged,
                         bot_targets=("memo-bot",))
    assert _routing_state(provider) == before
    assert json.dumps(memo.snapshot(), sort_keys=True) == snapshot

    assert world.send("user-01", b"still attached")[0] == before[0] + 1
    assert [memo.process(view) for view in provider.inbox("memo-bot")] == [
        ReceivedMessage(b"still attached")]


def test_a_bot_attached_to_one_group_is_refused_by_another():
    # echo-bot-01 is attached to grp-main; attached to grp-bbb as well, its
    # add there would replace the group the bot holds
    world = make_world(2)
    provider, bots = world.provider, world.bots
    cgka.init("user-10", provider.directory)
    provider.create_group("grp-bbb", ["user-10"])
    with pytest.raises(DuplicateChatbot):
        provider.attach_chatbot("grp-bbb", "echo-bot-01")
    assert provider.chatbots("grp-bbb") == set()
    assert provider.chatbots("grp-main") == {"echo-bot-01"}

    world.send("user-00", b"@echo still attached")
    assert [bots["echo-bot-01"].process(view) for view in provider.inbox("echo-bot-01")] == [
        ReceivedMessage(b"@echo still attached")]
    provider.detach_chatbot("grp-main", "echo-bot-01")
    provider.attach_chatbot("grp-bbb", "echo-bot-01")
    assert provider.chatbots("grp-bbb") == {"echo-bot-01"}


def _left_alone(world, victims):
    """The provider's routing state and the victims' snapshots, after every
    pending view is delivered."""
    world.deliver()
    return _routing_state(world.provider), [
        world.provider.snapshot_state(pid) for pid in victims]


def test_a_chatbot_publishes_no_chatbot_view():
    # bench-bot-000's reply went out with a removal of bench-bot-001 as its
    # chatbot view: it was sequenced, and bench-bot-001 wiped its group
    # state while members and the provider still routed to it
    world = bench.World(4, 2)
    reply = world.bots["bench-bot-000"].send(b"a reply")
    removal = RemoveBotControl(group_id=world.group_id,
                               chatbot_id="bench-bot-001").to_bytes()
    before = _left_alone(world, ["bench-bot-001"])
    with pytest.raises(NotMember, match="only its own replies"):
        world.publish("bench-bot-000", reply, removal)
    assert _left_alone(world, ["bench-bot-001"]) == before
    assert world.publish("bench-bot-000", reply) == before[0][0] + 1


def test_a_chatbot_publishes_only_replies_naming_itself():
    # bot-a re-encoded its reply as bot-b's: every member set bot-b's key to
    # bot-a's node key, so bot-a's state opened what was sent to bot-b alone
    world = bench.World(4, 0)
    world.attach_bot("bot-a", "mention:@a")
    world.attach_bot("bot-b", "mention:@b")
    world.send_end_to_end("user-000", b"@a @b hello both")
    reply = BotMessage.from_bytes(world.bots["bot-a"].send(b"a reply"))
    forged = replace(reply, chatbot_id="bot-b").to_bytes()
    # nor any view a member sends, such as the removal of bot-b
    removal = RemoveBotControl(group_id=world.group_id, chatbot_id="bot-b").to_bytes()
    before = _left_alone(world, [*world.ids, "bot-b"])
    for view in (forged, removal):
        with pytest.raises(NotMember, match="only its own replies"):
            world.publish("bot-a", view)
    assert _left_alone(world, [*world.ids, "bot-b"]) == before
    world.send_end_to_end("user-000", b"@b secret for b only")
    snap = world.provider.snapshot_state("bot-a")
    report = adversary_decrypt(snap, Adversary(world.provider.transcript,
                                               world.provider))
    assert b"@b secret for b only" not in report.plaintexts


def test_a_member_publishes_no_chatbot_reply():
    # user-001 relayed bench-bot-000's reply as its own bundle, and every
    # member processed it as the bot's
    world = bench.World(4, 2)
    world.send_end_to_end("user-000", b"for the bots")
    reply = world.bots["bench-bot-000"].send(b"a reply")
    before = _left_alone(world, world.ids)
    with pytest.raises(NotMember, match="may not publish a chatbot reply"):
        world.publish("user-001", reply)
    assert _left_alone(world, world.ids) == before
    assert world.publish("bench-bot-000", reply) == before[0][0] + 1


def test_welcome_goes_with_an_add_and_only_with_one():
    world = make_world(3)
    update = GroupControl.from_bytes(world.users["user-01"].update_keys())
    add = GroupControl.from_bytes(hand_built_add(world, "user-00", "user-03"))
    for forged in (replace(add, welcome=None), replace(update, welcome=add.welcome)):
        with pytest.raises(MalformedControl):
            world.publish("user-00", forged.to_bytes())
    assert world.provider.transcript[-1]["seq"] == world.provider._seq


def test_add_bytes_to_members_grow_with_the_path_not_the_tree():
    # Counts, not times: a warm group of n members adds one; the n - 1
    # members other than the newcomer get the control only, whose bytes
    # grow with the sender's path (log n), so summed over them an add
    # costs O(n log n) bytes instead of the O(n^2) of a broadcast tree.
    per_member = {}
    for n in (16, 32, 64):
        world = bench.World(n, m=4)
        adder, uid = world.ids[0], "user-new"
        tree = world.users[adder].cgka.tree.to_public_bytes()
        seq = world.add_user(adder, uid)
        views = {r["recipient"]: base64.b64decode(r["view_b64"])
                 for r in world.provider.transcript if r["seq"] == seq}
        welcome = GroupControl.from_bytes(views.pop(uid)).welcome
        assert welcome.tree == tree
        assert [cid for cid, _ in welcome.roster] == sorted(world.bots)
        assert len(views) == n - 1
        assert all(GroupControl.from_bytes(v).welcome is None for v in views.values())
        per_member[n] = sum(map(len, views.values())) / n

        world.deliver()
        newcomer, sender = world.users[uid], world.users[world.ids[1]]
        assert newcomer.epoch == sender.epoch
        assert newcomer.cgka.group_secret == sender.cgka.group_secret
        world.send(world.ids[1], b"hello newcomer")
        [view] = world.provider.inbox(uid)
        assert newcomer.process(view) == group.ReceivedMessage(b"hello newcomer")
        world.deliver()
    assert max(per_member.values()) < 1.6 * min(per_member.values()), per_member


def test_snapshot_state_is_canonical():
    provider = make_world(2).provider
    a = provider.snapshot_state("user-00")
    b = provider.snapshot_state("user-00")
    assert a == b
    json.loads(a)  # valid JSON


# -- adversary ------------------------------------------------------------------

def test_adversary_with_empty_state_recovers_nothing():
    world = make_world(3)
    for i, msg in enumerate([b"@echo alpha", b"plain beta", b"@echo gamma"]):
        user_send(world, f"user-{i:02d}", msg)
    report = adversary_decrypt(b"{}", Adversary(world.provider.transcript,
                                                world.provider))
    assert report.plaintexts == frozenset()
    assert report.secrets == frozenset()


def test_compromised_chatbot_reads_exactly_addressed_messages():
    world = make_world(3)
    provider = world.provider
    sent = {
        b"@echo alpha": True,
        b"plain beta": False,
        b"@echo gamma": True,
        b"hidden delta": False,
    }
    for i, msg in enumerate(sent):
        user_send(world, f"user-{i % 3:02d}", msg)

    snap = provider.snapshot_state("echo-bot-01")
    report = adversary_decrypt(snap, Adversary(provider.transcript, provider))
    triggered = {m for m, hit in sent.items() if hit}
    assert triggered <= report.plaintexts
    hidden = {m for m, hit in sent.items() if not hit}
    assert not (hidden & report.plaintexts)


def test_compromised_user_reads_group_traffic():
    world = make_world(3)
    provider = world.provider
    user_send(world, "user-00", b"@echo alpha")
    user_send(world, "user-01", b"plain beta")
    snap = provider.snapshot_state("user-02")
    report = adversary_decrypt(snap, Adversary(provider.transcript, provider))
    # current group secret decrypts the latest message directly
    assert b"plain beta" in report.plaintexts


def test_newcomer_capture_after_its_first_update_reopens_no_earlier_message():
    # A newcomer's leaf key is its init key until its own first update,
    # which replaces that leaf and drops the key with it: a later capture
    # opens none of the path entries sealed to the leaf before, and still
    # reads what is sent after.
    with primitives.seeded(11):
        world = bench.World(8, 0)
        world.add_user("user-000", "user-new")
        world.deliver()
        early = [f"early message {i}".encode() for i in range(3)]
        for i, message in enumerate(early):
            world.send_end_to_end(world.ids[i + 1], message)
        for uid in world.users:
            world.update(uid)
            world.deliver()
        world.send_end_to_end("user-001", b"later message")
    snap = world.provider.snapshot_state("user-new")
    report = adversary_decrypt(snap, Adversary(world.provider.transcript,
                                               world.provider))
    assert report.plaintexts & set(early) == set()
    assert b"later message" in report.plaintexts


def test_concealment_dummies_do_not_decrypt():
    world = make_world(2, bots=(("echo-bot-01", "mention:@echo"),
                                ("log-bot-02", "never")))
    provider = world.provider
    user_send(world, "user-00", b"@echo only you", conceal=True)
    snap = provider.snapshot_state("log-bot-02")
    report = adversary_decrypt(snap, Adversary(provider.transcript, provider))
    assert b"@echo only you" not in report.plaintexts


def test_unnamed_recipient_leaves_box_unhinted_and_tried():
    # Without the bot's registration, public data cannot name who its
    # attach seed was sealed to: that box meets every candidate instead,
    # and the adversary recovers exactly the same.
    world = make_world(3)
    provider, bots = world.provider, world.bots
    user_send(world, "user-00", b"@echo alpha")
    world.bot_send("echo-bot-01", b"echo reply")
    world.deliver()
    unknown = Provider()
    named = _collect_material(provider.transcript, provider)[0]
    unhinted = [box for box, hints in
                _collect_material(provider.transcript, unknown)[0].items() if not hints]
    assert [named[box] for box in unhinted] == [
        {bots["echo-bot-01"].registration.enc_public_key}]
    snap = provider.snapshot_state("echo-bot-01")
    report = adversary_decrypt(snap, Adversary(provider.transcript, unknown))
    assert report == adversary_decrypt(snap, Adversary(provider.transcript,
                                                         provider))
    assert b"@echo alpha" in report.plaintexts


@pytest.mark.parametrize("carrier", ["group_control", "user_message"])
def test_adversary_climbs_as_far_as_the_longest_path_on_the_wire(carrier):
    # A 14-node path: the state's one value opens the path's bottom secret,
    # and only the top of its chain, 13 links up, keys the message. The
    # path rides in a tree control or in the message view's own control.
    scalar = primitives.random_secret()
    chain = [primitives.random_secret()]
    for _ in range(13):
        chain.append(derive(chain[-1], CHAIN))
    top = chain[-1]
    target = x25519_key_pair(scalar).public_key
    ephemeral, [box] = pke_seal_batch([(target, chain[0])])
    deep = cgka.CgkaControl(
        kind="update", group_id="grp-deep", epoch=0, sender_leaf=0,
        new_public_path=[pke_keygen(s).public_key for s in chain],
        ephemeral=ephemeral, path_entries=[(0, box)])
    shallow = cgka.CgkaControl(kind="update", group_id="grp-deep", epoch=0,
                               sender_leaf=0)
    if carrier == "group_control":
        # the message's own control names the deep path's top as its root
        shallow.new_public_path = [deep.new_public_path[-1]]
    message = UserMessageView(
        flags=0, control=(deep if carrier == "user_message" else shallow).to_bytes(),
        ciphertext=primitives.sym_encrypt(derive(top, MSG_KEY),
                                          group._encode_plain(b"deep message")))
    views = [message.to_bytes()]
    if carrier == "group_control":
        views.insert(0, GroupControl(control=deep.to_bytes()).to_bytes())
    transcript = [{"seq": seq, "group_id": "grp-deep", "recipient_class": "user",
                   "recipient": "user-01",
                   "view_b64": base64.b64encode(view).decode("ascii")}
                  for seq, view in enumerate(views, 1)]
    snapshot = json.dumps({"scalar": scalar.hex()}).encode("ascii")
    report = adversary_decrypt(snapshot, Adversary(transcript, Provider()))
    assert report.plaintexts == {b"deep message"}
    assert report.boxes_opened == 1
    assert _collect_material(transcript, Provider())[2] == 14


@pytest.mark.parametrize("target", ["past_the_tree", "u32_max"])
def test_entry_naming_a_node_outside_the_tree_is_left_unhinted(target):
    # the follower names every other entry of the control by its true key.
    # The forged control travels whole, in a row of its own: a provider
    # that slices by copath level sends no member an entry whose level
    # seats none, as the u32_max one's does not.
    world = bench.World(4, 0)
    wrapped = GroupControl.from_bytes(world.users["user-000"].update_keys())
    tree = world.users["user-000"].cgka.tree
    ctl = cgka.CgkaControl.from_bytes(wrapped.control)
    bad = {"past_the_tree": len(tree.nodes), "u32_max": 2**32 - 1}[target]
    (_, forged_box), *rest = ctl.path_entries
    ctl.path_entries[0] = (bad, forged_box)
    forged = replace(wrapped, control=ctl.to_bytes()).to_bytes()
    transcript = [*world.provider.transcript, {
        "seq": world.provider._seq + 1, "group_id": world.group_id,
        "recipient_class": "user", "recipient": "user-001",
        "view_b64": base64.b64encode(forged).decode("ascii")}]
    hints = _collect_material(transcript, world.provider)[0]
    assert hints[(forged_box, ctl.ephemeral, 0)] == frozenset()
    assert rest
    for i, (x, box) in enumerate(rest, 1):
        assert hints[(box, ctl.ephemeral, i)] == {tree.nodes[x]}


def test_follower_refuses_a_membership_control_in_a_message_view():
    # Members refuse it, so the follower names none of its entries.
    world = bench.World(4, 0)
    ctl = world.users["user-000"].cgka.remove("user-003")
    view = UserMessageView(flags=0, control=ctl.to_bytes(), ciphertext=b"").to_bytes()
    world.publish("user-000", view)
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    assert ctl.path_entries
    for i, (_, box) in enumerate(ctl.path_entries):
        assert hints[(box, ctl.ephemeral, i)] == frozenset()


@pytest.mark.parametrize("forgery", ["stale_epoch", "empty_sender_leaf"])
def test_follower_drops_a_group_after_a_control_it_cannot_apply(forgery):
    # Members refuse the forged control, so the follower can no longer tell
    # which tree they hold: it names none of the forged control's entries,
    # nor any of the group's later ones, which stay exhaustive.
    world = bench.World(4, 0)
    genuine = world.users["user-000"].update_keys()
    wrapped = GroupControl.from_bytes(genuine)
    ctl = cgka.CgkaControl.from_bytes(wrapped.control)
    if forgery == "stale_epoch":
        forged = replace(ctl, epoch=ctl.epoch - 1)
    else:
        forged = replace(ctl, sender_leaf=2**32 - 1)
    for view in (replace(wrapped, control=forged.to_bytes()).to_bytes(), genuine):
        world.publish("user-000", view)
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    assert ctl.path_entries
    for i, (_, box) in enumerate(ctl.path_entries):
        assert hints[(box, ctl.ephemeral, i)] == frozenset()
    # followed without the forgery, the same control names every entry
    world = bench.World(4, 0)
    tree = world.users["user-000"].cgka.tree
    genuine = world.users["user-000"].update_keys()
    world.publish("user-000", genuine)
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    ctl = cgka.CgkaControl.from_bytes(GroupControl.from_bytes(genuine).control)
    for i, (x, box) in enumerate(ctl.path_entries):
        assert hints[(box, ctl.ephemeral, i)] == {tree.nodes[x]}


@pytest.mark.parametrize("seed", [7, 23])
def test_adversary_decodes_each_distinct_view_once(monkeypatch, seed):
    decoded = []
    decode = base64.b64decode

    def counted(s, *args, **kwargs):
        decoded.append(s)
        return decode(s, *args, **kwargs)

    for name in sorted(canned.ALL):
        result = run_text(canned.ALL[name], seed=seed)
        rows = list(result.provider.transcript)
        expected = _collect_material(rows, result.provider)
        # the same rows, each with a string of its own
        copies = [{**row, "view_b64": "".join(row["view_b64"])} for row in rows]
        decoded.clear()
        with monkeypatch.context() as m:
            m.setattr(provider_module.base64, "b64decode", counted)
            assert _collect_material(copies, result.provider) == expected
        assert len(decoded) == len({row["view_b64"] for row in rows}) < len(rows)


def _reference_material(transcript):
    """Reference boxes as (hint or None, (box, batch ephemeral or None,
    position)), ciphertexts mapped to the
    keys their views name, and the longest tree path (at least 1),
    independent of the adversary's own scrape. Chatbot entries, which only
    chatbot views carry, name the bot's node key tracked in transcript
    order; tree entries, bot replies and attach seeds stay unhinted, so the
    oracle below tries them against every candidate. A member's view names
    the root slot of its control's path, the group secret's confirmation,
    a chatbot view's body its group key and a bot reply its node key; a
    notice, which has no body, names nothing."""
    boxes = {}
    ciphertexts = {}
    seen = set()
    bot_pk = {}
    depths = [1]

    def add_box(box, hint):
        if box not in boxes or boxes[box] is None:
            boxes[box] = hint

    def control_boxes(control):
        # a member's slice holds the entries from batch position `first`
        depths.append(len(control.new_public_path))
        for i, (_target, box) in enumerate(control.path_entries, control.first):
            add_box((box, control.ephemeral, i), None)

    for row in transcript:
        view = base64.b64decode(row["view_b64"])
        if view in seen:
            continue
        seen.add(view)
        kind = peek_type(view)
        if kind == VIEW_USER_MESSAGE:
            v = UserMessageView.from_bytes(view)
            control = cgka.CgkaControl.from_bytes(v.control)
            ciphertexts.setdefault(v.ciphertext, set()).add(control.new_public_path[-1])
            control_boxes(control)
        elif kind == VIEW_CHATBOT_MESSAGE:
            v = ChatbotMessageView.from_bytes(view).body
            if v is None:
                continue
            ciphertexts.setdefault(v.ciphertext, set()).add(v.group_public_key)
            for cid, position, box in v.entries:
                add_box((box, v.ephemeral, position), bot_pk.get(cid))
        elif kind == BOT_MESSAGE:
            v = BotMessage.from_bytes(view)
            ciphertexts.setdefault(v.ciphertext, set()).add(v.node_public_key)
            add_box((v.sealed_key, None, 0), None)
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == ADD_BOT:
            v = AddBotControl.from_bytes(view)
            add_box((v.sealed_seed, None, 0), None)
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == GROUP_CONTROL:
            control_boxes(cgka.CgkaControl.from_bytes(
                GroupControl.from_bytes(view).control))
    return ([(hint, box) for box, hint in boxes.items()], ciphertexts,
            max(depths))


@dataclass
class _OracleLog:
    """What the all-pairs oracle tried, and the class of each candidate."""

    box_trials: list = field(default_factory=list)   # (candidate, box)
    ct_trials: list = field(default_factory=list)    # (candidate, ciphertext)
    raw: set = field(default_factory=set)            # harvested or opened
    scalars: set = field(default_factory=set)        # pke_keygen secret keys
    links: dict = field(default_factory=dict)        # message key -> link names
    pk_of: dict = field(default_factory=dict)        # candidate -> X25519 pk
    ct_hints: dict = field(default_factory=dict)     # ciphertext -> named pks


def _reference_expand(secret, depth, log):
    """The set-valued expansion the oracle feeds on: the chain above one
    value, each link's message key and `pke_keygen` secret key. Logs the
    class of each value it derives, and the names of each link: its public
    key and its confirmation, which is public and no candidate."""
    out = set()
    s = secret
    for _ in range(depth):
        if s in out:
            break
        out.add(s)
        message_key = derive(s, MSG_KEY)
        pair = pke_keygen(s)
        out.add(message_key)
        out.add(pair.secret_key)
        log.links[message_key] = {pair.public_key, derive(s, CONFIRM)}
        log.scalars.add(pair.secret_key)
        s = derive(s, CHAIN)
    return out


def _all_pairs_adversary(snapshot, transcript):
    """Reference oracle: the all-pairs fixpoint loop the indexed adversary
    replaced, over `_reference_material`, with chains as long as its
    longest path. Each round tries every held secret against every box and
    ciphertext, skips pairs already tried and boxes whose hint names
    another key, and opens with each secret's X25519 key pair. Returns the
    report and an `_OracleLog` of every trial."""
    log = _OracleLog()
    seeds = _harvest_hex(json.loads(snapshot))
    boxes, log.ct_hints, depth = _reference_material(transcript)
    secrets = set()
    pairs = {}
    frontier = set()
    for seed in seeds:
        log.raw.add(seed)
        frontier |= _reference_expand(seed, depth, log)
    payloads = set()
    tried_boxes = set()
    tried_cts = set()
    boxes_opened = cts_opened = 0
    while frontier:
        secrets |= frontier
        for key in frontier:
            pairs[key] = x25519_key_pair(key)
            log.pk_of[key] = pairs[key].public_key
        new = set()
        for key in sorted(secrets):
            for hint, box in boxes:
                if hint is not None and log.pk_of[key] != hint:
                    continue
                if (key, box) in tried_boxes:
                    continue
                tried_boxes.add((key, box))
                try:
                    opened = pke_open(pairs[key], *box)
                except Exception:
                    continue
                boxes_opened += 1
                if len(opened) == 32 and opened not in secrets:
                    log.raw.add(opened)
                    new |= _reference_expand(opened, depth, log)
            for ct in log.ct_hints:
                if (key, ct) in tried_cts:
                    continue
                tried_cts.add((key, ct))
                try:
                    payloads.add(sym_decrypt(key, ct))
                except Exception:
                    continue
                cts_opened += 1
        frontier = new - secrets
    report = AdversaryReport(
        plaintexts=frozenset(_payload_message(p) for p in payloads),
        payloads=frozenset(payloads), secrets=frozenset(secrets),
        boxes_opened=boxes_opened, ciphertexts_opened=cts_opened)
    log.box_trials = list(tried_boxes)
    log.ct_trials = list(tried_cts)
    return report, log


def _attacked_snapshots(result):
    """Every snapshot a probe hands the adversary: each chatbot's final
    state and every compromise capture."""
    for cid in sorted(result.bots):
        history = result.snapshots.get(cid)
        if history:
            yield cid, history[-1][1]
    for label, event in sorted(result.compromises.items()):
        yield label, event.snapshot


@pytest.mark.parametrize("name", sorted(canned.ALL))
def test_indexed_adversary_matches_all_pairs_loop(name):
    result = run_text(canned.ALL[name], seed=7)
    transcript = result.provider.transcript
    box_hints, ciphertexts, _depth = _collect_material(transcript, result.provider)
    # the oracle names each ciphertext's key from its own decode
    assert ciphertexts == _reference_material(transcript)[1]
    opened = set()
    for who, snapshot in _attacked_snapshots(result):
        with counters.collect(counters.OpCounters()) as ref_ops:
            expected, log = _all_pairs_adversary(snapshot, transcript)
        with counters.collect(counters.OpCounters()) as ops:
            report = adversary_decrypt(snapshot, Adversary(transcript, result.provider))
        assert report == expected, who
        opened.add((report.boxes_opened > 0, report.ciphertexts_opened > 0))
        # The types only drop trials that fail with certainty. The
        # adversary makes exactly the oracle's ciphertext trials whose
        # candidate is a raw value, or a message key whose link's public
        # key or confirmation the ciphertext names...
        kept_cts = sum(1 for key, ct in log.ct_trials
                       if key in log.raw
                       or (key in log.links and log.links[key] & log.ct_hints[ct]))
        assert ops.total("sym_decrypt") == kept_cts, who
        # ...and exactly its box trials whose candidate is a raw value or a
        # link's scalar, on boxes left unhinted or hinted with its key.
        kept_boxes = sum(1 for key, box in log.box_trials
                         if (key in log.raw or key in log.scalars)
                         and (not box_hints[box] or log.pk_of[key] in box_hints[box]))
        assert ops.total("pke_open") == kept_boxes, who
        for op in counters.COUNTED_OPS:
            if op not in ("pke_open", "sym_decrypt"):
                assert ops.total(op) == ref_ops.total(op), (who, op)
    assert (True, True) in opened  # the comparison covered real recoveries


@pytest.mark.parametrize("name,seed", [(name, seed) for name in sorted(canned.ALL)
                                       for seed in (7, 23)])
def test_shared_adversary_matches_a_fresh_one_per_snapshot(name, seed):
    # One `Adversary` attacks every snapshot of the run, each party's
    # whole history and every compromise, and reports what a fresh one per
    # snapshot reports, with fewer keygens, opens and decrypts in all.
    result = run_text(canned.ALL[name], seed=seed)
    transcript = result.provider.transcript
    snapshots = [snap for _, history in sorted(result.snapshots.items())
                 for _, snap in history]
    snapshots += [event.snapshot for _, event in sorted(result.compromises.items())]
    shared = Adversary(transcript, result.provider)
    with counters.collect(counters.OpCounters()) as fresh_ops:
        fresh = [adversary_decrypt(snap, Adversary(transcript, result.provider))
                 for snap in snapshots]
    with counters.collect(counters.OpCounters()) as shared_ops:
        reports = [adversary_decrypt(snap, shared) for snap in snapshots]
    assert reports == fresh
    assert any(report.plaintexts for report in reports)
    work = ("pke_keygen", "pke_open", "sym_decrypt")
    assert sum(shared_ops.total(op) for op in work) < sum(
        fresh_ops.total(op) for op in work)
    for op in work:
        assert shared_ops.total(op) <= fresh_ops.total(op), op


def test_adversary_refuses_a_transcript_that_grew():
    # its memo covers only the rows it collected on its first attack
    result = run_text(canned.SELECTIVE_ACCESS, seed=7)
    rows = list(result.provider.transcript)
    snapshot = result.snapshots["user-00"][-1][1]
    adversary = Adversary(rows, result.provider)
    report = adversary_decrypt(snapshot, adversary)
    assert adversary_decrypt(snapshot, adversary) == report
    rows.append(rows[-1])
    with pytest.raises(ValueError, match="grew"):
        adversary_decrypt(snapshot, adversary)


def _audit_scenario_text(monkeypatch, seed):
    """One scenario shaped like the benchmark's audit workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    ops = workloads.audit_blocks(random.Random(f"audit:{seed}"), 2)
    return workloads.scenario_text(workloads.AUDIT, ops)


@pytest.fixture
def seal_log(monkeypatch):
    """Every box `pke_seal` makes during the test, as the adversary names
    it (its bytes, batch ephemeral and position), mapped to the public key
    it was sealed to."""
    log = {}
    real = primitives.pke_seal

    def logged(public_key, payload, eph=None, position=0):
        box = real(public_key, payload, eph, position)
        log[SealedBox(box) if eph is None
            else SealedBox(box, eph.public_key, position)] = public_key
        return box

    for module in (primitives, group):
        monkeypatch.setattr(module, "pke_seal", logged)
    return log


@pytest.mark.parametrize("name,seed", [
    *((name, seed) for name in sorted(canned.ALL) for seed in (7, 23)),
    ("audit", 301)])
def test_hints_name_the_true_recipient(monkeypatch, seal_log, name, seed):
    text = (_audit_scenario_text(monkeypatch, seed) if name == "audit"
            else canned.ALL[name])
    result = run_text(text, seed=seed)
    boxes, _cts, _depth = _collect_material(result.provider.transcript,
                                            result.provider)
    dummies = 0
    for box, hints in boxes.items():
        if box not in seal_log:
            dummies += 1  # a concealment dummy, sealed to no one
            continue
        assert hints, "public data names the recipient of every seal"
        assert seal_log[box] in hints
    assert dummies == sum(len(ev.concealed) for ev in result.sends)



@pytest.fixture
def key_log(monkeypatch):
    """Every message key `group` derives, mapped to its seed, and every
    ciphertext `group` encrypts, mapped to its key."""
    seeds, keys = {}, {}
    real_derive, real_encrypt = primitives.derive, primitives.sym_encrypt

    def logged_derive(seed, label=CHAIN):
        out = real_derive(seed, label)
        if label == MSG_KEY:
            seeds[out] = seed
        return out

    def logged_encrypt(key, message):
        ct = real_encrypt(key, message)
        keys[ct] = key
        return ct

    monkeypatch.setattr(group, "derive", logged_derive)
    monkeypatch.setattr(group, "sym_encrypt", logged_encrypt)
    return seeds, keys


@pytest.mark.parametrize("name,seed", [
    *((name, seed) for name in sorted(canned.ALL) for seed in (7, 23)),
    ("audit", 301)])
def test_ciphertext_hints_name_the_message_key_seed(monkeypatch, key_log,
                                                    name, seed):
    # Every AEAD key is `derive(x, MSG_KEY)`, and the view carrying the
    # ciphertext names `pke_keygen(x).public_key` or, a member's view,
    # `derive(x, CONFIRM)`: the adversary tries a link's message key only
    # on ciphertexts that name that link.
    seeds, keys = key_log
    text = (_audit_scenario_text(monkeypatch, seed) if name == "audit"
            else canned.ALL[name])
    result = run_text(text, seed=seed)
    _boxes, ciphertexts, _depth = _collect_material(result.provider.transcript,
                                                    result.provider)
    assert ciphertexts
    for ct, hints in ciphertexts.items():
        seed = seeds[keys[ct]]
        assert {pke_keygen(seed).public_key, derive(seed, CONFIRM)} & hints

if __name__ == "__main__":
    pytest.main([__file__, "-v"])
