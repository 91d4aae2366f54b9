"""Provider: PKI checks, routing, transcript shape, and the adversary."""

import base64
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from chatgate import cgka, counters, group, primitives
from chatgate.errors import (
    BadSignature,
    DuplicateChatbot,
    DuplicateId,
    MalformedControl,
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
    user_init,
)
from chatgate.harness import bench, canned
from chatgate.harness.runner import run_text
from chatgate.primitives import (
    CHAIN,
    MSG_KEY,
    derive,
    pke_keygen,
    pke_open,
    sym_decrypt,
    x25519_key_pair,
)
from chatgate.provider import (
    Adversary,
    AdversaryReport,
    Provider,
    _collect_material,
    _harvest_hex,
    _payload_message,
    adversary_decrypt,
)
from chatgate.triggers import make_registration, rules_from_text


def make_world(n=3, bots=(("echo-bot-01", "mention:@echo"),), group_id="grp-main"):
    """Provider-mediated group: every view travels through publish/inbox."""
    provider = Provider()
    ids = [f"user-{i:02d}" for i in range(n)]
    users = {uid: user_init(cgka.init(uid, provider.directory), provider)
             for uid in ids}
    bot_states = {}
    for cid, rules_text in bots:
        bot = chatbot_init(cid, rules_from_text(rules_text))
        provider.register_bot(bot.registration)
        bot_states[cid] = bot

    for uid, user in users.items():
        provider.register_party(uid, user)
    for cid, bot in bot_states.items():
        provider.register_party(cid, bot)

    creator = users[ids[0]]
    provider.create_group(group_id, ids)
    blob = creator.create_group(group_id, ids)
    provider.publish(group_id, ids[0], user_view=blob)
    drain(provider, users, bot_states)

    for cid in bot_states:
        blob = creator.add_chatbot(cid)
        provider.attach_chatbot(group_id, cid)
        provider.publish(group_id, ids[0], user_view=blob, bot_view=blob,
                         bot_targets=(cid,))
        drain(provider, users, bot_states)
    return provider, users, bot_states


def drain(provider, users, bots):
    """Deliver every pending view to its party."""
    for uid, user in users.items():
        for view in provider.inbox(uid):
            user.process(view)
    for cid, bot in bots.items():
        for view in provider.inbox(cid):
            bot.process(view)


def user_send(provider, users, bots, sender, message, **kw):
    out = users[sender].send(message, **kw)
    provider.publish(users[sender].group_id, sender,
                     user_view=out.user_view, bot_view=out.chatbot_view)
    drain(provider, users, bots)
    return out


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
                              bot.sig_identity.secret_key,
                              bot.sig_identity.public_key, bot.registration.trigger.rules)
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


# -- routing -------------------------------------------------------------------

def test_views_route_by_recipient_class():
    provider, users, bots = make_world(3)
    user_send(provider, users, bots, "user-01", b"@echo hello")

    by_class = {}
    for row in provider.transcript:
        by_class.setdefault(row["recipient_class"], set()).add(row["recipient"])
    assert by_class["user"] <= set(users)
    assert by_class["chatbot"] == {"echo-bot-01"}


def test_sender_not_delivered_to_self():
    provider, users, bots = make_world(3)
    seq = provider.publish("grp-main", "user-01",
                           user_view=users["user-01"].update_keys())
    recipients = [r["recipient"] for r in provider.transcript if r["seq"] == seq]
    assert "user-01" not in recipients
    assert set(recipients) == {"user-00", "user-02"}
    drain(provider, users, bots)


def test_nonmember_cannot_publish():
    provider, users, bots = make_world(2)
    with pytest.raises(NotMember):
        provider.publish("grp-main", "stranger-99", user_view=b"\x15junk")


def test_removed_member_stops_receiving():
    provider, users, bots = make_world(3)
    blob = users["user-00"].remove_user("user-02")
    provider.remove_member("grp-main", "user-02")
    seq = provider.publish("grp-main", "user-00", user_view=blob)
    recipients = [r["recipient"] for r in provider.transcript if r["seq"] == seq]
    assert recipients == ["user-01"]


def test_transcript_rows_carry_no_sender():
    provider, users, bots = make_world(2)
    user_send(provider, users, bots, "user-00", b"@echo hi")
    for row in provider.transcript:
        assert sorted(row) == ["group_id", "recipient", "recipient_class",
                               "seq", "view_b64"]


def test_publish_shares_one_view_string_per_recipient_class():
    provider, users, bots = make_world(3)
    out = users["user-00"].send(b"@echo shared")
    seq = provider.publish("grp-main", "user-00", user_view=out.user_view,
                           bot_view=out.chatbot_view)
    rows = [r for r in provider.transcript if r["seq"] == seq]
    views = {"user": out.user_view, "chatbot": out.chatbot_view}
    for cls, view in views.items():
        strings = [r["view_b64"] for r in rows if r["recipient_class"] == cls]
        assert strings and all(s is strings[0] for s in strings)
        assert base64.b64decode(strings[0]) == view
    for row in rows:
        inbox = provider.inbox(row["recipient"])
        assert inbox == [base64.b64decode(row["view_b64"])]
    assert {r["recipient"] for r in rows} == {"user-01", "user-02", "echo-bot-01"}


def test_transcript_file_roundtrip(tmp_path):
    provider, users, bots = make_world(2)
    user_send(provider, users, bots, "user-00", b"@echo hi")
    path = tmp_path / "transcript.jsonl"
    provider.write_transcript(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == provider.transcript


def test_inbox_drains_once():
    provider, users, bots = make_world(2)
    out = users["user-00"].send(b"plain")
    provider.publish("grp-main", "user-00", user_view=out.user_view,
                     bot_view=out.chatbot_view)
    assert provider.inbox("user-01")
    assert provider.inbox("user-01") == []


# -- an add's welcome goes to its newcomer only ------------------------------------

def add_newcomer(provider, users, adder, uid, group_id="grp-main"):
    """A fresh `uid`, routed in the group; returns the add's user view."""
    users[uid] = user_init(cgka.init(uid, provider.directory), provider)
    blob = users[adder].add_user(uid)
    provider.add_member(group_id, uid)
    return blob


def member_view(blob):
    return replace(GroupControl.from_bytes(blob), welcome=None).to_bytes()


def test_welcome_reaches_the_newcomer_alone():
    provider, users, bots = make_world(3)
    blob = add_newcomer(provider, users, "user-00", "user-03")
    assert GroupControl.from_bytes(blob).welcome is not None
    seq = provider.publish("grp-main", "user-00", user_view=blob)
    rows = {r["recipient"]: r for r in provider.transcript if r["seq"] == seq}
    assert sorted(rows) == ["user-01", "user-02", "user-03"]
    for uid, row in rows.items():
        want = blob if uid == "user-03" else member_view(blob)
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
            provider, users, bots = make_world(3)
            blob = add_newcomer(provider, users, "user-00", "user-03")
        users["user-01"].process(view_of(blob))
        snapshots.append(json.dumps(users["user-01"].snapshot(), sort_keys=True))
    assert snapshots[0] == snapshots[1]


def test_add_naming_an_unrouted_newcomer_is_refused():
    provider, users, bots = make_world(3)
    users["user-03"] = user_init(cgka.init("user-03", provider.directory), provider)
    blob = users["user-00"].add_user("user-03")  # never routed in the group
    rows = len(provider.transcript)
    with pytest.raises(NotMember):
        provider.publish("grp-main", "user-00", user_view=blob)
    assert len(provider.transcript) == rows
    assert all(provider.inbox(uid) == [] for uid in users)
    provider.add_member("grp-main", "user-03")
    seq = provider.publish("grp-main", "user-00", user_view=blob)
    assert seq == provider.transcript[rows - 1]["seq"] + 1
    assert provider.inbox("user-03") == [blob]


def test_send_to_an_unregistered_bot_target_is_refused_before_sequencing():
    world = bench.World(3, 1)
    provider = world.provider
    rows, seq = len(provider.transcript), provider._seq
    out = world.users["user-000"].send(b"hello ghost")
    with pytest.raises(UnknownChatbot):
        provider.publish(world.group_id, "user-000", user_view=out.user_view,
                         bot_view=out.chatbot_view, bot_targets=("ghost-bot",))
    assert len(provider.transcript) == rows
    assert provider._seq == seq
    assert all(provider.inbox(pid) == [] for pid in [*world.ids, *world.bots])
    assert provider.publish(world.group_id, "user-000", user_view=out.user_view,
                            bot_view=out.chatbot_view) == seq + 1


def test_a_bot_target_not_attached_to_the_group_is_refused_before_sequencing():
    # memo-bot is attached to grp-bbb only; a member of grp-main names it as
    # the target of a removal in grp-main, which would wipe its state
    provider, users, _ = make_world(2, bots=())
    others = {uid: user_init(cgka.init(uid, provider.directory), provider)
              for uid in ("user-10", "user-11")}
    memo = chatbot_init("memo-bot", rules_from_text("always"))
    provider.register_bot(memo.registration)
    provider.create_group("grp-bbb", list(others))
    provider.publish("grp-bbb", "user-10",
                     user_view=others["user-10"].create_group("grp-bbb", list(others)))
    provider.attach_chatbot("grp-bbb", "memo-bot")
    blob = others["user-10"].add_chatbot("memo-bot")
    provider.publish("grp-bbb", "user-10", user_view=blob, bot_view=blob,
                     bot_targets=("memo-bot",))
    drain(provider, others, {"memo-bot": memo})

    rows, seq = len(provider.transcript), provider._seq
    before = json.dumps(memo.snapshot(), sort_keys=True)
    forged = RemoveBotControl(group_id="grp-main", chatbot_id="memo-bot").to_bytes()
    with pytest.raises(NotPresent):
        provider.publish("grp-main", "user-00", user_view=forged, bot_view=forged,
                         bot_targets=("memo-bot",))
    assert len(provider.transcript) == rows
    assert provider._seq == seq
    assert all(provider.inbox(pid) == [] for pid in [*users, *others, "memo-bot"])
    assert json.dumps(memo.snapshot(), sort_keys=True) == before

    out = others["user-11"].send(b"still attached")
    assert provider.publish("grp-bbb", "user-11", user_view=out.user_view,
                            bot_view=out.chatbot_view) == seq + 1
    assert [memo.process(view) for view in provider.inbox("memo-bot")] == [
        ReceivedMessage(b"still attached")]


def test_a_bot_attached_to_one_group_is_refused_by_another():
    # echo-bot-01 is attached to grp-main; attached to grp-bbb as well, its
    # add there would replace the group the bot holds
    provider, users, bots = make_world(2)
    others = {uid: user_init(cgka.init(uid, provider.directory), provider)
              for uid in ("user-10", "user-11")}
    provider.create_group("grp-bbb", list(others))
    provider.publish("grp-bbb", "user-10",
                     user_view=others["user-10"].create_group("grp-bbb", list(others)))
    drain(provider, others, {})
    with pytest.raises(DuplicateChatbot):
        provider.attach_chatbot("grp-bbb", "echo-bot-01")
    assert provider.chatbots("grp-bbb") == set()
    assert provider.chatbots("grp-main") == {"echo-bot-01"}

    out = users["user-00"].send(b"@echo still attached")
    provider.publish("grp-main", "user-00", user_view=out.user_view,
                     bot_view=out.chatbot_view)
    assert [bots["echo-bot-01"].process(view) for view in provider.inbox("echo-bot-01")] == [
        ReceivedMessage(b"@echo still attached")]
    provider.detach_chatbot("grp-main", "echo-bot-01")
    provider.attach_chatbot("grp-bbb", "echo-bot-01")
    assert provider.chatbots("grp-bbb") == {"echo-bot-01"}


def test_welcome_goes_with_an_add_and_only_with_one():
    provider, users, bots = make_world(3)
    update = GroupControl.from_bytes(users["user-01"].update_keys())
    add = GroupControl.from_bytes(add_newcomer(provider, users, "user-00", "user-03"))
    for forged in (replace(add, welcome=None), replace(update, welcome=add.welcome)):
        with pytest.raises(MalformedControl):
            provider.publish("grp-main", "user-00", user_view=forged.to_bytes())
    assert provider.transcript[-1]["seq"] == provider._seq


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
        blob = add_newcomer(world.provider, world.users, adder, uid, world.group_id)
        seq = world.provider.publish(world.group_id, adder, user_view=blob)
        views = {r["recipient"]: base64.b64decode(r["view_b64"])
                 for r in world.provider.transcript if r["seq"] == seq}
        welcome = GroupControl.from_bytes(views.pop(uid)).welcome
        assert welcome.tree == tree
        assert [cid for cid, _ in welcome.roster] == sorted(world.bots)
        assert len(views) == n - 1
        assert all(GroupControl.from_bytes(v).welcome is None for v in views.values())
        per_member[n] = sum(map(len, views.values())) / n

        world.ids.append(uid)
        world.drain()
        newcomer, sender = world.users[uid], world.users[world.ids[1]]
        assert newcomer.epoch == sender.epoch
        assert newcomer.cgka.group_secret == sender.cgka.group_secret
        out = sender.send(b"hello newcomer")
        world.provider.publish(world.group_id, world.ids[1],
                               user_view=out.user_view, bot_view=out.chatbot_view)
        [view] = world.provider.inbox(uid)
        assert newcomer.process(view) == group.ReceivedMessage(b"hello newcomer")
        world.drain()
    assert max(per_member.values()) < 1.6 * min(per_member.values()), per_member


def test_snapshot_state_is_canonical():
    provider, users, bots = make_world(2)
    a = provider.snapshot_state("user-00")
    b = provider.snapshot_state("user-00")
    assert a == b
    json.loads(a)  # valid JSON


# -- adversary ------------------------------------------------------------------

def test_adversary_with_empty_state_recovers_nothing():
    provider, users, bots = make_world(3)
    for i, msg in enumerate([b"@echo alpha", b"plain beta", b"@echo gamma"]):
        user_send(provider, users, bots, f"user-{i:02d}", msg)
    report = adversary_decrypt(b"{}", Adversary(provider.transcript, provider))
    assert report.plaintexts == frozenset()
    assert report.secrets == frozenset()


def test_compromised_chatbot_reads_exactly_addressed_messages():
    provider, users, bots = make_world(3)
    sent = {
        b"@echo alpha": True,
        b"plain beta": False,
        b"@echo gamma": True,
        b"hidden delta": False,
    }
    for i, msg in enumerate(sent):
        user_send(provider, users, bots, f"user-{i % 3:02d}", msg)

    snap = provider.snapshot_state("echo-bot-01")
    report = adversary_decrypt(snap, Adversary(provider.transcript, provider))
    triggered = {m for m, hit in sent.items() if hit}
    assert triggered <= report.plaintexts
    hidden = {m for m, hit in sent.items() if not hit}
    assert not (hidden & report.plaintexts)


def test_compromised_user_reads_group_traffic():
    provider, users, bots = make_world(3)
    user_send(provider, users, bots, "user-00", b"@echo alpha")
    user_send(provider, users, bots, "user-01", b"plain beta")
    snap = provider.snapshot_state("user-02")
    report = adversary_decrypt(snap, Adversary(provider.transcript, provider))
    # current group secret decrypts the latest message directly
    assert b"plain beta" in report.plaintexts


def test_concealment_dummies_do_not_decrypt():
    provider, users, bots = make_world(
        2, bots=(("echo-bot-01", "mention:@echo"), ("log-bot-02", "never")))
    user_send(provider, users, bots, "user-00", b"@echo only you", conceal=True)
    snap = provider.snapshot_state("log-bot-02")
    report = adversary_decrypt(snap, Adversary(provider.transcript, provider))
    assert b"@echo only you" not in report.plaintexts


def test_unnamed_recipient_leaves_box_unhinted_and_tried():
    # Without the bot's registration, public data cannot name who its
    # attach seed was sealed to: that box meets every candidate instead,
    # and the adversary recovers exactly the same.
    provider, users, bots = make_world(3)
    user_send(provider, users, bots, "user-00", b"@echo alpha")
    provider.publish("grp-main", "echo-bot-01",
                     user_view=bots["echo-bot-01"].send(b"echo reply"))
    drain(provider, users, bots)
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
    deep = cgka.CgkaControl(
        kind="update", group_id="grp-deep", epoch=0, sender_leaf=0,
        new_public_path=[pke_keygen(s).public_key for s in chain],
        path_entries=[(0, primitives.pke_seal(target, chain[0]))])
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
    # the follower names every other entry of the control by its true key
    world = bench.World(4, 0)
    wrapped = GroupControl.from_bytes(world.users["user-000"].update_keys())
    tree = world.users["user-000"].cgka.tree
    ctl = cgka.CgkaControl.from_bytes(wrapped.control)
    bad = {"past_the_tree": len(tree.nodes), "u32_max": 2**32 - 1}[target]
    (_, forged_box), *rest = ctl.path_entries
    ctl.path_entries[0] = (bad, forged_box)
    world.provider.publish(world.group_id, "user-000",
                           user_view=replace(wrapped, control=ctl.to_bytes()).to_bytes())
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    assert hints[forged_box] == frozenset()
    assert rest
    for x, box in rest:
        assert hints[box] == {tree.nodes[x]}


def test_follower_refuses_a_membership_control_in_a_message_view():
    # Members refuse it, so the follower names none of its entries.
    world = bench.World(4, 0)
    ctl = world.users["user-000"].cgka.remove("user-003")
    view = UserMessageView(flags=0, control=ctl.to_bytes(), ciphertext=b"").to_bytes()
    world.provider.publish(world.group_id, "user-000", user_view=view)
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    assert ctl.path_entries
    for _, box in ctl.path_entries:
        assert hints[box] == frozenset()


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
        world.provider.publish(world.group_id, "user-000", user_view=view)
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    assert ctl.path_entries
    for _, box in ctl.path_entries:
        assert hints[box] == frozenset()
    # followed without the forgery, the same control names every entry
    world = bench.World(4, 0)
    tree = world.users["user-000"].cgka.tree
    genuine = world.users["user-000"].update_keys()
    world.provider.publish(world.group_id, "user-000", user_view=genuine)
    hints = _collect_material(world.provider.transcript, world.provider)[0]
    for x, box in cgka.CgkaControl.from_bytes(
            GroupControl.from_bytes(genuine).control).path_entries:
        assert hints[box] == {tree.nodes[x]}


def _reference_material(transcript):
    """Reference boxes as (hint or None, box), ciphertexts mapped to the
    keys their views name, and the longest tree path (at least 1),
    independent of the adversary's own scrape. Chatbot entries, which only
    chatbot views carry, name the bot's node key tracked in transcript
    order; tree entries, bot replies and attach seeds stay unhinted, so the
    oracle below tries them against every candidate. A member's view names
    the root key of its control's path, a chatbot view its group key and a
    bot reply its node key."""
    boxes = {}
    ciphertexts = {}
    seen = set()
    bot_pk = {}
    depths = [1]

    def add_box(box, hint):
        if box not in boxes or boxes[box] is None:
            boxes[box] = hint

    def control_boxes(control):
        depths.append(len(control.new_public_path))
        for _target, box in control.path_entries:
            add_box(box, None)

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
            v = ChatbotMessageView.from_bytes(view)
            ciphertexts.setdefault(v.ciphertext, set()).add(v.group_public_key)
            for cid, box in v.entries:
                add_box(box, bot_pk.get(cid))
        elif kind == BOT_MESSAGE:
            v = BotMessage.from_bytes(view)
            ciphertexts.setdefault(v.ciphertext, set()).add(v.node_public_key)
            add_box(v.sealed_key, None)
            bot_pk[v.chatbot_id] = v.node_public_key
        elif kind == ADD_BOT:
            v = AddBotControl.from_bytes(view)
            add_box(v.sealed_seed, None)
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
    links: dict = field(default_factory=dict)        # message key -> link pk
    pk_of: dict = field(default_factory=dict)        # candidate -> X25519 pk
    ct_hints: dict = field(default_factory=dict)     # ciphertext -> named pks


def _reference_expand(secret, depth, log):
    """The set-valued expansion the oracle feeds on: the chain above one
    value, each link's message key and `pke_keygen` secret key. Logs the
    class of each value it derives."""
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
        log.links[message_key] = pair.public_key
        log.scalars.add(pair.secret_key)
        s = derive(s, CHAIN)
    return out


def _all_pairs_adversary(snapshot, transcript):
    """Reference oracle: the all-pairs fixpoint loop the indexed adversary
    replaced, over `_reference_material`, with chains as long as its
    longest path. Each round tries every held secret against every box and
    ciphertext, skips pairs already tried and boxes whose hint names
    another key, and opens with raw secret bytes. Returns the report and
    an `_OracleLog` of every trial."""
    log = _OracleLog()
    seeds = _harvest_hex(json.loads(snapshot))
    boxes, log.ct_hints, depth = _reference_material(transcript)
    secrets = set()
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
            log.pk_of[key] = x25519_key_pair(key).public_key
        new = set()
        for key in sorted(secrets):
            for hint, box in boxes:
                if hint is not None and log.pk_of[key] != hint:
                    continue
                if (key, box) in tried_boxes:
                    continue
                tried_boxes.add((key, box))
                try:
                    opened = pke_open(key, box)
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
        # key the ciphertext names...
        kept_cts = sum(1 for key, ct in log.ct_trials
                       if key in log.raw
                       or (key in log.links and log.links[key] in log.ct_hints[ct]))
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
    """Every box `pke_seal` makes during the test, mapped to the public key
    it was sealed to."""
    log = {}
    real = primitives.pke_seal

    def logged(public_key, payload):
        box = real(public_key, payload)
        log[box] = public_key
        return box

    for module in (primitives, cgka, group):
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
    # ciphertext names `pke_keygen(x).public_key`: the adversary tries a
    # link's message key only on ciphertexts that name that link.
    seeds, keys = key_log
    text = (_audit_scenario_text(monkeypatch, seed) if name == "audit"
            else canned.ALL[name])
    result = run_text(text, seed=seed)
    _boxes, ciphertexts, _depth = _collect_material(result.provider.transcript,
                                                    result.provider)
    assert ciphertexts
    for ct, hints in ciphertexts.items():
        key = keys[ct]
        assert pke_keygen(seeds[key]).public_key in hints

if __name__ == "__main__":
    pytest.main([__file__, "-v"])
