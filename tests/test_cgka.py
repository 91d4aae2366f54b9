"""Group key agreement tests.

Count oracles are computed from definitions (population of copath
resolutions), not from the implementation: a warm fully-populated tree of
2^k members must seal exactly k entries per update, and a fresh create must
seal one entry per non-creator member because every internal node is blank.
"""

from __future__ import annotations

import base64
import copy
import json
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chatgate import cgka, counters, tree as treemod
from chatgate.encoding import Reader, peek_type
from chatgate.errors import (
    AlreadyMember,
    CannotRemoveSelf,
    ChatGateError,
    DecryptFailed,
    FutureEpoch,
    MalformedControl,
    NoGroup,
    NotMember,
    StaleEpoch,
    UnknownMember,
)
from chatgate.group import GROUP_CONTROL, VIEW_USER_MESSAGE, GroupControl, UserMessageView
from chatgate.harness import canned
from chatgate.harness.runner import run_text
from chatgate.primitives import (
    BOX_LEN,
    CONFIRM,
    PUBLIC_KEY_LEN,
    derive,
    pke_keygen,
    pke_seal_batch,
    random_secret,
)


def make_states(n: int, directory=None):
    directory = directory or cgka.InitKeyDirectory()
    return [cgka.init(f"user-{i:02d}", directory) for i in range(n)], directory


def make_group(n: int, group_id: str = "grp-main"):
    states, directory = make_states(n)
    ctl = states[0].create(group_id, [s.member_id for s in states])
    for s in states[1:]:
        s.process(ctl)
    states[0].process(ctl)
    return states, directory


def assert_agreement(states):
    live = [s for s in states if s.tree is not None]
    secrets = {s.group_secret for s in live}
    epochs = {s.epoch for s in live}
    rosters = {tuple(s.members()) for s in live}
    assert len(secrets) == 1 and None not in secrets
    assert len(epochs) == 1
    assert len(rosters) == 1


def broadcast(states, sender, ctl, newcomer=None):
    """Every member but the sender processes `ctl`, then the sender; an
    add's newcomer then joins from its welcome, the public tree the sender
    built the add on."""
    welcome = sender.tree.to_public_bytes() if newcomer is not None else b""
    for s in states:
        if s is not sender and s.tree is not None:
            s.process(ctl)
    sender.process(ctl)
    if newcomer is not None:
        newcomer.process(ctl, welcome)


# ---------------------------------------------------------------------------
# create
# ---------------------------------------------------------------------------

def test_create_group_of_one():
    states, _ = make_states(1)
    ctl = states[0].create("solo", [states[0].member_id])
    assert ctl.path_entries == []
    key = states[0].process(ctl)
    assert states[0].tree.capacity == 1
    assert states[0].tree.leaf_of("user-00") == 0
    assert key == states[0].group_secret
    assert states[0].epoch == 1
    assert states[0].members() == ["user-00"]


def test_create_three_members_capacity_four():
    states, _ = make_group(3)
    t = states[0].tree
    assert t.capacity == 4
    blank_leaves = [l for l in range(4) if t.nodes[treemod.leaf_node(l)] is None]
    assert blank_leaves == [3]
    assert_agreement(states)
    assert states[0].epoch == 1


def test_create_entry_count_is_members_minus_one():
    # Fresh tree: all internal nodes blank, so every non-creator leaf gets
    # its own sealed entry.
    for n in (2, 3, 5, 8):
        states, _ = make_states(n)
        ctl = states[0].create("g", [s.member_id for s in states])
        assert len(ctl.path_entries) == n - 1


def test_create_requires_published_init_keys():
    states, directory = make_states(2)
    with pytest.raises(UnknownMember):
        states[0].create("g", [states[0].member_id, "ghost"])


def test_create_rejects_duplicates_and_foreign_creator():
    states, _ = make_states(2)
    with pytest.raises(AlreadyMember):
        states[0].create("g", ["user-00", "user-00"])
    with pytest.raises(NotMember):
        states[0].create("g", ["user-01"])


def test_create_twice_fails():
    states, _ = make_group(2)
    with pytest.raises(AlreadyMember):
        states[0].create("g2", ["user-00"])


def test_process_own_control_returns_send_time_key():
    states, _ = make_states(2)
    ctl = states[0].create("g", ["user-00", "user-01"])
    key_b = states[1].process(ctl)
    key_a = states[0].process(ctl)
    assert key_a == key_b


# ---------------------------------------------------------------------------
# update
# ---------------------------------------------------------------------------

def warm_group(n: int):
    """Everyone updates once so every node on every path is populated."""
    states, directory = make_group(n)
    for s in states:
        broadcast(states, s, s.update())
    return states, directory


@pytest.mark.parametrize("n,expected", [(2, 1), (4, 2), (8, 3), (16, 4)])
def test_update_entry_count_in_warm_full_tree(n, expected):
    states, _ = warm_group(n)
    ctl = states[0].update()
    assert len(ctl.path_entries) == expected
    broadcast(states, states[0], ctl)
    assert_agreement(states)


def test_update_derive_count_in_warm_full_tree():
    # Exactly k derivation steps above the leaf for capacity 2^k, and one
    # more for the root's confirmation.
    states, _ = warm_group(8)
    tally = counters.OpCounters()
    with counters.collect(tally), counters.attribute("sender"):
        states[0].update()
    assert tally.party("sender")["derive"] == 3 + 1


def test_update_rotates_group_secret_and_epoch():
    states, _ = make_group(4)
    before = states[0].group_secret
    epoch_before = states[0].epoch
    broadcast(states, states[1], states[1].update())
    assert_agreement(states)
    assert states[0].group_secret != before
    assert states[0].epoch == epoch_before + 1


def test_each_member_opens_exactly_one_entry():
    states, _ = warm_group(8)
    ctl = states[2].update()
    for s in states:
        if s is states[2]:
            continue
        openable = [e for e in ctl.path_entries if e[0] in s.path]
        assert len(openable) == 1
    broadcast(states, states[2], ctl)


def assert_private_only_on_own_path(states):
    """The receive path looks up its key only on its own direct path; that
    is complete only if no member holds private material anywhere else."""
    for s in states:
        own = set(treemod.direct_path(s.own_leaf, s.tree.capacity))
        root = s.tree.root
        for x, (secret, kp) in s.path.items():
            assert x in own, (s.member_id, x)
            if x == root:
                # the root's slot confirms its secret and names no key
                assert s.tree.nodes[x] == derive(secret, CONFIRM), s.member_id
                continue
            # a node blanked by an add or remove has left `path` as well
            assert kp.public_key == s.tree.nodes[x], (s.member_id, x)
            assert kp.key_object is not None
            if secret is None:
                assert x == treemod.leaf_node(s.own_leaf)
        assert s.group_secret is s.path[root][0]
        # built from the group secret on first use, then kept at the root
        assert s.group_key_pair == pke_keygen(s.group_secret)
        assert s.group_key_pair is s.path[root][1]


def test_private_material_only_on_own_direct_path():
    states, directory = warm_group(16)
    assert_private_only_on_own_path(states)

    def apply(sender, ctl, newcomer=None):
        broadcast(states, sender, ctl, newcomer)
        if newcomer is not None:
            states.append(newcomer)
        assert_private_only_on_own_path(states)

    apply(states[5], states[5].update())
    apply(states[9], states[9].update())

    for victim in ("user-03", "user-12"):
        ctl = states[0].remove(victim)
        states = [s for s in states if s.member_id != victim]
        apply(states[0], ctl)

    # the last add finds the tree full again and doubles its capacity
    for uid, adder in (("user-16", 7), ("user-17", 2), ("user-18", 4)):
        assert states[0].tree.capacity == 16
        newcomer = cgka.init(uid, directory)
        apply(states[adder], states[adder].add(uid), newcomer)
    assert all(s.tree.capacity == 32 for s in states)

    apply(states[-1], states[-1].update())
    newest = states[-1]
    ctl = newest.remove("user-01")
    states = [s for s in states if s.member_id != "user-01"]
    apply(newest, ctl)
    apply(states[1], states[1].update())
    assert_agreement(states)


def test_path_secrets_never_reach_the_public_tree():
    states, directory = warm_group(8)

    def private_values(s):
        out = []
        staged = s._pending.path.values() if s._pending is not None else ()
        for secret, kp in (*s.path.values(), *staged):
            # the root's key pair, the group key pair, may be unbuilt
            out.append((kp or pke_keygen(secret)).secret_key)
            if secret is not None:
                out.append(secret)
        return out

    def check(s, blob):
        for value in private_values(s):
            assert value not in blob, s.member_id

    def churn(sender, ctl, newcomer=None):
        # the sender's new path is staged, with the tree it leaves, but
        # not yet installed
        assert sender._pending is not None
        check(sender, sender.tree.to_public_bytes())
        check(sender, sender._pending.tree.to_public_bytes())
        broadcast(states, sender, ctl, newcomer)
        if newcomer is not None:
            states.append(newcomer)
        for s in states:
            assert s.path
            check(s, s.tree.to_public_bytes())

    churn(states[3], states[3].update())
    ctl = states[0].remove("user-05")
    states = [s for s in states if s.member_id != "user-05"]
    churn(states[0], ctl)
    for uid in ("user-08", "user-09"):
        newcomer = cgka.init(uid, directory)
        churn(states[2], states[2].add(uid), newcomer)
    churn(states[-1], states[-1].update())
    assert_agreement(states)


def test_update_without_group_fails():
    states, _ = make_states(1)
    with pytest.raises(NoGroup):
        states[0].update()


# ---------------------------------------------------------------------------
# add
# ---------------------------------------------------------------------------

def test_add_fills_leftmost_blank_leaf():
    states, directory = make_group(3)  # capacity 4, leaf 3 blank
    newcomer = cgka.init("user-03", directory)
    ctl = states[0].add("user-03")
    broadcast(states, states[0], ctl, newcomer)
    states.append(newcomer)
    assert all(s.tree.leaf_of("user-03") == 3 for s in states)
    assert newcomer.own_leaf == 3
    assert_agreement(states)
    assert states[1].members() == ["user-00", "user-01", "user-02", "user-03"]


def test_add_grows_full_tree():
    states, directory = make_group(2)
    newcomer = cgka.init("user-02", directory)
    ctl = states[0].add("user-02")
    broadcast(states, states[0], ctl, newcomer)
    states.append(newcomer)
    assert all(s.tree.leaf_of("user-02") == 2 for s in states)
    assert newcomer.own_leaf == 2
    assert all(s.tree.capacity == 4 for s in states)
    assert_agreement(states)


def test_add_existing_member_fails():
    states, _ = make_group(2)
    with pytest.raises(AlreadyMember):
        states[0].add("user-01")


def test_add_unknown_init_key_fails():
    states, _ = make_group(2)
    with pytest.raises(UnknownMember):
        states[0].add("stranger")


def test_newcomer_added_by_nonowner_and_can_update():
    states, directory = make_group(4)
    newcomer = cgka.init("user-99", directory)
    ctl = states[2].add("user-99")
    broadcast(states, states[2], ctl, newcomer)
    states.append(newcomer)
    assert_agreement(states)
    broadcast(states, newcomer, newcomer.update())
    assert_agreement(states)


# ---------------------------------------------------------------------------
# remove
# ---------------------------------------------------------------------------

def test_remove_blanks_and_rekeys():
    states, _ = make_group(4)
    victim = states[3]
    frozen_secret = victim.group_secret
    ctl = states[0].remove("user-03")
    for s in states[:3]:
        if s is not states[0]:
            s.process(ctl)
    states[0].process(ctl)
    assert_agreement(states[:3])
    assert states[0].members() == ["user-00", "user-01", "user-02"]
    # the removed member's frozen state is stuck at the old epoch and secret
    assert victim.group_secret == frozen_secret
    assert states[0].group_secret != frozen_secret


def test_removed_member_cannot_process_later_controls():
    states, _ = make_group(3)
    victim = states[2]
    ctl = states[0].remove("user-02")
    states[1].process(ctl)
    states[0].process(ctl)
    with pytest.raises(NotMember):
        victim.process(ctl)
    later = states[0].update()
    states[1].process(later)
    states[0].process(later)
    # the victim's epoch froze at removal time, so group moved ahead of it
    with pytest.raises((DecryptFailed, FutureEpoch)):
        victim.process(later)


def test_remove_errors():
    states, _ = make_group(2)
    with pytest.raises(CannotRemoveSelf):
        states[0].remove("user-00")
    with pytest.raises(NotMember):
        states[0].remove("user-05")


def test_removed_then_readded_with_fresh_init_key():
    states, directory = make_group(3)
    old_init_pk = directory.lookup("user-02")
    ctl = states[0].remove("user-02")
    states[1].process(ctl)
    states[0].process(ctl)

    rejoin = cgka.init("user-02", directory)  # re-publishes a fresh init key
    init_pk = rejoin.path[None][1].public_key
    assert init_pk != old_init_pk
    welcome = states[1].tree.to_public_bytes()
    ctl = states[1].add("user-02")
    assert ctl.new_member_init_pk == init_pk
    states[0].process(ctl)
    states[1].process(ctl)
    rejoin.process(ctl, welcome)
    assert_agreement([states[0], states[1], rejoin])


# ---------------------------------------------------------------------------
# epochs and malformed input
# ---------------------------------------------------------------------------

def test_stale_and_future_epoch():
    states, _ = make_group(3)
    old = states[0].update()
    broadcast(states, states[0], old)
    with pytest.raises(StaleEpoch):
        states[1].process(old)

    ahead = states[0].update()
    states[0].process(ahead)
    next_ctl = states[0].update()  # epoch two steps past the others
    with pytest.raises(FutureEpoch):
        states[1].process(next_ctl)


def test_control_roundtrip_all_kinds():
    states, directory = make_group(3)
    newcomer = cgka.init("user-07", directory)

    controls = []
    controls.append(states[0].add("user-07"))
    broadcast(states, states[0], controls[-1], newcomer)
    states.append(newcomer)
    controls.append(states[1].update())
    broadcast(states, states[1], controls[-1])
    controls.append(states[0].remove("user-07"))
    for s in states[:3]:
        if s is not states[0]:
            s.process(controls[-1])
    states[0].process(controls[-1])

    fresh, directory2 = make_states(2)
    controls.append(fresh[0].create("copy", [s.member_id for s in fresh]))

    for ctl in controls:
        blob = ctl.to_bytes()
        back = cgka.CgkaControl.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.kind == ctl.kind


def test_malformed_controls_rejected():
    with pytest.raises(MalformedControl):
        cgka.CgkaControl.from_bytes(b"")
    with pytest.raises(MalformedControl):
        cgka.CgkaControl.from_bytes(b"\x7f\x00\x00")
    states, _ = make_group(2)
    good = states[0].update()
    blob = good.to_bytes()
    with pytest.raises(MalformedControl):
        cgka.CgkaControl.from_bytes(blob + b"\x00")


def test_tampered_entry_fails_decrypt():
    states, _ = make_group(2)
    ctl = states[0].update()
    target, box = ctl.path_entries[0]
    bad = bytearray(box)
    bad[-1] ^= 1
    ctl.path_entries[0] = (target, bytes(bad))
    with pytest.raises(DecryptFailed):
        states[1].process(ctl)


def test_wrong_group_control_rejected():
    states_a, _ = make_group(2, group_id="grp-a")
    states_b, _ = make_group(2, group_id="grp-b")
    foreign = states_b[0].update()
    with pytest.raises(MalformedControl):
        states_a[1].process(foreign)


def state_view(s):
    return (s.tree.to_public_bytes(), dict(s.path), s.epoch)


@pytest.fixture
def bounded_direct_path(monkeypatch):
    """Unchecked, a leaf past the capacity makes `direct_path` climb
    forever; fail instead of hanging if a check goes missing."""
    real = treemod.direct_path

    def bounded(leaf, capacity):
        assert leaf < capacity, "direct_path would never reach the root"
        return real(leaf, capacity)

    monkeypatch.setattr(treemod, "direct_path", bounded)


@pytest.mark.parametrize("n,leaf", [(3, 3), (4, 4), (8, 9), (8, 1 << 20)])
def test_sender_leaf_without_a_member_is_malformed(bounded_direct_path, n, leaf):
    states, _ = make_group(n)
    ctl = states[0].update()
    ctl.sender_leaf = leaf
    before = state_view(states[1])
    with pytest.raises(MalformedControl, match="sender leaf"):
        states[1].process(ctl)
    assert state_view(states[1]) == before


@pytest.mark.parametrize("leaf", [3, 4, 9])
def test_create_sender_leaf_without_a_member_is_malformed(bounded_direct_path, leaf):
    states, _ = make_states(3)
    ctl = states[0].create("g", [s.member_id for s in states])
    ctl.sender_leaf = leaf
    with pytest.raises(MalformedControl, match="sender leaf"):
        states[1].process(ctl)


def test_create_roster_listing_an_id_twice_is_refused_by_receivers():
    states, _ = make_states(3)
    ctl = states[0].create("g", [s.member_id for s in states])
    ctl.roster.append(ctl.roster[2])  # user-02 seated at leaves 2 and 3
    for receiver in states[1:]:
        before = json.dumps(receiver.snapshot(), sort_keys=True)
        with pytest.raises(AlreadyMember):
            receiver.process(cgka.CgkaControl.from_bytes(ctl.to_bytes()))
        assert receiver.tree is None
        assert json.dumps(receiver.snapshot(), sort_keys=True) == before


@pytest.mark.parametrize("epoch", [1, 7])
def test_create_at_an_epoch_other_than_zero_is_malformed(epoch):
    states, _ = make_states(3)
    ctl = states[0].create("g", [s.member_id for s in states])
    ctl.epoch = epoch
    before = json.dumps(states[1].snapshot(), sort_keys=True)
    with pytest.raises(MalformedControl, match="epoch"):
        states[1].process(ctl)
    assert states[1].tree is None
    assert json.dumps(states[1].snapshot(), sort_keys=True) == before


def test_remove_naming_a_non_member_is_refused_by_receivers():
    states, directory = make_group(4)
    cgka.init("user-99", directory)
    ctl = states[0].remove("user-03")
    ctl.removed_id = "user-99"
    before = json.dumps(states[1].snapshot(), sort_keys=True)
    with pytest.raises(NotMember):
        states[1].process(ctl)
    assert json.dumps(states[1].snapshot(), sort_keys=True) == before
    assert states[1].members() == ["user-00", "user-01", "user-02", "user-03"]


def snapshot_text(s):
    return json.dumps(s.snapshot(), sort_keys=True)


def tamper_boxes(ctl):
    ctl.path_entries = [(target, box[:-1] + bytes([box[-1] ^ 1]))
                        for target, box in ctl.path_entries]


def rejected_remove():
    states, _ = make_group(4)
    ctl = states[0].remove("user-03")
    tamper_boxes(ctl)
    return states[1], ctl


def rejected_add():
    states, directory = make_group(3)
    cgka.init("user-03", directory)
    ctl = states[0].add("user-03")
    tamper_boxes(ctl)
    return states[1], ctl


def rejected_root_key():
    # the receiver re-derives the key at its merge point, which matches,
    # before the root's, which does not
    states, _ = make_group(4)
    ctl = states[0].update()
    ctl.new_public_path[-1] = ctl.new_public_path[0]
    return states[1], ctl


def rejected_path_length():
    states, _ = make_group(4)
    ctl = states[0].update()
    ctl.new_public_path.append(ctl.new_public_path[-1])
    return states[1], ctl


def rejected_own_leaf():
    # another member's update, relabelled as sent from the receiver's leaf
    states, _ = make_group(4)
    ctl = states[0].update()
    ctl.sender_leaf = states[1].own_leaf
    return states[1], ctl


def update_and_entries(sender):
    """`sender`'s update, and what its entries seal: (target node,
    recipient key, payload) each, in wire order."""
    sealings = []

    def logged(batch):
        sealings.extend(batch)
        return pke_seal_batch(batch)

    with mock.patch.object(cgka, "pke_seal_batch", logged):
        ctl = sender.update()
    return ctl, [(x, *sealing) for (x, _), sealing in zip(ctl.path_entries, sealings)]


def seal_anew(ctl, entries):
    """`ctl` with `entries`, (target node, recipient key, payload) each,
    sealed as one fresh batch, so each opens at its position."""
    ctl.ephemeral, boxes = pke_seal_batch([(key, payload) for _, key, payload in entries])
    ctl.path_entries = [(x, box) for (x, _, _), box in zip(entries, boxes)]
    return ctl


def update_with_entry_first(sender, target, key, payload):
    """`sender`'s update with one more entry ahead of its own: `payload`
    sealed to `key`, naming node `target`."""
    ctl, entries = update_and_entries(sender)
    return seal_anew(ctl, [(target, key, payload), *entries])


def rejected_root_entry():
    # An entry sealed to the root sits under no node of the sender's path.
    # The control keeps the root slot the receiver holds, and the entry
    # comes first on the wire; but a receiver never looks the root up, so
    # it opens its own entry and finds the root slot confirms another secret.
    states, _ = make_group(4)
    receiver = states[1]
    root_slot = receiver.tree.nodes[receiver.tree.root]
    ctl = update_with_entry_first(states[0], receiver.tree.root, root_slot,
                                  random_secret())
    ctl.new_public_path[-1] = root_slot
    return receiver, ctl


def rejected_group_key_entry():
    # The same, sealed to the group key pair the receiver has built, whose
    # public key the forged control puts in the root slot.
    states, _ = make_group(4)
    receiver = states[1]
    group_key = receiver.group_key_pair.public_key
    ctl = update_with_entry_first(states[0], receiver.tree.root, group_key,
                                  random_secret())
    ctl.new_public_path[-1] = group_key
    return receiver, ctl


def rejected_replaced_key_entry():
    # Leaves 0 and 1 of 8 meet at node 1; nodes 3 and 7 above it are on
    # both paths. Opening an entry sealed to node 3's old key would let a
    # forger choose the root secret while the receiver kept node 1's
    # replaced secret. A receiver holds only the secrets whose keys the
    # control leaves in its tree, so it opens its genuine entry instead
    # and finds the forged root key.
    states, _ = make_group(8)
    receiver = states[1]
    forged_root = random_secret()
    ctl = update_with_entry_first(states[0], 3, receiver.tree.nodes[3], forged_root)
    ctl.new_public_path[-1] = derive(forged_root, CONFIRM)
    return receiver, ctl


def rejected_other_ephemeral():
    # every box of the control opens only under its own batch's ephemeral
    states, _ = make_group(4)
    ctl = states[0].update()
    ctl.ephemeral = states[0].update().ephemeral
    return states[1], ctl


def rejected_moved_entry():
    # a box opens only at its own position in the batch
    states, _ = make_group(4)
    ctl = states[0].update()
    ctl.path_entries.reverse()
    return states[1], ctl


def rejected_update_without_group():
    states, directory = make_group(3)
    return cgka.init("user-03", directory), states[0].update()


def rejected_create_in_a_group():
    states, _ = make_group(3)
    others, _ = make_states(2)
    return states[1], others[0].create("grp-other", ["user-00", "user-01"])


def rejected_add_without_welcome():
    states, directory = make_group(3)
    return cgka.init("user-03", directory), states[0].add("user-03")


def rejected_roster_without_me():
    states, _ = make_states(3)
    return states[2], states[0].create("g", ["user-00", "user-01"])


def rejected_add_of_another_init_key():
    # the add seats a key the newcomer does not hold; returns its welcome too
    states, directory = make_group(3)
    newcomer = cgka.init("user-03", directory)
    ctl = states[0].add("user-03")
    ctl.new_member_init_pk = pke_keygen(random_secret()).public_key
    return newcomer, ctl, states[0].tree.to_public_bytes()


@pytest.mark.parametrize("build,error,match", [
    (rejected_remove, DecryptFailed, None),
    (rejected_add, DecryptFailed, None),
    (rejected_root_key, MalformedControl, "does not match path key"),
    (rejected_path_length, MalformedControl, "path length does not match tree shape"),
    (rejected_own_leaf, MalformedControl, "unexpected control from own leaf"),
    (rejected_root_entry, MalformedControl, "does not match path key at the root"),
    (rejected_group_key_entry, MalformedControl, "does not match path key at the root"),
    (rejected_replaced_key_entry, MalformedControl, "does not match path key"),
    (rejected_other_ephemeral, DecryptFailed, None),
    (rejected_moved_entry, DecryptFailed, None),
    (rejected_update_without_group, NoGroup, "'user-03' has no group to apply control to"),
    (rejected_create_in_a_group, AlreadyMember, "'user-01' is already in a group"),
    (rejected_add_without_welcome, MalformedControl, "the newcomer has no welcome to join from"),
    (rejected_roster_without_me, NotMember, "create roster does not include 'user-02'"),
    (rejected_add_of_another_init_key, MalformedControl, "my leaf carries a different init key"),
], ids=["remove", "add", "root-key", "path-length", "own-leaf", "root-entry",
        "group-key-entry", "replaced-key-entry", "other-ephemeral", "moved-entry", "update-without-group",
        "create-in-a-group", "add-without-welcome", "roster-without-me",
        "add-of-another-init-key"])
def test_rejected_control_leaves_state_unchanged(build, error, match):
    receiver, ctl, *welcome = build()
    before = snapshot_text(receiver)
    with pytest.raises(error, match=match):
        receiver.process(cgka.CgkaControl.from_bytes(ctl.to_bytes()), *welcome)
    assert snapshot_text(receiver) == before


def test_path_entry_payload_of_the_wrong_size_leaves_state_unchanged():
    # A box sealed over 32 bytes is exactly as wide as the wire's box
    # field, so only a control built in memory carries another payload.
    states, _ = make_group(4)
    receiver = states[1]
    leaf = treemod.leaf_node(receiver.own_leaf)
    ctl = update_with_entry_first(states[0], leaf, receiver.tree.nodes[leaf], bytes(31))
    before = snapshot_text(receiver)
    with pytest.raises(MalformedControl, match="path entry payload has wrong size"):
        receiver.process(ctl)
    assert snapshot_text(receiver) == before


def test_control_naming_one_key_twice_seals_each_box_under_its_own_key():
    # A forged control can name one recipient key twice. Under the zero
    # nonce, one AEAD key over one payload gives one ciphertext: the two
    # boxes differ, so their keys do, and each opens only at its position.
    states, _ = make_group(4)
    ctl, entries = update_and_entries(states[0])
    seal_anew(ctl, [entries[0], *entries])
    boxes = [box for _, box in ctl.path_entries]
    assert boxes[0] != boxes[1]
    assert len(set(boxes)) == len(boxes)
    receiver = states[1]
    assert ctl.path_entries[0][0] == treemod.leaf_node(receiver.own_leaf)
    receiver.process(ctl)
    assert receiver.group_secret == states[0]._pending.group_secret


@pytest.mark.parametrize("kind", ["update", "add", "remove"])
def test_dropped_own_control_leaves_sender_in_agreement(kind):
    states, directory = make_group(4)  # capacity 4, no blank leaf
    dropper = states[1]
    if kind == "update":
        dropper.update()
    elif kind == "add":
        cgka.init("user-04", directory)
        dropper.add("user-04")  # would grow the tree
    else:
        dropper.remove("user-03")

    def agreed():
        views = {(s.group_secret, tuple(s.members()), s.tree.to_public_bytes())
                 for s in states}
        return len(views) == 1

    broadcast(states, states[2], states[2].update())
    assert agreed()
    broadcast(states, dropper, dropper.update())
    assert agreed()


# ---------------------------------------------------------------------------
# fuzz: a mutated control is rejected without a trace, or applies
# ---------------------------------------------------------------------------

_MUTATION_CASES: dict = {}


def mutation_cases():
    """kind -> (encoded control, receivers, each with its snapshot text,
    welcome). One 5-member group (capacity 8) builds a valid add, remove
    and update from the same state, none of them processed; the add's
    receivers include its newcomer, the remove's its removed member. The
    welcome is the tree they were built on; only the newcomer reads it."""
    if not _MUTATION_CASES:
        states, directory = make_group(5)
        newcomer = cgka.init("user-05", directory)
        welcome = states[0].tree.to_public_bytes()
        controls = {"add": states[0].add("user-05"),
                    "remove": states[0].remove("user-04"),
                    "update": states[0].update()}
        for kind, ctl in controls.items():
            receivers = states[1:] + ([newcomer] if kind == "add" else [])
            _MUTATION_CASES[kind] = (ctl.to_bytes(),
                                     [(r, snapshot_text(r)) for r in receivers],
                                     welcome)
    return _MUTATION_CASES


def flip_bytes(data, blob: bytes) -> bytes:
    """`blob` with one to three bytes XORed with nonzero values."""
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=3))
    mutated = bytearray(blob)
    for i, flip in edits:
        mutated[i] ^= flip
    return bytes(mutated)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_control_is_rejected_unchanged_or_applies(data):
    blob, receivers, welcome = mutation_cases()[
        data.draw(st.sampled_from(["add", "remove", "update"]))]
    base, base_text = data.draw(st.sampled_from(receivers))
    mutated = flip_bytes(data, blob)
    # `process` replaces the tree, path and pending instead of changing
    # them, so a shallow copy is a receiver independent of `base`
    receiver = copy.copy(base)
    try:
        ctl = cgka.CgkaControl.from_bytes(mutated)
        receiver.process(ctl, welcome)
    except ChatGateError:
        assert snapshot_text(receiver) == base_text
    else:
        # a newcomer cannot check the epoch it is welcomed at
        assert receiver.epoch == ctl.epoch + 1
        assert receiver.group_secret is not None
    assert snapshot_text(base) == base_text


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_welcome_is_rejected_unchanged_or_applies(data):
    blob, receivers, welcome = mutation_cases()["add"]
    base, base_text = receivers[-1]  # the newcomer
    receiver = copy.copy(base)
    try:
        receiver.process(cgka.CgkaControl.from_bytes(blob), flip_bytes(data, welcome))
    except ChatGateError:
        assert snapshot_text(receiver) == base_text
    else:
        assert receiver.epoch == 2
        assert receiver.group_secret is not None
    assert snapshot_text(base) == base_text


def test_unmutated_fuzz_controls_apply():
    for kind, (blob, receivers, welcome) in mutation_cases().items():
        for base, _ in receivers:
            receiver = copy.copy(base)
            if kind == "remove" and base.member_id == "user-04":
                with pytest.raises(NotMember):
                    receiver.process(cgka.CgkaControl.from_bytes(blob))
            else:
                receiver.process(cgka.CgkaControl.from_bytes(blob), welcome)
                assert receiver.epoch == 2


# ---------------------------------------------------------------------------
# decoder: fixed-width path lists against the per-field reference
# ---------------------------------------------------------------------------

def reference_from_bytes(data: bytes) -> cgka.CgkaControl:
    """The per-field decoder that `CgkaControl.from_bytes` replaced: every
    path key, box and create init key goes through `Reader.field`, at any
    width, and every entry's target node through `Reader.u32`."""
    kind = cgka._MIDDLES.get(peek_type(data), (None,))[0]
    if kind is None:
        raise MalformedControl("unknown control type")
    r = Reader(data, expect_type=peek_type(data))
    ctl = cgka.CgkaControl(kind=kind, group_id=r.text(), epoch=r.u32(),
                           sender_leaf=r.u32())
    if kind == "create":
        ctl.roster = r.items(lambda rr: (rr.text(), rr.field()))
    elif kind == "add":
        ctl.new_member_id = r.text()
        ctl.new_member_init_pk = r.field()
    elif kind == "remove":
        ctl.removed_id = r.text()
    ctl.new_public_path = r.items(Reader.field)
    ctl.ephemeral = r.field()
    ctl.first = r.u32()
    ctl.path_entries = r.items(lambda rr: (rr.u32(), rr.field()))
    r.finish()
    return ctl


def has_wrong_width(ctl: cgka.CgkaControl) -> bool:
    return (any(len(pk) != PUBLIC_KEY_LEN for pk in ctl.new_public_path)
            or any(len(pk) != PUBLIC_KEY_LEN for _, pk in ctl.roster)
            or len(ctl.ephemeral) != PUBLIC_KEY_LEN
            or any(len(box) != BOX_LEN for _, box in ctl.path_entries))


def transcript_controls(seed: int) -> list[bytes]:
    controls = []
    for name in sorted(canned.ALL):
        for row in run_text(canned.ALL[name], seed=seed).provider.transcript:
            view = base64.b64decode(row["view_b64"])
            if peek_type(view) == VIEW_USER_MESSAGE:
                controls.append(UserMessageView.from_bytes(view).control)
            elif peek_type(view) == GROUP_CONTROL:
                controls.append(GroupControl.from_bytes(view).control)
    return controls


@pytest.mark.parametrize("seed", [7, 23])
def test_decoder_matches_reference_on_canned_transcripts(seed):
    controls = transcript_controls(seed)
    assert len({peek_type(c) for c in controls}) == 4  # every kind
    for blob in controls:
        ctl = cgka.CgkaControl.from_bytes(blob)
        assert ctl == reference_from_bytes(blob)
        assert ctl.to_bytes() == blob


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_decoder_agrees_with_reference_on_mutated_controls(data):
    blob, _, _ = mutation_cases()[data.draw(st.sampled_from(["add", "remove", "update"]))]
    mutated = flip_bytes(data, blob)
    try:
        expected = reference_from_bytes(mutated)
    except MalformedControl:
        expected = None
    try:
        got = cgka.CgkaControl.from_bytes(mutated)
    except MalformedControl:
        # the one difference: a key or box of the wrong width
        assert expected is None or has_wrong_width(expected)
    else:
        assert got == expected


def resize(value: bytes, width: int) -> bytes:
    return value[:width].ljust(width, b"\x00")


def resize_box(ctl, i, width):
    target, box = ctl.path_entries[i]
    ctl.path_entries[i] = (target, resize(box, width))


def resize_key(ctl, i, width):
    ctl.new_public_path[i] = resize(ctl.new_public_path[i], width)


def resize_ephemeral(ctl, width):
    ctl.ephemeral = resize(ctl.ephemeral, width)


WRONG_WIDTHS = {
    "box_short": lambda c: resize_box(c, -1, BOX_LEN - 1),
    "box_long": lambda c: resize_box(c, -1, BOX_LEN + 1),
    "path_key_31": lambda c: resize_key(c, 0, 31),
    "path_key_33": lambda c: resize_key(c, -1, 33),
    "ephemeral_31": lambda c: resize_ephemeral(c, 31),
    "ephemeral_33": lambda c: resize_ephemeral(c, 33),
    # these keep the list's total length, so only the width check sees them
    "boxes_long_short": lambda c: (resize_box(c, 0, BOX_LEN + 1),
                                   resize_box(c, 1, BOX_LEN - 1)),
    "path_keys_33_31": lambda c: (resize_key(c, 0, 33), resize_key(c, 1, 31)),
}


@pytest.mark.parametrize("edit", sorted(WRONG_WIDTHS))
def test_wrong_width_is_malformed(edit):
    states, _ = make_group(3)
    ctl = states[0].update()
    WRONG_WIDTHS[edit](ctl)
    blob = ctl.to_bytes()
    assert has_wrong_width(reference_from_bytes(blob))
    with pytest.raises(MalformedControl):
        cgka.CgkaControl.from_bytes(blob)


@pytest.mark.parametrize("width", [31, 33])
def test_create_roster_init_key_of_the_wrong_width_is_malformed(width):
    states, _ = make_states(3)
    ctl = states[0].create("g", [s.member_id for s in states])
    mid, init_pk = ctl.roster[1]
    ctl.roster[1] = (mid, (init_pk * 2)[:width])
    blob = ctl.to_bytes()
    assert has_wrong_width(reference_from_bytes(blob))
    with pytest.raises(MalformedControl):
        cgka.CgkaControl.from_bytes(blob)


def update_after_create(n: int):
    """The second member's update right after an n-member create. Every
    internal node off the creator's path is still blank, so it seals one
    entry per other leaf: n - 1 in all. Returns (create, update, states)."""
    states, _ = make_states(n)
    create = states[0].create("grp-main", [s.member_id for s in states])
    states[1].process(create)
    return create, states[1].update(), states


def test_decode_reader_calls_do_not_grow_with_entries(monkeypatch):
    calls = {"field": 0, "u32": 0}
    for name in calls:
        original = getattr(Reader, name)

        def counted(self, _name=name, _original=original):
            calls[_name] += 1
            return _original(self)
        monkeypatch.setattr(Reader, name, counted)

    seen = []
    for n in (2, 8, 128):
        blob = update_after_create(n)[1].to_bytes()
        for name in calls:
            calls[name] = 0
        ctl = cgka.CgkaControl.from_bytes(blob)
        seen.append((len(ctl.path_entries), dict(calls)))
    assert [entries for entries, _ in seen] == [1, 7, 127]
    assert seen[0][1] == seen[1][1] == seen[2][1]
    # a decoder that bound the Reader methods ahead of time would count none
    assert all(seen[0][1].values())


def test_warm_up_receiver_opens_one_of_127_entries():
    create, ctl, states = update_after_create(128)
    receiver = states[-1]  # its entry is the last on the wire
    receiver.process(create)
    ctl = cgka.CgkaControl.from_bytes(ctl.to_bytes())
    assert len(ctl.path_entries) == 127
    assert ctl.path_entries[-1][0] == treemod.leaf_node(receiver.own_leaf)
    ops = counters.OpCounters()
    with counters.collect(ops):
        receiver.process(ctl)
    assert ops.total("pke_open") == 1
    assert receiver.epoch == 2


# ---------------------------------------------------------------------------
# fuzz: agreement across random op sequences
# ---------------------------------------------------------------------------

def test_fuzz_key_agreement_small():
    rng = random.Random(1207)
    for round_no in range(30):
        n0 = rng.randint(2, 6)
        states, directory = make_group(n0)
        removed: list[cgka.CgkaState] = []
        next_id = n0
        for _ in range(rng.randint(3, 8)):
            live = [s for s in states if s.tree is not None]
            op = rng.choice(["add", "remove", "update", "update"])
            sender = rng.choice(live)
            if op == "add":
                newcomer = cgka.init(f"user-{next_id:02d}", directory)
                next_id += 1
                ctl = sender.add(newcomer.member_id)
                broadcast(live, sender, ctl, newcomer)
                states.append(newcomer)
            elif op == "remove" and len(live) > 2:
                target = rng.choice([s for s in live if s is not sender])
                ctl = sender.remove(target.member_id)
                for s in live:
                    if s is target:
                        continue
                    if s is not sender:
                        s.process(ctl)
                state_list = [s for s in states if s is not target]
                sender.process(ctl)
                target.tree = None  # frozen out of the group
                states = state_list
            else:
                ctl = sender.update()
                broadcast(live, sender, ctl)
            assert_agreement(states)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
