"""Group key agreement tests.

Count oracles are computed from definitions (population of copath
resolutions), not from the implementation: a warm fully-populated tree of
2^k members must seal exactly k entries per update, and a fresh create must
seal one entry per non-creator member because every internal node is blank.
"""

from __future__ import annotations

import random

import pytest

from chatgate import cgka, counters, tree as treemod
from chatgate.errors import (
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


def broadcast(states, sender, ctl):
    for s in states:
        if s is not sender and s.tree is not None:
            s.process(ctl)
    sender.process(ctl)


# ---------------------------------------------------------------------------
# create
# ---------------------------------------------------------------------------

def test_create_group_of_one():
    states, _ = make_states(1)
    ctl = states[0].create("solo", [states[0].member_id])
    assert ctl.capacity == 1
    assert ctl.path_entries == []
    key = states[0].process(ctl)
    assert key == states[0].group_secret
    assert states[0].epoch == 1
    assert states[0].members() == ["user-00"]


def test_create_three_members_capacity_four():
    states, _ = make_group(3)
    t = states[0].tree
    assert t.capacity == 4
    blank_leaves = [l for l in range(4) if t.nodes[treemod.leaf_node(l)].is_blank]
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
    # Exactly k derivation steps above the leaf for capacity 2^k.
    states, _ = warm_group(8)
    tally = counters.OpCounters()
    with counters.collect(tally), counters.attribute("sender"):
        states[0].update()
    assert tally.party("sender")["derive"] == 3


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
        held = {
            s.tree.nodes[x].public_key
            for x in range(len(s.tree.nodes))
            if s.tree.nodes[x].key_pair is not None
        }
        openable = [e for e in ctl.path_entries if e[0] in held]
        assert len(openable) == 1
    broadcast(states, states[2], ctl)


def assert_private_only_on_own_path(states):
    """The receive path looks up its key only on its own direct path; that
    is complete only if no member holds private material anywhere else."""
    for s in states:
        own = set(treemod.direct_path(s.own_leaf, s.tree.capacity))
        for x, node in enumerate(s.tree.nodes):
            if node.secret is None and node.key_pair is None:
                continue
            assert x in own, (s.member_id, x)
            assert node.key_pair.public_key == node.public_key
            assert node.key_pair.key_object is not None
        assert s.group_key_pair is s.tree.nodes[s.tree.root].key_pair


def test_private_material_only_on_own_direct_path():
    states, directory = warm_group(16)
    assert_private_only_on_own_path(states)

    def apply(sender, ctl, newcomer=None):
        broadcast(states, sender, ctl)
        if newcomer is not None:
            newcomer.process(ctl)
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
    assert ctl.new_leaf == 3
    broadcast(states, states[0], ctl)
    newcomer.process(ctl)
    states.append(newcomer)
    assert_agreement(states)
    assert states[1].members() == ["user-00", "user-01", "user-02", "user-03"]


def test_add_grows_full_tree():
    states, directory = make_group(2)
    newcomer = cgka.init("user-02", directory)
    ctl = states[0].add("user-02")
    assert ctl.new_leaf == 2
    broadcast(states, states[0], ctl)
    newcomer.process(ctl)
    states.append(newcomer)
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
    broadcast(states, states[2], ctl)
    newcomer.process(ctl)
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
    old_init_pk = states[2].init_key.public_key
    ctl = states[0].remove("user-02")
    states[1].process(ctl)
    states[0].process(ctl)

    rejoin = cgka.init("user-02", directory)  # re-publishes a fresh init key
    assert rejoin.init_key.public_key != old_init_pk
    ctl = states[1].add("user-02")
    assert ctl.new_member_init_pk == rejoin.init_key.public_key
    states[0].process(ctl)
    states[1].process(ctl)
    rejoin.process(ctl)
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
    broadcast(states, states[0], controls[-1])
    newcomer.process(controls[-1])
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
    target_pk, box = ctl.path_entries[0]
    bad = bytearray(box)
    bad[-1] ^= 1
    ctl.path_entries[0] = (target_pk, bytes(bad))
    with pytest.raises(DecryptFailed):
        states[1].process(ctl)


def test_wrong_group_control_rejected():
    states_a, _ = make_group(2, group_id="grp-a")
    states_b, _ = make_group(2, group_id="grp-b")
    foreign = states_b[0].update()
    with pytest.raises(MalformedControl):
        states_a[1].process(foreign)


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
                broadcast(live, sender, ctl)
                newcomer.process(ctl)
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
