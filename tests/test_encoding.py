"""Wire decoding bounds.

Every decoder reads through `encoding.Reader`, so one set of inputs covers
its bounds checks: each strict prefix of a valid encoding, the encoding with
one byte appended, and a length prefix pointing past the end must all raise
MalformedControl, never decode and never raise anything else.
"""

from __future__ import annotations

import struct

import pytest

from chatgate import cgka, group, tree
from chatgate.encoding import Reader
from chatgate.errors import MalformedControl
from chatgate.primitives import PUBLIC_KEY_LEN, SEALED_LEN
from chatgate.provider import Provider
from chatgate.triggers import rules_from_text

GROUP_ID = "grp-main"
NAMES = ("control-create", "control-add", "control-remove", "control-update",
         "user-view", "group-control", "public-tree")


@pytest.fixture(scope="module")
def samples() -> dict[str, tuple]:
    """name -> (decoder, valid encoding) for the wire objects under test."""
    provider = Provider()
    users = [group.user_init(cgka.init(f"user-{i:02d}", provider.directory),
                             provider) for i in range(3)]
    bot = group.chatbot_init("echo-bot-01", rules_from_text("mention:@echo"))
    provider.register_bot(bot.registration)

    def to_others(sender, blob, process):
        for u in users:
            if u is not sender and u.cgka.tree is not None:
                getattr(u, process)(blob)

    create = users[0].create_group(GROUP_ID, ["user-00", "user-01"])
    users[1].process_group_control(create)
    to_others(users[0], users[0].add_chatbot("echo-bot-01"), "process_add_chatbot")
    add = users[0].add_user("user-02")
    assert group.GroupControl.from_bytes(add).roster  # the chatbot roster
    to_others(users[0], add, "process_group_control")
    users[2].process_group_control(add)
    update = users[1].update_keys()
    to_others(users[1], update, "process_group_control")
    view = users[2].send(b"@echo over here").user_view
    to_others(users[2], view, "process_user_message")
    remove = users[0].remove_user("user-02")

    def control(blob: bytes) -> bytes:
        return group.GroupControl.from_bytes(blob).control

    return {
        "control-create": (cgka.CgkaControl.from_bytes, control(create)),
        "control-add": (cgka.CgkaControl.from_bytes, control(add)),
        "control-remove": (cgka.CgkaControl.from_bytes, control(remove)),
        "control-update": (cgka.CgkaControl.from_bytes, control(update)),
        "user-view": (group.UserMessageView.from_bytes, view),
        "group-control": (group.GroupControl.from_bytes, add),
        "public-tree": (tree.RatchetTree.from_public_bytes,
                        users[0].cgka.tree.to_public_bytes()),
    }


def _overruns(blob: bytes, typed: bool) -> list[bytes]:
    """Copies whose first, and where present last, field length points past
    the end of the input."""
    # typed objects open with the group id; the tree with capacity and count
    first = 1 if typed else 8
    assert struct.unpack_from(">I", blob, first)[0] == (
        len(GROUP_ID) if typed else PUBLIC_KEY_LEN)
    spots = [first]
    last = len(blob) - 4 - SEALED_LEN  # trailing sealed box, if any
    if struct.unpack_from(">I", blob, last)[0] == SEALED_LEN:
        spots.append(last)
    out = []
    for at in spots:
        for length in (len(blob), 0xFFFFFFFF):
            bad = bytearray(blob)
            struct.pack_into(">I", bad, at, length)
            out.append(bytes(bad))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_valid_encoding_roundtrips(samples, name):
    decode, blob = samples[name]
    back = decode(blob)
    encode = back.to_public_bytes if name == "public-tree" else back.to_bytes
    assert encode() == blob


@pytest.mark.parametrize("name", NAMES)
def test_every_strict_prefix_is_rejected(samples, name):
    decode, blob = samples[name]
    for k in range(len(blob)):
        with pytest.raises(MalformedControl):
            decode(blob[:k])


@pytest.mark.parametrize("name", NAMES)
def test_appended_byte_is_rejected(samples, name):
    decode, blob = samples[name]
    with pytest.raises(MalformedControl):
        decode(blob + b"\x00")


@pytest.mark.parametrize("name", NAMES)
def test_field_length_past_the_end_is_rejected(samples, name):
    decode, blob = samples[name]
    bad_copies = _overruns(blob, typed=name != "public-tree")
    if name.startswith("control") or name == "user-view":
        assert len(bad_copies) == 4  # both the first and the last field
    for bad in bad_copies:
        with pytest.raises(MalformedControl):
            decode(bad)


def test_each_read_checks_its_own_bounds():
    # each read fails at once, before any later read or finish() could
    for data, read in ((b"", Reader.u8), (b"\x00\x00\x00", Reader.u32),
                       (b"\x00\x00", Reader.field),
                       (b"\x00\x00\x00\x03ab", Reader.field)):
        with pytest.raises(MalformedControl):
            read(Reader(data))
