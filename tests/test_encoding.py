"""Wire decoding bounds.

Every decoder reads through `encoding.Reader`, so one set of inputs covers
its bounds checks: each strict prefix of a valid encoding, the encoding with
one byte appended, and a length prefix pointing past the end must all raise
MalformedControl, never decode and never raise anything else. Hypothesis then
feeds every decoder arbitrary bytes and byte-mutated real encodings, and a
sweep edits each byte of every decoder's shortest real encoding: each
decoder must return or raise a ChatGateError. Every fixed-width field that
the wire declarations name must refuse one byte more or less, and every
real encoding must re-encode byte for byte.
"""

from __future__ import annotations

import base64
import functools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatgate import cgka, group, tree
from chatgate.encoding import BOX, TREE_NODE, U32, Reader, Record, items, peek_type
from chatgate.errors import ChatGateError, MalformedControl
from chatgate.harness import canned
from chatgate.harness.runner import run_text
from chatgate.primitives import SEALED_LEN
from chatgate.provider import Provider
from chatgate.triggers import BotRegistration, TriggerSpec, rules_from_text

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
    assert group.GroupControl.from_bytes(add).welcome.roster  # the chatbot roster
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


# where the first field's length sits: after the type byte (and a user
# view's flags byte), or after the tree's capacity and node count
FIRST_FIELD = {"user-view": 2, "public-tree": 8}


def _overruns(blob: bytes, first: int) -> list[bytes]:
    """Copies whose first, and where present last, field length points past
    the end of the input. The last field is a trailing sealed box, or a
    byte string that directly follows the first field and ends the input
    (a user view's ciphertext after its control)."""
    after_first = first + 4 + struct.unpack_from(">I", blob, first)[0]
    assert after_first <= len(blob)
    spots = [first]
    last = len(blob) - 4 - SEALED_LEN  # trailing sealed box, if any
    if struct.unpack_from(">I", blob, last)[0] == SEALED_LEN:
        spots.append(last)
    elif (after_first + 4 <= len(blob) and after_first + 4
          + struct.unpack_from(">I", blob, after_first)[0] == len(blob)):
        spots.append(after_first)
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
    bad_copies = _overruns(blob, FIRST_FIELD.get(name, 1))
    if name.startswith("control") or name == "user-view":
        assert len(bad_copies) == 4  # both the first and the last field
    for bad in bad_copies:
        with pytest.raises(MalformedControl):
            decode(bad)


def test_two_welcomes_in_one_group_control_are_refused(samples):
    # the welcome list after the control holds at most one welcome
    decode, blob = samples["group-control"]
    count_at = 1 + 4 + struct.unpack_from(">I", blob, 1)[0]
    assert struct.unpack_from(">I", blob, count_at)[0] == 1
    welcome = blob[count_at + 4:]
    two = blob[:count_at] + struct.pack(">I", 2) + welcome + welcome
    with pytest.raises(MalformedControl, match="more than one item"):
        decode(two)


def test_each_read_checks_its_own_bounds():
    # each read fails at once, before any later read or finish() could
    for data, read in ((b"", Reader.u8), (b"\x00\x00\x00", Reader.u32),
                       (b"\x00\x00", Reader.field),
                       (b"\x00\x00\x00\x03ab", Reader.field)):
        with pytest.raises(MalformedControl):
            read(Reader(data))


# -- fuzzing -------------------------------------------------------------------

DECODERS = (cgka.CgkaControl.from_bytes, group.AddBotControl.from_bytes,
            group.BotMessage.from_bytes, group.ChatbotMessageView.from_bytes,
            group.GroupControl.from_bytes, group.RemoveBotControl.from_bytes,
            group.UserMessageView.from_bytes, tree.RatchetTree.from_public_bytes,
            BotRegistration.from_bytes, TriggerSpec.from_bytes)


@functools.cache
def _real_encodings() -> tuple[bytes, ...]:
    """Every distinct wire object of a seeded demo run, and the encodings
    nested in them: tree controls, welcome trees, registrations, triggers."""
    result = run_text(canned.DEMO, seed=7)
    out = {bot.registration.to_bytes() for bot in result.bots.values()}
    out |= {bot.registration.trigger.canonical_bytes()
            for bot in result.bots.values()}
    for row in result.provider.transcript:
        view = base64.b64decode(row["view_b64"])
        out.add(view)
        if peek_type(view) == group.GROUP_CONTROL:
            wrapped = group.GroupControl.from_bytes(view)
            out.add(wrapped.control)
            if wrapped.welcome is not None:
                out.add(wrapped.welcome.tree)
        elif peek_type(view) == group.VIEW_USER_MESSAGE:
            out.add(group.UserMessageView.from_bytes(view).control)
    return tuple(sorted(out))


@st.composite
def _mutated_encodings(draw) -> bytes:
    """A real encoding with a few bytes overwritten, inserted or deleted."""
    blob = bytearray(draw(st.sampled_from(_real_encodings())))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(("set", "insert", "delete")))
        if edit == "insert" or at == len(blob):
            blob.insert(at, draw(st.integers(0, 255)))
        elif edit == "set":
            blob[at] = draw(st.integers(0, 255))
        else:
            del blob[at]
    return bytes(blob)


def _decode_everywhere(data: bytes) -> None:
    for decode in DECODERS:
        try:
            decode(data)
        except ChatGateError:
            pass  # anything else fails the test


def _shortest_real_encoding(decode) -> bytes:
    """The shortest real encoding that `decode` accepts."""
    decoded = []
    for blob in _real_encodings():
        try:
            decode(blob)
        except ChatGateError:
            continue
        decoded.append(blob)
    return min(decoded, key=len)


@pytest.mark.parametrize("decode", DECODERS, ids=lambda d: d.__qualname__)
def test_decoders_raise_only_chatgate_errors_on_one_byte_edits(decode):
    # Random edits rarely land on the one byte a semantic check reads (a
    # rule kind, a capacity), so every byte of the shortest real encoding
    # is also set in turn to a few values that flip such checks.
    blob = _shortest_real_encoding(decode)
    for at in range(len(blob)):
        for value in (0, 1, 4, 5, 0xFF, blob[at] ^ 0x80):
            edited = bytearray(blob)
            edited[at] = value
            _decode_everywhere(bytes(edited))


ENCODERS = {cgka.CgkaControl.from_bytes: "to_bytes",
            tree.RatchetTree.from_public_bytes: "to_public_bytes",
            TriggerSpec.from_bytes: "canonical_bytes"}


def test_every_real_encoding_roundtrips():
    # each real encoding decodes, and every decoder that accepts it
    # re-encodes it byte for byte
    for blob in _real_encodings():
        accepted = 0
        for decode in DECODERS:
            try:
                obj = decode(blob)
            except ChatGateError:
                continue
            accepted += 1
            assert getattr(obj, ENCODERS.get(decode, "to_bytes"))() == blob
        assert accepted, blob.hex()


# -- widths --------------------------------------------------------------------

def _declared() -> list[tuple[str, Record, object]]:
    """(name, layout, decoder) for every declared wire layout: each wire
    type's (one per tree-control kind), the public tree's, and the three
    payloads inside the ciphertext."""
    out = [("RatchetTree", tree._PUBLIC_TREE, tree.RatchetTree.from_public_bytes)]
    for decode in DECODERS:
        cls = decode.__self__
        if cls is tree.RatchetTree:
            continue
        for type_byte, layout in cls.wire_layouts.items():
            name = cls.__name__
            if cls is cgka.CgkaControl:
                name += "." + cgka._MIDDLES[type_byte][0]
            out.append((name, layout, decode))
    for payload in ("_PLAIN", "_PSEUDONYMOUS", "_REGISTRATION"):
        out.append((f"payload{payload}", getattr(group, payload), group._parse_payload))
    return out


def _is_fixed(kind) -> bool:
    return kind.width is not None or kind is TREE_NODE


def _fixed_fields(kind, path=(), in_list=False):
    """(path, name) of every fixed-width field under `kind`. The path names
    each field on the way; the name leaves out a list item's field when it
    is the item's only fixed-width one, so that a view's entry box is
    named `entries`."""
    if hasattr(kind, "item"):  # a list, or a list of at most one
        yield from _fixed_fields(kind.item, path, in_list=True)
    elif isinstance(kind, Record):
        fixed = [name for name, sub in kind.fields if _is_fixed(sub)]
        for name, sub in kind.fields:
            for sub_path, sub_name in _fixed_fields(sub, (name,)):
                shown = sub_name[1:] if in_list and fixed == [name] else sub_name
                yield path + sub_path, path + shown
    elif _is_fixed(kind):
        yield path, path


def _resized(kind, value, path, delta):
    """`value` with the fixed-width field at `path` one byte longer or
    shorter, in the first list item where that can be done; None if there
    is no such field in `value`."""
    if hasattr(kind, "item") and not hasattr(kind, "into"):  # at most one
        return None if value is None else _resized(kind.item, value, path, delta)
    if hasattr(kind, "item"):
        for i, item in enumerate(value):
            edited = _resized(kind.item, item, path, delta)
            if edited is not None:
                items = list(value)
                items[i] = edited
                return kind.into(items)
        return None
    if isinstance(kind, Record):
        values = list(kind.values(value) if kind.build else value)
        i = [name for name, _ in kind.fields].index(path[0])
        edited = _resized(kind.kinds[i], values[i], path[1:], delta)
        if edited is None:
            return None
        values[i] = edited
        return kind.build(*values) if kind.build else tuple(values)
    if value is None or (delta < 0 and not value):
        return None  # a blank tree node
    return value + b"\x00" if delta > 0 else value[:-1]


def _payload_samples() -> list[bytes]:
    return [group._encode_plain(b"hello"),
            group._encode_pseudonymous(b"hello", bytes(32), bytes(64)),
            group._encode_registration(bytes(32))]


# every fixed-width field of every declared layout: (layout, decoder, path)
WIDTH_FIELDS = {f"{name}.{'.'.join(shown)}": (layout, decode, path)
                for name, layout, decode in _declared()
                for path, shown in _fixed_fields(layout)}


@pytest.mark.parametrize("delta", (-1, 1))
@pytest.mark.parametrize("field", sorted(WIDTH_FIELDS))
def test_fixed_width_fields_refuse_one_byte_more_or_less(field, delta):
    # the same one-byte width edit on each field, its length prefix kept
    # consistent, so that only the width check can refuse it
    layout, decode, path = WIDTH_FIELDS[field]
    for blob in _real_encodings() + tuple(_payload_samples()):
        try:
            genuine = layout.decode(blob)
        except MalformedControl:
            continue
        edited = _resized(layout, genuine, path, delta)
        if edited is not None:
            break
    else:
        raise AssertionError(f"no real encoding carries {field}")
    assert layout.encode(genuine) == blob
    decode(blob)
    with pytest.raises(MalformedControl):
        decode(layout.encode(edited))


def test_width_sweep_covers_the_path_entry_box():
    # an entry's target is a bare u32, so its box is the item's only
    # fixed-width field, and the sweep names it by its list
    for kind in ("create", "add", "remove", "update"):
        _layout, _decode, path = WIDTH_FIELDS[f"CgkaControl.{kind}.path_entries"]
        assert path == ("path_entries", "box")


# -- a bare u32 in a fixed-width list -------------------------------------------

# one entry: a node index written as a bare u32, then a sealed box
U32_ENTRIES = Record(("entries", items(Record(("target", U32), ("box", BOX)))),
                     ("indices", items(U32)))
U32_SAMPLE = ([(0, bytes(SEALED_LEN)), (254, bytes(range(SEALED_LEN))),
               (2**32 - 1, b"\xff" * SEALED_LEN)], [7, 0, 2**32 - 1])


def test_bare_u32_list_roundtrips():
    # both lists decode in one `Reader.fixed_items` pass
    assert all(kind.layout is not None for kind in U32_ENTRIES.kinds)
    blob = U32_ENTRIES.encode(U32_SAMPLE)
    # count, then per entry u32 target, u32 length, box; count, u32s
    assert len(blob) == 4 + 3 * (4 + 4 + SEALED_LEN) + 4 + 3 * 4
    assert U32_ENTRIES.decode(blob) == U32_SAMPLE
    assert U32_ENTRIES.encode(U32_ENTRIES.decode(blob)) == blob


def test_bare_u32_list_refuses_every_strict_prefix():
    blob = U32_ENTRIES.encode(U32_SAMPLE)
    for k in range(len(blob)):
        with pytest.raises(MalformedControl):
            U32_ENTRIES.decode(blob[:k])


def test_bare_u32_list_one_byte_edits_raise_only_chatgate_errors():
    blob = U32_ENTRIES.encode(U32_SAMPLE)
    for at in range(len(blob)):
        for value in (0, 1, 0x30, 0xFF, blob[at] ^ 0x80):
            edited = bytearray(blob)
            edited[at] = value
            try:
                U32_ENTRIES.decode(bytes(edited))
            except ChatGateError:
                pass


def test_width_fields_cover_every_declared_type():
    covered = {name.split(".")[0] for name in WIDTH_FIELDS}
    assert covered >= {
        "CgkaControl", "ChatbotMessageView", "BotMessage",
        "AddBotControl", "GroupControl", "BotRegistration", "RatchetTree",
        "payload_PSEUDONYMOUS", "payload_REGISTRATION"}
    # a member's view is flags, control and ciphertext: no sealed box
    assert "UserMessageView" not in covered


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=512))
def test_decoders_raise_only_chatgate_errors_on_arbitrary_bytes(data):
    _decode_everywhere(data)


@settings(max_examples=500, deadline=None)
@given(data=_mutated_encodings())
def test_decoders_raise_only_chatgate_errors_on_mutated_views(data):
    _decode_everywhere(data)
