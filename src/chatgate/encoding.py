"""Canonical byte encoding for controls, bundles and signed payloads, and
the field schema that declares each wire type once.

Every wire object is a type byte followed by length-prefixed fields in a
fixed order. Lengths are 32-bit big-endian. The encoding is byte-stable:
the same logical object always serializes to the same bytes, which is what
makes transcripts reproducible and signatures well-defined.

A list is a 32-bit item count followed by its items. Where every field of
every item has one fixed width, a bare u32 or a length-prefixed field of
one allowed width (a control's path keys, and its path entries: target
node index and box), `Reader.fixed_items` decodes the whole list in
one step: one bounds check, then C-level unpacking and width checks over
all items, so the Python work of a decode does not grow with the list. A
field of any other width is malformed. The bytes are the same as
`Writer.items` writes.

A wire type's layout is one `Record`: its (name, kind) fields in wire
order. Its encoder, decoder and width checks are compiled from that list;
the `wire` class decorators install them. The layouts sit next to their
classes, in `cgka`, `group`, `triggers` and `tree`.
"""

from __future__ import annotations

import dataclasses
import struct
from functools import partial
from operator import attrgetter
from typing import Callable, TypeVar

from .errors import MalformedControl
from .primitives import BOX_LEN, PUBLIC_KEY_LEN, SEALED_LEN, SIG_LEN

T = TypeVar("T")

_U32 = struct.Struct(">I")
_MAX_FIELD = 1 << 30


class Writer:
    """Accumulates length-prefixed fields."""

    def __init__(self, type_byte: int | None = None):
        self._parts: list[bytes] = []
        if type_byte is not None:
            self._parts.append(bytes([type_byte]))

    def u8(self, value: int) -> "Writer":
        self._parts.append(bytes([value & 0xFF]))
        return self

    def u32(self, value: int) -> "Writer":
        self._parts.append(_U32.pack(value))
        return self

    def field(self, data: bytes) -> "Writer":
        if len(data) > _MAX_FIELD:
            raise MalformedControl("field too large")
        self._parts.append(_U32.pack(len(data)))
        self._parts.append(data)
        return self

    def text(self, value: str) -> "Writer":
        return self.field(value.encode("utf-8"))

    def items(self, values: list[T], write_one: Callable[["Writer", T], None]) -> "Writer":
        self.u32(len(values))
        for v in values:
            write_one(self, v)
        return self

    def done(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Consumes a Writer's output field by field.

    Any shortfall, overrun or trailing garbage raises MalformedControl, so
    decoders never need their own bounds checks. Each read makes one bounds
    check and unpacks straight from the original buffer.
    """

    def __init__(self, data: bytes, expect_type: int | None = None):
        self._data = data
        self._pos = 0
        if expect_type is not None and self.u8() != expect_type:
            raise MalformedControl("unexpected type byte")

    def u8(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            raise MalformedControl("truncated input")
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        try:
            (value,) = _U32.unpack_from(self._data, self._pos)
        except struct.error:
            raise MalformedControl("truncated input") from None
        self._pos += 4
        return value

    def field(self) -> bytes:
        data = self._data
        start = self._pos + 4
        try:
            end = start + _U32.unpack_from(data, self._pos)[0]
        except struct.error:
            raise MalformedControl("truncated input") from None
        if end > len(data):
            raise MalformedControl("truncated input")
        self._pos = end
        return data[start:end]

    def text(self) -> str:
        try:
            return self.field().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedControl("invalid utf-8") from exc

    def items(self, read_one: Callable[["Reader"], T]) -> list[T]:
        count = self.u32()
        if count > len(self._data):
            raise MalformedControl("implausible item count")
        return [read_one(self) for _ in range(count)]

    def fixed_items(self, record: "FixedRecord") -> list[tuple]:
        """An `items` list whose every item is `record`'s fields, each a
        bare u32 or length-prefixed and exactly its width; one tuple of
        fields per item."""
        count = self.u32()
        start = self._pos
        end = start + count * record.fields.size
        if end > len(self._data):
            raise MalformedControl("truncated input")
        data = self._data[start:end]
        if list(record.lengths.iter_unpack(data)).count(record.widths) != count:
            raise MalformedControl("field of the wrong width")
        self._pos = end
        return list(record.fields.iter_unpack(data))

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise MalformedControl("trailing bytes")


class FixedRecord:
    """The layout of one item of a fixed-width list: per field, a
    length-prefixed field of the given width, or a bare u32 for None.
    `lengths` reads only the prefixes, `fields` only the values."""

    def __init__(self, *widths: int | None):
        self.widths = tuple(w for w in widths if w is not None)
        self.lengths = struct.Struct(">" + "".join(
            "4x" if w is None else f"I{w}x" for w in widths))
        self.fields = struct.Struct(">" + "".join(
            "I" if w is None else f"4x{w}s" for w in widths))


def peek_type(data: bytes) -> int:
    if not data:
        raise MalformedControl("empty input")
    return data[0]


# ---------------------------------------------------------------------------
# field schema
# ---------------------------------------------------------------------------

def _wrong_width():
    raise MalformedControl("field of the wrong width")


def _at_most_one(r: Reader, read_one: Callable[[Reader], T]) -> T | None:
    count = r.u32()
    if count > 1:
        raise MalformedControl("more than one item in a list of at most one")
    return read_one(r) if count else None


# what the expressions of the kinds call
_HELPERS = {"_wrong_width": _wrong_width, "_at_most_one": _at_most_one}


class Kind:
    """The kind of one field: the expressions that read one from Reader
    `r` and write `{v}` to Writer `w`, where `{k}` is the kind itself. A
    record inlines them. `width` is the only allowed width of a
    length-prefixed field, if it has one; `fixed` says that every encoding
    of the kind has one length (such a field, or a bare u32); `attrs` are
    what the expressions use."""

    def __init__(self, read: str, write: str, width: int | None = None,
                 fixed: bool = False, **attrs):
        self.read_expr, self.write_expr, self.width = read, write, width
        self.fixed = fixed or width is not None
        self.__dict__.update(attrs)
        env = {"k": self, **_HELPERS}
        self.read = eval(f"lambda r: {read.format(k='k')}", env)
        self.write = eval(f"lambda w, v: {write.format(k='k', v='v')}", env)


def _fixed(width: int) -> Kind:
    return Kind(f"_v if len(_v := r.field()) == {width} else _wrong_width()",
                "w.field({v})", width)


U8 = Kind("r.u8()", "w.u8({v})")
U32 = Kind("r.u32()", "w.u32({v})", fixed=True)
TEXT = Kind("r.text()", "w.text({v})")
BYTES = Kind("r.field()", "w.field({v})")
KEY = _fixed(PUBLIC_KEY_LEN)  # also a 32-byte handle
BOX = _fixed(BOX_LEN)        # a box of a batch
SEALED = _fixed(SEALED_LEN)  # a single seal, its ephemeral key ahead of its box
SIGNATURE = _fixed(SIG_LEN)
# a tree node: a key, or None written as an empty field
TREE_NODE = Kind(f"(_v or None) if len(_v := r.field()) in (0, {PUBLIC_KEY_LEN}) "
                 "else _wrong_width()", "w.field({v} or b'')")


def nested(cls: type, encoder: str = "to_bytes") -> Kind:
    """A field holding another wire type's whole encoding, written by its
    `encoder` method and read by its `from_bytes`."""
    return Kind("{k}.cls.from_bytes(r.field())", f"w.field({{v}}.{encoder}())", cls=cls)


def items(item: "Kind | Record", into: type = list) -> Kind:
    """A list of `item`, decoded `into` a list or a tuple: by
    `Reader.fixed_items` when each of its fields is fixed and it decodes to
    a value or a tuple, else by its reader once per item."""
    kinds = item.kinds if isinstance(item, Record) else (item,)
    layout = None
    if all(kind.fixed for kind in kinds) and not getattr(item, "build", None):
        layout = FixedRecord(*(kind.width for kind in kinds))
        read = ("r.fixed_items({k}.layout)" if isinstance(item, Record) else
                "[value for (value,) in r.fixed_items({k}.layout)]")
    else:
        read = "r.items({k}.item.read)"
    if into is not list:
        read = f"{{k}}.into({read})"
    return Kind(read, "w.items({v}, {k}.item.write)", item=item, into=into,
                layout=layout)


def at_most_one(item: "Record") -> Kind:
    """A list of at most one `item`, decoded to that item or None."""
    return Kind("_at_most_one(r, {k}.item.read)",
                "w.items([] if {v} is None else [{v}], {k}.item.write)", item=item)


class Record:
    """Fields in wire order, each (name, kind), after `type_byte` if given.
    It decodes to `build(*values)`, or without `build` to the tuple of
    values; it encodes such a tuple, or the object's attributes of the
    fields' names. Its `read`, `write`, `decode` and `encode` are compiled
    once, each kind's expressions inlined: no loop and no dispatch on
    kinds, as a hand-written codec would be."""

    def __init__(self, *fields: tuple[str, Kind], type_byte: int | None = None,
                 build: Callable | None = None):
        self.fields, self.type_byte, self.build = fields, type_byte, build
        self.kinds = tuple(kind for _, kind in fields)
        names = [name for name, _ in fields]
        self.values = (None if build is None else attrgetter(*names) if len(names) > 1
                       else lambda item: (getattr(item, names[0]),))
        env = {"build": build, "values": self.values, "Reader": Reader, "Writer": Writer,
               "type_byte": type_byte, **_HELPERS}
        env.update((f"k{i}", kind) for i, kind in enumerate(self.kinds))
        reads = "".join(kind.read_expr.format(k=f"k{i}") + ", "
                        for i, kind in enumerate(self.kinds))
        item = f"{'build' if build else ''}({reads})"
        unpack = "".join(f"v{i}, " for i in range(len(fields)))
        write = f"    {unpack}= {'values(item)' if build else 'item'}\n" + "".join(
            f"    {kind.write_expr.format(k=f'k{i}', v=f'v{i}')}\n"
            for i, kind in enumerate(self.kinds))
        exec(f"def read(r):\n    return {item}\n"
             f"def decode(data):\n    r = Reader(data, type_byte)\n"
             f"    item = {item}\n    r.finish()\n    return item\n"
             f"def write(w, item):\n{write}"
             f"def encode(item):\n    w = Writer(type_byte)\n{write}    return w.done()\n",
             env)
        self.read, self.decode = env["read"], env["decode"]
        self.write, self.encode = env["write"], env["encode"]

    def shape(self, item) -> tuple:
        """(name, shape) per field: the structure of an encoding, not its
        content. A field's shape is its encoded length; a list's, the shape
        of each item, and a list of at most one holds its item or none."""
        values = self.values(item) if self.build else item
        return tuple((name, _shape(kind, value))
                     for (name, kind), value in zip(self.fields, values))


def _shape(kind: "Kind | Record", value):
    if isinstance(kind, Record):
        return kind.shape(value)
    if hasattr(kind, "item"):
        values = value if hasattr(kind, "into") else () if value is None else (value,)
        return tuple(_shape(kind.item, item) for item in values)
    w = Writer()
    kind.write(w, value)
    return len(w.done())


def wire(type_byte: int, *fields: tuple[str, object], encoder: str = "to_bytes"):
    """Class decorator declaring a dataclass as a wire type: its type byte,
    then `fields` in wire order."""
    return wire_variants(None, (), {type_byte: (None, fields)}, (), encoder)


def wire_variants(tag: str | None, head: tuple, middles: dict[int, tuple[object, tuple]],
                  tail: tuple, encoder: str = "to_bytes"):
    """Class decorator declaring a dataclass as a wire type whose type byte
    selects its layout: `head`, that type byte's middle fields, `tail`;
    `middles` maps each type byte to (its value of the `tag` attribute,
    middle fields). Installs the `encoder` method and the `from_bytes`
    classmethod in the class's own namespace, and the layouts by type
    byte in `wire_layouts`."""
    def declare(cls: type) -> type:
        arguments = [f.name for f in dataclasses.fields(cls)]
        layouts, by_tag = {}, {}
        for type_byte, (value, middle) in middles.items():
            fields = head + middle + tail
            names = [name for name, _ in fields]
            tagged = {} if tag is None else {tag: value}
            # positionally if the layout is in constructor order
            if [*tagged, *names] == arguments[:len(tagged) + len(names)]:
                build = partial(cls, *tagged.values())
            else:
                build = partial(_build_by_name, cls, tagged, names)
            layouts[type_byte] = by_tag[value] = Record(
                *fields, type_byte=type_byte, build=build)

        def to_bytes(self) -> bytes:
            return by_tag[tag and getattr(self, tag)].encode(self)

        def from_bytes(_cls, data: bytes):
            record = layouts.get(peek_type(data))
            if record is None:
                raise MalformedControl("unknown type byte")
            return record.decode(data)

        for fn, name in ((to_bytes, encoder), (from_bytes, "from_bytes")):
            fn.__name__, fn.__qualname__ = name, f"{cls.__qualname__}.{name}"
        setattr(cls, encoder, to_bytes)
        cls.from_bytes = classmethod(from_bytes)
        cls.wire_layouts = layouts
        return cls
    return declare


def _build_by_name(cls: type, tagged: dict, names: list[str], *values):
    return cls(**tagged, **dict(zip(names, values)))
