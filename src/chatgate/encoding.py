"""Canonical byte encoding for controls, bundles and signed payloads.

Every wire object is a type byte followed by length-prefixed fields in a
fixed order. Lengths are 32-bit big-endian. The encoding is byte-stable:
the same logical object always serializes to the same bytes, which is what
makes transcripts reproducible and signatures well-defined.
"""

from __future__ import annotations

import struct
from typing import Callable, TypeVar

from .errors import MalformedControl

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

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise MalformedControl("trailing bytes")


def peek_type(data: bytes) -> int:
    if not data:
        raise MalformedControl("empty input")
    return data[0]
