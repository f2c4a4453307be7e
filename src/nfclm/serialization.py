"""Binary encoding helpers shared by the model serializers.

Every binary is format v2: a header of single fields, then columns.
Integers are little-endian fixed width; probabilities are 64-bit floats;
strings are UTF-8 with a u32 length prefix.  A column is ``count``
little-endian values of one ``array`` typecode, read by ``column`` into
an ``array`` whole, after one bounds check made before it allocates.
"""

from __future__ import annotations

import struct
import sys
from array import array

# whether arrays must be byte-swapped to and from the little-endian columns
_SWAP = sys.byteorder == "big"


class SerializationError(Exception):
    """Malformed serialized data; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class ByteWriter:
    def __init__(self):
        self._buf = bytearray()

    def u16(self, value: int) -> None:
        self._buf += struct.pack("<H", value)

    def u32(self, value: int) -> None:
        self._buf += struct.pack("<I", value)

    def u64(self, value: int) -> None:
        self._buf += struct.pack("<Q", value)

    def f64(self, value: float) -> None:
        self._buf += struct.pack("<d", value)

    def raw(self, data: bytes) -> None:
        self._buf += data

    def string(self, value: str) -> None:
        encoded = value.encode("utf-8")
        self.u32(len(encoded))
        self._buf += encoded

    def column(self, values: array) -> None:
        """``values`` as a little-endian column; its length is not written."""
        if _SWAP:
            values = array(values.typecode, values)
            values.byteswap()
        self._buf += values.tobytes()

    def getvalue(self) -> bytes:
        return bytes(self._buf)


U16, U32, U64, F64 = (struct.Struct("<" + code) for code in "HIQd")


class ByteReader:
    """Sequential reader; every read checks that its bytes are all there."""

    def __init__(self, data: bytes):
        self._data = memoryview(data)
        self.offset = 0

    def _take(self, size: int) -> int:
        """Advance past ``size`` bytes; returns where they start."""
        at = self.offset
        if at + size > len(self._data):
            raise SerializationError(f"unexpected end of data (wanted {size} bytes)", at)
        self.offset = at + size
        return at

    def _field(self, fmt: struct.Struct):
        return fmt.unpack_from(self._data, self._take(fmt.size))[0]

    def u16(self) -> int:
        return self._field(U16)

    def u32(self) -> int:
        return self._field(U32)

    def u64(self) -> int:
        return self._field(U64)

    def f64(self) -> float:
        return self._field(F64)

    def string(self) -> str:
        start = self.offset
        size = self.u32()
        at = self._take(size)
        try:
            return str(self._data[at:at + size], "utf-8")
        except UnicodeDecodeError:
            raise SerializationError("invalid UTF-8 in string", start) from None

    def column(self, typecode: str, count: int) -> array:
        """The next ``count`` values of ``typecode``, checked before allocating."""
        values = array(typecode)
        at = self._take(count * values.itemsize)
        values.frombytes(self._data[at:self.offset])
        if _SWAP:
            values.byteswap()
        return values

    def expect_magic(self, magic: bytes, what: str) -> None:
        at = self._take(len(magic))
        if self._data[at:self.offset] != magic:
            raise SerializationError(f"bad magic bytes for {what}", at)

    def expect_version(self, version: int, what: str) -> None:
        start = self.offset
        found = self.u16()
        if found != version:
            raise SerializationError(
                f"unsupported {what} version {found} (expected {version})", start
            )

    def done(self) -> None:
        if self.offset != len(self._data):
            raise SerializationError("trailing bytes after payload", self.offset)
