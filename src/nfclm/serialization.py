"""Binary encoding helpers shared by the model serializers.

Every binary is written in format v3: a header of single fields, then
columns.  Header integers are little-endian fixed width; probabilities
are 64-bit floats; strings are UTF-8 with a u32 length prefix.  A column
is ``count`` little-endian values of one ``array`` typecode, read by
``column`` into an ``array`` whole, after one bounds check made before
it allocates.  A float column is 64-bit.  An integer column is unsigned:
in v3 one byte gives its width, 1, 2, 4 or 8 bytes, the narrowest that
holds its largest value (1 when it is empty), and the reader holds it at
that width.  Format v2 is only read: it stored each integer column at
the fixed width its reader names.  The version only chooses where a
width comes from, so both formats share one decoder.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Sequence

# whether arrays must be byte-swapped to and from the little-endian columns
_SWAP = sys.byteorder == "big"
# the oldest format version the readers decode, and the one the writers write
OLDEST_VERSION, VERSION = 2, 3
# the typecode of each width an integer column may be stored at
WIDTHS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def narrowest(top: int) -> str:
    """The typecode of the narrowest unsigned array that holds ``top``;
    ``'Q'`` past 64 bits too, which no array holds."""
    return next((code for width, code in WIDTHS.items() if top < 1 << 8 * width), "Q")


def narrowed(values: Sequence[int]) -> array:
    """``values`` as an array of the narrowest unsigned typecode that holds
    them all; ``'B'`` when there are none."""
    return array(narrowest(max(values, default=0)), values)


class SerializationError(Exception):
    """Malformed serialized data; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class ByteWriter:
    """Sequential writer of format ``VERSION``."""

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
        """``values`` as a little-endian column; its length is not written.

        A float array is written as it is; an integer array at its
        narrowest width, after the byte that gives it.
        """
        typecode = values.typecode
        if typecode != "d":
            typecode = narrowest(max(values, default=0))
            self._buf.append(array(typecode).itemsize)
        if values.typecode != typecode or _SWAP:
            values = array(typecode, values)
        if _SWAP:
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
        self.version = VERSION  # set by ``expect_version``

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
        """The next ``count`` values, checked before allocating.

        ``typecode`` is ``'d'`` for floats, else the integer typecode that
        format v2 stored the column as; from v3 the byte before an integer
        column gives its width, and the array has that width.  Where the
        values start is ``offset`` less their bytes, ``len * itemsize``.
        """
        if typecode != "d" and self.version > 2:
            at = self._take(1)
            typecode = WIDTHS.get(self._data[at])
            if typecode is None:
                raise SerializationError(f"bad column width {self._data[at]}", at)
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

    def expect_version(self, what: str) -> None:
        """Read a version field; formats ``OLDEST_VERSION`` to ``VERSION`` load."""
        start = self.offset
        found = self.u16()
        if not OLDEST_VERSION <= found <= VERSION:
            expected = " or ".join(map(str, range(OLDEST_VERSION, VERSION + 1)))
            raise SerializationError(
                f"unsupported {what} version {found} (expected {expected})", start
            )
        self.version = found

    def done(self) -> None:
        if self.offset != len(self._data):
            raise SerializationError("trailing bytes after payload", self.offset)
