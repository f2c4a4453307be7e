"""Binary encoding helpers shared by the model serializers.

All integers are little-endian fixed width; probabilities are 64-bit
floats; strings are UTF-8 with a u32 length prefix.  Decoders read a run
of fixed fields as one ``record``; a record cut short by the end of the
data is reported at its first field that runs past the end, as a
field-at-a-time read would report it.
"""

from __future__ import annotations

import re
import struct


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

    def getvalue(self) -> bytes:
        return bytes(self._buf)


def record(fields: str) -> struct.Struct:
    """A fixed run of little-endian numeric fields, e.g. ``"dI"``."""
    return struct.Struct("<" + fields)


U16, U32, U64, F64 = (record(code) for code in "HIQd")


def _field_sizes(fmt: struct.Struct) -> list[int]:
    """The size of each field of a ``record`` format, in order."""
    return [struct.calcsize("<" + code)
            for count, code in re.findall(r"(\d*)(\D)", fmt.format[1:])
            for _ in range(int(count or 1))]


class ByteReader:
    """Sequential reader; ``string`` returns one shared str per distinct byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._size = len(data)
        self.offset = 0
        self._strings: dict[bytes, str] = {}

    def _short(self, at: int, sizes) -> SerializationError:
        """The error of a read of fields of ``sizes`` at ``at`` that runs
        past the end: it names the first field that does, as a
        field-at-a-time read would."""
        for size in sizes:
            if at + size > self._size:
                break
            at += size
        return SerializationError(f"unexpected end of data (wanted {size} bytes)", at)

    def record(self, fmt: struct.Struct) -> tuple:
        """Every field of ``fmt`` at the current offset, behind one bounds check."""
        at = self.offset
        end = at + fmt.size
        if end > self._size:
            raise self._short(at, _field_sizes(fmt))
        self.offset = end
        return fmt.unpack_from(self._data, at)

    def _take(self, size: int) -> bytes:
        at = self.offset
        end = at + size
        if end > self._size:
            raise self._short(at, [size])
        self.offset = end
        return self._data[at:end]

    def u16(self) -> int:
        return self.record(U16)[0]

    def u32(self) -> int:
        return self.record(U32)[0]

    def u64(self) -> int:
        return self.record(U64)[0]

    def f64(self) -> float:
        return self.record(F64)[0]

    def string(self) -> str:
        start = self.offset
        raw = self._take(self.record(U32)[0])
        text = self._strings.get(raw)
        if text is None:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise SerializationError("invalid UTF-8 in string", start) from None
            self._strings[raw] = text
        return text

    def expect_magic(self, magic: bytes, what: str) -> None:
        start = self.offset
        if self._take(len(magic)) != magic:
            raise SerializationError(f"bad magic bytes for {what}", start)

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
