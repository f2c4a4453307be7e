"""Binary encoding helpers shared by the model serializers.

All integers are little-endian fixed width; probabilities are 64-bit
floats; strings are UTF-8 with a u32 length prefix.
"""

from __future__ import annotations

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


class ByteReader:
    def __init__(self, data: bytes):
        self._data = data
        self.offset = 0

    def _take(self, size: int) -> bytes:
        if self.offset + size > len(self._data):
            raise SerializationError(
                f"unexpected end of data (wanted {size} bytes)", self.offset
            )
        chunk = self._data[self.offset : self.offset + size]
        self.offset += size
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def string(self) -> str:
        start = self.offset
        length = self.u32()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError("invalid UTF-8 in string", start) from None

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
