"""Binary artifact sections: versioned headers and length-prefixed fields.

All artifacts live in one file written through one stream: the corpus
section, the trie section, then one index section (document id and suffix
array) per document in corpus order.  Every section starts with magic bytes
``MREF``, a little-endian u32 format version and a 4-byte section kind, then
kind-specific fields.  Variable-length fields carry 64-bit little-endian
length prefixes, checked against the bytes left before they are read.
Writers are fully deterministic: the same logical content always produces
the same bytes.
"""

from __future__ import annotations

import io
import struct
import sys
from array import array
from typing import BinaryIO, Sequence

MAGIC = b"MREF"
FORMAT_VERSION = 4

KIND_CORPUS = b"CORP"
KIND_TRIE = b"TRIE"
KIND_FMINDEX = b"FMIX"

# u32 sequences are stored little-endian; arrays hold them in host order.
_SWAP = sys.byteorder == "big"


class StorageError(ValueError):
    """Raised when an artifact section is malformed or has the wrong kind."""


class Writer:
    def __init__(self, stream: BinaryIO):
        self._stream = stream

    def header(self, kind: bytes) -> None:
        if len(kind) != 4:
            raise ValueError("section kind must be 4 bytes")
        self._stream.write(MAGIC)
        self.u32(FORMAT_VERSION)
        self._stream.write(kind)

    def u8(self, value: int) -> None:
        self._stream.write(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._stream.write(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._stream.write(struct.pack("<Q", value))

    def raw(self, data: bytes) -> None:
        self.u64(len(data))
        self._stream.write(data)

    def text(self, value: str) -> None:
        self.raw(value.encode("utf-8"))

    def u32_seq(self, values: Sequence[int]) -> None:
        packed = array("I", values)  # raises on a value outside [0, 2**32)
        if _SWAP:
            packed.byteswap()
        self.u64(len(packed))
        self._stream.write(packed.tobytes())


class Reader:
    def __init__(self, stream: BinaryIO):
        self._stream = stream
        position = stream.tell()
        stream.seek(0, io.SEEK_END)  # returns None on an mmap before 3.13
        self._left = stream.tell() - position
        stream.seek(position)

    def header(self, expected_kind: bytes) -> None:
        magic = self._take(4)
        if magic != MAGIC:
            raise StorageError(f"bad magic {magic!r}; not an artifact section")
        version = self.u32()
        if version != FORMAT_VERSION:
            raise StorageError(f"unsupported format version {version}")
        kind = self._take(4)
        if kind != expected_kind:
            raise StorageError(
                f"wrong section kind {kind!r}; expected {expected_kind!r}"
            )

    def _take(self, n: int) -> bytes:
        if n > self._left:
            raise StorageError(
                f"truncated artifact section: {n} bytes wanted, {self._left} left"
            )
        data = self._stream.read(n)
        if len(data) != n:
            raise StorageError("truncated artifact section")
        self._left -= n
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def raw(self) -> bytes:
        return self._take(self.u64())

    def text(self) -> str:
        return self.raw().decode("utf-8")

    def u32_array(self) -> array:
        values = array("I")
        values.frombytes(self._take(4 * self.u64()))
        if _SWAP:
            values.byteswap()
        return values
