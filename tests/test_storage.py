import io
import struct

import pytest

from passrecall.storage import (
    FORMAT_VERSION,
    KIND_CORPUS,
    KIND_TRIE,
    MAGIC,
    Reader,
    StorageError,
    Writer,
)


def test_field_roundtrip():
    buf = io.BytesIO()
    w = Writer(buf)
    w.header(KIND_CORPUS)
    w.u32(123456)
    w.u64(2**40)
    w.raw(b"\x00\x01binary")
    w.text("päivää {}")
    w.u32_seq([0, 1, 2, 4294967295])

    buf.seek(0)
    r = Reader(buf)
    r.header(KIND_CORPUS)
    assert r.u32() == 123456
    assert r.u64() == 2**40
    assert r.raw() == b"\x00\x01binary"
    assert r.text() == "päivää {}"
    assert r.u32_array().tolist() == [0, 1, 2, 4294967295]


def test_empty_sequence_roundtrip():
    buf = io.BytesIO()
    Writer(buf).u32_seq([])
    buf.seek(0)
    assert Reader(buf).u32_array().tolist() == []


def test_header_layout_is_stable():
    buf = io.BytesIO()
    Writer(buf).header(KIND_TRIE)
    assert buf.getvalue() == MAGIC + FORMAT_VERSION.to_bytes(4, "little") + KIND_TRIE


def test_bad_magic_rejected():
    buf = io.BytesIO(b"XXXX" + b"\x00" * 8)
    with pytest.raises(StorageError, match="magic"):
        Reader(buf).header(KIND_CORPUS)


def test_wrong_kind_rejected():
    buf = io.BytesIO()
    Writer(buf).header(KIND_TRIE)
    buf.seek(0)
    with pytest.raises(StorageError, match="kind"):
        Reader(buf).header(KIND_CORPUS)


def test_wrong_version_rejected():
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write((FORMAT_VERSION + 1).to_bytes(4, "little"))
    buf.write(KIND_CORPUS)
    buf.seek(0)
    with pytest.raises(StorageError, match="version"):
        Reader(buf).header(KIND_CORPUS)


def test_truncation_detected():
    buf = io.BytesIO()
    w = Writer(buf)
    w.header(KIND_CORPUS)
    w.text("hello")
    data = buf.getvalue()
    clipped = io.BytesIO(data[:-3])
    r = Reader(clipped)
    r.header(KIND_CORPUS)
    with pytest.raises(StorageError, match="truncated"):
        r.text()


@pytest.mark.parametrize("field", ["raw", "u32_array"])
def test_length_beyond_the_stream_rejected_before_reading(tmp_path, field):
    # Reading 2**62 bytes from a file raises MemoryError, so the length
    # prefix must be checked first.
    path = tmp_path / "section"
    path.write_bytes((2**62).to_bytes(8, "little") + b"\x00" * 16)
    with open(path, "rb") as fh, pytest.raises(StorageError, match="truncated"):
        getattr(Reader(fh), field)()


def test_writes_are_deterministic():
    def produce() -> bytes:
        buf = io.BytesIO()
        w = Writer(buf)
        w.header(KIND_CORPUS)
        w.u32_seq([5, 6, 7])
        w.text("same")
        return buf.getvalue()

    assert produce() == produce()


def test_u32_sequence_bytes_and_extremes():
    values = [0, 1, 2**31, 2**32 - 1]
    buf = io.BytesIO()
    Writer(buf).u32_seq(values)
    assert buf.getvalue() == struct.pack("<Q4I", 4, *values)
    buf.seek(0)
    read = Reader(buf).u32_array()
    assert read.typecode == "I" and read.tolist() == values


@pytest.mark.parametrize("bad", [-1, 2**32])
def test_u32_sequence_value_out_of_range_rejected_at_write(bad):
    buf = io.BytesIO()
    with pytest.raises(OverflowError):
        Writer(buf).u32_seq([3, bad])
    assert buf.getvalue() == b""
