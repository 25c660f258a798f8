import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import container_bytes
from savae.errors import CorruptFile, ParseError, UnsupportedVersion
from savae.fileio import ContainerReader, utf8_lines, write_container

MAGIC = b"TEST"
SECTIONS = [
    ("weights", "<f8", [[1.5, -2.0, 0.25]]),
    ("counts", "<u8", [2**64 - 1, 0]),
    ("ids", "<u4", []),
]
HEADER = {"seed": -3, "dtypes": {"counts": "<u8", "ids": "<u4"}}


def _write(path, header=HEADER, sections=SECTIONS, version=1):
    path.write_bytes(container_bytes(MAGIC, version, header, sections))


def _read_all(path, sections=SECTIONS):
    """The header and every section of ``path``, read as ``sections`` lays them out."""
    with path.open("rb") as fh:
        r = ContainerReader(fh, MAGIC, 1, CorruptFile, f"test file {path}")
        arrays = [r.section(name, dtype, np.shape(values)) for name, dtype, values in sections]
        r.finish()
    return r.header, arrays


def test_utf8_lines_split_as_universal_newlines():
    data = "a\nb\r\ncafé\rd".encode()
    assert list(utf8_lines(data, "f.txt")) == ["a\n", "b\r\n", "café\r", "d"]


def test_utf8_lines_stop_at_the_first_line_not_utf8():
    lines = utf8_lines(b"a\nb\r\nc\xffd\ne\xff\n", "f.txt")
    assert [next(lines), next(lines)] == ["a\n", "b\r\n"]
    with pytest.raises(ParseError, match="^line 3: invalid UTF-8 in f.txt$"):
        next(lines)


@pytest.mark.parametrize(
    "data,good",
    [(b"a\rb\n\xff\n", ["a\r", "b\n"]), (b"a\nb\r\xff", ["a\n", "b\r"]), (b"\r\xff\r", ["\r"])],
)
def test_utf8_lines_number_the_bad_line_as_they_split(data, good):
    lines = utf8_lines(data, "f.txt")
    assert [next(lines) for _ in good] == good
    with pytest.raises(ParseError, match=f"^line {len(good) + 1}: invalid UTF-8 in f.txt$"):
        next(lines)


def test_golden_bytes(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, 7, HEADER, {name: values for name, _, values in SECTIONS})
    head = b'{"seed": -3, "dtypes": {"counts": "<u8", "ids": "<u4"}}'
    assert path.read_bytes() == (
        b"TEST" + struct.pack("<II", 7, len(head)) + head
        + struct.pack("<I", 7) + b"weights" + struct.pack("<3I", 2, 1, 3)
        + struct.pack("<3d", 1.5, -2.0, 0.25)
        + struct.pack("<I", 6) + b"counts" + struct.pack("<2I", 1, 2)
        + struct.pack("<2Q", 2**64 - 1, 0)
        + struct.pack("<I", 3) + b"ids" + struct.pack("<2I", 1, 0)
    )


def test_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, 1, HEADER, {name: values for name, _, values in SECTIONS})
    header, arrays = _read_all(path)
    assert header == HEADER
    for arr, (_, dtype, values) in zip(arrays, SECTIONS):
        assert arr.dtype == np.dtype(dtype).newbyteorder("=") and arr.flags.writeable
        np.testing.assert_array_equal(arr, np.asarray(values, dtype=dtype))


def test_every_proper_prefix_is_corrupt(tmp_path):
    path = tmp_path / "c.bin"
    _write(path)
    data = path.read_bytes()
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(CorruptFile, match=re.escape(f"test file {path}")):
            _read_all(path)


@pytest.mark.parametrize(
    "header,sections,match",
    [
        (b"{not json", SECTIONS, "header block in test file .* is not JSON: "),
        (b"\xff{}", SECTIONS, "invalid UTF-8 string in test file "),
        ([1, 2], SECTIONS, "header block in test file .* is not a JSON object"),
        ({"dtypes": ["<u4"]}, SECTIONS, "header block in test file .*, or its dtypes are not one"),
        ({"dtypes": {"counts": "<u8", "ids": "<f4"}}, SECTIONS,
         "section 'ids' in test file .* has dtype <f4, expected <u4"),
        (HEADER, SECTIONS[:1] + SECTIONS[:1] + SECTIONS[1:],
         "unexpected section 'weights' in test file .*; expected 'counts'"),
        (HEADER, SECTIONS[:1] + SECTIONS[2:], "unexpected section 'ids' .*; expected 'counts'"),
        (HEADER, SECTIONS[:2], "truncated test file"),
        (HEADER, SECTIONS + [("extra", "<f8", [1.0])], "trailing bytes after the last section"),
        ({**HEADER, "dtypes": {"counts": "<u4", "ids": "<u4"}}, SECTIONS,
         "section 'counts' in test file .* has dtype <u4, expected <u8"),
        (HEADER, [SECTIONS[0], ("counts", "<u8", [1, 2, 3]), SECTIONS[2]],
         r"section 'counts' in test file .* has shape \(3,\), expected \(2,\)"),
        (HEADER, [("weights", "<f8", [1.5, -2.0, 0.25]), *SECTIONS[1:]],
         r"section 'weights' .* has shape \(3,\), expected \(1, 3\)"),
    ],
    ids=["not-json", "not-utf8", "not-object", "dtypes-list", "dtype-f4", "duplicate",
         "missing", "missing-last", "unexpected-last", "other-dtype", "size", "rank"],
)
def test_damage_names_the_file(tmp_path, header, sections, match):
    path = tmp_path / "c.bin"
    _write(path, header, sections)
    with pytest.raises(CorruptFile, match=match):
        _read_all(path)


def test_trailing_byte(tmp_path):
    path = tmp_path / "c.bin"
    _write(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptFile, match="trailing bytes after the last section in test file"):
        _read_all(path)


def test_bad_magic_and_other_version(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOPE" + container_bytes(MAGIC, 1, HEADER, SECTIONS)[4:])
    with pytest.raises(CorruptFile, match=re.escape(f"bad magic in test file {path}")):
        _read_all(path)
    _write(path, version=2)
    with pytest.raises(UnsupportedVersion, match="has format version 2; only version 1 is read"):
        _read_all(path)


@pytest.mark.parametrize("field", ["header", "name", "rank", "dimension"])
def test_huge_length_field_allocates_nothing(tmp_path, field):
    path = tmp_path / "c.bin"
    _write(path)
    data = bytearray(path.read_bytes())
    (head,) = struct.unpack("<I", data[8:12])
    # the header's length, then the first section's name length, rank and first dimension
    at = {"header": 8, "name": 12 + head, "rank": 12 + head + 11, "dimension": 12 + head + 15}
    data[at[field] : at[field] + 4] = struct.pack("<I", 0xFFFFFFF0)
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with path.open("rb") as fh, pytest.raises(CorruptFile, match="truncated"):
            # a first section of any shape, so that a huge dimension is read
            ContainerReader(fh, MAGIC, 1, CorruptFile, "test file").section(
                "weights", "<f8", (None, None)
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
