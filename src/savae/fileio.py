"""Atomic file writes, UTF-8 lines of text files and the binary container
that corpus files and checkpoints are stored in.

A container holds a 4-byte magic, a u32 format version, a u32 byte length
and a UTF-8 JSON object (the header), then sections to the end of the
file: a u32-length UTF-8 name, a u32 rank, u32 dimensions and the array's
values in C order. All integers are little-endian, and a section's values
are ``<f8`` unless the header's ``"dtypes"`` object maps its name to
``<u4`` or ``<u8``.
"""

import io
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError, UnsupportedVersion


@contextmanager
def atomic_write(path):
    """Yield a binary file handle whose contents replace ``path`` only on success.

    The data goes to a temporary file in the target's directory, which
    ``os.replace`` renames over ``path`` once the block completes. If the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def utf8_lines(data, path):
    """Lines of the bytes ``data`` as io.StringIO(newline="") splits them; a
    ParseError naming ``path`` at the first line, counted as they split,
    that is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        good = max(data.rfind(b"\n", 0, err.start), data.rfind(b"\r", 0, err.start)) + 1
        lines = io.StringIO(data[:good].decode("utf-8"), newline="").readlines()
        yield from lines
        raise ParseError(f"invalid UTF-8 in {path}", len(lines) + 1) from None
    yield from io.StringIO(text, newline="")


def write_container(path, magic, version, header, sections):
    """Atomically write ``header``, a JSON object, and the arrays (or lists)
    of the name -> values map ``sections``, in its order, as a container."""
    dtypes = header.get("dtypes", {})
    head = json.dumps(header).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(magic + struct.pack("<II", version, len(head)) + head)
        for name, values in sections.items():
            arr = np.ascontiguousarray(values, dtype=dtypes.get(name, "<f8"))
            key = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(key)}s", len(key), key))
            fh.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
            # write a copy, as the per-field writer did: freeing a large copy raises
            # glibc's mmap threshold, so later big temporaries reuse heap pages
            fh.write(arr.tobytes())


class ContainerReader:
    """The container in the seekable binary file ``fh``, read in order: its
    ``header`` on construction, then each ``section``, then ``finish``.
    Damage raises ``error`` naming ``source``, after a check of the bytes
    left, so a damaged length field allocates nothing. Another version is
    an ``UnsupportedVersion``, whose message ends with ``advice``."""

    def __init__(self, fh, magic, version, error, source, advice=""):
        self.fh = fh
        self.error = error
        self.source = source
        self.end = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        if self._read("u1", (len(magic),)).tobytes() != magic:
            raise error(f"bad magic in {source}")
        found = self._u32()
        if found != version:
            raise UnsupportedVersion(
                f"{source} has format version {found}; only version {version} is read{advice}"
            )
        try:
            self.header = json.loads(self._string())
        except ValueError as err:
            raise error(f"header block in {source} is not JSON: {err}") from None
        self.dtypes = self.header.get("dtypes", {}) if isinstance(self.header, dict) else None
        if not isinstance(self.dtypes, dict):
            raise error(f"header block in {source} is not a JSON object, or its dtypes are not one")

    def _read(self, dtype, shape):
        """A new array of ``dtype`` and ``shape`` from the file, allocated only
        once the bytes left are known to hold it."""
        if math.prod(shape) * np.dtype(dtype).itemsize > self.end - self.fh.tell():
            raise self.error(f"truncated {self.source}")
        out = np.empty(shape, dtype)
        if self.fh.readinto(out) != out.nbytes:
            raise self.error(f"truncated {self.source}")
        return out

    def _u32(self):
        return int(self._read("<u4", (1,))[0])

    def _string(self):
        try:
            return self._read("u1", (self._u32(),)).tobytes().decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"invalid UTF-8 string in {self.source}") from None

    def section(self, name, dtype, shape):
        """The next section's array, which must be called ``name`` and be of
        ``dtype`` and ``shape``; a None in ``shape`` matches any length."""
        found = self._string()
        if found != name:
            raise self.error(f"unexpected section '{found}' in {self.source}; expected '{name}'")
        where = f"section '{name}' in {self.source}"
        stored = self.dtypes.get(name, "<f8")
        if stored != dtype:
            raise self.error(f"{where} has dtype {stored}, expected {dtype}")
        dims = tuple(self._read("<u4", (self._u32(),)).tolist())
        if len(dims) != len(shape) or any(w is not None and w != n for n, w in zip(dims, shape)):
            raise self.error(f"{where} has shape {dims}, expected {shape}")
        out = self._read(dtype, dims)
        return out.astype(out.dtype.newbyteorder("="), copy=False)

    def finish(self):
        """Raise unless the last section ended the file."""
        if self.fh.tell() != self.end:
            raise self.error(f"trailing bytes after the last section in {self.source}")
