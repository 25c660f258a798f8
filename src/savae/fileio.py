"""Atomic file writes, UTF-8 lines of text files and the little-endian
reader shared by the binary files."""

import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError


@contextmanager
def atomic_write(path, mode="wb", **open_kwargs):
    """Yield a file handle whose contents replace ``path`` only on success.

    The data goes to a temporary file in the target's directory, which
    ``os.replace`` renames over ``path`` once the block completes. If the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def utf8_lines(fh, path):
    """Lines of the binary file ``fh`` as text; a line that is not UTF-8 is
    a ParseError naming ``path`` and the line."""
    for lineno, line in enumerate(fh, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"invalid UTF-8 in {path}", lineno) from None


class Reader:
    """Little-endian fields from a seekable binary file; a read past the end
    of the file or a string that is not UTF-8 raises the exception class
    ``error``, naming ``source``. The bytes left in the file are checked
    before each read, so a damaged length field allocates nothing."""

    def __init__(self, fh, error, source):
        self.fh = fh
        self.error = error
        self.source = source
        here = fh.tell()
        self.end = fh.seek(0, os.SEEK_END)
        fh.seek(here)

    def _check_remaining(self, n):
        if n > self.end - self.fh.tell():
            raise self.error(f"truncated {self.source}")

    def read(self, n):
        self._check_remaining(n)
        data = self.fh.read(n)
        if len(data) != n:
            raise self.error(f"truncated {self.source}")
        return data

    def u32(self):
        return struct.unpack("<I", self.read(4))[0]

    def u32s(self, n):
        return struct.unpack(f"<{n}I", self.read(4 * n))

    def array(self, dtype, n):
        """``n`` values of the NumPy ``dtype``, read straight into a new array."""
        dtype = np.dtype(dtype)
        self._check_remaining(dtype.itemsize * n)
        out = np.empty(n, dtype)
        if self.fh.readinto(out) != out.nbytes:
            raise self.error(f"truncated {self.source}")
        return out

    def i64(self):
        return struct.unpack("<q", self.read(8))[0]

    def string(self):
        data = self.read(self.u32())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"invalid UTF-8 string in {self.source}") from None
