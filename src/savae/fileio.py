"""Atomic file writes and the little-endian reader shared by the binary files."""

import os
import struct
from contextlib import contextmanager
from pathlib import Path


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


class Reader:
    """Little-endian fields from a binary file; a short read raises ``truncated``."""

    def __init__(self, fh, truncated):
        self.fh = fh
        self.truncated = truncated

    def read(self, n):
        data = self.fh.read(n)
        if len(data) != n:
            raise self.truncated
        return data

    def u32(self):
        return struct.unpack("<I", self.read(4))[0]

    def u32s(self, n):
        return struct.unpack(f"<{n}I", self.read(4 * n))

    def u64(self):
        return struct.unpack("<Q", self.read(8))[0]

    def i64(self):
        return struct.unpack("<q", self.read(8))[0]

    def string(self):
        return self.read(self.u32()).decode("utf-8")
