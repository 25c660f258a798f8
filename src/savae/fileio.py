"""Atomic file writes shared by the checkpoint, corpus and CSV writers."""

import os
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
