"""Atomic file replacement for every artifact graphnav writes.

`atomic_write(path)` hands out a text file that is a hidden sibling of
`path`; only when the `with` block ends without an exception is it moved
over `path` with `os.replace`. A reader, or a run interrupted midway, thus
sees either the previous file or the complete new one, never a truncated
mix, and a failed write leaves no temporary file behind. The file is not
fsynced, so this guards against a process dying, not against power loss.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path):
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
