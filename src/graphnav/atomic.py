"""Atomic file replacement for every artifact graphnav writes, and the CPU
rule of the helper processes graphnav forks on its own (not `--jobs`').

`atomic_write(path)` hands out a text file that is a hidden sibling of
`path`; only when the `with` block ends without an exception is it moved
over `path` with `os.replace`. A reader, or a run interrupted midway, thus
sees either the previous file or the complete new one, never a truncated
mix, and a failed write leaves no temporary file behind. The file is not
fsynced, so this guards against a process dying, not against power loss.
`write_csv` writes every CSV report through it, with one rule per field.

`atomic_write_halves` writes a file in two halves at once: a forked helper
writes the back half into a hidden sibling part file while this process
writes the front half. Checkpoints and the demonstration buffers share it.
Where the affinity set holds two CPUs or more, this process and the helper
run on separate ones, since Linux often starts a forked child on its
parent's CPU.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import signal
import traceback
from pathlib import Path


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where that is unknown or fork is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


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


def write_csv(path, header, rows) -> None:
    """Atomically write the `header` columns, then each of `rows`, which is
    read only once the temporary file is open: a float field as its repr,
    None as an empty field, anything else as its str."""
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else "" if v is None else str(v)
                              for v in row) + "\n")


def atomic_write_halves(path, emit, front: list, back: list) -> int:
    """Atomically write `emit(fh, front)` then `emit(fh, back)` to `path`,
    and return how many processes wrote it. Where two CPUs are usable, a
    helper forked before the file holds any buffered data emits `back` into
    a part file meanwhile, which is then appended; this process runs on one
    CPU of its affinity set and the helper on the rest until the write ends.
    On any failure, an interrupt included, the helper is killed and reaped,
    and no temporary file is left."""
    with atomic_write(path) as fh:
        part, pid, cpus = Path(f"{fh.name}.part"), 0, []
        try:
            if back and usable_cpus() > 1:
                cpus = sorted(os.sched_getaffinity(0))
                pid = os.fork()
                if pid == 0:  # the helper: it flushes and finalizes nothing of the parent's
                    code = 1
                    try:
                        gc.disable()
                        if len(cpus) > 1:
                            os.sched_setaffinity(0, cpus[1:])
                        with open(part, "x") as out:
                            emit(out, back)
                        code = 0
                    except Exception:
                        traceback.print_exc()
                    finally:
                        os._exit(code)
                if len(cpus) > 1:
                    os.sched_setaffinity(0, cpus[:1])
            emit(fh, front)
            if not pid:
                emit(fh, back)
                return 1
            status = os.waitpid(pid, 0)[1]
            pid = 0
            if status:
                raise OSError(f"cannot write {path}: the helper writing its second half "
                              f"ended with wait status {status}")
            with open(part) as src:
                shutil.copyfileobj(src, fh)
            return 2
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if len(cpus) > 1:
                os.sched_setaffinity(0, cpus)
            part.unlink(missing_ok=True)
