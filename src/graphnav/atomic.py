"""Atomic file replacement for every artifact graphnav writes, and the one
place graphnav forks a process of its own (not `--jobs`') to write a file.

`atomic_write(path)` hands out a text file that is a hidden sibling of
`path`; only when the `with` block ends without an exception is it moved
over `path` with `os.replace`. A reader, or a run interrupted midway, thus
sees either the previous file or the complete new one, never a truncated
mix, and a failed write leaves no temporary file behind. The file is not
fsynced, so this guards against a process dying, not against power loss.
`write_csv` writes every CSV report through it, with one rule per field.

`WriteBehind` hands a whole file to a forked writer while this process goes
on with other work; `finish` reaps the writer and moves its file into place.
Collect writes a finished demonstration buffer this way while it runs the
next command's episodes. `atomic_write_halves` writes a file in two halves
at once: a `WriteBehind` writes the back half while this process writes the
front half, then appends the writer's file. Checkpoints and the other
buffers are written this way. One CPU rule holds for every writer: where the
affinity set holds two CPUs or more it runs on all of them but the first,
since Linux often starts a forked child on its parent's CPU; this process's
own affinity is never set.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import signal
import time
import traceback
from pathlib import Path


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where that is unknown or fork is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _temporary(path: Path) -> Path:
    """A hidden sibling of `path` that no other write names."""
    return path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")


@contextlib.contextmanager
def atomic_write(path):
    path = Path(path)
    tmp = _temporary(path)
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
    `WriteBehind` of `back` is started before the file holds any buffered
    data, and its finished file is appended once this process has written
    `front`. On any failure, an interrupt included, the writer is killed and
    reaped, and no temporary file is left."""
    if not back or usable_cpus() < 2:
        with atomic_write(path) as fh:
            emit(fh, front)
            emit(fh, back)
        return 1
    writer = WriteBehind(path, emit, back)
    try:
        with atomic_write(path) as fh:
            emit(fh, front)
            with open(writer.wait()) as src:
                shutil.copyfileobj(src, fh)
        return 2
    finally:
        writer.cancel()


class WriteBehind:
    """`emit(fh, items)` written atomically to `path` by a forked process
    while this one goes on: the writer fills a hidden sibling of `path` on
    every CPU of the affinity set but the first, where it holds two or more,
    and `finish` reaps it and moves that file over `path`, which is untouched
    until then. `cancel` kills and reaps the writer and removes its file; it
    may be repeated, and `finish` runs it on every way out."""

    def __init__(self, path, emit, items) -> None:
        self.path = Path(path)
        self._tmp = _temporary(self.path)
        cpus = sorted(os.sched_getaffinity(0))
        read, write = os.pipe()
        try:
            self._pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if not self._pid:  # the writer leaves through os._exit, finalizing nothing of ours
            code = 1
            try:
                started = time.perf_counter()
                gc.disable()
                if len(cpus) > 1:
                    os.sched_setaffinity(0, cpus[1:])
                with open(self._tmp, "x") as out:
                    emit(out, items)
                os.write(write, repr(time.perf_counter() - started).encode())
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write)
        self._pipe = read

    def wait(self) -> Path:
        """Reap the writer and return its finished file. A failed writer
        raises an OSError naming `path`."""
        status = os.waitpid(self._pid, 0)[1]
        self._pid = 0
        if status:
            raise OSError(f"cannot write {self.path}: its forked writer ended "
                          f"with wait status {status}")
        return self._tmp

    def finish(self) -> float:
        """Wait for the writer and move its file into place; returns the
        writer's wall seconds."""
        try:
            tmp = self.wait()
            seconds = float(os.read(self._pipe, 64))
            os.replace(tmp, self.path)
            return seconds
        finally:
            self.cancel()

    def cancel(self) -> None:
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        self._tmp.unlink(missing_ok=True)
