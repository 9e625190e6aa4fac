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
`WriteBehind` hands a whole file to a forked writer while this process goes
on with other work, and moves the file into place only when `finish` reaps
the writer: collect writes a finished demonstration buffer this way while
it runs the next command's episodes. Where the affinity set holds two CPUs
or more, a forked process runs on all of them but the first, since Linux
often starts a forked child on its parent's CPU; `atomic_write_halves` also
keeps this process on the first until its write ends.
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


def _fork_emit(path: Path, emit, items, cpus: list, report: int | None = None) -> int:
    """Fork a process that writes `emit(fh, items)` into the new file `path`
    on all of `cpus` but the first, where it holds two or more, sends its wall
    seconds down the pipe end `report` if one is given, and leaves through
    `os._exit`, flushing and finalizing nothing of this process's; it exits
    1, after a traceback, if the write fails. Returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        started = time.perf_counter()
        gc.disable()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus[1:])
        with open(path, "x") as out:
            emit(out, items)
        if report is not None:
            os.write(report, repr(time.perf_counter() - started).encode())
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


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
                pid = _fork_emit(part, emit, back, cpus)
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


class WriteBehind:
    """`emit(fh, items)` written atomically to `path` by a forked process
    while this one goes on: the writer fills a hidden sibling of `path`, and
    `finish` reaps it and moves that file over `path`, which is untouched
    until then. `cancel` kills and reaps the writer and removes its file; it
    may be repeated, and `finish` runs it on every way out."""

    def __init__(self, path, emit, items) -> None:
        self.path = Path(path)
        self._tmp = _temporary(self.path)
        read, write = os.pipe()
        try:
            self._pid = _fork_emit(self._tmp, emit, items, sorted(os.sched_getaffinity(0)), write)
        except BaseException:
            os.close(read)
            raise
        finally:
            os.close(write)
        self._pipe = read

    def finish(self) -> float:
        """Wait for the writer and move its file into place; returns the
        writer's wall seconds. A failed writer raises an OSError naming `path`."""
        try:
            status = os.waitpid(self._pid, 0)[1]
            self._pid = 0
            if status:
                raise OSError(f"cannot write {self.path}: the process writing it behind ended "
                              f"with wait status {status}")
            seconds = float(os.read(self._pipe, 64))
            os.replace(self._tmp, self.path)
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
