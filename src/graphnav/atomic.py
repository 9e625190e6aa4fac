"""Atomic file replacement for every artifact graphnav writes, and the one
place graphnav forks a process of its own (not `--jobs`').

`atomic_write(path)` hands out a text file that is a hidden sibling of
`path`; only when the `with` block ends without an exception is it moved
over `path` with `os.replace`. A reader, or a run interrupted midway, thus
sees either the previous file or the complete new one, never a truncated
mix, and a failed write leaves no temporary file behind. The file is not
fsynced, so this guards against a process dying, not against power loss.
`write_csv` writes every CSV report through it, with one rule per field.

`Forked` runs a function in a forked child that talks to this process over
a pipe. The child's failure is raised here as the caller's own error, and
the child is reaped on every way out, so none outlives its owner. Where the
affinity set holds two CPUs or more the child runs on all of them but the
first, since Linux often starts a forked child on its parent's CPU; this
process's own affinity is never set. Training's step worker is a `Forked`,
and so is `WriteBehind`, which writes a whole file while this process goes
on: collect writes a finished demonstration buffer this way while it runs
the next command's episodes. `atomic_write_halves` writes a file's back
half with a `WriteBehind` while this process writes the front half, then
appends the writer's file; checkpoints and the other buffers are written so.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import signal
import time
import traceback
from multiprocessing.connection import Pipe
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


class _Traceback(str):
    """A forked child's last message when its work raised."""


class Forked:
    """`work(conn)` run by a forked child on its end of a duplex pipe. The
    child runs with gc off, so it finalizes nothing it inherited, on every
    CPU of the affinity set but the first where it holds two or more, and
    leaves through os._exit once it has sent its last message: what `work`
    returned, or the traceback of what it raised.

    `send` and `recv` raise `failure(detail)` where the child failed, with
    its traceback in `detail`, or has exited without replying. `join`
    returns the child's last message and reaps it. `reap` kills the child
    unless `join` saw it done, reaps it with os.wait4, keeping its resource
    usage in `rusage`, and may be repeated."""

    def __init__(self, work, failure) -> None:
        self.failure = failure
        cpus = sorted(os.sched_getaffinity(0))
        self.conn, child = Pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            self.conn.close()
            child.close()
            raise
        if not self.pid:
            try:
                gc.disable()
                self.conn.close()  # so the child sees EOF once this process is gone
                try:
                    if len(cpus) > 1:
                        os.sched_setaffinity(0, cpus[1:])
                    last = work(child)
                except Exception:
                    last = _Traceback(traceback.format_exc())
                child.send(last)
            finally:
                os._exit(0)
        child.close()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:  # the child's end of the pipe is closed
            raise self.failure("exited unexpectedly") from None

    def recv(self):
        try:
            message = self.conn.recv()
        except (EOFError, OSError):
            raise self.failure("exited unexpectedly") from None
        if isinstance(message, _Traceback):
            raise self.failure(f"failed:\n{message}")
        return message

    def join(self):
        last = self.recv()
        self.reap(kill=False)
        return last

    def reap(self, kill: bool = True) -> None:
        if self.pid:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.rusage = os.wait4(self.pid, 0)[2]
            self.pid = 0
            self.conn.close()


class WriteBehind(Forked):
    """`emit(fh, items)` written atomically to `path` by a forked child while
    this process goes on: the writer fills a hidden sibling of `path`, and
    `finish` reaps it and moves that file over `path`, which is untouched
    until then. `cancel` kills and reaps the writer and removes its file; it
    may be repeated, and `finish` runs it on every way out."""

    def __init__(self, path, emit, items) -> None:
        self.path = path = Path(path)
        self._tmp = tmp = _temporary(path)

        def write(conn) -> float:
            started = time.perf_counter()
            with open(tmp, "x") as out:
                emit(out, items)
            return time.perf_counter() - started
        super().__init__(write, lambda detail: OSError(f"cannot write {path}: "
                                                       f"its forked writer {detail}"))

    def wait(self) -> Path:
        """Reap the writer and return its finished file. A failed writer
        raises an OSError naming `path` and the writer's error."""
        self.join()
        return self._tmp

    def finish(self) -> float:
        """Wait for the writer and move its file into place; returns the
        writer's wall seconds."""
        try:
            seconds = self.join()
            os.replace(self._tmp, self.path)
            return seconds
        finally:
            self.cancel()

    def cancel(self) -> None:
        self.reap()
        self._tmp.unlink(missing_ok=True)
