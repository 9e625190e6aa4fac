"""Paths, frozen inputs, environment block and host calibration shared by the
benchmark scripts. Importing this module imports nothing from graphnav."""

from __future__ import annotations

import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DATA = HERE / "data"
FROZEN_GZ = DATA / "gcil_frozen.json.gz"
FROZEN_META = DATA / "frozen.json"
GOLDEN_CSV = DATA / "golden_trials.csv"

# Trials per (setup, command) cell in the eval workloads; the golden file
# covers this layout for workload seeds 0..63 (see make_frozen.py).
EVAL_TRIALS_PER_CELL = 4


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, bad frozen input)."""


def import_graphnav():
    """Import graphnav from this checkout's src/ and nowhere else."""
    if not (SRC / "graphnav" / "__init__.py").is_file():
        raise BenchSetupError(f"no graphnav source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphnav
    if Path(graphnav.__file__).resolve().parent != SRC / "graphnav":
        raise BenchSetupError(f"graphnav imported from {graphnav.__file__}, not from {SRC}")
    return graphnav


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def unpack_frozen(dest: Path) -> Path:
    """Decompress the frozen params-only gcil checkpoint and verify its digest."""
    if not FROZEN_GZ.is_file() or not FROZEN_META.is_file():
        raise BenchSetupError(f"frozen checkpoint missing under {DATA}")
    raw = gzip.decompress(FROZEN_GZ.read_bytes())
    expected = json.loads(FROZEN_META.read_text())["sha256"]
    if hashlib.sha256(raw).hexdigest() != expected:
        raise BenchSetupError(f"{FROZEN_GZ} does not match the sha256 in {FROZEN_META}")
    path = dest / "gcil_frozen.json"
    path.write_bytes(raw)
    return path


def trial_key(row: dict) -> tuple:
    return (row["setup"], row["command"], int(row["seed"]))


def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    return ctypes.CDLL(libs[0]) if libs else None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_threads():
    return _blas_call(_openblas(), ("scipy_openblas_get_num_threads64_",
                                    "openblas_get_num_threads64_",
                                    "openblas_get_num_threads"), ctypes.c_int)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    config = _blas_call(_openblas(), ("scipy_openblas_get_config64_",
                                      "openblas_get_config64_", "openblas_get_config"),
                        ctypes.c_char_p)
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config.decode() if config else None,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# Host-speed reference. The host this benchmark runs on is shared: for
# minutes at a time every instruction runs 20-70% slower, CPU time included,
# so no estimator over wall or CPU time of graphnav alone stays steady from
# one run to the next. A fixed ~1.2 ms loop (pure Python, then small numpy
# ops, as graphnav's simulator mixes them) is timed right before every unit
# of work, outside the unit's timer, in the process that runs the unit; a
# unit's time is scaled by REF_NOMINAL_NS / its reference time. The loop's
# working set fits in L1, so what graphnav did before it barely moves it.
# REF_NOMINAL_NS is about the loop's median time over the runs this
# benchmark was tuned with (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6),
# so adjusted times read as wall times on that host at its usual speed.
REF_NOMINAL_NS = 1_200_000
_REF_ARRAY = None


def reference_ns() -> int:
    """Nanoseconds the fixed reference loop takes now."""
    global _REF_ARRAY
    import numpy
    if _REF_ARRAY is None:
        _REF_ARRAY = numpy.arange(6.0)
    t0 = time.perf_counter_ns()
    acc = 0.0
    table = {}
    for i in range(3000):
        acc = (acc + i * 1.5) % 1003.0
        table[i & 63] = acc
    a = _REF_ARRAY
    for _ in range(200):
        a = numpy.tanh(a * 0.5 + 1.0)
    return time.perf_counter_ns() - t0


def adjusted(seconds: float, ref_ns: float) -> float:
    """Seconds as they would read on the reference host, given the
    reference loop's time measured alongside."""
    return seconds * REF_NOMINAL_NS / ref_ns


def calibrate(loops: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python loop; a slow host shows here, not as a regression."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0
