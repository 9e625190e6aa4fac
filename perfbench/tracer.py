"""Wrappers installed from outside graphnav: always-on unit probes and the
per-layer span tracer.

Modules import with `from .world import step_world`, so a function is
patched on every graphnav module that binds it, and a method on its class.
Probes are installed for the whole run; spans only around traced repeats.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

from common import reference_ns

# (span name, defining module, attribute or Class.method)
SPAN_TARGETS = (
    ("cli.main", "graphnav.cli", "main"),
    ("geometry.Polyline.project", "graphnav.geometry", "Polyline.project"),
    ("geometry.rects_collide", "graphnav.geometry", "rects_collide"),
    ("vehicle.step_vehicle", "graphnav.vehicle", "step_vehicle"),
    ("tracking.track_path", "graphnav.tracking", "track_path"),
    ("tracking.surrounding_control", "graphnav.tracking", "surrounding_control"),
    ("world.step_world", "graphnav.world", "step_world"),
    ("world.spawn_scenario", "graphnav.world", "spawn_scenario"),
    ("world.OutcomeTracker.check", "graphnav.world", "OutcomeTracker.check"),
    ("expert.ExpertController.act", "graphnav.expert", "ExpertController.act"),
    ("graph.encode_world", "graphnav.graph", "encode_world"),
    ("graph.build_features", "graphnav.graph", "build_features"),
    ("graph.build_adjacency", "graphnav.graph", "build_adjacency"),
    ("rollout.run_episode", "graphnav.rollout", "run_episode"),
    ("policies.NetworkController.act", "graphnav.policies", "NetworkController.act"),
    ("policies.GcilNetwork.forward_batch", "graphnav.policies", "GcilNetwork.forward_batch"),
    ("policies.GcilNetwork.backward_batch", "graphnav.policies", "GcilNetwork.backward_batch"),
    ("policies.NnCilNetwork.forward_batch", "graphnav.policies", "NnCilNetwork.forward_batch"),
    ("policies.NnCilNetwork.backward_batch", "graphnav.policies", "NnCilNetwork.backward_batch"),
    ("policies.SetCilNetwork.forward_batch", "graphnav.policies", "SetCilNetwork.forward_batch"),
    ("policies.SetCilNetwork.backward_batch", "graphnav.policies", "SetCilNetwork.backward_batch"),
    ("nn.GcnLayer.forward", "graphnav.nn", "GcnLayer.forward"),
    ("nn.GcnLayer.backward", "graphnav.nn", "GcnLayer.backward"),
    ("nn.DenseLayer.forward", "graphnav.nn", "DenseLayer.forward"),
    ("nn.DenseLayer.backward", "graphnav.nn", "DenseLayer.backward"),
    ("nn.Adam.step", "graphnav.nn", "Adam.step"),
    ("training.train", "graphnav.training", "train"),
    ("training.sample_minibatch", "graphnav.training", "sample_minibatch"),
    ("dataset.write_dataset", "graphnav.dataset", "write_dataset"),
    ("dataset.read_dataset", "graphnav.dataset", "read_dataset"),
    ("checkpoint.save_checkpoint", "graphnav.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "graphnav.checkpoint", "load_checkpoint"),
    ("evaluation.run_suite", "graphnav.evaluation", "run_suite"),
    ("manifest.write_manifest", "graphnav.manifest", "write_manifest"),
)

SPAN_CAP = 2_000_000  # spans kept per traced repeat; aggregates cover every call


class Patcher:
    """Replaces functions and methods and puts the previous objects back."""

    def __init__(self) -> None:
        self._undo = []

    def patch(self, module: str, attr: str, make, everywhere: bool = True):
        """Bind make(current) wherever graphnav looks `module.attr` up, or
        only in `module` when not `everywhere`."""
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            current = cls.__dict__[meth]
            wrapper = make(current)
            self._undo.append((cls, meth, current))
            setattr(cls, meth, wrapper)
            return wrapper
        current = getattr(mod, attr)
        wrapper = make(current)
        for name, other in list(sys.modules.items()):
            if (name == module or everywhere and name.startswith("graphnav.")) and \
                    other.__dict__.get(attr) is current:
                self._undo.append((other, attr, current))
                setattr(other, attr, wrapper)
        return wrapper

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Probes:
    """Unit timers that run in every mode: one line per episode or trial,
    written with O_APPEND so forked pool workers report too, and the entry
    times of nn.Adam.step. The host-speed reference loop runs right before
    each unit, outside its timer, in the process that runs the unit; under a
    tracer its time is kept out of the enclosing span's self time."""

    def __init__(self) -> None:
        self.fd = None
        self.tracer = None
        self.adam_entries: list[int] = []
        self._patcher = Patcher()

    def install(self) -> None:
        probes = self

        def time_episode(fn):
            @functools.wraps(fn)
            def run_episode(cfg, seed, *args, **kwargs):
                ref = reference_ns()
                if probes.tracer is not None:
                    probes.tracer.exclude(ref)
                t0 = perf_counter_ns()
                record = fn(cfg, seed, *args, **kwargs)
                dt = perf_counter_ns() - t0
                if probes.fd is not None:
                    os.write(probes.fd, f"{seed} {record.outcome.steps} {dt} {ref}\n".encode())
                return record
            return run_episode

        def time_adam(fn):
            @functools.wraps(fn)
            def step(self, params, grads):
                t0 = perf_counter_ns()
                ref = reference_ns()
                if probes.tracer is not None:
                    probes.tracer.exclude(ref)
                probes.adam_entries.append((t0, perf_counter_ns(), ref))
                return fn(self, params, grads)
            return step

        self._patcher.patch("graphnav.rollout", "run_episode", time_episode)
        self._patcher.patch("graphnav.nn", "Adam.step", time_adam)

    def open_units(self, path: Path) -> None:
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)

    def close_units(self, path: Path) -> list[tuple[int, int, int]]:
        """Close the unit file and return (seed, steps, ns, reference ns) per unit."""
        os.close(self.fd)
        self.fd = None
        with open(path) as fh:
            return [tuple(int(v) for v in line.split()) for line in fh if line.strip()]

    def restore(self) -> None:
        self._patcher.restore()


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _dataset_bytes(directory) -> int:
    directory = Path(directory)
    return sum(_size(directory / name) for name in
               ("forward.jsonl", "turn_left.jsonl", "turn_right.jsonl", "manifest.json"))


class Tracer:
    """In-memory spans (name, start, end, parent span, trace id) with exact
    per-name aggregates. A span's self time is its duration minus the
    durations of its direct children, which nest without overlap."""

    def __init__(self) -> None:
        self.names = [name for name, _, _ in SPAN_TARGETS]
        self.stats = [[0, 0, 0, 0] for _ in self.names]  # calls, total ns, self ns, errors
        self.counters: dict[str, float] = {}  # keyed by per-layer metric name
        self.spans = array("q")
        self.stack: list[list[int]] = []
        self.next_span = 0
        self.trace_id = -1
        self.recording = False
        self.pool_maps: list[tuple[list, int]] = []
        self._train_entry = None
        self._patcher = Patcher()
        self._owner = os.getpid()
        # Pool workers inherit the wrappers through fork; their spans would be lost.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.recording = False

    def reset(self) -> None:
        for row in self.stats:
            row[:] = [0, 0, 0, 0]
        self.counters = {}
        self.pool_maps = []
        self._train_entry = None
        self.spans = array("q")  # the spans of the latest traced repeat

    def exclude(self, ns: int) -> None:
        """Keep ns spent by the benchmark itself out of the open span's self time."""
        if self.recording and self.stack:
            self.stack[-1][0] += ns

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- hooks: enter(args, kwargs) before the span, leave(args, kwargs, result) after it
    def _hooks(self, name):
        tracer = self
        if name == "rollout.run_episode":
            def enter(args, kwargs):
                tracer.trace_id = args[1]
            def leave(args, kwargs, result):
                tracer.trace_id = -1
            return enter, leave
        if name == "training.sample_minibatch":
            def enter(args, kwargs):
                tracer.trace_id = args[3] if len(args) > 3 else kwargs["step"]
                if tracer._train_entry is not None:
                    tracer.add("training.prepare_ms",
                               (perf_counter_ns() - tracer._train_entry) / 1e6)
                    tracer._train_entry = None
            return enter, None
        if name == "training.train":
            def enter(args, kwargs):
                tracer._train_entry = perf_counter_ns()
            def leave(args, kwargs, result):
                tracer.trace_id = -1
            return enter, leave
        sized = {  # span -> (counter, bytes it handled)
            "dataset.write_dataset": ("dataset.write_dataset.bytes",
                                      lambda a, k, r: _dataset_bytes(a[1])),
            "dataset.read_dataset": ("dataset.read_dataset.bytes",
                                     lambda a, k, r: _dataset_bytes(a[0])),
            "checkpoint.save_checkpoint": ("checkpoint.save_checkpoint.bytes",
                                           lambda a, k, r: _size(r)),
            "checkpoint.load_checkpoint": ("checkpoint.load_checkpoint.bytes",
                                           lambda a, k, r: _size(a[0])),
            "manifest.write_manifest": ("manifest.write_manifest.hashed_bytes",
                                        lambda a, k, r: sum(_size(p) for p in (
                                            a[4] if len(a) > 4 else k["files"]))),
        }
        if name in sized:
            counter, measure = sized[name]
            def leave(args, kwargs, result):
                tracer.add(counter, measure(args, kwargs, result))
            return None, leave
        return None, None

    def _wrap(self, idx: int, fn):
        tracer = self
        stats = self.stats[idx]
        stack = self.stack
        spans = self.spans
        enter, leave = self._hooks(self.names[idx])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            parent = stack[-1][1] if stack else -1
            span_id = tracer.next_span
            tracer.next_span = span_id + 1
            frame = [0, span_id]
            stack.append(frame)
            trace_id = tracer.trace_id
            failed = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                stats[3] += failed
                if stack:
                    stack[-1][0] += dur
                if len(spans) < 5 * SPAN_CAP:
                    spans.extend((idx, t0, t1, parent, trace_id))
            if leave is not None:
                leave(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for idx, (_name, module, attr) in enumerate(SPAN_TARGETS):
            self._patcher.patch(module, attr, functools.partial(self._wrap, idx))
        tracer = self

        def payload_pool(base):
            class PayloadPool(base):
                """Records what run_suite hands the pool; pickled after the repeat."""

                def map(self, fn, *iterables, chunksize=1, **kwargs):
                    tasks = list(iterables[0])
                    tracer.pool_maps.append((tasks, chunksize))
                    return super().map(fn, tasks, chunksize=chunksize, **kwargs)
            return PayloadPool

        self._patcher.patch("graphnav.evaluation", "ProcessPoolExecutor", payload_pool,
                           everywhere=False)
        self.recording = os.getpid() == self._owner

    def uninstall(self) -> None:
        self.recording = False
        self._patcher.restore()

    def pool_payload_bytes(self) -> int:
        """Pickled bytes of every chunk run_suite sent to its pool."""
        import pickle
        total = 0
        for tasks, chunksize in self.pool_maps:
            for i in range(0, len(tasks), chunksize):
                total += len(pickle.dumps(tuple((t,) for t in tasks[i:i + chunksize])))
        return total

    def snapshot(self) -> dict:
        """Per-name aggregates of the spans recorded since the last reset."""
        out = {}
        for name, (calls, total, self_ns, errors) in zip(self.names, self.stats):
            out[name] = {"calls": calls, "total_ms": total / 1e6,
                         "self_ms": self_ns / 1e6, "errors": errors}
        return out

    def write_spans(self, directory: Path) -> None:
        """Write the last traced repeat's spans to spans.bin.gz, a gzipped
        int64 table of rows (name index, start ns, end ns, parent span,
        trace id), and the names by index to spans.names."""
        (directory / "spans.names").write_text("\n".join(self.names) + "\n")
        with gzip.open(directory / "spans.bin.gz", "wb", compresslevel=1) as fh:
            fh.write(self.spans.tobytes())
