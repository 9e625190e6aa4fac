"""Behavior cloning: equal-command minibatches, joint Adam updates, checkpoints.

Each step samples a fixed-size minibatch spread as evenly as possible over
the three command buffers (with replacement), runs every sample through its
command's branch, and applies one Adam step to the shared trunk, perception
weights and all touched branches. A graph network's adjacencies are built
from the features under the config's edge strategy, as inference builds
them, and features built under other graph settings are refused, as is a
buffer whose samples have more than one node count. Sampling at
step t is a pure function of (seed, t), so an interrupted run resumed from a
checkpoint reproduces the uninterrupted trajectory bit for bit, and refuses
a dataset or a training setting other than the checkpoint's.

The step loop pins numpy's OpenBLAS to one thread, and keeps the
parameters, their gradient and both Adam moments in one flat buffer in a
shared anonymous mapping. Where at least two CPUs are usable, a forked step
worker runs the first command's pass of each step while this process runs
the other two, adds their gradients onto the worker's in COMMANDS order and
takes the Adam step, so the parameters equal those of a serial
single-thread run bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .atomic import write_csv, usable_cpus as _usable_cpus  # tests force the step path here
from .checkpoint import CheckpointError, graph_config_to_dict, load_checkpoint, save_checkpoint
from .dataset import BUFFER_FILES, DemoDataset
from .graph import GraphConfig
from .layout import COMMANDS, Command
from .nn import Adam, batch_action_loss
from .policies import NETWORKS, build_network

LOSS_COLUMNS = ("step", "mean_loss", "loss_forward", "loss_left", "loss_right", "wall_clock_s")
CANONICAL_CHUNK = 1024  # samples whose inputs are built and ordered per pass while preparing
RESUMABLE_FIELDS = ("epochs", "eval_every")  # TrainConfig fields a resume may change

# glibc's mallopt parameters (malloc.h) and the values train() sets. At B=512
# a step's numpy temporaries reach about 1 MB and a setcil step frees 4-16 MB
# of heap top; under glibc's defaults that memory went back to the OS after
# every step and was faulted in again, about 1,500 minor faults per setcil
# step. These values leave a few faults per step up to B=2048, and the high
# mmap threshold lets larger arrays reuse the kept heap too: 4 MB / 64 MB
# raised perfbench train's peak RSS by 2-3 MB, 32 MB / 256 MB did not.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 512
    epochs: int = 50
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    eval_every: int = 200
    seed: int = 0
    network: str = "gcil"
    graph: GraphConfig = field(default_factory=GraphConfig)

    def __post_init__(self) -> None:
        if self.batch_size < 3:
            raise ValueError(f"batch_size must be >= 3, got {self.batch_size}")


@dataclass
class TrainRun:
    steps: int
    history: list           # one dict per step with the LOSS_COLUMNS fields
    network: object
    optimizer: Adam
    checkpoint_paths: list
    counters: dict          # run telemetry: page faults, the worker's, and checkpoint saves
    step_loop: dict         # conditions: blas_threads (None: not pinned) and step_processes


def minibatch_counts(batch_size: int, step: int) -> dict:
    """Per-command draw counts for one step; the remainder slots rotate so
    every command's long-run share is equal."""
    base = batch_size // 3
    rem = batch_size - 3 * base
    counts = {c: base for c in COMMANDS}
    for i in range(rem):
        counts[COMMANDS[(step + i) % 3]] += 1
    return counts


def sample_minibatch(dataset_sizes: dict, batch_size: int, rng, step: int) -> dict:
    """Sampled indices per command (with replacement), deterministic in (rng, step)."""
    counts = minibatch_counts(batch_size, step)
    return {c: rng.integers(0, dataset_sizes[c], size=counts[c]) for c in COMMANDS}


class _PreparedData:
    """Per-command sample arrays for batched forward passes. A buffer holds
    one node count, so a command has one inputs tuple, the network's `inputs`
    of its stacked (B, N, 12) features, built and put in `canonical` order one
    `CANONICAL_CHUNK` slice at a time, and one (B, 2) targets array. `inputs`
    runs under `graph_cfg`'s edge strategy, as `NetworkController`'s."""

    def __init__(self, dataset: DemoDataset, kind: str, graph_cfg: GraphConfig) -> None:
        network_cls = NETWORKS[kind]
        self.inputs: dict = {}
        self.targets: dict = {}
        self.sizes: dict = {}
        for command in COMMANDS:
            samples = dataset.buffers[command]
            self.sizes[command] = len(samples)
            feats = np.stack([s.features for s in samples])
            parts = [network_cls.canonical(*network_cls.inputs(feats[start:start + CANONICAL_CHUNK],
                                                               graph_cfg.strategy))
                     for start in range(0, len(samples), CANONICAL_CHUNK)]
            self.inputs[command] = tuple(np.concatenate(column) for column in zip(*parts))
            self.targets[command] = np.stack([s.u_star for s in samples])

    def gather(self, command: Command, idx: np.ndarray):
        """The (inputs, targets) rows of sampled indices."""
        return tuple(arr[idx] for arr in self.inputs[command]), self.targets[command][idx]


def _losses(network, prepared: _PreparedData, indices: dict, denom: int, commands=COMMANDS):
    """The forward pass and action loss of sampled indices, one command at a
    time in `commands` order. Yields (command, per-sample losses, gradient of
    their sum / `denom` with respect to the outputs, cache)."""
    for command in commands:
        inputs, targets = prepared.gather(command, indices[command])
        u, cache = network.forward_batch(*inputs, command)
        per_sample, du = batch_action_loss(u, targets, denom=denom)
        yield command, per_sample, du, cache


def _first_pass(network, prepared: _PreparedData, idx: np.ndarray, batch_size: int,
                grads: dict) -> tuple:
    """The first command's forward/backward pass over sampled indices `idx`:
    copies its gradient into the views `grads` and returns its loss sum and
    sample count."""
    [(_, per_sample, du, cache)] = _losses(network, prepared, {COMMANDS[0]: idx}, batch_size,
                                           COMMANDS[:1])
    part = network.backward_batch(cache, du)
    for k, g in grads.items():
        g[...] = part[k]
    return float(per_sample.sum()), len(per_sample)


def _train_step(network, prepared: _PreparedData, indices: dict, batch_size: int, grads: dict,
                worker=None):
    """Forward/backward over one minibatch; writes its gradient into the
    views `grads` and returns (mean loss, per-command means). The first
    command's pass leaves its gradient in `grads`, run by the `_StepWorker`
    meanwhile where one is given; the other two commands' gradients are then
    added onto it in COMMANDS order."""
    if worker is None:
        first = _first_pass(network, prepared, indices[COMMANDS[0]], batch_size, grads)
    else:
        worker.start(indices[COMMANDS[0]])
    losses, parts = [], []
    for _, per_sample, du, cache in _losses(network, prepared, indices, batch_size, COMMANDS[1:]):
        losses.append((float(per_sample.sum()), len(per_sample)))
        parts.append(network.backward_batch(cache, du))
    if worker is not None:
        first = worker.wait()
    for part in parts:
        for k, g in grads.items():
            g += part[k]
    losses.insert(0, first)
    per_command = {c: loss / n for c, (loss, n) in zip(COMMANDS, losses)}
    return sum(loss for loss, _ in losses) / batch_size, per_command


def _bind(network, optimizer: Adam) -> None:
    """Make the network's layers hold the optimizer's views of its parameters,
    so that the network and a forked step worker see every update in place."""
    for (layer, attr), view in zip(network.slots().values(), optimizer.params.values()):
        setattr(layer, attr, view)


class _StepWorker:
    """A forked process that runs the first command's pass of every step.

    It holds the parent's `_PreparedData` and network through fork, and with
    them the optimizer's shared buffer, which the network's layers view
    (`_bind`) and `grads` is part of. For each step the parent sends the
    first command's sampled indices; the worker runs `_first_pass` on them,
    which leaves that command's gradient in `grads`, and answers with its
    loss sum and sample count. As a context manager it stops the
    worker on a normal exit, and kills it after an exception; it reaps it
    either way."""

    def __init__(self, network, prepared: _PreparedData, batch_size: int, grads: dict) -> None:
        from multiprocessing.connection import Pipe

        self.grads = grads
        self.counters = None
        self.conn, child = Pipe()
        # train() starts no threads, and OpenBLAS stops its own pool across
        # fork (pthread_atfork), so the child starts in a consistent state.
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            self._serve(child, network, prepared, batch_size)
        child.close()

    def _serve(self, conn, network, prepared: _PreparedData, batch_size: int):
        """The worker's loop; never returns. On None it sends its minor page
        faults and peak RSS and exits; on an error it sends the traceback
        and exits, and on an interrupt it just exits."""
        import gc
        import resource
        import traceback

        gc.disable()  # finalize nothing inherited from the parent
        code = 1
        try:
            while (idx := conn.recv()) is not None:
                conn.send(("step", *_first_pass(network, prepared, idx, batch_size, self.grads)))
            usage = resource.getrusage(resource.RUSAGE_SELF)
            conn.send(("exit", {"minor_page_faults": usage.ru_minflt,
                                "peak_rss_mb": usage.ru_maxrss / 1024.0}))
            code = 0
        except Exception:
            with contextlib.suppress(OSError):
                conn.send(("error", traceback.format_exc()))
        finally:
            os._exit(code)

    def start(self, idx: np.ndarray) -> None:
        """Hand the worker this step's first-command indices."""
        self.conn.send(idx)

    def _receive(self):
        try:
            message = self.conn.recv()
        except EOFError:
            raise TrainingError("the training step worker exited unexpectedly") from None
        if message[0] == "error":
            raise TrainingError(f"the training step worker failed:\n{message[1]}")
        return message

    def wait(self) -> tuple:
        """Wait for the worker's pass of this step, which leaves its gradient
        in the gradient views; returns its loss sum and sample count."""
        return self._receive()[1:]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.conn.send(None)
                self.counters = self._receive()[1]
        finally:
            if self.counters is None:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.conn.close()


def steps_for(config: TrainConfig, total_samples: int) -> int:
    return config.epochs * max(1, math.ceil(total_samples / config.batch_size))


def provenance(dataset: DemoDataset, config: TrainConfig) -> dict:
    """What a resume must match: the hash of the dataset manifest and of every
    training setting except the budget and the checkpoint cadence."""
    from .config import config_hash  # config imports this module

    settings = {f.name: getattr(config, f.name) for f in fields(config)
                if f.name not in RESUMABLE_FIELDS}
    settings["graph"] = graph_config_to_dict(config.graph)
    return {"dataset_hash": config_hash(dataset.manifest),
            "train_config_hash": config_hash(settings)}


@functools.cache
def keep_freed_heap() -> None:
    """Have glibc keep freed memory in the process, so that each training
    step reuses the heap pages of the last one instead of faulting in fresh
    ones. Setting either threshold also switches off glibc's dynamic mmap
    threshold. Does nothing where the C library has no mallopt."""
    import ctypes  # loaded by numpy already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _minor_faults() -> int:
    import resource  # Unix only; kept out of `import graphnav.cli`

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles,
    under whichever symbol prefix the build exports; None where numpy ships
    no OpenBLAS of its own."""
    import ctypes  # loaded by numpy already
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0]) if libs else None
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread inside the block and restore the count
    after it. Yields whether it pinned: without the pin the bits of a step
    depend on the thread count, so no worker may run."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def train(dataset: DemoDataset, config: TrainConfig, out_dir=None, resume=None) -> TrainRun:
    """Run the full training budget; optionally resume from a checkpoint."""
    wanted = config.graph.feature_settings()
    recorded = {key: dataset.manifest[key] for key in wanted if key in dataset.manifest}
    if recorded != {key: wanted[key] for key in recorded}:
        raise TrainingError(f"the dataset's manifest.json records the graph settings {recorded}, "
                            f"but the train config's graph has {wanted}")
    for command in COMMANDS:
        node_counts = sorted({s.features.shape[0] for s in dataset.buffers[command]})
        if not node_counts:
            raise TrainingError(f"empty demonstration buffer for command {command.value!r} "
                                f"({BUFFER_FILES[command]})")
        if len(node_counts) > 1:
            raise TrainingError(f"demonstration buffer for command {command.value!r} "
                                f"({BUFFER_FILES[command]}) mixes node counts {node_counts}")
    prepared = _PreparedData(dataset, config.network, config.graph)

    steps_total = steps_for(config, dataset.total())
    hashes = provenance(dataset, config)
    if resume is not None:
        loaded = load_checkpoint(resume, expected_kind=config.network)
        state = loaded.train_state if isinstance(loaded.train_state, dict) else {}
        saved = {key: state.get(key) for key in hashes}
        if saved != hashes:
            raise CheckpointError(
                f"checkpoint {resume} was trained on dataset {saved['dataset_hash']} with "
                f"train config {saved['train_config_hash']}; this run has dataset "
                f"{hashes['dataset_hash']} and train config {hashes['train_config_hash']}")
        network = loaded.network
        try:
            optimizer = Adam.from_state_dict(loaded.optimizer_state, network.parameters())
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {resume}: invalid optimizer state: {exc}") from exc
        start_step = state.get("step", optimizer.t)
        if type(start_step) is not int or not (start_step == optimizer.t <= steps_total):
            raise CheckpointError(f"checkpoint {resume}: train_state step {start_step!r} must be "
                                  f"the optimizer's t ({optimizer.t}) and at most this run's "
                                  f"{steps_total} steps")
    else:
        network = build_network(config.network, rng=np.random.default_rng([config.seed, 1]))
        optimizer = Adam(network.parameters(), lr=config.lr, beta1=config.beta1,
                         beta2=config.beta2, eps=config.epsilon)
        start_step = 0

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    checkpoint_paths = []
    history = []
    _bind(network, optimizer)
    t0 = time.perf_counter()

    save_s = 0.0

    def save(step: int, name: str) -> None:
        nonlocal save_s
        if out_path is None:
            return
        started = time.perf_counter()
        path = save_checkpoint(out_path / name, network, config.graph, optimizer,
                               train_state={"seed": config.seed, "step": step,
                                            "steps_total": steps_total, **hashes})
        checkpoint_paths.append(path)
        save_s += time.perf_counter() - started

    keep_freed_heap()
    with _one_blas_thread() as pinned:
        faults_before = _minor_faults()
        worker = None
        if pinned and _usable_cpus() > 1:
            worker = _StepWorker(network, prepared, config.batch_size, optimizer.grads)
        with worker or contextlib.nullcontext():
            for step in range(start_step, steps_total):
                rng = np.random.default_rng([config.seed, 2, step])
                indices = sample_minibatch(prepared.sizes, config.batch_size, rng, step)
                mean_loss, per_command = _train_step(network, prepared, indices,
                                                     config.batch_size, optimizer.grads, worker)
                if not math.isfinite(mean_loss):
                    save(step, "checkpoint_diagnostic.json")
                    raise TrainingError(f"non-finite loss {mean_loss} at step {step}")
                optimizer.step(optimizer.params, optimizer.grads)
                history.append({
                    "step": step,
                    "mean_loss": mean_loss,
                    "loss_forward": per_command[Command.FORWARD],
                    "loss_left": per_command[Command.TURN_LEFT],
                    "loss_right": per_command[Command.TURN_RIGHT],
                    "wall_clock_s": time.perf_counter() - t0,
                })
                if (config.eval_every > 0 and (step + 1) % config.eval_every == 0
                        and step + 1 < steps_total):
                    save(step + 1, f"checkpoint_step{step + 1}.json")
        counters = {"minor_page_faults": _minor_faults() - faults_before}
    step_loop = {"blas_threads": 1 if pinned else None,
                 "step_processes": 1 if worker is None else 2}
    if worker is not None:
        counters.update({f"worker_{key}": value for key, value in worker.counters.items()})
    save(steps_total, "checkpoint_final.json")
    counters.update(checkpoint_saves=len(checkpoint_paths), checkpoint_save_s=save_s)
    if out_path is not None:
        write_loss_csv(out_path / "loss.csv", history)
    return TrainRun(steps=steps_total - start_step, history=history, network=network,
                    optimizer=optimizer, checkpoint_paths=checkpoint_paths, counters=counters,
                    step_loop=step_loop)


def write_loss_csv(path, history) -> None:
    write_csv(path, LOSS_COLUMNS, ([row[c] for c in LOSS_COLUMNS] for row in history))


def dataset_mean_loss(network, dataset: DemoDataset, config: TrainConfig) -> float:
    """Mean action loss over every sample in the dataset (no sampling)."""
    prepared = _PreparedData(dataset, config.network, config.graph)
    every = {c: np.arange(prepared.sizes[c]) for c in COMMANDS}
    losses = [per_sample for _, per_sample, _, _ in _losses(network, prepared, every, 1)]
    return sum(float(x.sum()) for x in losses) / max(1, sum(len(x) for x in losses))
