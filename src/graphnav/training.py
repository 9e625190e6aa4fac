"""Behavior cloning: equal-command minibatches, joint Adam updates, checkpoints.

Each step samples a fixed-size minibatch spread as evenly as possible over
the three command buffers (with replacement), runs every sample through its
command's branch, and applies one Adam step to the shared trunk, perception
weights and all touched branches. Sampling at step t is a pure function of
(seed, t), so an interrupted run resumed from a checkpoint reproduces the
uninterrupted trajectory bit for bit, and refuses a dataset or a training
setting other than the checkpoint's.

The step loop pins numpy's OpenBLAS to one thread. Where at least two CPUs
are usable, a forked step worker runs the first command's passes of each
step while this process runs the other two, adds their gradients onto the
worker's sum in COMMANDS order and takes the Adam step, so the parameters
equal those of a serial single-thread run bit for bit.
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

from .atomic import atomic_write
from .checkpoint import CheckpointError, graph_config_to_dict, load_checkpoint, save_checkpoint
from .dataset import DemoDataset
from .graph import GraphConfig, adjacency_from_features
from .layout import COMMANDS, Command
from .nn import Adam, batch_action_loss
from .policies import NETWORKS, build_network

LOSS_COLUMNS = ("step", "mean_loss", "loss_forward", "loss_left", "loss_right", "wall_clock_s")
CANONICAL_CHUNK = 1024  # samples put in canonical order per pass while preparing
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
    reencode: bool = False  # rebuild adjacencies from features under graph.strategy

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
    counters: dict          # run telemetry: minor page faults over the step loop, and the worker's
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
    indices = {}
    for command in COMMANDS:
        n = dataset_sizes[command]
        if n == 0:
            raise ValueError(f"empty demonstration buffer for command {command.value!r}")
        indices[command] = rng.integers(0, n, size=counts[command])
    return indices


class _PreparedData:
    """Per-command sample arrays grouped by node count for batched forward
    passes, each sample put in its network's canonical order once. A group is
    an (inputs, targets) pair: the network's per-sample `inputs` stacked
    column by column, each sample in `canonical` order, and the (B, 2) labels."""

    def __init__(self, dataset: DemoDataset, kind: str, graph_cfg: GraphConfig, reencode: bool) -> None:
        network_cls = NETWORKS[kind]
        self.groups: dict = {}
        self.group_of: dict = {}
        self.local_of: dict = {}
        self.sizes: dict = {}
        for command in COMMANDS:
            samples = dataset.buffers[command]
            self.sizes[command] = len(samples)
            by_n: dict = {}
            group_of = np.zeros(len(samples), dtype=int)
            local_of = np.zeros(len(samples), dtype=int)
            order = sorted(set(s.features.shape[0] for s in samples))
            n_to_gid = {n: g for g, n in enumerate(order)}
            buckets = {n: [] for n in order}
            for i, s in enumerate(samples):
                n = s.features.shape[0]
                group_of[i] = n_to_gid[n]
                local_of[i] = len(buckets[n])
                buckets[n].append(s)
            groups = []
            for n in order:
                bucket = buckets[n]
                if reencode and network_cls.reads_adjacency:
                    adjs = [adjacency_from_features(s.features, graph_cfg.strategy) for s in bucket]
                else:
                    adjs = [s.adjacency for s in bucket]
                rows = [network_cls.inputs(s.features, a) for s, a in zip(bucket, adjs)]
                inputs = tuple(np.stack(column) for column in zip(*rows))
                for start in range(0, len(bucket), CANONICAL_CHUNK):
                    part = slice(start, start + CANONICAL_CHUNK)
                    canon = network_cls.canonical(*(column[part] for column in inputs))
                    for column, ordered in zip(inputs, canon):
                        column[part] = ordered
                targets = np.stack([s.u_star for s in bucket])
                groups.append((inputs, targets))
            self.groups[command] = groups
            self.group_of[command] = group_of
            self.local_of[command] = local_of

    def gather(self, command: Command, idx: np.ndarray):
        """Split sampled indices into per-group (inputs, targets) slices."""
        out = []
        group_of = self.group_of[command][idx]
        local_of = self.local_of[command][idx]
        for g, (inputs, targets) in enumerate(self.groups[command]):
            sel = local_of[group_of == g]
            if sel.size == 0:
                continue
            out.append((tuple(arr[sel] for arr in inputs), targets[sel]))
        return out


def _losses(network, prepared: _PreparedData, indices: dict, denom: int, commands=COMMANDS):
    """The forward pass and action loss of sampled indices, one node-count
    group at a time in `commands` order. Yields (command, per-sample losses,
    gradient of their sum / `denom` with respect to the outputs, cache)."""
    for command in commands:
        for inputs, targets in prepared.gather(command, indices[command]):
            u, cache = network.forward_batch(*inputs, command)
            per_sample, du = batch_action_loss(u, targets, denom=denom)
            yield command, per_sample, du, cache


def _passes(network, prepared: _PreparedData, indices: dict, batch_size: int, commands,
            cmd_loss: dict, cmd_n: dict):
    """Forward/backward over the groups of `commands`, in order: adds each
    group's loss sum and sample count to cmd_loss and cmd_n and yields its
    gradient."""
    for command, per_sample, du, cache in _losses(network, prepared, indices, batch_size, commands):
        cmd_loss[command] += float(per_sample.sum())
        cmd_n[command] += len(per_sample)
        yield network.backward_batch(cache, du)


def _add(grads, parts: list):
    """`grads` (None: no gradient yet) plus `parts` added in order; empties `parts`."""
    for part in parts:
        if grads is None:
            grads = part
        else:
            for k in grads:
                grads[k] = grads[k] + part[k]
    parts.clear()
    return grads


def _train_step(network, prepared: _PreparedData, indices: dict, batch_size: int, worker=None):
    """Forward/backward over one minibatch; returns (mean loss, per-command
    means, grads). The gradient is the groups' gradients added in COMMANDS
    order. With a `_StepWorker`, the worker runs the first command's groups
    meanwhile and its sum of them is the prefix the other parts are added
    to; parts computed before it arrives wait in order."""
    cmd_loss = dict.fromkeys(COMMANDS, 0.0)
    cmd_n = dict.fromkeys(COMMANDS, 0)
    commands = COMMANDS
    if worker is not None:
        worker.start(indices[COMMANDS[0]])
        commands = COMMANDS[1:]
    waiting = worker is not None
    grads, pending = None, []
    for part in _passes(network, prepared, indices, batch_size, commands, cmd_loss, cmd_n):
        pending.append(part)
        if waiting and worker.ready():
            grads, waiting = worker.prefix(cmd_loss, cmd_n), False
        if not waiting:
            grads = _add(grads, pending)
    if waiting:
        grads = worker.prefix(cmd_loss, cmd_n)
    grads = _add(grads, pending)
    per_command = {c: cmd_loss[c] / max(1, cmd_n[c]) for c in COMMANDS}
    return sum(cmd_loss.values()) / batch_size, per_command, grads


def _views(flat: np.ndarray, like: dict) -> dict:
    """Consecutive views of `flat` shaped like the arrays of `like`."""
    out, start = {}, 0
    for name, array in like.items():
        out[name] = flat[start:start + array.size].reshape(array.shape)
        start += array.size
    return out


class _StepWorker:
    """A forked process that runs the first command's passes of every step.

    It holds the parent's `_PreparedData` and network through fork. For each
    step the parent copies its parameters into a shared anonymous mapping
    and sends the first command's sampled indices; the worker loads the
    parameters, runs `_passes` over that command's groups, leaves their
    gradient sum in the mapping and answers with their loss sum and sample
    count. As a context manager it stops the worker on a normal exit, and
    kills it after an exception; it reaps it either way."""

    def __init__(self, network, prepared: _PreparedData, batch_size: int) -> None:
        import mmap
        from multiprocessing.connection import Pipe

        self.params = network.parameters()
        size = sum(p.size for p in self.params.values())
        flat = np.frombuffer(mmap.mmap(-1, 2 * size * 8), dtype=np.float64)  # MAP_SHARED
        self.shared_params = _views(flat[:size], self.params)
        self.shared_grads = _views(flat[size:], self.params)
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
            own = network.parameters()
            first = COMMANDS[0]
            while (idx := conn.recv()) is not None:
                for name, p in own.items():
                    p[...] = self.shared_params[name]
                loss, n, total = {first: 0.0}, {first: 0}, None
                for part in _passes(network, prepared, {first: idx}, batch_size, (first,), loss, n):
                    total = _add(total, [part])
                for name, g in total.items():
                    self.shared_grads[name][...] = g
                conn.send(("step", loss[first], n[first]))
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
        """Hand the worker this step's parameters and first-command indices."""
        for name, p in self.params.items():
            self.shared_params[name][...] = p
        self.conn.send(idx)

    def ready(self) -> bool:
        return self.conn.poll()

    def _receive(self):
        try:
            message = self.conn.recv()
        except EOFError:
            raise TrainingError("the training step worker exited unexpectedly") from None
        if message[0] == "error":
            raise TrainingError(f"the training step worker failed:\n{message[1]}")
        return message

    def prefix(self, cmd_loss: dict, cmd_n: dict) -> dict:
        """Wait for the worker's part of this step. Its loss sum and sample
        count go into cmd_loss and cmd_n; its gradient sum is returned as
        views of the shared mapping, valid until the next start()."""
        _, loss, n = self._receive()
        cmd_loss[COMMANDS[0]], cmd_n[COMMANDS[0]] = loss, n
        return dict(self.shared_grads)

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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where that is unknown or fork is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def train(dataset: DemoDataset, config: TrainConfig, out_dir=None, resume=None) -> TrainRun:
    """Run the full training budget; optionally resume from a checkpoint."""
    prepared = _PreparedData(dataset, config.network, config.graph, config.reencode)
    for command in COMMANDS:
        if prepared.sizes[command] == 0:
            raise ValueError(f"empty demonstration buffer for command {command.value!r}")

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
        start_step = int(state.get("step", optimizer.t))
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
    params = network.parameters()
    t0 = time.perf_counter()

    def save(step: int, name: str) -> None:
        if out_path is None:
            return
        path = save_checkpoint(out_path / name, network, config.graph, optimizer,
                               train_state={"seed": config.seed, "step": step,
                                            "steps_total": steps_total, **hashes})
        checkpoint_paths.append(path)

    keep_freed_heap()
    with _one_blas_thread() as pinned:
        faults_before = _minor_faults()
        worker = None
        if pinned and _usable_cpus() > 1:
            worker = _StepWorker(network, prepared, config.batch_size)
        with worker or contextlib.nullcontext():
            for step in range(start_step, steps_total):
                rng = np.random.default_rng([config.seed, 2, step])
                indices = sample_minibatch(prepared.sizes, config.batch_size, rng, step)
                mean_loss, per_command, grads = _train_step(network, prepared, indices,
                                                            config.batch_size, worker)
                if not math.isfinite(mean_loss):
                    save(step, "checkpoint_diagnostic.json")
                    raise TrainingError(f"non-finite loss {mean_loss} at step {step}")
                optimizer.step(params, grads)
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
    if out_path is not None:
        write_loss_csv(out_path / "loss.csv", history)
    return TrainRun(steps=steps_total - start_step, history=history, network=network,
                    optimizer=optimizer, checkpoint_paths=checkpoint_paths, counters=counters,
                    step_loop=step_loop)


def write_loss_csv(path, history) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(LOSS_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in LOSS_COLUMNS) + "\n")


def dataset_mean_loss(network, dataset: DemoDataset, config: TrainConfig) -> float:
    """Mean action loss over every sample in the dataset (no sampling)."""
    prepared = _PreparedData(dataset, config.network, config.graph, config.reencode)
    every = {c: np.arange(prepared.sizes[c]) for c in COMMANDS}
    losses = [per_sample for _, per_sample, _, _ in _losses(network, prepared, every, 1)]
    return sum(float(x.sum()) for x in losses) / max(1, sum(len(x) for x in losses))
