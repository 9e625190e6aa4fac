"""Behavior cloning: equal-command minibatches, joint Adam updates, checkpoints.

Each step samples a fixed-size minibatch spread as evenly as possible over
the three command buffers (with replacement), runs every sample through its
command's branch, and applies one Adam step to the shared trunk, perception
weights and all touched branches. Sampling at step t is a pure function of
(seed, t), so an interrupted run resumed from a checkpoint reproduces the
uninterrupted trajectory bit for bit, and refuses a dataset or a training
setting other than the checkpoint's.
"""

from __future__ import annotations

import functools
import math
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
    counters: dict          # run telemetry: minor_page_faults over the step loop


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


def _losses(network, prepared: _PreparedData, indices: dict, denom: int):
    """The forward pass and action loss of sampled indices, one node-count
    group at a time in COMMANDS order. Yields (command, per-sample losses,
    gradient of their sum / `denom` with respect to the outputs, cache)."""
    for command in COMMANDS:
        for inputs, targets in prepared.gather(command, indices[command]):
            u, cache = network.forward_batch(*inputs, command)
            per_sample, du = batch_action_loss(u, targets, denom=denom)
            yield command, per_sample, du, cache


def _train_step(network, prepared: _PreparedData, indices: dict, batch_size: int):
    """Forward/backward over one minibatch; returns (mean loss, per-command means, grads)."""
    grads = None
    cmd_loss = dict.fromkeys(COMMANDS, 0.0)
    cmd_n = dict.fromkeys(COMMANDS, 0)
    for command, per_sample, du, cache in _losses(network, prepared, indices, batch_size):
        part = network.backward_batch(cache, du)
        if grads is None:
            grads = part
        else:
            for k in grads:
                grads[k] = grads[k] + part[k]
        cmd_loss[command] += float(per_sample.sum())
        cmd_n[command] += len(per_sample)
    per_command = {c: cmd_loss[c] / max(1, cmd_n[c]) for c in COMMANDS}
    return sum(cmd_loss.values()) / batch_size, per_command, grads


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
    faults_before = _minor_faults()
    for step in range(start_step, steps_total):
        rng = np.random.default_rng([config.seed, 2, step])
        indices = sample_minibatch(prepared.sizes, config.batch_size, rng, step)
        mean_loss, per_command, grads = _train_step(network, prepared, indices, config.batch_size)
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
        if config.eval_every > 0 and (step + 1) % config.eval_every == 0 and step + 1 < steps_total:
            save(step + 1, f"checkpoint_step{step + 1}.json")
    counters = {"minor_page_faults": _minor_faults() - faults_before}
    save(steps_total, "checkpoint_final.json")
    if out_path is not None:
        write_loss_csv(out_path / "loss.csv", history)
    return TrainRun(steps=steps_total - start_step, history=history, network=network,
                    optimizer=optimizer, checkpoint_paths=checkpoint_paths, counters=counters)


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
