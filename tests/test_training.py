import copy
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphnav import training
from graphnav.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from graphnav.dataset import DemoDataset, DemoSample
from graphnav.graph import GraphConfig, adjacency_from_features
from graphnav.layout import COMMANDS, Command
from graphnav.nn import Adam
from graphnav.policies import NETWORK_KINDS, NETWORKS, NetworkController, build_network
from graphnav.training import (TrainConfig, TrainingError, _PreparedData, dataset_mean_loss,
                               minibatch_counts, sample_minibatch, train)

SIZES = {c: 50 for c in COMMANDS}


class TestMinibatchComposition:
    def test_counts_sum_and_spread_512(self):
        for step in range(6):
            counts = minibatch_counts(512, step)
            assert sum(counts.values()) == 512
            assert set(counts.values()) <= {170, 171}

    def test_rotation_equalizes_over_three_steps(self):
        totals = {c: 0 for c in COMMANDS}
        short_slots = {c: 0 for c in COMMANDS}
        for step in range(3):
            counts = minibatch_counts(512, step)
            for c in COMMANDS:
                totals[c] += counts[c]
                if counts[c] == 170:
                    short_slots[c] += 1
        assert all(v == 512 for v in totals.values())
        assert all(v == 1 for v in short_slots.values())

    def test_divisible_batch_is_even(self):
        assert set(minibatch_counts(9, 4).values()) == {3}

    def test_sampling_is_deterministic(self):
        a = sample_minibatch(SIZES, 512, np.random.default_rng([3, 2, 7]), 7)
        b = sample_minibatch(SIZES, 512, np.random.default_rng([3, 2, 7]), 7)
        for c in COMMANDS:
            assert np.array_equal(a[c], b[c])

    def test_empty_buffer_is_a_configuration_error(self):
        sizes = dict(SIZES)
        sizes[Command.TURN_LEFT] = 0
        with pytest.raises(ValueError, match="empty demonstration buffer"):
            sample_minibatch(sizes, 512, np.random.default_rng(0), 0)


def _subset_dataset(dataset, per_command):
    small = DemoDataset()
    for c in COMMANDS:
        small.buffers[c] = dataset.buffers[c][:per_command]
        assert len(small.buffers[c]) == per_command
    return small


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("reencode", [False, True])
def test_training_and_inference_see_the_same_inputs(tiny_dataset, kind, reencode):
    # a recorded sample's training row is the network's own `inputs` of that
    # sample in `canonical` order, and the episode controller acts on it with
    # the same bits
    graph_cfg = GraphConfig()
    prepared = _PreparedData(tiny_dataset, kind, graph_cfg, reencode)
    net = build_network(kind, seed=2)
    controller = NetworkController(net)
    cls = NETWORKS[kind]
    for command in COMMANDS:
        samples = tiny_dataset.buffers[command]
        for i in (0, len(samples) // 2, len(samples) - 1):
            s = samples[i]
            adj = adjacency_from_features(s.features, graph_cfg.strategy) if reencode else s.adjacency
            [(row, _)] = prepared.gather(command, np.array([i]))
            inputs = cls.inputs(s.features, adj)
            expected = cls.canonical(*[a[None] for a in inputs])
            assert len(row) == len(expected)
            for got, want in zip(row, expected):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            action = controller.act(None, None, command, (s.features, adj))
            u, _ = net.forward_batch(*row, command)
            assert np.array([action.delta, action.tau]).tobytes() == u[0].tobytes()


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_prepared_rows_are_canonical_and_act_ignores_node_order(tiny_dataset, kind):
    prepared = _PreparedData(tiny_dataset, kind, GraphConfig(), reencode=False)
    net = build_network(kind, seed=4)
    cls = NETWORKS[kind]
    rng = np.random.default_rng(0)
    for command in COMMANDS:
        for inputs, _ in prepared.groups[command]:
            # canonical rows are a fixed point: ordering them again moves no bit
            again = cls.canonical(*inputs)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, again))
        samples = tiny_dataset.buffers[command]
        for i in range(0, len(samples), 7):
            s = samples[i]
            order = np.concatenate([[0], 1 + rng.permutation(len(s.features) - 1)])
            feats, adj = s.features[order], s.adjacency[np.ix_(order, order)]
            action = net.act(*cls.inputs(feats, adj), command)
            [(row, _)] = prepared.gather(command, np.array([i]))
            u, _ = net.forward_batch(*row, command)
            assert np.array([action.delta, action.tau]).tobytes() == u[0].tobytes()


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_canonical_order_does_not_depend_on_the_preparation_chunk(tiny_dataset, monkeypatch, kind):
    whole = _PreparedData(tiny_dataset, kind, GraphConfig(), reencode=False)
    monkeypatch.setattr("graphnav.training.CANONICAL_CHUNK", 3)
    chunked = _PreparedData(tiny_dataset, kind, GraphConfig(), reencode=False)
    for command in COMMANDS:
        for (a, _), (b, _) in zip(whole.groups[command], chunked.groups[command], strict=True):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_reencode_only_for_networks_that_read_the_adjacency(tiny_dataset, monkeypatch, kind):
    calls = []

    def counting(feats, strategy):
        calls.append(1)
        return adjacency_from_features(feats, strategy)
    monkeypatch.setattr("graphnav.training.adjacency_from_features", counting)
    _PreparedData(tiny_dataset, kind, GraphConfig(), reencode=True)
    assert len(calls) == (tiny_dataset.total() if kind == "gcil" else 0)


def _tiny_config(**kw):
    defaults = dict(batch_size=24, epochs=2, eval_every=0, seed=1, network="gcil")
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTraining:
    def test_loss_history_matches_steps(self, tiny_dataset):
        ds = _subset_dataset(tiny_dataset, 10)
        cfg = _tiny_config(epochs=3)
        run = train(ds, cfg)
        assert run.steps == 3 * math.ceil(ds.total() / cfg.batch_size)
        assert len(run.history) == run.steps
        assert all(math.isfinite(r["mean_loss"]) for r in run.history)

    def test_identical_seeds_identical_loss_curves(self, tiny_dataset):
        ds = _subset_dataset(tiny_dataset, 8)
        cfg = _tiny_config(epochs=2, seed=5)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert [r["mean_loss"] for r in a.history] == [r["mean_loss"] for r in b.history]
        pa, pb = a.network.parameters(), b.network.parameters()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)

    def test_zero_gradient_batch_leaves_parameters(self, tiny_dataset):
        # one sample per command with batch 3 makes every training batch
        # exactly those samples, so relabeling them with the network's own
        # outputs gives bitwise-zero gradients (any other batch layout would
        # differ in the last ulp through the BLAS kernels, and Adam turns even
        # that into full-size steps)
        cfg = _tiny_config(epochs=1, batch_size=3, network="gcil")
        net = build_network("gcil", rng=np.random.default_rng([cfg.seed, 1]))
        relabeled = DemoDataset()
        for c in COMMANDS:
            s = tiny_dataset.buffers[c][0]
            u, _ = net.forward(s.features, s.adjacency, c)
            relabeled.buffers[c] = [DemoSample(s.features, s.adjacency, s.command,
                                               np.array(u), s.episode_id, s.step)]
        before = {k: v.copy() for k, v in net.parameters().items()}
        run = train(relabeled, cfg)
        after = run.network.parameters()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert run.history[0]["mean_loss"] == 0.0

    def test_non_finite_loss_stops_with_a_diagnostic_checkpoint(self, tiny_dataset, tmp_path):
        ds = _subset_dataset(tiny_dataset, 4)
        ds.buffers[Command.FORWARD] = [
            DemoSample(s.features, s.adjacency, s.command, np.array([np.nan, 0.0]),
                       s.episode_id, s.step) for s in ds.buffers[Command.FORWARD]]
        with pytest.raises(TrainingError, match="non-finite loss nan at step 0"):
            train(ds, _tiny_config(batch_size=12), out_dir=tmp_path)
        assert (tmp_path / "checkpoint_diagnostic.json").exists()

    def test_overfits_a_small_dataset(self, tiny_dataset):
        ds = _subset_dataset(tiny_dataset, 6)  # 18 samples total
        cfg = _tiny_config(batch_size=18, epochs=400, seed=3)  # 400 steps
        run = train(ds, cfg)
        final = dataset_mean_loss(run.network, ds, cfg)
        assert final < run.history[0]["mean_loss"] * 0.05

    def test_branch_untouched_without_its_samples(self, tiny_dataset):
        # manual steps against a dataset that only ever serves one command
        # are impossible through sample_minibatch (it would raise), so check
        # the invariant at the gradient level instead: optimizer moments for
        # an untouched branch stay zero and its parameters stay put
        ds = _subset_dataset(tiny_dataset, 6)
        cfg = _tiny_config(epochs=1)
        run = train(ds, cfg)
        assert run.optimizer.t == run.steps
        for key, moment in run.optimizer.m.items():
            assert np.any(moment != 0.0) or np.all(run.optimizer.v[key] == 0.0)


class TestCheckpointing:
    def test_roundtrip_is_byte_identical(self, tmp_path, tiny_dataset):
        ds = _subset_dataset(tiny_dataset, 6)
        run = train(ds, _tiny_config(epochs=1), out_dir=tmp_path / "run")
        path = tmp_path / "run" / "checkpoint_final.json"
        loaded = load_checkpoint(path)
        resaved = save_checkpoint(tmp_path / "resaved.json", loaded.network, loaded.graph,
                                  Adam.from_state_dict(loaded.optimizer_state,
                                                       loaded.network.parameters()),
                                  train_state=loaded.train_state)
        assert path.read_bytes() == resaved.read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path, tiny_dataset):
        ds = _subset_dataset(tiny_dataset, 8)
        cfg = _tiny_config(epochs=4, seed=9)
        full = train(ds, cfg, out_dir=tmp_path / "full")

        steps_half = 2 * math.ceil(ds.total() / cfg.batch_size)
        half_cfg = replace(cfg, epochs=2)
        train(ds, half_cfg, out_dir=tmp_path / "half")
        resumed = train(ds, cfg, out_dir=tmp_path / "resumed",
                        resume=tmp_path / "half" / "checkpoint_final.json")
        assert resumed.steps == full.steps - steps_half
        fa = (tmp_path / "full" / "checkpoint_final.json").read_bytes()
        fb = (tmp_path / "resumed" / "checkpoint_final.json").read_bytes()
        assert fa == fb

    def test_wrong_kind_rejected(self, tmp_path):
        net = build_network("nncil", seed=0)
        path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig())
        with pytest.raises(CheckpointError, match="nncil"):
            load_checkpoint(path, expected_kind="gcil")

    def test_version_mismatch_rejected(self, tmp_path):
        net = build_network("gcil", seed=0)
        path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig())
        doc = path.read_text().replace('"format_version":1', '"format_version":99')
        path.write_text(doc)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corrupted_parameter_shape_names_field(self, tmp_path):
        import json

        net = build_network("gcil", seed=0)
        path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig())
        doc = json.loads(path.read_text())
        doc["params"]["gcn.0.w"] = [[1.0, 2.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="gcn.0.w"):
            load_checkpoint(path)

    def test_loaded_network_reproduces_outputs(self, tmp_path, tiny_dataset):
        ds = _subset_dataset(tiny_dataset, 5)
        run = train(ds, _tiny_config(epochs=1), out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint_final.json")
        sample = ds.buffers[Command.FORWARD][0]
        a = run.network.act(sample.features, sample.adjacency, Command.FORWARD)
        b = loaded.network.act(sample.features, sample.adjacency, Command.FORWARD)
        assert a == b


needs_worker = pytest.mark.skipif(not hasattr(os, "fork") or training._openblas() is None,
                                  reason="the step worker needs fork and numpy's OpenBLAS")


@needs_worker
@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("polled", [True, False])
def test_worker_steps_equal_serial_steps(tiny_dataset, kind, polled):
    """Over several minibatches and Adam updates, a step whose first
    command runs in the worker returns the serial step's bits, whether the
    parent adds its parts as they come or (unpolled) all after the prefix."""
    ds = _subset_dataset(tiny_dataset, 12)
    prepared = _PreparedData(ds, kind, GraphConfig(), reencode=False)
    network = build_network(kind, seed=4)
    params = network.parameters()
    optimizer = Adam(params)
    with training._one_blas_thread(), training._StepWorker(network, prepared, 15) as worker:
        if not polled:
            worker.ready = lambda: False
        for step in range(5):
            indices = sample_minibatch(prepared.sizes, 15, np.random.default_rng(step), step)
            serial = training._train_step(network, prepared, indices, 15)
            split = training._train_step(network, prepared, indices, 15, worker)
            assert split[:2] == serial[:2]
            assert serial[2].keys() == split[2].keys()
            assert all(np.array_equal(serial[2][k], split[2][k]) for k in serial[2])
            optimizer.step(params, serial[2])


@pytest.fixture
def worker_pids(monkeypatch):
    """The pid of every step worker train() starts; the worker path is taken
    even on a one-CPU host."""
    pids = []
    init = training._StepWorker.__init__

    def recording(self, *args):
        init(self, *args)
        pids.append(self.pid)
    monkeypatch.setattr(training._StepWorker, "__init__", recording)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    return pids


def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # a zombie still takes the signal
    except ProcessLookupError:
        return True
    return False


def _fail_in_worker(monkeypatch, fail):
    """Run `fail` in place of the passes of the first command, which only the worker runs."""
    passes = training._passes

    def planted(network, prepared, indices, batch_size, commands, *rest):
        if tuple(commands) == COMMANDS[:1]:
            fail()
        return passes(network, prepared, indices, batch_size, commands, *rest)
    monkeypatch.setattr(training, "_passes", planted)


@needs_worker
class TestStepWorker:
    def test_reaped_after_a_normal_return(self, tiny_dataset, worker_pids):
        run = train(_subset_dataset(tiny_dataset, 6), _tiny_config(epochs=2))
        assert run.step_loop == {"blas_threads": 1, "step_processes": 2}
        assert run.counters["worker_peak_rss_mb"] > 0
        assert len(worker_pids) == 1 and _reaped(worker_pids[0])

    def test_reaped_after_a_non_finite_loss(self, tiny_dataset, worker_pids, tmp_path):
        ds = _subset_dataset(tiny_dataset, 4)
        ds.buffers[Command.FORWARD] = [  # the worker's command
            DemoSample(s.features, s.adjacency, s.command, np.array([np.nan, 0.0]),
                       s.episode_id, s.step) for s in ds.buffers[Command.FORWARD]]
        with pytest.raises(TrainingError, match="non-finite loss nan at step 0"):
            train(ds, _tiny_config(batch_size=12), out_dir=tmp_path)
        assert len(worker_pids) == 1 and _reaped(worker_pids[0])

    def test_exception_in_the_worker_is_raised_and_the_worker_reaped(
            self, tiny_dataset, worker_pids, monkeypatch):
        def fail():
            raise RuntimeError("planted worker failure")
        _fail_in_worker(monkeypatch, fail)
        with pytest.raises(TrainingError, match="planted worker failure"):
            train(_subset_dataset(tiny_dataset, 6), _tiny_config())
        assert len(worker_pids) == 1 and _reaped(worker_pids[0])

    def test_worker_that_dies_is_reported(self, tiny_dataset, worker_pids, monkeypatch):
        _fail_in_worker(monkeypatch, lambda: os._exit(3))
        with pytest.raises(TrainingError, match="exited unexpectedly"):
            train(_subset_dataset(tiny_dataset, 6), _tiny_config())
        assert len(worker_pids) == 1 and _reaped(worker_pids[0])

    def test_blas_thread_count_is_restored(self, tiny_dataset, worker_pids, tmp_path):
        get, put = training._openblas()
        before = get()
        put(2)
        try:
            train(_subset_dataset(tiny_dataset, 6), _tiny_config(epochs=1))
            assert get() == 2
            bad = _subset_dataset(tiny_dataset, 4)
            bad.buffers[Command.TURN_LEFT] = [  # a parent command
                DemoSample(s.features, s.adjacency, s.command, np.array([np.nan, 0.0]),
                           s.episode_id, s.step) for s in bad.buffers[Command.TURN_LEFT]]
            with pytest.raises(TrainingError):
                train(bad, _tiny_config(batch_size=12), out_dir=tmp_path)
            assert get() == 2
        finally:
            put(before)


def test_one_usable_cpu_runs_the_steps_serially(tiny_dataset, monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    run = train(_subset_dataset(tiny_dataset, 6), _tiny_config(epochs=1))
    assert run.step_loop["step_processes"] == 1 and "worker_peak_rss_mb" not in run.counters


# Trains setcil at B=512 on 900 six-node samples and prints the minor page
# faults between consecutive Adam steps.
FAULTS_PER_STEP = """
import json, resource
import numpy as np
from graphnav import nn
from graphnav.dataset import DemoDataset, DemoSample
from graphnav.layout import COMMANDS
from graphnav.training import TrainConfig, train

rng = np.random.default_rng(0)
dataset = DemoDataset()
for command in COMMANDS:
    dataset.buffers[command] = [
        DemoSample(features=rng.normal(size=(6, 12)), adjacency=np.eye(6), command=command,
                   u_star=rng.uniform(-1.0, 1.0, size=2), episode_id=0, step=i)
        for i in range(300)]
marks = []
adam_step = nn.Adam.step

def counting(self, params, grads):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return adam_step(self, params, grads)

nn.Adam.step = counting
train(dataset, TrainConfig(batch_size=512, epochs=15, eval_every=0, network="setcil"))
print(json.dumps([b - a for a, b in zip(marks, marks[1:])]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="train() sets its allocator thresholds through glibc's mallopt")
def test_training_steps_do_not_page_fault():
    """A fresh process, so that no earlier test has grown its heap. With
    glibc's default thresholds each of these steps faults in about 1,600
    pages that the step before returned to the OS."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env, check=True,
                         text=True, capture_output=True).stdout
    per_step = json.loads(out)
    assert len(per_step) == 29
    assert statistics.median(per_step[5:]) <= 8, per_step
