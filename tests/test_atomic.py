import contextlib
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reaped
from graphnav import atomic
from graphnav.atomic import atomic_write, atomic_write_halves
from graphnav.checkpoint import save_checkpoint
from graphnav.dataset import BUFFER_FILES, DemoDataset, DemoSample, write_dataset
from graphnav.evaluation import (SuiteReport, TrialResult, rates, write_ablation_csv,
                                 write_actions_csv, write_suite_csv, write_trajectory_csv,
                                 write_trials_csv)
from graphnav.graph import GraphConfig
from graphnav.layout import Command
from graphnav.manifest import write_manifest
from graphnav.policies import build_network
from graphnav.training import write_loss_csv
from graphnav.world import EpisodeOutcome, OutcomeTag

PREVIOUS = "previous contents\n"


class Midway(Exception):
    pass


def test_atomic_write_replaces_the_file_only_when_complete(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text(PREVIOUS)
    with pytest.raises(Midway):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            fh.flush()
            raise Midway
    assert path.read_text() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _sample(command) -> DemoSample:
    return DemoSample(np.zeros((1, 12)), command, np.zeros(2), 0, 0)


def _unserializable(tmp_path, name):
    """Each artifact writer, given data that fails partway through its write."""
    if name == "checkpoint_final.json":
        # train_state is the last key written, after every weight; an array is
        # encoded only as it is written, so this one fails in the open file
        save_checkpoint(tmp_path / name, build_network("gcil", seed=0), GraphConfig(),
                        train_state={"step": np.array([object()], dtype=object)})
    elif name == "forward.jsonl":
        dataset = DemoDataset()
        dataset.buffers[Command.FORWARD] = [_sample(Command.FORWARD)] * 3 + [_sample(None)]
        write_dataset(dataset, tmp_path)
    elif name == "manifest.json":
        write_dataset(DemoDataset(manifest={"base_seed": object()}), tmp_path)
    elif name == "run_manifest.json":
        write_manifest(tmp_path, "collect", {}, {"seed": object()}, [], "started")
    elif name == "loss.csv":
        row = {"step": 0, "mean_loss": 1.0, "loss_forward": 1.0, "loss_left": 1.0,
               "loss_right": 1.0, "wall_clock_s": 0.1}
        write_loss_csv(tmp_path / name, [row, row, {"step": 2}])
    elif name == "trials.csv":
        trial = TrialResult("easy", Command.FORWARD, 1, EpisodeOutcome(OutcomeTag.TIMEOUT, 30.0, 300))
        write_trials_csv([trial, trial, None], tmp_path / name)
    elif name == "suite_report.csv":
        trial = TrialResult("easy", Command.FORWARD, 1, EpisodeOutcome(OutcomeTag.TIMEOUT, 30.0, 300))
        cells = {("easy", Command.FORWARD): rates([trial]),
                 ("easy", Command.TURN_LEFT): {"success_rate_pct": 0.0}}
        write_suite_csv(SuiteReport(cells, 0, "gcil"), tmp_path / name)
    elif name == "ablation.csv":
        write_ablation_csv([{"strategy": "fully_connected"}], tmp_path / name)
    elif name in ("trajectory.csv", "actions.csv"):
        row = (0, 0, 1.0, 2.0, 0.5, 3.0, 0.1, -0.2)
        writer = write_trajectory_csv if name == "trajectory.csv" else write_actions_csv
        writer(tmp_path / name, [row, row, None])


@pytest.fixture
def entered(monkeypatch):
    """The name of each file an `atomic_write` block was entered for, through
    any graphnav module that holds the function."""
    names, real = [], atomic.atomic_write

    @contextlib.contextmanager
    def spy(path):
        names.append(Path(path).name)
        with real(path) as fh:
            yield fh
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("graphnav") and getattr(module, "atomic_write", None) is real:
            monkeypatch.setattr(module, "atomic_write", spy)
    return names


@pytest.mark.parametrize("name", ["checkpoint_final.json", "forward.jsonl", "manifest.json",
                                  "run_manifest.json", "loss.csv", "trials.csv",
                                  "suite_report.csv", "ablation.csv", "trajectory.csv",
                                  "actions.csv"])
def test_a_failed_artifact_write_keeps_the_previous_file(tmp_path, monkeypatch, entered, name):
    """One CPU: the failure is raised where it happens, in this process, after
    the temporary file is open."""
    monkeypatch.setattr(atomic, "usable_cpus", lambda: 1)
    path = tmp_path / name
    path.write_text(PREVIOUS)
    with pytest.raises((TypeError, AttributeError, KeyError)):
        _unserializable(tmp_path, name)
    assert name in entered
    assert path.read_text() == PREVIOUS
    # no temporary file is left behind; the buffers write_dataset finished
    # before its manifest failed are whole files
    assert {p.name for p in tmp_path.iterdir()} <= {name, *BUFFER_FILES.values()}


def test_a_failed_back_half_keeps_the_previous_buffer(tmp_path, helper_pids):
    """The bad record falls in the helper's half: the helper fails, and this
    process raises an OSError naming the file."""
    path = tmp_path / "forward.jsonl"
    path.write_text(PREVIOUS)
    with pytest.raises(OSError, match=re.escape(f"cannot write {path}")):
        _unserializable(tmp_path, "forward.jsonl")
    assert path.read_text() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["forward.jsonl"]
    assert len(helper_pids) == 1 and reaped(helper_pids[0])


def _affinity(fh, items):
    """Writes each item with the CPUs of the process that writes it."""
    for item in items:
        fh.write(f"{item} {sorted(os.sched_getaffinity(0))}\n")


def _helper_fails(fh, items):
    if "back" in items:
        raise OSError("No space left on device")
    _affinity(fh, items)


def _parent_interrupted(fh, items):
    if "front" in items:
        raise KeyboardInterrupt
    _affinity(fh, items)


@pytest.mark.parametrize("emit, error", [(_affinity, None), (_helper_fails, OSError),
                                         (_parent_interrupted, KeyboardInterrupt)])
def test_the_writer_and_its_helper_run_on_separate_cpus(tmp_path, monkeypatch, helper_pids,
                                                        emit, error):
    """The back half is written on every CPU of the affinity set but the
    first, and this process never sets its own affinity: after a write, a
    failed writer and an interrupt alike. The writer is reaped and no
    temporary file is left."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("the affinity set holds one CPU")
    pinned, setaffinity = [], os.sched_setaffinity

    def recording(pid, mask):
        pinned.append(mask)  # the writer's calls land in its own copy of the list
        setaffinity(pid, mask)
    monkeypatch.setattr(os, "sched_setaffinity", recording)
    path = tmp_path / "out.txt"
    if error is None:
        assert atomic_write_halves(path, emit, ["front"], ["back"]) == 2
        assert path.read_text() == f"front {cpus}\nback {cpus[1:]}\n"
    else:
        with pytest.raises(error):
            atomic_write_halves(path, emit, ["front"], ["back"])
        assert list(tmp_path.iterdir()) == []
    assert pinned == []
    assert sorted(os.sched_getaffinity(0)) == cpus
    assert len(helper_pids) == 1 and reaped(helper_pids[0])


def test_a_failed_writer_raises_from_wait_naming_the_target(tmp_path, helper_pids):
    path = tmp_path / "out.txt"
    path.write_text(PREVIOUS)
    writer = atomic.WriteBehind(path, _helper_fails, ["back"])
    try:
        with pytest.raises(OSError, match=re.escape(f"cannot write {path}: its forked writer")):
            writer.wait()
    finally:
        writer.cancel()
    assert path.read_text() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert len(helper_pids) == 1 and reaped(helper_pids[0])


def test_a_one_cpu_affinity_set_still_forks_the_helper_unpinned(tmp_path, monkeypatch,
                                                                 helper_pids):
    def refused(pid, cpus):
        raise AssertionError("pinned on a one-CPU affinity set")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "sched_setaffinity", refused)
    path = tmp_path / "out.txt"
    assert atomic_write_halves(path, _affinity, ["front"], ["back"]) == 2
    assert path.read_text() == "front [0]\nback [0]\n"
    assert len(helper_pids) == 1 and reaped(helper_pids[0])
