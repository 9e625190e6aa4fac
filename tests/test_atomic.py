import numpy as np
import pytest

from graphnav.atomic import atomic_write
from graphnav.checkpoint import save_checkpoint
from graphnav.dataset import BUFFER_FILES, DemoDataset, DemoSample, write_dataset
from graphnav.evaluation import (SuiteReport, TrialResult, write_ablation_csv, write_actions_csv,
                                 write_suite_csv, write_trajectory_csv, write_trials_csv)
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
    return DemoSample(np.zeros((1, 12)), np.ones((1, 1)), command, np.zeros(2), 0, 0)


def _unserializable(tmp_path, name):
    """Each artifact writer, given data that fails partway through its write."""
    if name == "checkpoint_final.json":
        # train_state is the last key written, after every weight
        save_checkpoint(tmp_path / name, build_network("gcil", seed=0), GraphConfig(),
                        train_state={"step": object()})
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
        report = SuiteReport({("easy", Command.FORWARD): {"success_rate_pct": 0.0}}, 1, 0, "gcil")
        write_suite_csv(report, tmp_path / name)
    elif name == "ablation.csv":
        write_ablation_csv([{"strategy": "fully_connected"}], tmp_path / name)
    elif name in ("trajectory.csv", "actions.csv"):
        row = (0, 0, 1.0, 2.0, 0.5, 3.0, 0.1, -0.2)
        writer = write_trajectory_csv if name == "trajectory.csv" else write_actions_csv
        writer(tmp_path / name, [row, row, None])


@pytest.mark.parametrize("name", ["checkpoint_final.json", "forward.jsonl", "manifest.json",
                                  "run_manifest.json", "loss.csv", "trials.csv",
                                  "suite_report.csv", "ablation.csv", "trajectory.csv",
                                  "actions.csv"])
def test_a_failed_artifact_write_keeps_the_previous_file(tmp_path, name):
    path = tmp_path / name
    path.write_text(PREVIOUS)
    with pytest.raises((TypeError, AttributeError, KeyError)):
        _unserializable(tmp_path, name)
    assert path.read_text() == PREVIOUS
    # no temporary file is left behind; the buffers write_dataset finished
    # before its manifest failed are whole files
    assert {p.name for p in tmp_path.iterdir()} <= {name, *BUFFER_FILES.values()}
