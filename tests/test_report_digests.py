"""The bytes of every report graphnav renders, pinned by SHA-256 digests of
hand-built inputs: trials.csv, suite_report.csv (a full grid and a partial
one), ablation.csv, a trajectory CSV, actions.csv, loss.csv and eval's
table. The trial outcomes go through `run_suite` with its episodes stubbed,
so the rates are computed the way eval computes them. A change in how any
report renders a number fails here."""

import hashlib

import pytest

from graphnav import evaluation
from graphnav.evaluation import (AlwaysBrake, format_report, run_suite, write_ablation_csv,
                                 write_actions_csv, write_suite_csv, write_trajectory_csv,
                                 write_trials_csv)
from graphnav.graph import GraphConfig
from graphnav.layout import Command
from graphnav.rollout import EpisodeRecord
from graphnav.training import write_loss_csv
from graphnav.world import EpisodeOutcome, OutcomeTag, ScenarioConfig

S, C, T = OutcomeTag.SUCCESS, OutcomeTag.COLLISION, OutcomeTag.TIMEOUT

# (tag, steps) of each trial in seed order, three per cell: easy then hard,
# forward, turn_left, turn_right. easy turn_right has no success (NA).
GRID = [(S, 123), (S, 141), (C, 42),
        (S, 107), (T, 300), (T, 300),
        (C, 29), (C, 33), (T, 300),
        (S, 155), (S, 161), (S, 170),
        (C, 61), (S, 149), (T, 300),
        (S, 133), (C, 17), (C, 88)]
PARTIAL = [(C, 51), (S, 144)]  # hard forward alone, as the ablation runs it

TRAJECTORY = [(0, 0, 1.5, -2.25, 0.1 + 0.2, 3.0, 0.05, -1.0),
              (0, 1, 10.0, 7.125, -1.5707963267948966, 0.0, 0.0, 0.0),
              (1, 0, 1.8000000000000003, -2.25, 0.3, 3.1, 0.1, 0.5),
              (1, 1, 9.5, 7.125, -1.5707963267948966, 5.0, -0.0, 1.0)]

LOSSES = [{"step": 0, "mean_loss": 0.1 + 0.2, "loss_forward": 1.0, "loss_left": 2.5e-07,
           "loss_right": 0.0, "wall_clock_s": 0.125},
          {"step": 1, "mean_loss": 1 / 3, "loss_forward": 0.5, "loss_left": 1e-12,
           "loss_right": 12.0, "wall_clock_s": 0.25}]

ABLATION = [
    {"strategy": "n_close_weighted", "success_rate_pct": 62.5, "collision_rate_pct": 37.5,
     "mean_nav_time_s": 15.4375, "trials": 8, "ref_success_rate_pct": 57.14,
     "ref_collision_rate_pct": 42.86, "ref_mean_nav_time_s": 15.45},
    {"strategy": "star_connected", "success_rate_pct": 0.0, "collision_rate_pct": 100.0 / 3,
     "mean_nav_time_s": None, "trials": 3, "ref_success_rate_pct": None,
     "ref_collision_rate_pct": None, "ref_mean_nav_time_s": None},
]

DIGESTS = {
    "trials.csv": "3dbd0025fce26182c0ddac220ec309ba81eab03f17466b280efbb161c2b6423b",
    "suite_report.csv": "87c42d2413ea344131ea961c9b55fc6663f7651ef3824c1dfedce87db35c3e79",
    "partial_suite_report.csv": "0f619076278acacc3c377cf750173adcf9e9b7aaddde427b179ac632867ca1b3",
    "ablation.csv": "75de7b6abfbc2653e8f2c8ea31aa20f48d865c48504ffeaa7dee17444af8fd2a",
    "trajectory.csv": "1fd0bdc56b51800ba1fa7f17c25913671d0db3586459d4f5033b9af3607faeb6",
    "actions.csv": "f13a8b18aafa4ffa02701953b8cfd24d19f67f6e6c6abd376b5c61cdaf787ea4",
    "loss.csv": "bcff7692ba0e29694aeffc45494b919429e86140286591bc27503379866efa95",
    "format_report.txt": "e1c9446823d6f6531ccba01c594d4670430d25ae3cb95b4ec96cd6a7581a6b66",
}


def _suite(monkeypatch, outcomes, trials, **grid):
    """run_suite of `trials` per cell over `grid`, each episode's outcome
    taken in turn from `outcomes`."""
    def run_episodes(policy, base_cfg, graph_cfg, tasks, **kwargs):
        return [EpisodeRecord(seed, command, EpisodeOutcome(tag, steps * 0.1, steps), None, None)
                for (command, _density, seed), (tag, steps) in zip(tasks, outcomes, strict=True)]
    monkeypatch.setattr(evaluation, "run_episodes", run_episodes)
    return run_suite(AlwaysBrake(), ScenarioConfig(), GraphConfig(), trials, 100,
                     method="gcil", **grid)


@pytest.fixture
def rendered(monkeypatch, tmp_path):
    """Each report's bytes, by name."""
    report, results = _suite(monkeypatch, GRID, 3, setups=(("easy", 3), ("hard", 7)))
    partial, _ = _suite(monkeypatch, PARTIAL, 2, setups=(("hard", 7),),
                        commands=(Command.FORWARD,))
    write_trials_csv(results, tmp_path / "trials.csv")
    write_suite_csv(report, tmp_path / "suite_report.csv")
    write_suite_csv(partial, tmp_path / "partial_suite_report.csv")
    write_ablation_csv(ABLATION, tmp_path / "ablation.csv")
    write_trajectory_csv(tmp_path / "trajectory.csv", TRAJECTORY)
    write_actions_csv(tmp_path / "actions.csv", TRAJECTORY)
    write_loss_csv(tmp_path / "loss.csv", LOSSES)
    (tmp_path / "format_report.txt").write_text(format_report(report))
    return {name: (tmp_path / name).read_bytes() for name in DIGESTS}


def test_the_grid_holds_every_outcome_and_an_na_cell(monkeypatch):
    report, results = _suite(monkeypatch, GRID, 3, setups=(("easy", 3), ("hard", 7)))
    assert {r.outcome.tag for r in results} == {S, C, T}
    assert report.cells[("easy", Command.TURN_RIGHT)]["mean_nav_time_s"] is None


@pytest.mark.parametrize("name", list(DIGESTS))
def test_report_bytes_are_pinned(rendered, name):
    assert hashlib.sha256(rendered[name]).hexdigest() == DIGESTS[name], rendered[name].decode()
