import csv
import pickle
from dataclasses import replace

import numpy as np
import pytest

from graphnav import evaluation
from graphnav.evaluation import (AlwaysBrake, SuiteReport, TrialResult, collision_rate,
                                 format_report, mean_navigation_time, run_suite,
                                 success_rate, write_suite_csv, write_trials_csv)
from graphnav.expert import ExpertController, ExpertParams
from graphnav.graph import GraphConfig
from graphnav.layout import COMMANDS, Command, build_layout
from graphnav.world import EpisodeOutcome, OutcomeTag, ScenarioConfig


def _trial(tag, elapsed=10.0, setup="easy", command=Command.FORWARD, seed=0):
    return TrialResult(setup=setup, command=command, seed=seed,
                       outcome=EpisodeOutcome(tag, elapsed, int(elapsed * 10)))


class TestRates:
    def test_seven_of_ten(self):
        results = [_trial(OutcomeTag.SUCCESS)] * 7 + [_trial(OutcomeTag.TIMEOUT)] * 3
        assert success_rate(results) == 70.0

    def test_seventy_trials_rounding(self):
        results = [_trial(OutcomeTag.SUCCESS)] * 55 + [_trial(OutcomeTag.COLLISION)] * 15
        assert f"{success_rate(results):.2f}" == "78.57"

    def test_rates_need_not_sum_to_hundred(self):
        results = ([_trial(OutcomeTag.SUCCESS)] * 3 + [_trial(OutcomeTag.COLLISION)] * 4
                   + [_trial(OutcomeTag.TIMEOUT)] * 3)
        assert success_rate(results) == 30.0
        assert collision_rate(results) == 40.0
        assert success_rate(results) + collision_rate(results) < 100.0

    def test_empty_results_error(self):
        with pytest.raises(ValueError):
            success_rate([])
        with pytest.raises(ValueError):
            collision_rate([])


class TestNavigationTime:
    def test_mean_over_successes_only(self):
        results = [_trial(OutcomeTag.SUCCESS, 10.0), _trial(OutcomeTag.SUCCESS, 12.0),
                   _trial(OutcomeTag.COLLISION, 3.0)]
        assert mean_navigation_time(results) == 11.0

    def test_no_successes_is_na(self):
        assert mean_navigation_time([_trial(OutcomeTag.COLLISION)]) is None

    def test_single_success(self):
        assert mean_navigation_time([_trial(OutcomeTag.SUCCESS, 14.2)]) == 14.2


class TestRunSuite:
    def _run(self, trials=2, **kw):
        cfg = ScenarioConfig(spawn_window=(19.0, 35.0), ego_spawn_window=(17.0, 22.0),
                             nonconflicting_fraction=0.25)
        return run_suite(AlwaysBrake(), cfg, GraphConfig(), trials, 5000, **kw)

    def test_episode_counts_and_seeds(self):
        report, results = self._run(trials=2)
        assert len(results) == 2 * 9
        assert sorted(r.seed for r in results) == list(range(5000, 5018))
        for (setup, command), cell in report.cells.items():
            assert cell["trials"] == 2

    def test_always_brake_never_succeeds(self):
        report, results = self._run(trials=2)
        assert all(r.outcome.tag is not OutcomeTag.SUCCESS for r in results)
        for cell in report.cells.values():
            assert cell["success_rate_pct"] == 0.0

    def test_deterministic(self):
        _, a = self._run(trials=2)
        _, b = self._run(trials=2)
        assert [(r.seed, r.outcome) for r in a] == [(r.seed, r.outcome) for r in b]

    def test_parallel_matches_serial(self):
        _, serial = self._run(trials=2)
        _, parallel = self._run(trials=2, jobs=2)
        assert [(r.seed, r.outcome) for r in serial] == [(r.seed, r.outcome) for r in parallel]


def test_trial_order_does_not_change_trials_csv(tmp_path):
    """No state leaks from one trial into the next: the same tasks run in
    reverse order give a byte-identical trials.csv and the same trajectories.
    Agents follow each other and the ego, so per-trial leader bookkeeping is
    exercised on routes and layouts that every trial shares."""
    cfg = ScenarioConfig(react_to_ego=True, allow_ego_arm=True, nonconflicting_fraction=0.5,
                         small_agent_fraction=0.3)
    expert = ExpertController(ExpertParams(), cfg.vehicle, cfg.tracking)
    tasks = [(setup, density, command, 40 + i)
             for i, (setup, density, command) in enumerate(
                 [("easy", 3, Command.FORWARD), ("middle", 5, Command.TURN_LEFT),
                  ("hard", 7, Command.TURN_RIGHT), ("hard", 7, Command.FORWARD),
                  ("middle", 5, Command.TURN_RIGHT), ("easy", 3, Command.TURN_LEFT)])]
    written = []
    for order in (tasks, tasks[::-1]):
        build_layout.cache_clear()  # so that state kept on the shared routes starts afresh
        raw = sorted((evaluation._run_trial(expert, cfg, GraphConfig(), True, t) for t in order),
                     key=lambda r: r[2])
        path = tmp_path / f"trials_{len(written)}.csv"
        write_trials_csv([TrialResult(setup, Command(command), seed, outcome)
                          for setup, command, seed, outcome, _ in raw], path)
        written.append((path.read_bytes(), [r[4] for r in raw]))
    assert written[0] == written[1]


@pytest.fixture
def recording_executor(recording_pool):
    return recording_pool(evaluation)


class TestPool:
    CFG = ScenarioConfig(spawn_window=(19.0, 35.0), ego_spawn_window=(17.0, 22.0),
                         timeout_s=1.0)

    def _run(self, trials, jobs):
        return run_suite(AlwaysBrake(), self.CFG, GraphConfig(), trials, 5000,
                         setups=(("easy", 2),), commands=(Command.FORWARD,), jobs=jobs)

    def test_one_chunk_runs_serially(self, recording_executor):
        _, results = self._run(trials=2, jobs=8)
        assert recording_executor.built == []
        assert len(results) == 2

    def test_pool_capped_at_chunk_count(self, recording_executor):
        _, pooled = self._run(trials=12, jobs=8)  # 3 chunks of 4
        assert recording_executor.built == [3]
        _, serial = self._run(trials=12, jobs=1)
        assert [(r.seed, r.outcome) for r in pooled] == [(r.seed, r.outcome) for r in serial]

    def test_policy_sent_once_not_per_task(self, recording_executor):
        policy = AlwaysBrake()
        run_suite(policy, self.CFG, GraphConfig(), 12, 5000,
                  setups=(("easy", 2),), commands=(Command.FORWARD,), jobs=2)
        (shared,) = recording_executor.shared
        assert shared[0] is policy
        tasks = recording_executor.tasks
        assert len(tasks) == 12
        assert all(policy not in task for task in tasks)
        assert len(pickle.dumps(tasks)) < 1000

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            self._run(trials=2, jobs=0)


class TestReports:
    def _report(self):
        cells = {}
        rng = np.random.default_rng(0)
        for setup in ("easy", "middle", "hard"):
            for c in COMMANDS:
                sr = float(rng.uniform(20, 90))
                cells[(setup, c)] = {
                    "success_rate_pct": sr,
                    "collision_rate_pct": 100.0 - sr - 5.0,
                    "mean_nav_time_s": float(rng.uniform(10, 18)),
                    "trials": 70,
                }
        return SuiteReport(cells=cells, trials_per_cell=70, base_seed=1, method="gcil")

    def test_avg_is_arithmetic_mean(self):
        report = self._report()
        avg = report.avg("middle")
        srs = [report.cells[("middle", c)]["success_rate_pct"] for c in COMMANDS]
        assert avg["success_rate_pct"] == pytest.approx(sum(srs) / 3)

    def test_csv_re_aggregates_exactly(self, tmp_path):
        report = self._report()
        path = tmp_path / "suite.csv"
        write_suite_csv(report, path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 12  # 9 cells + 3 AVG rows
        for row in rows:
            if row["command"] == "AVG":
                avg = report.avg(row["setup"])
                assert row["success_rate_pct"] == f"{avg['success_rate_pct']:.2f}"
            else:
                cell = report.cells[(row["setup"], Command(row["command"]))]
                assert row["success_rate_pct"] == f"{cell['success_rate_pct']:.2f}"
                assert row["collision_rate_pct"] == f"{cell['collision_rate_pct']:.2f}"

    def test_na_rendering(self, tmp_path):
        cells = {("easy", c): {"success_rate_pct": 0.0, "collision_rate_pct": 100.0,
                               "mean_nav_time_s": None, "trials": 5} for c in COMMANDS}
        report = SuiteReport(cells=cells, trials_per_cell=5, base_seed=0, method="setcil")
        path = tmp_path / "suite.csv"
        write_suite_csv(report, path)
        content = path.read_text()
        assert ",NA," in content
        assert "NA" in format_report(report)

    def test_trials_csv_roundtrip(self, tmp_path):
        results = [_trial(OutcomeTag.SUCCESS, 12.5, seed=3),
                   _trial(OutcomeTag.COLLISION, 4.0, seed=4)]
        path = tmp_path / "trials.csv"
        write_trials_csv(results, path)
        rows = list(csv.DictReader(path.open()))
        assert rows[0]["outcome"] == "success"
        assert float(rows[0]["nav_time_s"]) == 12.5
        assert rows[1]["nav_time_s"] == ""
        # rates recomputed from the raw rows match the aggregate exactly
        n_success = sum(1 for r in rows if r["outcome"] == "success")
        assert 100.0 * n_success / len(rows) == success_rate(results)
