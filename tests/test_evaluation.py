import csv
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from graphnav import evaluation, graph
from graphnav.config import load_config, scenario_config
from graphnav.evaluation import (AlwaysBrake, SuiteReport, TrialResult, collect_dataset,
                                 format_ablation, format_report, outcome_counts, rates, run_suite,
                                 write_suite_csv, write_trials_csv)
from graphnav.expert import ExpertController, ExpertParams
from graphnav.graph import GraphConfig
from graphnav.layout import COMMANDS, Command, build_layout
from graphnav.policies import NetworkController, build_network
from graphnav.world import EpisodeOutcome, OutcomeTag, ScenarioConfig


def _trial(tag, elapsed=10.0, setup="easy", command=Command.FORWARD, seed=0):
    return TrialResult(setup=setup, command=command, seed=seed,
                       outcome=EpisodeOutcome(tag, elapsed, int(elapsed * 10)))


class TestRates:
    def test_seven_of_ten(self):
        results = [_trial(OutcomeTag.SUCCESS)] * 7 + [_trial(OutcomeTag.TIMEOUT)] * 3
        assert rates(results)["success_rate_pct"] == 70.0
        assert rates(results)["trials"] == 10

    def test_seventy_trials_rounding(self):
        results = [_trial(OutcomeTag.SUCCESS)] * 55 + [_trial(OutcomeTag.COLLISION)] * 15
        assert f"{rates(results)['success_rate_pct']:.2f}" == "78.57"

    def test_rates_need_not_sum_to_hundred(self):
        results = ([_trial(OutcomeTag.SUCCESS)] * 3 + [_trial(OutcomeTag.COLLISION)] * 4
                   + [_trial(OutcomeTag.TIMEOUT)] * 3)
        cell = rates(results)
        assert cell["success_rate_pct"] == 30.0
        assert cell["collision_rate_pct"] == 40.0
        assert cell["success_rate_pct"] + cell["collision_rate_pct"] < 100.0

    def test_empty_results_error(self):
        with pytest.raises(ValueError):
            rates([])


class TestNavigationTime:
    def test_mean_over_successes_only(self):
        results = [_trial(OutcomeTag.SUCCESS, 10.0), _trial(OutcomeTag.SUCCESS, 12.0),
                   _trial(OutcomeTag.COLLISION, 3.0)]
        assert rates(results)["mean_nav_time_s"] == 11.0

    def test_no_successes_is_na(self):
        assert rates([_trial(OutcomeTag.COLLISION)])["mean_nav_time_s"] is None

    def test_single_success(self):
        assert rates([_trial(OutcomeTag.SUCCESS, 14.2)])["mean_nav_time_s"] == 14.2


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
    labelled = [(setup, (command, density, 40 + i))
                for i, (setup, density, command) in enumerate(
                    [("easy", 3, Command.FORWARD), ("middle", 5, Command.TURN_LEFT),
                     ("hard", 7, Command.TURN_RIGHT), ("hard", 7, Command.FORWARD),
                     ("middle", 5, Command.TURN_RIGHT), ("easy", 3, Command.TURN_LEFT)])]
    written = []
    for order in (labelled, labelled[::-1]):
        build_layout.cache_clear()  # so that state kept on the shared routes starts afresh
        runs = sorted(((setup, evaluation._run_task(expert, cfg, GraphConfig(), None, False,
                                                     True, task))
                       for setup, task in order), key=lambda run: run[1].seed)
        path = tmp_path / f"trials_{len(written)}.csv"
        write_trials_csv([TrialResult(setup, record.command, record.seed, record.outcome)
                          for setup, record in runs], path)
        written.append((path.read_bytes(), [record.trajectory for _, record in runs]))
    assert written[0] == written[1]


def test_warm_projection_caches_change_no_trial():
    """Each route's Polyline caches the candidate segments of every grid cell
    it projects, and the cache outlives the trial, the run and the fork of a
    pool's workers. The same trials over cleared, warm and forked-warm caches
    give the same results."""
    cfg = ScenarioConfig(react_to_ego=True, allow_ego_arm=True, nonconflicting_fraction=0.5)
    expert = ExpertController(ExpertParams(), cfg.vehicle, cfg.tracking)

    def run(jobs=1):
        return run_suite(expert, cfg, GraphConfig(), 2, 300, setups=(("easy", 3), ("hard", 7)),
                         jobs=jobs)[1]

    build_layout.cache_clear()
    cold = run()
    assert any(route.path._cells for route in cfg.layout().routes.values())
    assert run() == cold
    assert run(jobs=2) == cold


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
        return SuiteReport(cells=cells, base_seed=1, method="gcil")

    @staticmethod
    def _avg(report, setup):
        (avg,) = [cell for s, command, cell in report.rows() if (s, command) == (setup, "AVG")]
        return avg

    def test_avg_is_arithmetic_mean(self):
        report = self._report()
        avg = self._avg(report, "middle")
        srs = [report.cells[("middle", c)]["success_rate_pct"] for c in COMMANDS]
        assert avg["success_rate_pct"] == pytest.approx(sum(srs) / 3)
        assert avg["trials"] == 3 * 70

    def test_csv_re_aggregates_exactly(self, tmp_path):
        report = self._report()
        path = tmp_path / "suite.csv"
        write_suite_csv(report, path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 12  # 9 cells + 3 AVG rows
        for row in rows:
            if row["command"] == "AVG":
                avg = self._avg(report, row["setup"])
                assert row["success_rate_pct"] == f"{avg['success_rate_pct']:.2f}"
            else:
                cell = report.cells[(row["setup"], Command(row["command"]))]
                assert row["success_rate_pct"] == f"{cell['success_rate_pct']:.2f}"
                assert row["collision_rate_pct"] == f"{cell['collision_rate_pct']:.2f}"

    def test_na_rendering(self, tmp_path):
        cells = {("easy", c): {"success_rate_pct": 0.0, "collision_rate_pct": 100.0,
                               "mean_nav_time_s": None, "trials": 5} for c in COMMANDS}
        report = SuiteReport(cells=cells, base_seed=0, method="setcil")
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
        assert 100.0 * n_success / len(rows) == rates(results)["success_rate_pct"]

    def test_a_partial_grid_lists_its_cells_and_averages_complete_setups(self, tmp_path):
        cells = {**{("hard", c): rates([_trial(OutcomeTag.SUCCESS, 12.0)]) for c in COMMANDS},
                 ("easy", Command.TURN_LEFT): rates([_trial(OutcomeTag.COLLISION)])}
        report = SuiteReport(cells=cells, base_seed=0, method="gcil")
        assert [(setup, command) for setup, command, _ in report.rows()] == [
            ("easy", "turn_left"), ("hard", "forward"), ("hard", "turn_left"),
            ("hard", "turn_right"), ("hard", "AVG")]
        write_suite_csv(report, tmp_path / "suite.csv")
        csv_rows = list(csv.DictReader((tmp_path / "suite.csv").open()))
        table = format_report(report).splitlines()[2:]
        assert [(r["setup"], r["command"]) for r in csv_rows] == [tuple(line.split()[:2])
                                                                  for line in table]


def test_the_ablation_table_has_eval_s_rate_columns_and_the_reported_rates():
    rows = [{"strategy": "star_connected", **rates([_trial(OutcomeTag.SUCCESS, 12.5)]),
             "ref_success_rate_pct": 45.71, "ref_collision_rate_pct": 54.29,
             "ref_mean_nav_time_s": None}]
    header, rule, run, reported = format_ablation(rows).splitlines()
    assert header.split() == ["strategy", "source", "SR%", "CR%", "time(s)"]
    assert header.endswith(" SR%      CR%  time(s)")  # format_report's rate columns
    assert rule == "-" * len(header) and len(run) == len(reported) == len(header)
    assert run.split() == ["star_connected", "this", "run", "100.00", "0.00", "12.50"]
    assert reported.split() == ["star_connected", "reported", "45.71", "54.29", "NA"]


def test_outcome_counts_list_every_tag_per_setup_and_command():
    results = [_trial(OutcomeTag.SUCCESS), _trial(OutcomeTag.SUCCESS),
               _trial(OutcomeTag.COLLISION, setup="hard", command=Command.TURN_LEFT)]
    zero = {tag.value: 0 for tag in OutcomeTag}
    assert outcome_counts(results) == {"forward": {**zero, "success": 2},
                                       "turn_left": {**zero, "collision": 1}}
    assert outcome_counts(results[2:]) == {"turn_left": {**zero, "collision": 1}}


@pytest.fixture
def adjacency_calls(monkeypatch):
    """Every `graph.build_adjacency` call, counted."""
    calls = []
    build = graph.build_adjacency

    def counting(positions, strategy):
        calls.append(1)
        return build(positions, strategy)
    monkeypatch.setattr(graph, "build_adjacency", counting)
    return calls


def test_collect_builds_no_adjacency(adjacency_calls):
    dataset, _ = collect_dataset(scenario_config(load_config(), mode="train"), GraphConfig(),
                                 ExpertParams(), episodes_per_command=1, base_seed=0)
    assert dataset.total() > 0
    assert len(adjacency_calls) == 0


@pytest.mark.parametrize("kind", ["gcil", "nncil", "setcil"])
def test_only_gcil_builds_an_adjacency_per_env_step(adjacency_calls, kind):
    policy = NetworkController(build_network(kind, seed=1))
    _, (result,) = run_suite(policy, scenario_config(load_config(), mode="eval"), GraphConfig(),
                             1, 40, setups=(("easy", 3),), commands=(Command.FORWARD,))
    assert result.outcome.steps > 0
    assert len(adjacency_calls) == (result.outcome.steps if kind == "gcil" else 0)


def test_ablation_acts_under_each_networks_training_strategy(monkeypatch):
    trained, acted = [], []
    real = evaluation.run_suite

    def fake_train(dataset, cfg):
        trained.append((build_network("gcil", seed=len(trained)), cfg.graph))
        return SimpleNamespace(network=trained[-1][0])

    def spy(policy, base_cfg, graph_cfg, *args, **kwargs):
        acted.append((policy.network, graph_cfg))
        return real(policy, base_cfg, graph_cfg, *args, **kwargs)
    monkeypatch.setattr(evaluation, "train", fake_train)
    monkeypatch.setattr(evaluation, "run_suite", spy)
    strategies = [graph.EdgeStrategy(kind=k) for k in graph.EdgeStrategyKind]
    rows, networks = evaluation.run_ablation(None, strategies, evaluation.TrainConfig(),
                                             scenario_config(load_config(), mode="eval"),
                                             GraphConfig(), trials=1, base_seed=3)
    assert acted == trained and len(rows) == 4
    assert [g.strategy for _, g in acted] == strategies
    assert list(networks.values()) == [network for network, _ in trained]
