"""Closed-loop evaluation: seeded trial suites, rates, report tables, ablations."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .atomic import atomic_write
from .dataset import DemoDataset
from .graph import GraphConfig
from .layout import COMMANDS, Command
from .policies import NetworkController
from .rollout import POOL_CHUNKSIZE, call_shared, init_worker, pool_size, run_episode
from .training import TrainConfig, train
from .vehicle import Action
from .world import EpisodeOutcome, OutcomeTag, ScenarioConfig

SETUPS = (("easy", 3), ("middle", 5), ("hard", 7))

# Reported full-scale reference results for the edge-strategy ablation, out of
# 35 trials (57.14% = 20/35); printed next to desk-scale numbers, never asserted.
REFERENCE_TRIALS = 35
REFERENCE_ABLATION = {
    "n_close_weighted": {"success_rate_pct": 57.14, "collision_rate_pct": 42.86, "mean_nav_time_s": 15.45},
    "fully_connected": {"success_rate_pct": 40.00, "collision_rate_pct": 60.00, "mean_nav_time_s": 15.95},
    "star_connected": {"success_rate_pct": 45.71, "collision_rate_pct": 54.29, "mean_nav_time_s": 15.40},
    "non_weighted": {"success_rate_pct": 37.14, "collision_rate_pct": 62.86, "mean_nav_time_s": 14.41},
}


@dataclass(frozen=True)
class TrialResult:
    setup: str
    command: Command
    seed: int
    outcome: EpisodeOutcome

    @property
    def nav_time(self) -> float | None:
        return self.outcome.elapsed if self.outcome.tag is OutcomeTag.SUCCESS else None


def success_rate(results) -> float:
    results = list(results)
    if not results:
        raise ValueError("success rate needs at least one trial")
    n = sum(1 for r in results if r.outcome.tag is OutcomeTag.SUCCESS)
    return 100.0 * n / len(results)


def collision_rate(results) -> float:
    results = list(results)
    if not results:
        raise ValueError("collision rate needs at least one trial")
    n = sum(1 for r in results if r.outcome.tag is OutcomeTag.COLLISION)
    return 100.0 * n / len(results)


def mean_navigation_time(results) -> float | None:
    times = [r.outcome.elapsed for r in results if r.outcome.tag is OutcomeTag.SUCCESS]
    if not times:
        return None  # rendered as NA in reports
    return sum(times) / len(times)


class AlwaysBrake:
    """Degenerate policy: full brake, straight wheels."""

    def act(self, world, goal, command, obs) -> Action:
        return Action(0.0, -1.0)


@dataclass
class SuiteReport:
    cells: dict            # (setup, command) -> {"success_rate_pct", ...}
    trials_per_cell: int
    base_seed: int
    method: str

    def avg(self, setup: str) -> dict:
        rows = [self.cells[(setup, c)] for c in COMMANDS]
        nav = [r["mean_nav_time_s"] for r in rows if r["mean_nav_time_s"] is not None]
        return {
            "success_rate_pct": sum(r["success_rate_pct"] for r in rows) / 3.0,
            "collision_rate_pct": sum(r["collision_rate_pct"] for r in rows) / 3.0,
            "mean_nav_time_s": sum(nav) / len(nav) if nav else None,
        }


def _cell_stats(results) -> dict:
    return {
        "success_rate_pct": success_rate(results),
        "collision_rate_pct": collision_rate(results),
        "mean_nav_time_s": mean_navigation_time(results),
        "trials": len(list(results)),
    }


def _run_trial(policy, base_cfg: ScenarioConfig, graph_cfg: GraphConfig,
               record_trajectory: bool, task) -> tuple:
    setup, density, command, seed = task
    cfg = replace(base_cfg, command=command, density=density)
    record = run_episode(cfg, seed, policy, graph_cfg, record_trajectory=record_trajectory)
    return (setup, command.value, seed, record.outcome, record.trajectory)


def run_suite(
    policy,
    base_cfg: ScenarioConfig,
    graph_cfg: GraphConfig,
    trials_per_cell: int,
    base_seed: int,
    setups=SETUPS,
    commands=COMMANDS,
    jobs: int = 1,
    method: str = "policy",
    trajectory_dir=None,
) -> tuple[SuiteReport, list[TrialResult]]:
    """Evaluate one policy over the setup x command grid with per-trial seeds
    base_seed + global trial index."""
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")
    tasks = []
    index = 0
    for setup, density in setups:
        for command in commands:
            for _ in range(trials_per_cell):
                tasks.append((setup, density, command, base_seed + index))
                index += 1
    shared = (policy, base_cfg, graph_cfg, trajectory_dir is not None)
    workers = pool_size(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=init_worker,
                                 initargs=shared) as pool:
            raw = list(pool.map(partial(call_shared, _run_trial), tasks,
                                chunksize=POOL_CHUNKSIZE))
    else:
        raw = [_run_trial(*shared, t) for t in tasks]
    raw.sort(key=lambda r: r[2])  # aggregation is order-independent; sort by seed

    results = []
    for setup, command_value, seed, outcome, trajectory in raw:
        results.append(TrialResult(setup=setup, command=Command(command_value),
                                   seed=seed, outcome=outcome))
        if trajectory_dir is not None and trajectory is not None:
            path = Path(trajectory_dir) / f"trajectory_{setup}_{command_value}_{seed}.csv"
            write_trajectory_csv(path, trajectory)

    cells = {}
    for setup, _density in setups:
        for command in commands:
            cell = [r for r in results if r.setup == setup and r.command is command]
            cells[(setup, command)] = _cell_stats(cell)
    report = SuiteReport(cells=cells, trials_per_cell=trials_per_cell,
                         base_seed=base_seed, method=method)
    return report, results


def _fmt(value, decimals: int = 2) -> str:
    if value is None:
        return "NA"
    return f"{value:.{decimals}f}"


def write_suite_csv(report: SuiteReport, path) -> None:
    with atomic_write(path) as fh:
        fh.write("setup,method,command,success_rate_pct,collision_rate_pct,"
                 "mean_nav_time_s,trials,base_seed\n")
        for setup, _density in SETUPS:
            for command in COMMANDS:
                cell = report.cells.get((setup, command))
                if cell is None:
                    continue
                fh.write(f"{setup},{report.method},{command.value},"
                         f"{_fmt(cell['success_rate_pct'])},{_fmt(cell['collision_rate_pct'])},"
                         f"{_fmt(cell['mean_nav_time_s'])},{cell['trials']},{report.base_seed}\n")
            if all((setup, c) in report.cells for c in COMMANDS):
                avg = report.avg(setup)
                fh.write(f"{setup},{report.method},AVG,"
                         f"{_fmt(avg['success_rate_pct'])},{_fmt(avg['collision_rate_pct'])},"
                         f"{_fmt(avg['mean_nav_time_s'])},{report.trials_per_cell * 3},{report.base_seed}\n")


def write_trials_csv(results, path) -> None:
    with atomic_write(path) as fh:
        fh.write("setup,command,seed,outcome,elapsed_s,steps,nav_time_s\n")
        for r in results:
            nav = "" if r.nav_time is None else repr(r.nav_time)
            fh.write(f"{r.setup},{r.command.value},{r.seed},{r.outcome.tag.value},"
                     f"{r.outcome.elapsed!r},{r.outcome.steps},{nav}\n")


def write_trajectory_csv(path, rows) -> None:
    with atomic_write(path) as fh:
        fh.write("step,vehicle_id,x,y,heading,speed,delta,tau\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_actions_csv(path, rows) -> None:
    """The ego's (step, delta, tau) from trajectory rows."""
    with atomic_write(path) as fh:
        fh.write("step,delta,tau\n")
        for row in rows:
            if row[1] == 0:  # ego rows only
                fh.write(f"{row[0]},{row[6]!r},{row[7]!r}\n")


def format_report(report: SuiteReport) -> str:
    lines = []
    header = f"{'setup':8} {'command':12} {'SR%':>8} {'CR%':>8} {'time(s)':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for setup, _density in SETUPS:
        if not all((setup, c) in report.cells for c in COMMANDS):
            continue
        for command in COMMANDS:
            cell = report.cells[(setup, command)]
            lines.append(f"{setup:8} {command.value:12} {_fmt(cell['success_rate_pct']):>8} "
                         f"{_fmt(cell['collision_rate_pct']):>8} {_fmt(cell['mean_nav_time_s']):>8}")
        avg = report.avg(setup)
        lines.append(f"{setup:8} {'AVG':12} {_fmt(avg['success_rate_pct']):>8} "
                     f"{_fmt(avg['collision_rate_pct']):>8} {_fmt(avg['mean_nav_time_s']):>8}")
    return "\n".join(lines)


def run_ablation(
    dataset: DemoDataset,
    strategies,
    train_config: TrainConfig,
    eval_cfg: ScenarioConfig,
    graph_cfg: GraphConfig,
    trials: int,
    base_seed: int,
    jobs: int = 1,
) -> tuple[list[dict], dict]:
    """Retrain one policy per edge strategy from the shared dataset and
    evaluate each on the hard-density forward cell. Returns the report rows
    and the trained networks keyed by strategy name."""
    rows = []
    networks = {}
    for strategy in strategies:
        strat_graph = replace(graph_cfg, strategy=strategy)
        cfg = replace(train_config, graph=strat_graph, reencode=True)
        run = train(dataset, cfg)
        policy = NetworkController(run.network)
        report, _ = run_suite(
            policy, eval_cfg, strat_graph, trials, base_seed,
            setups=(("hard", 7),), commands=(Command.FORWARD,), jobs=jobs,
            method=strategy.kind.value,
        )
        cell = report.cells[("hard", Command.FORWARD)]
        ref = REFERENCE_ABLATION.get(strategy.kind.value, {})
        rows.append({
            "strategy": strategy.kind.value,
            "success_rate_pct": cell["success_rate_pct"],
            "collision_rate_pct": cell["collision_rate_pct"],
            "mean_nav_time_s": cell["mean_nav_time_s"],
            "trials": trials,
            "ref_success_rate_pct": ref.get("success_rate_pct"),
            "ref_collision_rate_pct": ref.get("collision_rate_pct"),
            "ref_mean_nav_time_s": ref.get("mean_nav_time_s"),
        })
        networks[strategy.kind.value] = run.network
    return rows, networks


def write_ablation_csv(rows, path) -> None:
    with atomic_write(path) as fh:
        fh.write("strategy,success_rate_pct,collision_rate_pct,mean_nav_time_s,trials,"
                 "ref_success_rate_pct,ref_collision_rate_pct,ref_mean_nav_time_s\n")
        for row in rows:
            fh.write(f"{row['strategy']},{_fmt(row['success_rate_pct'])},"
                     f"{_fmt(row['collision_rate_pct'])},{_fmt(row['mean_nav_time_s'])},"
                     f"{row['trials']},{_fmt(row['ref_success_rate_pct'])},"
                     f"{_fmt(row['ref_collision_rate_pct'])},{_fmt(row['ref_mean_nav_time_s'])}\n")
