"""Seeded episode grids and their one process-pool fan-out: expert collection,
closed-loop trial suites, rates, report tables, ablations."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .atomic import atomic_write
from .dataset import SCHEMA_VERSION, DemoDataset
from .expert import ExpertController, ExpertParams
from .graph import GraphConfig
from .layout import COMMANDS, Command
from .policies import NetworkController
from .rollout import EpisodeRecord, NoiseParams, run_episode
from .training import TrainConfig, train
from .vehicle import Action
from .world import EpisodeOutcome, OutcomeTag, ScenarioConfig

SETUPS = (("easy", 3), ("middle", 5), ("hard", 7))
# surrounding-vehicle counts used when collecting each command's episodes
TRAIN_DENSITIES = {Command.FORWARD: 5, Command.TURN_LEFT: 3, Command.TURN_RIGHT: 3}

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

    @property
    def trajectory_name(self) -> str:
        """The file `run_suite` dumps this trial's trajectory to."""
        return f"trajectory_{self.setup}_{self.command.value}_{self.seed}.csv"


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


def outcome_counts(results) -> dict:
    """{setup: {command: {tag: count}}} of trial results, every tag listed:
    per setup, the shape of collect's expert outcome counts."""
    counts: dict = {}
    for r in results:
        tags = counts.setdefault(r.setup, {}).setdefault(
            r.command.value, dict.fromkeys((tag.value for tag in OutcomeTag), 0))
        tags[r.outcome.tag.value] += 1
    return counts


class AlwaysBrake:
    """Degenerate policy: full brake, straight wheels."""

    def act(self, world, goal, command, graph_cfg) -> Action:
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


POOL_CHUNKSIZE = 4  # episodes per task chunk sent to a pool worker


def pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for `n_tasks` episodes mapped in POOL_CHUNKSIZE chunks:
    `jobs`, capped at the chunk count; 1 or less means run serially."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, -(-n_tasks // POOL_CHUNKSIZE))


# Arguments every episode of one pool shares (controller, configs, flags), set
# once per worker by the pool initializer so the per-chunk tasks stay small.
_worker_shared: tuple = ()


def _init_worker(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _run_task(controller, base_cfg: ScenarioConfig, graph_cfg: GraphConfig,
              noise: NoiseParams | None, record_samples: bool, record_trajectory: bool,
              task) -> EpisodeRecord:
    command, density, seed = task
    cfg = replace(base_cfg, command=command, density=density)
    return run_episode(cfg, seed, controller, graph_cfg, record_samples=record_samples,
                       record_trajectory=record_trajectory, noise=noise)


def _run_shared(task) -> EpisodeRecord:
    """_run_task with the arguments _init_worker stored in this worker."""
    return _run_task(*_worker_shared, task)


def run_episodes(controller, base_cfg: ScenarioConfig, graph_cfg: GraphConfig, tasks,
                 jobs: int = 1, noise: NoiseParams | None = None, record_samples: bool = False,
                 record_trajectory: bool = False) -> list[EpisodeRecord]:
    """One episode of `base_cfg` per (command, density, seed) task, with that
    command and density; the records come back in task order. With `jobs` > 1
    the tasks are mapped over worker processes in POOL_CHUNKSIZE chunks."""
    shared = (controller, base_cfg, graph_cfg, noise, record_samples, record_trajectory)
    workers = pool_size(jobs, len(tasks))
    if workers <= 1:
        return [_run_task(*shared, task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=shared) as pool:
        return list(pool.map(_run_shared, tasks, chunksize=POOL_CHUNKSIZE))


def collect_dataset(
    base_cfg: ScenarioConfig,
    graph_cfg: GraphConfig,
    expert_params: ExpertParams,
    episodes_per_command: int,
    base_seed: int,
    densities: dict | None = None,
    jobs: int = 1,
    noise: NoiseParams | None = NoiseParams(),
) -> tuple[DemoDataset, dict]:
    """Per-command buffers of expert episodes, failed ones kept, and the expert's
    outcome counts per command; the success rates go into the dataset's manifest.
    The expert keeps no state, so one instance drives every episode."""
    densities = densities or TRAIN_DENSITIES
    tasks = [(command, densities[command], base_seed + ci * episodes_per_command + i)
             for ci, command in enumerate(COMMANDS) for i in range(episodes_per_command)]
    expert = ExpertController(expert_params, base_cfg.vehicle, base_cfg.tracking)
    records = run_episodes(expert, base_cfg, graph_cfg, tasks, jobs=jobs, noise=noise,
                           record_samples=True)

    dataset = DemoDataset()
    outcomes = {c.value: {tag.value: 0 for tag in OutcomeTag} for c in COMMANDS}
    for record in records:
        dataset.buffers[record.command].extend(record.samples)
        outcomes[record.command.value][record.outcome.tag.value] += 1
    rates = {c: 100.0 * counts[OutcomeTag.SUCCESS.value] / max(1, episodes_per_command)
             for c, counts in outcomes.items()}
    dataset.manifest = {
        "schema_version": SCHEMA_VERSION,
        "base_seed": base_seed,
        "episodes_per_command": episodes_per_command,
        "densities": {c.value: densities[c] for c in COMMANDS},
        "counts": dataset.counts(),
        "expert_success_rate_pct": rates,
        **graph_cfg.feature_settings(),
        # stored features are raw physical units; policy networks divide by
        # fixed characteristic scales (see policies.BLOCK_SCALE) at their input
        "inputs_normalized": False,
        "network_feature_scale": {"distance_m": 20.0, "speed_mps": 5.0},
    }
    return dataset, outcomes


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
    labels, tasks = [], []
    for setup, density in setups:
        for command in commands:
            for _ in range(trials_per_cell):
                labels.append(setup)
                tasks.append((command, density, base_seed + len(tasks)))
    records = run_episodes(policy, base_cfg, graph_cfg, tasks, jobs=jobs,
                           record_trajectory=trajectory_dir is not None)

    results = []
    for setup, record in zip(labels, records):
        results.append(TrialResult(setup=setup, command=record.command, seed=record.seed,
                                   outcome=record.outcome))
        if trajectory_dir is not None:
            write_trajectory_csv(Path(trajectory_dir) / results[-1].trajectory_name,
                                 record.trajectory)

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
        run = train(dataset, replace(train_config, graph=strat_graph))
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
