"""Seeded episode grids and their one process-pool fan-out: expert collection,
closed-loop trial suites and ablations, and their reports. `rates` makes a
cell's rates, `SuiteReport.rows` walks the grid for the suite CSV and the
printed table, and every CSV is written by `atomic.write_csv`."""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import atomic
from .atomic import write_csv
from .dataset import BUFFER_FILES, SCHEMA_VERSION, DemoDataset, write_behind
from .expert import ExpertController, ExpertParams
from .graph import GraphConfig
from .layout import COMMANDS, Command
from .policies import BLOCK_SCALE, NetworkController
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


RATES = ("success_rate_pct", "collision_rate_pct", "mean_nav_time_s")


def rates(results) -> dict:
    """One cell's RATES and trial count: the success and collision rates in
    percent, and the mean navigation time of its successful trials (None,
    rendered NA, when none succeeded). A result is anything with an
    `outcome`: a trial result or an episode record."""
    results = list(results)
    if not results:
        raise ValueError("rates need at least one trial")
    tags = [r.outcome.tag for r in results]
    times = [r.outcome.elapsed for r in results if r.outcome.tag is OutcomeTag.SUCCESS]
    return {"success_rate_pct": 100.0 * tags.count(OutcomeTag.SUCCESS) / len(results),
            "collision_rate_pct": 100.0 * tags.count(OutcomeTag.COLLISION) / len(results),
            "mean_nav_time_s": sum(times) / len(times) if times else None,
            "trials": len(results)}


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
    cells: dict            # (setup, command) -> rates() of that cell's trials
    base_seed: int
    method: str

    def rows(self):
        """(setup, command value or AVG, rates) in SETUPS x COMMANDS order: each
        cell there is, then, for a setup with every command, an AVG row whose
        rates are the means of its cells' (navigation time over the cells that
        have one) and whose trials are their sum."""
        for setup, _density in SETUPS:
            cells = {c.value: self.cells[(setup, c)] for c in COMMANDS if (setup, c) in self.cells}
            yield from ((setup, command, cell) for command, cell in cells.items())
            if len(cells) == len(COMMANDS):
                nav = [r["mean_nav_time_s"] for r in cells.values() if r["mean_nav_time_s"] is not None]
                yield setup, "AVG", {
                    "success_rate_pct": sum(r["success_rate_pct"] for r in cells.values()) / 3.0,
                    "collision_rate_pct": sum(r["collision_rate_pct"] for r in cells.values()) / 3.0,
                    "mean_nav_time_s": sum(nav) / len(nav) if nav else None,
                    "trials": sum(r["trials"] for r in cells.values())}


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
                 record_trajectory: bool = False) -> Iterator[EpisodeRecord]:
    """One episode of `base_cfg` per (command, density, seed) task, with that
    command and density; the records are yielded in task order as they
    finish. With `jobs` > 1 the tasks are mapped over worker processes in
    POOL_CHUNKSIZE chunks, one pool for all of them, shut down before the
    generator ends."""
    shared = (controller, base_cfg, graph_cfg, noise, record_samples, record_trajectory)
    workers = pool_size(jobs, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield _run_task(*shared, task)
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=shared) as pool:
        yield from pool.map(_run_shared, tasks, chunksize=POOL_CHUNKSIZE)


def collect_dataset(
    base_cfg: ScenarioConfig,
    graph_cfg: GraphConfig,
    expert_params: ExpertParams,
    episodes_per_command: int,
    base_seed: int,
    densities: dict | None = None,
    jobs: int = 1,
    noise: NoiseParams | None = NoiseParams(),
    out_dir=None,
) -> tuple[DemoDataset, dict]:
    """Per-command buffers of expert episodes, failed ones kept, and the expert's
    outcome counts per command; the success rates go into the dataset's manifest.
    The expert keeps no state, so one instance drives every episode.

    Episodes run in COMMANDS order. With `out_dir`, where this process runs
    them itself (no pool: a fork would copy a pool's threads) and two CPUs
    are usable, each command's buffer but the last is handed to a forked
    writer into `out_dir` (`dataset.write_behind`) as soon as its last
    episode is in, so it is written while the next command's episodes run.
    Once the manifest is built every writer is reaped and its file moved
    into place, recorded in the dataset's `written`; `write_dataset` into
    `out_dir` writes the rest. If anything raises first, an interrupt
    included, every writer is killed and reaped and its file removed: no
    writer outlives the call."""
    densities = densities or TRAIN_DENSITIES
    tasks = [(command, densities[command], base_seed + ci * episodes_per_command + i)
             for ci, command in enumerate(COMMANDS) for i in range(episodes_per_command)]
    expert = ExpertController(expert_params, base_cfg.vehicle, base_cfg.tracking)
    behind = (out_dir is not None and pool_size(jobs, len(tasks)) <= 1
              and atomic.usable_cpus() > 1)
    dataset = DemoDataset()
    results = {c: [] for c in COMMANDS}
    writers = []
    try:
        for record in run_episodes(expert, base_cfg, graph_cfg, tasks, jobs=jobs, noise=noise,
                                   record_samples=True):
            dataset.buffers[record.command].extend(record.samples)
            results[record.command].append(record)
            if behind and record.command is not COMMANDS[-1] \
                    and len(results[record.command]) == episodes_per_command:
                path = Path(out_dir) / BUFFER_FILES[record.command]
                path.parent.mkdir(parents=True, exist_ok=True)
                writers.append(write_behind(path, dataset.buffers[record.command]))

        outcomes = {c.value: {tag.value: sum(r.outcome.tag is tag for r in results[c])
                              for tag in OutcomeTag} for c in COMMANDS}
        dataset.manifest = {
            "schema_version": SCHEMA_VERSION,
            "base_seed": base_seed,
            "episodes_per_command": episodes_per_command,
            "densities": {c.value: densities[c] for c in COMMANDS},
            "counts": dataset.counts(),
            "expert_success_rate_pct": {c.value: rates(results[c])["success_rate_pct"]
                                        for c in COMMANDS},
            **graph_cfg.feature_settings(),
            # stored features are raw physical units; policy networks divide
            # them by these fixed characteristic scales at their input
            "inputs_normalized": False,
            "network_feature_scale": {"distance_m": float(BLOCK_SCALE[0]),
                                      "speed_mps": float(BLOCK_SCALE[3])},
        }
        dataset.written = {writer.path: writer.finish() for writer in writers}
    finally:
        for writer in writers:
            writer.cancel()
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

    results, cells = [], {}
    for setup, record in zip(labels, records):
        results.append(TrialResult(setup=setup, command=record.command, seed=record.seed,
                                   outcome=record.outcome))
        cells.setdefault((setup, record.command), []).append(results[-1])
        if trajectory_dir is not None:
            write_trajectory_csv(Path(trajectory_dir) / results[-1].trajectory_name,
                                 record.trajectory)
    return SuiteReport({key: rates(cell) for key, cell in cells.items()}, base_seed,
                       method), results


def _fmt(value) -> str:
    return "NA" if value is None else f"{value:.2f}"


def _fixed(cell) -> list:
    """A cell's RATES to two places, NA for None, and its trials."""
    return [*(_fmt(cell[name]) for name in RATES), cell["trials"]]


def write_suite_csv(report: SuiteReport, path) -> None:
    write_csv(path, ("setup", "method", "command", *RATES, "trials", "base_seed"),
              ((setup, report.method, command, *_fixed(cell), report.base_seed)
               for setup, command, cell in report.rows()))


def write_trials_csv(results, path) -> None:
    write_csv(path, ("setup", "command", "seed", "outcome", "elapsed_s", "steps", "nav_time_s"),
              ((r.setup, r.command.value, r.seed, r.outcome.tag.value, r.outcome.elapsed,
                r.outcome.steps, r.nav_time) for r in results))


def write_trajectory_csv(path, rows) -> None:
    write_csv(path, ("step", "vehicle_id", "x", "y", "heading", "speed", "delta", "tau"), rows)


def write_actions_csv(path, rows) -> None:
    """The ego's (step, delta, tau) from trajectory rows."""
    write_csv(path, ("step", "delta", "tau"),
              ((row[0], row[6], row[7]) for row in rows if row[1] == 0))


def format_table(labels, rows) -> str:
    """A text table of `rows`, each its label columns then a rates dict: the
    labels left-aligned at the widths of `labels`' (name, width) pairs, then
    the RATES to two places, NA for None."""
    header = " ".join([f"{name:{width}}" for name, width in labels]
                      + [f"{name:>8}" for name in ("SR%", "CR%", "time(s)")])
    lines = [header, "-" * len(header)]
    for *names, cell in rows:
        lines.append(" ".join([f"{name:{width}}" for name, (_, width) in zip(names, labels)]
                              + [f"{_fmt(cell[rate]):>8}" for rate in RATES]))
    return "\n".join(lines)


def format_report(report: SuiteReport) -> str:
    return format_table((("setup", 8), ("command", 12)), report.rows())


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
        ref = REFERENCE_ABLATION.get(strategy.kind.value, {})
        rows.append({"strategy": strategy.kind.value, **report.cells[("hard", Command.FORWARD)],
                     **{f"ref_{name}": ref.get(name) for name in RATES}})
        networks[strategy.kind.value] = run.network
    return rows, networks


def write_ablation_csv(rows, path) -> None:
    write_csv(path, ("strategy", *RATES, "trials", *(f"ref_{name}" for name in RATES)),
              ((row["strategy"], *_fixed(row), *(_fmt(row[f"ref_{name}"]) for name in RATES))
               for row in rows))


def format_ablation(rows) -> str:
    """Per strategy, its rates in this run, then the reported reference's."""
    table = []
    for row in rows:
        table.append((row["strategy"], "this run", row))
        table.append((row["strategy"], "reported", {name: row[f"ref_{name}"] for name in RATES}))
    return format_table((("strategy", 20), ("source", 8)), table)
