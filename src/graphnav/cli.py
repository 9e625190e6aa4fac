"""Command-line entry point: collect, train, eval, ablate, replay, gradcheck."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint
from .config import (ConfigError, config_hash, expert_params, graph_config, key_check,
                     load_config, noise_params, scenario_config, train_config, train_densities)
from .dataset import BUFFER_FILES, DatasetFormatError, read_dataset, write_dataset
from .evaluation import (AlwaysBrake, REFERENCE_TRIALS, collect_dataset, format_report,
                         run_ablation, run_episodes, run_suite, write_ablation_csv,
                         write_actions_csv, write_suite_csv, write_trajectory_csv,
                         write_trials_csv)
from .graph import EdgeStrategyKind
from .gradcheck import run_policy_check
from .layout import Command
from .manifest import now_utc, write_manifest
from .policies import NETWORK_KINDS, NetworkController
from .training import TrainingError, train
from .world import ScenarioError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFICATION = 4

GRADCHECK_TOLERANCE = 1e-4


class VerificationFailure(RuntimeError):
    pass


def _int_flag(check):
    """argparse type for an integer flag with a (predicate, requirement)
    range check; a bad value is a usage error (exit 2) naming the flag,
    raised before any output is written."""
    predicate, requirement = check

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not predicate(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    return parse


def _flag_for(key: str):
    """argparse type for a flag that stands in for config `key`: its range check."""
    return _int_flag(key_check(key))


_worker_count = _int_flag((lambda v: v >= 1, "at least 1"))


def _add_common(parser, jobs: bool = False) -> None:
    """--config and --out; --jobs only for the subcommands that fan episodes out."""
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    if jobs:
        parser.add_argument("--jobs", type=_worker_count, default=1,
                            help="episode worker processes (1 = serial), capped at the number "
                                 "of 4-episode chunks")


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_collect(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    started = now_utc()
    out = _ensure_out(args)
    base_seed = cfg["train"]["seed"]
    episodes = args.episodes if args.episodes is not None else cfg["train"]["episodes_per_command"]
    scenario = scenario_config(cfg, mode="train")
    dataset, rates = collect_dataset(
        scenario, graph_config(cfg), expert_params(cfg),
        episodes_per_command=episodes, base_seed=base_seed,
        densities=train_densities(cfg), jobs=args.jobs, noise=noise_params(cfg),
    )
    dataset.manifest["config_hash"] = config_hash(cfg)
    manifest_path = write_dataset(dataset, out)
    for command, rate in rates.items():
        print(f"expert success rate [{command}]: {rate:.1f}%")
    files = [out / name for name in BUFFER_FILES.values()] + [manifest_path]
    write_manifest(out, "collect", cfg, {"base_seed": base_seed, "episodes_per_command": episodes},
                   files, started, extra={"expert_success_rate_pct": rates})
    print(f"wrote {dataset.total()} samples to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {}
    if args.network is not None:
        overrides = {"train": {"network": args.network}}
    cfg = load_config(args.config, overrides)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    started = now_utc()
    out = _ensure_out(args)
    dataset = read_dataset(args.dataset)
    tcfg = train_config(cfg)
    if args.strategy is not None:
        strategy = replace(graph_config(cfg).strategy, kind=EdgeStrategyKind(args.strategy))
        tcfg = replace(tcfg, graph=replace(tcfg.graph, strategy=strategy), reencode=True)
    run = train(dataset, tcfg, out_dir=out, resume=args.resume)
    files = list(out.glob("checkpoint_*.json")) + [out / "loss.csv"]
    write_manifest(out, "train", cfg, {"seed": tcfg.seed}, files, started,
                   extra={"steps": run.steps, "counters": run.counters, "step_loop": run.step_loop,
                          "final_loss": run.history[-1]["mean_loss"] if run.history else None})
    final = run.history[-1]["mean_loss"] if run.history else float("nan")
    print(f"trained {run.steps} steps, final minibatch loss {final:.6f}")
    print(f"checkpoint: {out / 'checkpoint_final.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    started = now_utc()
    out = _ensure_out(args)
    trials = args.trials if args.trials is not None else cfg["eval"]["trials"]
    base_seed = args.seed if args.seed is not None else cfg["eval"]["base_seed"]
    if args.checkpoint == "always-brake":
        policy = AlwaysBrake()
        graph_cfg = graph_config(cfg)
        method = "always-brake"
    else:
        loaded = load_checkpoint(args.checkpoint, expected_kind=args.network)
        policy = NetworkController(loaded.network)
        graph_cfg = loaded.graph
        method = loaded.network.kind
    scenario = scenario_config(cfg, mode="eval")
    trajectory_dir = None
    if args.dump_trajectories:
        trajectory_dir = out / "trajectories"
        trajectory_dir.mkdir(exist_ok=True)
    report, results = run_suite(policy, scenario, graph_cfg, trials, base_seed,
                                jobs=args.jobs, method=method, trajectory_dir=trajectory_dir)
    write_suite_csv(report, out / "suite_report.csv")
    write_trials_csv(results, out / "trials.csv")
    print(format_report(report))
    files = [out / "suite_report.csv", out / "trials.csv"]
    if trajectory_dir is not None:
        files.extend(sorted(trajectory_dir.glob("*.csv")))
    write_manifest(out, "eval", cfg, {"base_seed": base_seed, "trials_per_cell": trials},
                   files, started)
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    started = now_utc()
    out = _ensure_out(args)
    dataset = read_dataset(args.dataset)
    trials = args.trials if args.trials is not None else REFERENCE_TRIALS
    base_seed = args.seed if args.seed is not None else cfg["eval"]["base_seed"]
    strategy_names = args.strategies.split(",") if args.strategies else [k.value for k in EdgeStrategyKind]
    graph_cfg = graph_config(cfg)
    strategies = []
    for name in strategy_names:
        try:
            kind = EdgeStrategyKind(name.strip())
        except ValueError:
            raise ConfigError(f"unknown edge strategy {name!r}") from None
        strategies.append(replace(graph_cfg.strategy, kind=kind))
    rows, _ = run_ablation(dataset, strategies, train_config(cfg),
                           scenario_config(cfg, mode="eval"), graph_cfg,
                           trials=trials, base_seed=base_seed, jobs=args.jobs)
    write_ablation_csv(rows, out / "ablation.csv")
    print(f"{'strategy':20} {'SR%':>8} {'CR%':>8} {'time(s)':>8}   reference SR/CR/time")
    for row in rows:
        nav = "NA" if row["mean_nav_time_s"] is None else f"{row['mean_nav_time_s']:.2f}"
        ref = "/".join("NA" if row[f"ref_{name}"] is None else str(row[f"ref_{name}"])
                       for name in ("success_rate_pct", "collision_rate_pct", "mean_nav_time_s"))
        print(f"{row['strategy']:20} {row['success_rate_pct']:8.2f} "
              f"{row['collision_rate_pct']:8.2f} {nav:>8}   {ref}")
    write_manifest(out, "ablate", cfg, {"base_seed": base_seed, "trials": trials},
                   [out / "ablation.csv"], started)
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = load_config(args.config)
    started = now_utc()
    out = _ensure_out(args)
    loaded = load_checkpoint(args.checkpoint, expected_kind=args.network)
    policy = NetworkController(loaded.network)
    (record,) = run_episodes(policy, scenario_config(cfg, mode="eval"), loaded.graph,
                             [(Command(args.command), args.density, args.seed)],
                             record_trajectory=True)
    actions_path = out / "actions.csv"
    write_actions_csv(actions_path, record.trajectory)
    trajectory_path = out / "trajectory.csv"
    write_trajectory_csv(trajectory_path, record.trajectory)
    print(f"outcome: {record.outcome.tag.value} after {record.outcome.elapsed:.1f} s "
          f"({record.outcome.steps} steps)")
    write_manifest(out, "replay", cfg, {"seed": args.seed}, [actions_path, trajectory_path],
                   started, extra={"outcome": record.outcome.tag.value})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst = 0.0
    kinds = [args.network] if args.network else list(NETWORK_KINDS)
    for kind in kinds:
        err = run_policy_check(kind, seed=args.seed if args.seed is not None else 0)
        print(f"gradcheck {kind}: max relative error {err:.3e}")
        worst = max(worst, err)
    if worst > GRADCHECK_TOLERANCE:
        raise VerificationFailure(f"max relative error {worst:.3e} exceeds {GRADCHECK_TOLERANCE:.0e}")
    print("gradcheck passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphnav",
                                     description="intersection navigation policies: "
                                                 "collect, train, evaluate, ablate")
    parser.add_argument("--version", action="version", version=f"graphnav {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("collect", help="record expert demonstrations")
    _add_common(p, jobs=True)
    p.add_argument("--episodes", type=_flag_for("train.episodes_per_command"), default=None,
                   help="episodes per command")
    p.add_argument("--seed", type=_flag_for("train.seed"), default=None, help="base seed")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="behavior-clone a policy from a dataset")
    _add_common(p)
    p.add_argument("--dataset", type=Path, required=True, help="dataset directory")
    p.add_argument("--network", choices=NETWORK_KINDS, default=None)
    p.add_argument("--strategy", choices=[k.value for k in EdgeStrategyKind], default=None,
                   help="re-encode adjacencies under this edge strategy")
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to resume from")
    p.add_argument("--seed", type=_flag_for("train.seed"), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the seeded evaluation suite")
    _add_common(p, jobs=True)
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint path, or 'always-brake' for the degenerate baseline")
    p.add_argument("--network", choices=NETWORK_KINDS, default=None,
                   help="require this network kind in the checkpoint")
    p.add_argument("--trials", type=_flag_for("eval.trials"), default=None, help="trials per cell")
    p.add_argument("--seed", type=_flag_for("eval.base_seed"), default=None, help="base seed")
    p.add_argument("--dump-trajectories", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="retrain and evaluate per edge strategy")
    _add_common(p, jobs=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--strategies", default=None, help="comma-separated strategy names")
    p.add_argument("--trials", type=_flag_for("eval.trials"), default=None)
    p.add_argument("--seed", type=_flag_for("eval.base_seed"), default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("replay", help="re-run one seeded trial and dump action curves")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--network", choices=NETWORK_KINDS, default=None)
    p.add_argument("--command", choices=[c.value for c in Command], default="forward")
    p.add_argument("--density", type=_flag_for("traffic.density"), default=3)
    p.add_argument("--seed", type=_flag_for("eval.base_seed"), required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gradcheck", help="finite-difference check of policy gradients")
    p.add_argument("--network", choices=NETWORK_KINDS, default=None)
    p.add_argument("--seed", type=_flag_for("train.seed"), default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (CheckpointError, DatasetFormatError, ScenarioError, TrainingError,
            FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
