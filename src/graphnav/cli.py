"""Command-line entry point: collect, train, eval, ablate, replay, gradcheck."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint
from .config import (ConfigError, expert_params, graph_config, key_check, load_config,
                     noise_params, scenario_config, train_config, train_densities)
from .dataset import BUFFER_FILES, DatasetFormatError, read_dataset, write_dataset
from .evaluation import (POOL_CHUNKSIZE, AlwaysBrake, REFERENCE_TRIALS, collect_dataset,
                         format_ablation, format_report, outcome_counts, run_ablation,
                         run_episodes, run_suite, write_ablation_csv, write_actions_csv,
                         write_suite_csv, write_trajectory_csv, write_trials_csv)
from .graph import EdgeStrategyKind
from .gradcheck import run_policy_check
from .jsontypes import config_hash
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
    """argparse type that takes config `key`'s range check."""
    return _int_flag(key_check(key))


_worker_count = _int_flag((lambda v: v >= 1, "at least 1"))


def _strategy_kinds(text: str) -> list:
    """argparse type for a comma-separated list of edge strategy names, each
    stripped of surrounding whitespace; an unknown name is a usage error."""
    kinds = []
    for name in text.split(","):
        try:
            kinds.append(EdgeStrategyKind(name.strip()))
        except ValueError:
            raise argparse.ArgumentTypeError(f"unknown edge strategy {name.strip()!r}") from None
    return kinds


def _config_flag(parser, flag: str, key: str, **kwargs) -> None:
    """A flag that overrides config `key`: the key's dotted name is its dest,
    and it takes the key's range check unless it lists its `choices`."""
    if "choices" not in kwargs:
        kwargs.update(type=_flag_for(key), metavar=flag.lstrip("-").upper())
    parser.add_argument(flag, dest=key, **kwargs)


def _overrides(args) -> dict:
    """`load_config` overrides from every config flag given: {section: {key: value}}."""
    overrides = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    return overrides


def _add_common(parser, jobs: bool = False) -> None:
    """--config and --out; --jobs only for the subcommands that fan episodes out."""
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    if jobs:
        parser.add_argument("--jobs", type=_worker_count, default=1,
                            help="episode worker processes (1 = serial), capped at the number "
                                 f"of {POOL_CHUNKSIZE}-episode chunks")


def cmd_collect(args, cfg: dict, out: Path) -> tuple:
    base_seed, episodes = cfg["train"]["seed"], cfg["train"]["episodes_per_command"]
    dataset, outcomes = collect_dataset(
        scenario_config(cfg, mode="train"), graph_config(cfg), expert_params(cfg),
        episodes_per_command=episodes, base_seed=base_seed,
        densities=train_densities(cfg), jobs=args.jobs, noise=noise_params(cfg), out_dir=out,
    )
    dataset.manifest["config_hash"] = config_hash(cfg)
    write_started = time.perf_counter()
    buffers = write_dataset(dataset, out)
    write_s = time.perf_counter() - write_started  # what is left to write after collect returns
    rates = dataset.manifest["expert_success_rate_pct"]
    for command, rate in rates.items():
        print(f"expert success rate [{command}]: {rate:.1f}%")
    print(f"wrote {dataset.total()} samples to {out}")
    counters = {"outcomes": outcomes, "dataset_write_s": write_s, "dataset_buffers": buffers}
    return ({"base_seed": base_seed, "episodes_per_command": episodes},
            [out / name for name in [*BUFFER_FILES.values(), "manifest.json"]],
            {"expert_success_rate_pct": rates, "counters": counters})


def cmd_train(args, cfg: dict, out: Path) -> tuple:
    dataset = read_dataset(args.dataset)
    run = train(dataset, train_config(cfg), out_dir=out, resume=args.resume)
    final = run.history[-1]["mean_loss"] if run.history else None
    print(f"trained {run.steps} steps, final minibatch loss "
          f"{float('nan') if final is None else final:.6f}")
    print(f"checkpoint: {out / 'checkpoint_final.json'}")
    return ({"seed": cfg["train"]["seed"]}, [*run.checkpoint_paths, out / "loss.csv"],
            {"steps": run.steps, "counters": run.counters, "step_loop": run.step_loop,
             "final_loss": final})


def cmd_eval(args, cfg: dict, out: Path) -> tuple:
    trials, base_seed = cfg["eval"]["trials"], cfg["eval"]["base_seed"]
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
        files.extend(trajectory_dir / r.trajectory_name for r in results)
    return ({"base_seed": base_seed, "trials_per_cell": trials}, files,
            {"counters": {"outcomes": {setup: outcome_counts(r for r in results if r.setup == setup)
                                       for setup in dict.fromkeys(r.setup for r in results)}}})


def cmd_ablate(args, cfg: dict, out: Path) -> tuple:
    dataset = read_dataset(args.dataset)
    base_seed = cfg["eval"]["base_seed"]
    graph_cfg = graph_config(cfg)
    strategies = [replace(graph_cfg.strategy, kind=kind) for kind in args.strategies]
    rows, _ = run_ablation(dataset, strategies, train_config(cfg),
                           scenario_config(cfg, mode="eval"), graph_cfg,
                           trials=args.trials, base_seed=base_seed, jobs=args.jobs)
    write_ablation_csv(rows, out / "ablation.csv")
    print(format_ablation(rows))
    return {"base_seed": base_seed, "trials": args.trials}, [out / "ablation.csv"], None


def cmd_replay(args, cfg: dict, out: Path) -> tuple:
    loaded = load_checkpoint(args.checkpoint, expected_kind=args.network)
    policy = NetworkController(loaded.network)
    (record,) = run_episodes(policy, scenario_config(cfg, mode="eval"), loaded.graph,
                             [(Command(args.command), cfg["traffic"]["density"], args.seed)],
                             record_trajectory=True)
    actions_path = out / "actions.csv"
    write_actions_csv(actions_path, record.trajectory)
    trajectory_path = out / "trajectory.csv"
    write_trajectory_csv(trajectory_path, record.trajectory)
    print(f"outcome: {record.outcome.tag.value} after {record.outcome.elapsed:.1f} s "
          f"({record.outcome.steps} steps)")
    return ({"seed": args.seed}, [actions_path, trajectory_path],
            {"outcome": record.outcome.tag.value, "command": args.command})


def cmd_gradcheck(args) -> int:
    worst = 0.0
    kinds = [args.network] if args.network else list(NETWORK_KINDS)
    for kind in kinds:
        err = run_policy_check(kind, seed=args.seed)
        print(f"gradcheck {kind}: max relative error {err:.3e}")
        worst = max(worst, err)
    if worst > GRADCHECK_TOLERANCE:
        raise VerificationFailure(f"max relative error {worst:.3e} exceeds {GRADCHECK_TOLERANCE:.0e}")
    print("gradcheck passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A flag whose dest is a dotted config key overrides that key; the other
    flags that take a key's range check only borrow it."""
    parser = argparse.ArgumentParser(prog="graphnav",
                                     description="intersection navigation policies: "
                                                 "collect, train, evaluate, ablate")
    parser.add_argument("--version", action="version", version=f"graphnav {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("collect", help="record expert demonstrations")
    _add_common(p, jobs=True)
    _config_flag(p, "--episodes", "train.episodes_per_command", help="episodes per command")
    _config_flag(p, "--seed", "train.seed", help="base seed")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="behavior-clone a policy from a dataset")
    _add_common(p)
    p.add_argument("--dataset", type=Path, required=True, help="dataset directory")
    _config_flag(p, "--network", "train.network", choices=NETWORK_KINDS)
    _config_flag(p, "--strategy", "graph.strategy", choices=[k.value for k in EdgeStrategyKind],
                 help="train under this edge strategy")
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to resume from")
    _config_flag(p, "--seed", "train.seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the seeded evaluation suite")
    _add_common(p, jobs=True)
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint path, or 'always-brake' for the degenerate baseline")
    p.add_argument("--network", choices=NETWORK_KINDS, default=None,
                   help="require this network kind in the checkpoint")
    _config_flag(p, "--trials", "eval.trials", help="trials per cell")
    _config_flag(p, "--seed", "eval.base_seed", help="base seed")
    p.add_argument("--dump-trajectories", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="retrain and evaluate per edge strategy")
    _add_common(p, jobs=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--strategies", type=_strategy_kinds, default=list(EdgeStrategyKind),
                   help="comma-separated strategy names")
    p.add_argument("--trials", type=_flag_for("eval.trials"), default=REFERENCE_TRIALS,
                   help="trials per cell")
    _config_flag(p, "--seed", "eval.base_seed")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("replay", help="re-run one seeded trial and dump action curves")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--network", choices=NETWORK_KINDS, default=None)
    p.add_argument("--command", choices=[c.value for c in Command], default="forward")
    _config_flag(p, "--density", "traffic.density")
    p.add_argument("--seed", type=_flag_for("eval.base_seed"), required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gradcheck", help="finite-difference check of policy gradients")
    p.add_argument("--network", choices=NETWORK_KINDS, default=None)
    p.add_argument("--seed", type=_flag_for("train.seed"), default=0)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Each but gradcheck, which writes nothing, runs as
    cmd_*(args, cfg, out) in the effective config (defaults, --config, then the
    config flags) and returns the (seeds, files, extra) of its run manifest."""
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "gradcheck":
            return cmd_gradcheck(args)
        cfg = load_config(args.config, _overrides(args))
        started = now_utc()
        args.out.mkdir(parents=True, exist_ok=True)
        seeds, files, extra = args.func(args, cfg, args.out)
        write_manifest(args.out, args.subcommand, cfg, seeds, files, started, extra=extra)
        return EXIT_OK
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
