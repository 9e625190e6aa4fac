"""Rebuild the frozen evaluation inputs that the eval workloads read.

    python3 perfbench/make_frozen.py checkpoint   # -> data/gcil_frozen.json.gz + data/frozen.json
    python3 perfbench/make_frozen.py golden       # -> data/golden_trials.csv

`checkpoint` follows the acceptance-7 recipe through the CLI
(`collect --episodes 100 --seed 0`, then a default `train`) and keeps a
params-only copy of the final gcil checkpoint, gzipped with a zero mtime so
the stored bytes depend only on the weights. `golden` evaluates that frozen
policy with `--jobs 1` and stores one outcome row per (setup, command, seed):
the default eval grid (70 trials per cell from seed 10000) plus every trial
that the eval workloads run for workload seeds 0..GOLDEN_SEEDS-1.
Both steps write into a scratch directory under the checkout and remove it.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import shutil
import sys

import common

GOLDEN_SEEDS = 64
TRIAL_FIELDS = ["setup", "command", "seed", "outcome", "elapsed_s", "steps", "nav_time_s"]


def trial_row(result) -> dict:
    """A TrialResult rendered exactly as evaluation.write_trials_csv renders it."""
    nav = "" if result.nav_time is None else repr(result.nav_time)
    return {"setup": result.setup, "command": result.command.value, "seed": str(result.seed),
            "outcome": result.outcome.tag.value, "elapsed_s": repr(result.outcome.elapsed),
            "steps": str(result.outcome.steps), "nav_time_s": nav}


def build_checkpoint() -> None:
    from graphnav.checkpoint import load_checkpoint, save_checkpoint
    from graphnav.cli import main

    work = common.fresh_dir(common.WORK / "frozen")
    try:
        recipe = [["collect", "--out", str(work / "data"), "--episodes", "100", "--seed", "0"],
                  ["train", "--dataset", str(work / "data"), "--out", str(work / "gcil")]]
        for argv in recipe:
            if main(argv) != 0:
                raise SystemExit(f"graphnav {' '.join(argv)} failed")
        loaded = load_checkpoint(work / "gcil" / "checkpoint_final.json")
        plain = save_checkpoint(work / "frozen.json", loaded.network, loaded.graph)
        raw = plain.read_bytes()
        common.FROZEN_GZ.write_bytes(gzip.compress(raw, mtime=0))
        meta = {
            "recipe": ["graphnav " + " ".join(argv).replace(str(work), "<work>")
                       for argv in recipe],
            "params_only": True,
            "sha256": hashlib.sha256(raw).hexdigest(),
            "bytes": len(raw),
            "gz_bytes": common.FROZEN_GZ.stat().st_size,
            "environment": common.environment(),
        }
        common.FROZEN_META.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        print(json.dumps(meta, indent=2, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def build_golden() -> None:
    from graphnav.checkpoint import load_checkpoint
    from graphnav.cli import main
    from graphnav.config import load_config, scenario_config
    from graphnav.evaluation import SETUPS, run_suite
    from graphnav.layout import COMMANDS
    from graphnav.policies import NetworkController

    work = common.fresh_dir(common.WORK / "golden")
    try:
        ckpt = common.unpack_frozen(work)
        if main(["eval", "--checkpoint", str(ckpt), "--out", str(work / "default")]) != 0:
            raise SystemExit("default eval failed")
        rows = {}
        with open(work / "default" / "trials.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                rows[common.trial_key(row)] = row
        # Trial i of cell c runs seed base + c * T + i, so workload seeds
        # 0..GOLDEN_SEEDS-1 touch seeds c*T .. c*T + T + GOLDEN_SEEDS - 2 of cell c.
        loaded = load_checkpoint(ckpt)
        policy = NetworkController(loaded.network)
        scenario = scenario_config(load_config(None), mode="eval")
        t = common.EVAL_TRIALS_PER_CELL
        for c, (setup, command) in enumerate((s, cmd) for s in SETUPS for cmd in COMMANDS):
            _, results = run_suite(policy, scenario, loaded.graph, t + GOLDEN_SEEDS - 1, c * t,
                                   setups=(setup,), commands=(command,))
            for r in results:
                row = trial_row(r)
                rows[common.trial_key(row)] = row
        with open(common.GOLDEN_CSV, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TRIAL_FIELDS, lineterminator="\n")
            writer.writeheader()
            for key in sorted(rows):
                writer.writerow(rows[key])
        print(f"wrote {len(rows)} golden trials to {common.GOLDEN_CSV}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    common.import_graphnav()
    steps = {"checkpoint": build_checkpoint, "golden": build_golden}
    if len(sys.argv) != 2 or sys.argv[1] not in steps:
        raise SystemExit(f"usage: python3 perfbench/make_frozen.py {{{','.join(steps)}}}")
    steps[sys.argv[1]]()
