"""graphnav benchmark.

    python3 perfbench/run.py --workload {collect,train,eval,eval_jobs2} \
        --seed N --seconds S --trace {0,1}

Every workload is a single-process closed loop: one client runs the real
user path, `graphnav.cli.main([...])`, one repeat after another until
--seconds have passed (at least two repeats), with identical inputs in every
repeat so their outputs must be byte-identical. --seed is passed to the
CLI's --seed. With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json, timed in host-adjusted seconds (common.adjusted:
each unit of work is scaled by a fixed reference loop timed right before
it); with --trace 1 repeats alternate untraced and traced, and it carries
the per-layer metrics, each a per-repeat median.
Human-readable metrics, digests, checks, the environment block and the
host calibration are printed above that line and kept in
.perfbench_work/<run>/result.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import common
from tracer import Probes, Tracer

WORKLOADS = ("collect", "train", "eval", "eval_jobs2")
NETWORKS = ("gcil", "nncil", "setcil")
COLLECT_EPISODES = 10   # per command, per repeat
TRAIN_EPISODES = 5      # per command, in the dataset setup collects
TRAIN_STEPS = 40        # per network, at the default batch size of 512
SETUP_ROUNDS = {"collect": 5, "train": 5, "eval": 7, "eval_jobs2": 7}
BUFFERS = ("forward.jsonl", "turn_left.jsonl", "turn_right.jsonl")


class ProgramFailure(RuntimeError):
    """graphnav exited non-zero or raised; no metrics are reported."""


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def import_probe() -> tuple[float, float]:
    """Seconds to import graphnav.cli in a fresh interpreter that has
    imported numpy already, and the median of ten reference loops timed
    around the import in that interpreter. numpy's own import (~0.1 s) is
    left out: no graphnav change can move it, and its time wanders with the
    host's I/O as no reference loop does."""
    code = ("import sys, time, statistics; sys.path.insert(0, sys.argv[2]); import numpy, common; "
            "refs = [common.reference_ns() for _ in range(5)]; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import graphnav.cli; dt = time.perf_counter() - t; "
            "refs += [common.reference_ns() for _ in range(5)]; print(dt, statistics.median(refs))")
    out = subprocess.run([sys.executable, "-c", code, str(common.SRC), str(common.HERE)],
                         capture_output=True, text=True, timeout=60, check=True)
    seconds, ref = out.stdout.split()
    return float(seconds), float(ref)


class Run:
    """One benchmark invocation: repeats, unit timings, checks and metrics."""

    def __init__(self, workload: str, bench, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.bench = bench  # the Collect, Train or Eval object
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = common.fresh_dir(common.WORK / f"{workload}-seed{seed}-trace{int(trace)}")
        self.log = open(self.dir / "cli.log", "w")
        self.probes = Probes()
        self.tracer = Tracer() if trace else None
        self.probes.tracer = self.tracer
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.repeats: list[dict] = []
        self.setup_s: list[tuple[float, float]] = []  # (adjusted, as measured) per round
        self.info: dict = {}

    # -- bookkeeping
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"check {'PASS' if ok else 'FAIL'}: {name}{' - ' + detail if detail else ''}")

    def cli(self, argv: list, units: int) -> tuple[bool, float]:
        """Run one CLI call; all of its units fail on a non-zero exit or an exception."""
        main = sys.modules["graphnav.cli"].main  # looked up late: the tracer may wrap it
        argv = [str(a) for a in argv]
        self.attempted += units
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.log):
                code = main(argv)
        except Exception:  # a crash of the program is a measured failure, not ours
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        if code != 0:
            self.failed += units
            print(f"graphnav {' '.join(argv)} -> exit {code}", file=sys.stderr)
        return code == 0, wall

    def timed_cli(self, argv: list, units: int) -> tuple[bool, float, list]:
        """A CLI call with per-episode unit timings."""
        path = self.dir / "units.txt"
        self.probes.open_units(path)
        try:
            ok, wall = self.cli(argv, units)
        finally:
            rows = self.probes.close_units(path)
        return ok, wall, rows

    # -- the loop
    def measure(self, workload) -> None:
        """Repeat 0 warms caches and is checked but not timed into metrics;
        then repeats run until the deadline, alternating untraced and traced
        ones under --trace 1, with at least one of each kind."""
        deadline = None
        i = 0
        while deadline is None or time.perf_counter() < deadline or i < (3 if self.trace else 2):
            traced = self.trace and i % 2 == 0 and i > 0
            if traced:
                self.tracer.reset()
                self.tracer.install()
            try:
                rep = workload.repeat(self, i)
            finally:
                if traced:
                    self.tracer.uninstall()
            rep["traced"] = traced
            rep["warmup"] = i == 0
            if traced:
                rep["layers"] = self.tracer.snapshot()
                rep["counters"] = dict(self.tracer.counters)
                rep["counters"]["evaluation.pool_payload_bytes"] = self.tracer.pool_payload_bytes()
            self.repeats.append(rep)
            if not rep["ok"]:
                return  # main reports the failure
            if i == 0:
                deadline = time.perf_counter() + self.seconds
            i += 1

    def discard_outputs(self) -> None:
        """Drop datasets and checkpoints; keep the record, the CLI log and spans."""
        for child in self.dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            elif child.name not in ("result.json", "cli.log", "spans.bin.gz", "spans.names"):
                child.unlink()

    def identical(self, key: str) -> None:
        """Every repeat's digests equal the first repeat's."""
        first = self.repeats[0][key]
        for i, rep in enumerate(self.repeats[1:], start=1):
            diff = sorted(k for k in first if rep[key].get(k) != first[k])
            self.check(f"repeat {i} {key} identical to repeat 0", not diff,
                       f"differs: {diff}" if diff else "")
        for name, digest in first.items():
            print(f"digest {name} {digest}")


def episode_parts(units: list) -> dict:
    """Per-episode seconds, reference-loop ns and env-steps keyed by episode seed."""
    return {"parts": {seed: ns / 1e9 for seed, _steps, ns, _ref in units},
            "refs": {seed: ref for seed, _steps, _ns, ref in units},
            "sizes": {seed: steps for seed, steps, _ns, _ref in units},
            "work": sum(steps for _seed, steps, _ns, _ref in units),
            "ref_s": sum(ref for _seed, _steps, _ns, ref in units) / 1e9}


def digests(directory: Path, names) -> dict:
    return {name: common.sha256_file(directory / name) if (directory / name).exists() else None
            for name in names}


def read_counts_check(run: Run, directory: Path) -> None:
    from graphnav.dataset import read_dataset
    manifest = json.loads((directory / "manifest.json").read_text())
    counts = read_dataset(directory).counts()
    run.check("read-back sample counts match manifest.json", counts == manifest["counts"],
              f"read {counts}, manifest {manifest['counts']}")


# -- workloads ---------------------------------------------------------------

class Collect:
    """Expert demonstrations, serial, default training densities 5/3/3."""

    def setup(self, run: Run) -> list:
        self.out = run.dir / "collect"
        return []

    def repeat(self, run: Run, i: int) -> dict:
        argv = ["collect", "--out", self.out, "--episodes", COLLECT_EPISODES, "--seed", run.seed,
                "--jobs", 1]
        ok, wall, units = run.timed_cli(argv, 3 * COLLECT_EPISODES)
        return dict(episode_parts(units), ok=ok, wall_s=wall, jobs=1,
                    digests=digests(self.out, BUFFERS + ("manifest.json",)))

    def finish(self, run: Run) -> None:
        run.identical("digests")
        read_counts_check(run, self.out)
        rates = json.loads((self.out / "manifest.json").read_text())["expert_success_rate_pct"]
        run.info["success_rate_pct"] = statistics.fmean(rates.values())
        run.info["expert_success_rate_pct"] = rates


class Train:
    """Behavior cloning of gcil, nncil and setcil on a dataset setup collects."""

    def setup(self, run: Run) -> list:
        """Returns the reference-loop times of the collection's episodes."""
        from graphnav.config import load_config
        self.data = run.dir / "data"
        ok, _, units = run.timed_cli(["collect", "--out", self.data, "--episodes",
                                      TRAIN_EPISODES, "--seed", run.seed], 3 * TRAIN_EPISODES)
        if not ok:
            raise ProgramFailure("graphnav collect failed in setup")
        self.batch = load_config()["train"]["batch_size"]
        self.total = sum(json.loads((self.data / "manifest.json").read_text())["counts"].values())
        # Seeds collect 4-6 batches per epoch; the epoch count keeps the
        # steps per network near TRAIN_STEPS, so that work is about equal.
        batches = -(-self.total // self.batch)
        epochs = max(1, round(TRAIN_STEPS / batches))
        self.steps = epochs * batches
        self.config = run.dir / "train_config.json"
        self.config.write_text(json.dumps({"train": {"epochs": epochs}}))
        return [ref for _seed, _steps, _ns, ref in units]

    def repeat(self, run: Run, i: int) -> dict:
        rep = {"ok": True, "wall_s": 0.0, "work": 0, "jobs": 1, "digests": {}, "parts": {},
               "refs": {}, "sizes": {}, "ref_s": 0.0}
        for net in NETWORKS:
            out = run.dir / f"train_{net}"
            shutil.rmtree(out, ignore_errors=True)
            run.probes.adam_entries.clear()
            ok, wall = run.cli(["train", "--dataset", self.data, "--out", out, "--network", net,
                                "--seed", run.seed, "--config", self.config], self.steps)
            entries = run.probes.adam_entries
            rep["ok"] &= ok
            rep["wall_s"] += wall
            rep["work"] += self.batch * len(entries)
            rep["ref_s"] += sum(ref for _t0, _t1, ref in entries) / 1e9
            # a unit runs from the end of one step's reference loop to the
            # start of the next step's
            for step, (a, b) in enumerate(zip(entries, entries[1:])):
                rep["parts"][f"{net}/{step}"] = (b[0] - a[1]) / 1e9
                rep["refs"][f"{net}/{step}"] = a[2]
                rep["sizes"][f"{net}/{step}"] = self.batch
            rep["digests"][f"{net}/checkpoint_final.json"] = digests(
                out, ["checkpoint_final.json"])["checkpoint_final.json"]
            if not ok:
                continue
            with open(out / "loss.csv", newline="") as fh:
                losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
            finite = len(losses) == self.steps and all(map(math.isfinite, losses))
            run.check(f"repeat {i} {net}: {len(losses)} finite train losses", finite)
        return rep

    def finish(self, run: Run) -> None:
        from graphnav.checkpoint import load_checkpoint, save_checkpoint
        from graphnav.nn import Adam
        run.identical("digests")
        read_counts_check(run, self.data)
        for net in NETWORKS:
            path = run.dir / f"train_{net}" / "checkpoint_final.json"
            loaded = load_checkpoint(path, expected_kind=net)
            opt = Adam.from_state_dict(loaded.optimizer_state, loaded.network.parameters())
            again = save_checkpoint(run.dir / f"resaved_{net}.json", loaded.network,
                                    loaded.graph, opt, loaded.train_state)
            run.check(f"{net} checkpoint save->load->save byte-identical",
                      again.read_bytes() == path.read_bytes())


class Eval:
    """The 3x3 setup x command grid driven by the frozen gcil checkpoint."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def setup(self, run: Run) -> list:
        from graphnav.checkpoint import load_checkpoint
        self.ckpt = common.unpack_frozen(run.dir)
        load_checkpoint(self.ckpt, expected_kind="gcil")
        self.out = run.dir / "eval"
        self.trials = 9 * common.EVAL_TRIALS_PER_CELL
        return []

    def argv(self, run: Run, out: Path, jobs: int) -> list:
        return ["eval", "--checkpoint", self.ckpt, "--out", out, "--jobs", jobs,
                "--trials", common.EVAL_TRIALS_PER_CELL, "--seed", run.seed]

    def repeat(self, run: Run, i: int) -> dict:
        ok, wall, units = run.timed_cli(self.argv(run, self.out, self.jobs), self.trials)
        if ok and len(units) != self.trials:
            run.check(f"repeat {i}: {len(units)} unit timings for {self.trials} trials", False)
        return dict(episode_parts(units), ok=ok, wall_s=wall, jobs=self.jobs,
                    digests=digests(self.out, ["trials.csv", "suite_report.csv"]))

    def finish(self, run: Run) -> None:
        from graphnav.checkpoint import load_checkpoint, save_checkpoint
        run.identical("digests")
        trials = read_trials(self.out / "trials.csv")
        suite_report_check(run, trials, self.out / "suite_report.csv")
        loaded = load_checkpoint(self.ckpt)
        again = save_checkpoint(run.dir / "resaved_frozen.json", loaded.network, loaded.graph)
        run.check("frozen checkpoint save->load->save byte-identical",
                  again.read_bytes() == self.ckpt.read_bytes())
        if self.jobs > 1:
            serial = run.dir / "eval_serial"
            ok, _ = run.cli(self.argv(run, serial, 1), self.trials)
            same = ok and (serial / "trials.csv").read_bytes() == (self.out / "trials.csv").read_bytes()
            run.check(f"--jobs {self.jobs} trials.csv identical to --jobs 1", same)
        n = len(trials)
        run.info["success_rate_pct"] = 100.0 * sum(r["outcome"] == "success" for r in trials) / n
        run.info["collision_rate_pct"] = 100.0 * sum(r["outcome"] == "collision" for r in trials) / n
        run.info["outcome_agreement_pct"] = golden_agreement(trials)


def read_trials(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def suite_report_check(run: Run, trials: list[dict], report: Path) -> None:
    """Rates in suite_report.csv equal rates recomputed from trials.csv."""
    cells = {}
    for row in trials:
        cells.setdefault((row["setup"], row["command"]), []).append(row["outcome"])
    bad = []
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["command"] == "AVG":
            keys = [k for k in cells if k[0] == row["setup"]]
        else:
            keys = [(row["setup"], row["command"])]
        for column, tag in (("success_rate_pct", "success"), ("collision_rate_pct", "collision")):
            rates = [100.0 * cells[k].count(tag) / len(cells[k]) for k in keys]
            if f"{statistics.fmean(rates):.2f}" != row[column]:
                bad.append(f"{row['setup']}/{row['command']}/{column}")
    run.check("suite_report.csv rates match trials.csv", bool(rows) and not bad,
              f"mismatched: {bad}" if bad else f"{len(rows)} rows")


def golden_agreement(trials: list[dict]):
    """Share of trials whose (outcome, steps) match the frozen golden, over
    trials the golden covers; None without coverage or at another BLAS
    thread count than the golden was made with."""
    meta = json.loads(common.FROZEN_META.read_text())
    if not common.GOLDEN_CSV.exists() or meta["environment"]["blas_threads"] != common.blas_threads():
        return None
    golden = {common.trial_key(r): r for r in read_trials(common.GOLDEN_CSV)}
    covered = [r for r in trials if common.trial_key(r) in golden]
    if not covered:
        return None
    same = sum((r["outcome"], r["steps"]) == (golden[common.trial_key(r)]["outcome"],
                                              golden[common.trial_key(r)]["steps"])
               for r in covered)
    return 100.0 * same / len(covered)


# -- metrics -----------------------------------------------------------------

def timed(run: Run) -> list[dict]:
    """Untraced repeats after the warm-up: the ones end-to-end metrics use."""
    return [r for r in run.repeats if not r["traced"] and not r["warmup"]]


def adjusted_units(reps: list[dict]) -> dict:
    """Each unit's seconds scaled by the reference loop timed right before
    it (common.adjusted), median over the repeats."""
    return {key: statistics.median(common.adjusted(r["parts"][key], r["refs"][key]) for r in reps)
            for key in reps[0]["parts"]}


def adjusted_outside(rep: dict) -> float:
    """A repeat's wall time outside its units and reference loops (load,
    write, manifest, pool start-up, idle workers), scaled by the repeat's
    median reference time. With a pool, units and loops overlap and count
    once per worker."""
    raw = rep["wall_s"] - (sum(rep["parts"].values()) + rep["ref_s"]) / rep["jobs"]
    return common.adjusted(raw, statistics.median(rep["refs"].values()))


def adjusted_wall(rep: dict) -> float:
    """A repeat's host-adjusted wall time without its reference loops."""
    units = sum(common.adjusted(t, rep["refs"][key]) for key, t in rep["parts"].items())
    return units / rep["jobs"] + adjusted_outside(rep)


def unit_figures(reps: list[dict], adjusted: bool) -> dict:
    """Per-unit quantiles in microseconds per work item (env-step or sample),
    from host-adjusted unit times (adjusted) or pooled over every run as
    measured."""
    if adjusted:
        samples = {k: [t] for k, t in adjusted_units(reps).items()}
    else:
        samples = {k: [r["parts"][k] for r in reps] for k in reps[0]["parts"]}
    sizes = reps[0]["sizes"]
    groups = {}
    for key, times in samples.items():
        group = key.split("/")[0] if isinstance(key, str) else "episode"
        groups.setdefault(group, []).extend(t * 1e6 / sizes[key] for t in times)
    return {g: (quantile(v, 0.5), quantile(v, 0.9)) for g, v in groups.items()}


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(end-to-end metrics, other human-readable figures)."""
    reps = timed(run)
    run.check("every timed repeat did the same work",
              all(r["work"] == reps[0]["work"] for r in reps), f"{reps[0]['work']} per repeat")
    # a repeat rebuilt from each unit's median and the median time outside them
    wall = (sum(adjusted_units(reps).values()) / reps[0]["jobs"]
            + statistics.median(adjusted_outside(r) for r in reps))
    throughput = reps[0]["work"] / wall
    adj, pooled = unit_figures(reps, True), unit_figures(reps, False)
    # train: the mean over networks of microseconds per sample
    p50 = statistics.fmean(q[0] for q in adj.values())
    metrics = {
        "throughput_per_s": (throughput, "1/s"),
        "unit_us.p50": (p50, "us"),
        "setup_s": (statistics.median(s for s, _raw in run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    alias = "samples_per_s" if run.workload == "train" else "env_steps_per_s"
    if run.workload == "train":
        extra = {alias: (throughput, "samples/s")}
        batch = run.bench.batch
        for net in NETWORKS:
            extra[f"{net}.step_ms.p50"] = (adj[net][0] * batch / 1e3, "ms")
            extra[f"{net}.step_ms.p90"] = (adj[net][1] * batch / 1e3, "ms")
            extra[f"{net}.step_ms.p50.raw"] = (pooled[net][0] * batch / 1e3, "ms")
    else:
        extra = {alias: (throughput, "steps/s"),
                 "step_us.p50": (p50, "us"), "step_us.p90": (adj["episode"][1], "us"),
                 "step_us.p50.raw": (pooled["episode"][0], "us"),
                 "step_us.p90.raw": (pooled["episode"][1], "us")}
    extra[f"{alias}.raw"] = (statistics.median(r["work"] / r["wall_s"] for r in reps), "1/s")
    extra["setup_s.raw"] = (statistics.median(raw for _s, raw in run.setup_s), "s")
    refs = [ref for r in reps for ref in r["refs"].values()]
    extra["host_slowdown"] = (statistics.median(refs) / common.REF_NOMINAL_NS, "ratio")
    extra["units_per_repeat"] = (len(reps[0]["parts"]), "count")
    extra["timed_repeats"] = (len(reps), "count")
    for key in ("success_rate_pct", "collision_rate_pct", "outcome_agreement_pct"):
        if key in run.info:
            extra[key] = (run.info[key], "%")
    extra["failed_frac"] = (run.failed / max(1, run.attempted), "ratio")
    return metrics, extra


def train_step_gflop(kind: str, batch: int, mean_n: float, mean_n2: float) -> float:
    """Computed GFLOP of one train step (forward + backward, matmuls only):
    a dense layer costs 6*rows*n_in*n_out, a GCN layer per sample
    4*N^2*n_in + 6*N*n_in*n_out."""
    from graphnav.policies import build_network
    flop = 0.0
    for name, w in build_network(kind, seed=0).parameters().items():
        if not name.endswith(".w"):
            continue
        n_in, n_out = w.shape
        if name.startswith("gcn."):
            flop += batch * (4 * mean_n2 * n_in + 6 * mean_n * n_in * n_out)
            continue
        rows = batch
        if name.startswith("encoder."):
            rows = batch * mean_n
        elif name.startswith("branch."):
            rows = batch / 3
        flop += 6 * rows * n_in * n_out
    return flop / 1e9


def per_layer(run: Run, spec: list) -> dict:
    """Per-repeat medians over traced repeats, keyed by BENCHMARK.json names."""
    traced = [r for r in run.repeats if r["traced"]]
    untraced = timed(run)

    def med(fn) -> float:
        return statistics.median(fn(r) for r in traced)

    values = {}
    for entry in spec:
        name = entry["name"]
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_ms", "errors") and span in traced[0]["layers"]:
            values[name] = med(lambda r, s=span, f=field: r["layers"][s][f])
        else:
            values[name] = med(lambda r, k=name: r["counters"].get(k, 0))
    vehicle_steps = values["vehicle.step_vehicle.calls"]
    values["geometry.Polyline.project.calls_per_vehicle_step"] = (
        values["geometry.Polyline.project.calls"] / vehicle_steps if vehicle_steps else 0.0)
    values["trace.spans"] = med(lambda r: sum(v["calls"] for v in r["layers"].values()))
    tput = [statistics.median(r["work"] / adjusted_wall(r) for r in group)
            for group in (untraced, traced)]
    values["trace.overhead_pct"] = 100.0 * (tput[0] / tput[1] - 1.0)
    for net in NETWORKS:
        gflop = rate = 0.0
        if run.workload == "train":
            w = run.bench
            gflop = train_step_gflop(net, w.batch, w.mean_n, w.mean_n2)
            rate = gflop / (unit_figures(untraced, True)[net][0] * w.batch / 1e6)
        values[f"nn.{net}.train_step_gflop"] = gflop
        values[f"nn.{net}.gflop_per_s"] = rate
    return values


def node_moments(directory: Path) -> tuple[float, float]:
    """Mean N and mean N^2 of node counts over a dataset's samples."""
    from graphnav.dataset import read_dataset
    sizes = [s.features.shape[0] for buf in read_dataset(directory).buffers.values() for s in buf]
    return statistics.fmean(sizes), statistics.fmean(n * n for n in sizes)


# -- entry point -------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    calibration_before = common.calibrate()
    try:
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        common.import_graphnav()
        import graphnav.cli  # noqa: F401  (the probes patch its bindings)
    except (OSError, ValueError, ImportError, common.BenchSetupError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2

    workload = {"collect": Collect(), "train": Train(), "eval": Eval(1),
                "eval_jobs2": Eval(2)}[args.workload]
    run = Run(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    env = common.environment()
    run.probes.install()
    try:
        for _ in range(SETUP_ROUNDS[args.workload]):
            # The import is scaled by the references timed around it in its
            # interpreter; the in-process part by the median of five
            # references before it, five after it and those of the episodes
            # within it.
            imported, imported_ref = import_probe()
            refs = [common.reference_ns() for _ in range(5)]
            t0 = time.perf_counter()
            inner = workload.setup(run)
            raw = time.perf_counter() - t0 - sum(inner) / 1e9
            refs += inner + [common.reference_ns() for _ in range(5)]
            run.setup_s.append((common.adjusted(imported, imported_ref)
                                + common.adjusted(raw, statistics.median(refs)), imported + raw))
        run.measure(workload)
        if not run.repeats[-1]["ok"]:
            raise ProgramFailure(f"graphnav failed in repeat {len(run.repeats) - 1}")
        workload.finish(run)
    except common.BenchSetupError as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    except ProgramFailure as exc:
        print(f"perfbench: {exc}; see {run.dir / 'cli.log'}", file=sys.stderr)
        return 1
    finally:
        run.probes.restore()
        run.log.close()
    if args.workload == "train" and run.trace:
        workload.mean_n, workload.mean_n2 = node_moments(workload.data)
    calibration_after = common.calibrate()

    e2e, extra = end_to_end(run)
    if run.trace:
        reported = per_layer(run, spec["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        run.tracer.write_spans(run.dir)
    else:
        reported = {k: v for k, (v, _unit) in e2e.items()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = sorted(set(units) - set(reported))
    if missing:
        raise SystemExit(f"perfbench: metrics listed in BENCHMARK.json but not computed: {missing}")
    metrics = {name: {"value": reported[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}: seed {args.seed}, {len(run.repeats)} repeats "
          f"({sum(r['traced'] for r in run.repeats)} traced), closed loop, 1 client")
    for name, (value, unit) in {**e2e, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28} {shown:>14} {unit}")
    if run.trace:
        for name, entry in metrics.items():
            print(f"  {name:52} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  host calibration loop: {calibration_before:.4f} s before, "
          f"{calibration_after:.4f} s after")
    print("environment: " + json.dumps(env, sort_keys=True))

    correct = run.failed == 0 and all(c["ok"] for c in run.checks)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  end_to_end={k: v for k, v in {**e2e, **extra}.items()},
                  checks=run.checks, environment=env,
                  calibration_s={"before": calibration_before, "after": calibration_after},
                  setup_rounds_s=[{"adjusted": a, "raw": r} for a, r in run.setup_s],
                  repeats=run.repeats)
    (run.dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    run.discard_outputs()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
