import csv
import json
import shutil
from types import SimpleNamespace

import pytest

from graphnav.cli import main
from graphnav.config import load_config, train_config
from graphnav.dataset import read_dataset
from graphnav.training import provenance

TINY_CONFIG = {
    "train": {
        "episodes_per_command": 2,
        "epochs": 1,
        "batch_size": 32,
        "eval_every": 0,
        "densities": {"forward": 2, "turn_left": 2, "turn_right": 2},
    },
    "episode": {"timeout_s": 25.0},
    "eval": {"trials": 1},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    assert main(["collect", "--config", str(config), "--out", str(data), "--seed", "3"]) == 0
    run = root / "run"
    assert main(["train", "--config", str(config), "--dataset", str(data),
                 "--out", str(run)]) == 0
    return {"root": root, "config": config, "data": data, "run": run}


def test_collect_outputs(workdir):
    data = workdir["data"]
    for name in ("forward.jsonl", "turn_left.jsonl", "turn_right.jsonl", "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads((data / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "collect"
    assert set(manifest["files"]) >= {"forward.jsonl", "turn_left.jsonl", "turn_right.jsonl"}


def test_collect_rerun_identical_hashes(workdir, tmp_path):
    out2 = tmp_path / "data2"
    assert main(["collect", "--config", str(workdir["config"]), "--out", str(out2),
                 "--seed", "3"]) == 0
    m1 = json.loads((workdir["data"] / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert m1["config_hash"] == m2["config_hash"]


def test_train_outputs(workdir):
    run = workdir["run"]
    assert (run / "checkpoint_final.json").exists()
    with open(run / "loss.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 1
    assert set(rows[0]) == {"step", "mean_loss", "loss_forward", "loss_left",
                            "loss_right", "wall_clock_s"}


def test_train_network_flag_sets_checkpoint_kind(workdir, tmp_path):
    out = tmp_path / "nncil_run"
    assert main(["train", "--config", str(workdir["config"]), "--dataset",
                 str(workdir["data"]), "--out", str(out), "--network", "nncil"]) == 0
    doc = json.loads((out / "checkpoint_final.json").read_text())
    assert doc["kind"] == "nncil"


def test_eval_and_replay_agree(workdir, tmp_path):
    out = tmp_path / "eval"
    ckpt = workdir["run"] / "checkpoint_final.json"
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(out), "--trials", "1", "--seed", "777"]) == 0
    with open(out / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    # per-trial rows re-aggregate to the summary exactly
    with open(out / "suite_report.csv") as fh:
        summary = {(r["setup"], r["command"]): r for r in csv.DictReader(fh)}
    for (setup, command), row in summary.items():
        if command == "AVG":
            continue
        cell = [r for r in rows if r["setup"] == setup and r["command"] == command]
        sr = 100.0 * sum(r["outcome"] == "success" for r in cell) / len(cell)
        assert row["success_rate_pct"] == f"{sr:.2f}"

    # replay one trial and check the outcome tag matches
    first = rows[0]
    replay_out = tmp_path / "replay"
    assert main(["replay", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(replay_out), "--command", first["command"],
                 "--density", "3", "--seed", first["seed"]]) == 0
    manifest = json.loads((replay_out / "run_manifest.json").read_text())
    assert manifest["outcome"] == first["outcome"]
    with open(replay_out / "actions.csv") as fh:
        action_rows = list(csv.DictReader(fh))
    assert set(action_rows[0]) == {"step", "delta", "tau"}
    assert len(action_rows) == int(first["steps"])


def test_replay_trajectory_matches_eval_dump(workdir, tmp_path):
    """Replaying an eval trial writes the bytes of its dumped trajectory."""
    ckpt = workdir["run"] / "checkpoint_final.json"
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(out), "--trials", "1", "--seed", "4242",
                 "--dump-trajectories"]) == 0
    with open(out / "trials.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert (last["setup"], last["command"]) == ("hard", "turn_right")
    replay_out = tmp_path / "replay"
    assert main(["replay", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(replay_out), "--command", "turn_right", "--density", "7",
                 "--seed", last["seed"]]) == 0
    dumped = out / "trajectories" / f"trajectory_hard_turn_right_{last['seed']}.csv"
    assert (replay_out / "trajectory.csv").read_bytes() == dumped.read_bytes()


def test_eval_always_brake_baseline(workdir, tmp_path):
    out = tmp_path / "brake"
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", "always-brake",
                 "--out", str(out), "--trials", "1"]) == 0
    with open(out / "suite_report.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["command"] != "AVG"]
    assert all(r["success_rate_pct"] == "0.00" for r in rows)


def test_eval_dump_trajectories(workdir, tmp_path):
    out = tmp_path / "dump"
    ckpt = workdir["run"] / "checkpoint_final.json"
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(out), "--trials", "1", "--dump-trajectories"]) == 0
    dumped = list((out / "trajectories").glob("trajectory_*.csv"))
    assert len(dumped) == 9
    with open(dumped[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"step", "vehicle_id", "x", "y", "heading", "speed", "delta", "tau"}


def test_misspelled_config_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"trafic": {"density": 3}}))
    code = main(["collect", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "trafic" in err and "traffic" in err


def test_nested_typo_names_nearest_key(tmp_path, capsys):
    config = tmp_path / "bad2.json"
    config.write_text(json.dumps({"traffic": {"densty": 3}}))
    assert main(["collect", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "traffic.density" in capsys.readouterr().err


def test_zero_vehicle_length_is_config_error(tmp_path, capsys):
    config = tmp_path / "flat.json"
    config.write_text(json.dumps({"vehicle": {"length": 0}}))
    code = main(["collect", "--config", str(config), "--out", str(tmp_path / "o"), "--episodes", "1"])
    assert code == 2
    assert "vehicle.length must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key, value", [
    ("graph", "alpha_m", 0),
    ("graph", "k", 0),
    ("vehicle", "wheelbase", 0),
    ("ego", "arm", "up"),
    ("train", "densities", {"fwd": 3}),
    ("train", "batch_size", 2),
    ("episode", "dt", "0.1"),
    ("traffic", "cruise_speed_range", 5),
    ("eval", "trials", 0),
])
def test_bad_config_value_is_config_error_naming_the_key(tmp_path, capsys, section, key, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({section: {key: value}}))
    code = main(["collect", "--config", str(config), "--out", str(tmp_path / "o"), "--episodes", "1"])
    assert code == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _train_on_edited_copy(workdir, tmp_path, edit):
    """Train on a copy of the workdir dataset that went through `edit(data)`;
    returns the exit code and the copy's directory."""
    data = tmp_path / "data"
    shutil.copytree(workdir["data"], data)
    edit(data)
    code = main(["train", "--config", str(workdir["config"]), "--dataset", str(data),
                 "--out", str(tmp_path / "o")])
    return code, data


def _record_edit(edit):
    """A dataset edit that passes the second turn_left record through `edit`."""
    def edit_data(data):
        path = data / "turn_left.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
    return edit_data


def _train_on_edited_record(workdir, tmp_path, edit):
    """`_train_on_edited_copy` with `edit` applied to the second turn_left
    record; returns the exit code and that buffer's path."""
    code, data = _train_on_edited_copy(workdir, tmp_path, _record_edit(edit))
    return code, data / "turn_left.jsonl"


@pytest.mark.parametrize("field", ["S", "A", "u_star"])
def test_non_finite_dataset_value_is_runtime_error(workdir, tmp_path, capsys, field):
    def edit(record):
        values = record[field][0] if field in ("S", "A") else record[field]
        values[0] = float("nan")

    code, path = _train_on_edited_record(workdir, tmp_path, edit)
    assert code == 3
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and f"{field} holds a non-finite value" in err


@pytest.mark.parametrize("field, value", [
    ("step", None), ("episode_id", [1]), ("S", {"a": 1}), ("step", 1.5), ("step", True),
    ("episode_id", "7"), ("u_star", [True, False]),
], ids=["step-null", "episode_id-list", "S-object", "step-float", "step-bool", "episode_id-string",
        "u_star-bools"])
def test_wrong_json_type_in_dataset_record_is_runtime_error(workdir, tmp_path, capsys,
                                                             field, value):
    code, path = _train_on_edited_record(workdir, tmp_path, lambda r: r.update({field: value}))
    assert code == 3
    assert f"{path}:2:" in capsys.readouterr().err


def _schema(version):
    """Set the manifest's schema_version to `version`, or drop it for None."""
    def edit(data):
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["schema_version"]
        if version is not None:
            manifest["schema_version"] = version
        (data / "manifest.json").write_text(json.dumps(manifest))
    return edit


@pytest.mark.parametrize("edit, where, reason", [
    (_schema(99), "manifest.json", "schema_version 99"),
    (_schema(1), "manifest.json", "schema_version 1"),
    (_schema(None), "manifest.json", "schema_version None"),
    (lambda data: (data / "manifest.json").unlink(), "manifest.json", "missing"),
    # schema 1 also stored each record's ego block as "x_ego"
    (_record_edit(lambda r: r.update(x_ego=r["S"][0][:6])), "turn_left.jsonl:2",
     "unexpected fields ['x_ego']"),
], ids=["schema-99", "schema-1", "no-schema", "no-manifest", "x_ego-record"])
def test_dataset_of_another_schema_is_runtime_error(workdir, tmp_path, capsys, edit, where,
                                                    reason):
    code, data = _train_on_edited_copy(workdir, tmp_path, edit)
    assert code == 3
    err = capsys.readouterr().err
    assert f"{data / where}: " in err and reason in err and "re-collect" in err


def _buffer_edit(edit_lines):
    """A dataset edit that replaces forward.jsonl's lines with `edit_lines(lines)`."""
    def edit(data):
        path = data / "forward.jsonl"
        path.write_text("".join(edit_lines(path.read_text().splitlines(keepends=True))))
    return edit


@pytest.mark.parametrize("edit_lines", [lambda lines: lines[:10],
                                        lambda lines: lines + lines[-1:]],
                         ids=["cut-after-line-10", "one-record-repeated"])
def test_buffer_count_other_than_the_manifest_is_runtime_error(workdir, tmp_path, capsys,
                                                               edit_lines):
    manifest = json.loads((workdir["data"] / "manifest.json").read_text())
    expected = manifest["counts"]["forward"]
    code, data = _train_on_edited_copy(workdir, tmp_path, _buffer_edit(edit_lines))
    assert code == 3
    got = len((data / "forward.jsonl").read_text().splitlines())
    assert got != expected
    err = capsys.readouterr().err
    assert f"{data / 'forward.jsonl'}: {got} records" in err
    assert f"{data / 'manifest.json'} counts {expected}" in err and "re-collect" in err


@pytest.mark.parametrize("text, reason", [("{oops\n", "invalid JSON"),
                                          ("[1, 2]\n", "not a JSON object")],
                         ids=["invalid-json", "not-an-object"])
def test_unreadable_manifest_is_runtime_error(workdir, tmp_path, capsys, text, reason):
    data = tmp_path / "data"
    shutil.copytree(workdir["data"], data)
    (data / "manifest.json").write_text(text)
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(data),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"{data / 'manifest.json'}:1:" in err and reason in err


def test_non_finite_checkpoint_parameter_is_runtime_error(workdir, tmp_path, capsys):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    name = next(n for n in sorted(doc["params"]) if n.endswith(".b"))
    doc["params"][name][0] = float("inf")
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and repr(name) in err and "non-finite" in err


def test_ragged_checkpoint_parameter_is_runtime_error(workdir, tmp_path, capsys):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    doc["params"]["gcn.1.w"][2] = doc["params"]["gcn.1.w"][2][:-1]
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "'gcn.1.w'" in err


def test_resume_without_optimizer_state_is_runtime_error(workdir, tmp_path, capsys):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    doc["optimizer"] = None
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "invalid optimizer state" in err


def _refused_resume(workdir, tmp_path, capsys, config, data):
    """Resume the workdir run under `config` on `data`: exit 3, and the
    message names the checkpoint's hashes and this run's."""
    ckpt = workdir["run"] / "checkpoint_final.json"
    saved = json.loads(ckpt.read_text())["train_state"]
    now = provenance(read_dataset(data), train_config(load_config(config)))
    assert main(["train", "--config", str(config), "--dataset", str(data),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err
    for key in ("dataset_hash", "train_config_hash"):
        assert saved[key] in err and now[key] in err
    return saved, now


def test_resume_on_another_dataset_is_refused(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["collect", "--config", str(workdir["config"]), "--out", str(data),
                 "--seed", "4"]) == 0
    saved, now = _refused_resume(workdir, tmp_path, capsys, workdir["config"], data)
    assert saved["dataset_hash"] != now["dataset_hash"]
    assert saved["train_config_hash"] == now["train_config_hash"]


def test_resume_with_another_lr_is_refused(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "lr": 5e-4}}))
    saved, now = _refused_resume(workdir, tmp_path, capsys, config, workdir["data"])
    assert saved["dataset_hash"] == now["dataset_hash"]
    assert saved["train_config_hash"] != now["train_config_hash"]


@pytest.mark.parametrize("train_state", [{"seed": 0, "step": 2, "steps_total": 2}, [2]],
                         ids=["no-hashes", "not-an-object"])
def test_resume_without_provenance_is_refused(workdir, tmp_path, capsys, train_state):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    doc["train_state"] = train_state
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "trained on dataset None with train config None" in err


def test_train_manifest_counts_page_faults(workdir):
    manifest = json.loads((workdir["run"] / "run_manifest.json").read_text())
    faults = manifest["counters"]["minor_page_faults"]
    assert isinstance(faults, int) and faults >= 0


def test_train_manifest_records_the_step_loop(workdir):
    manifest = json.loads((workdir["run"] / "run_manifest.json").read_text())
    loop, counters = manifest["step_loop"], manifest["counters"]
    assert loop["blas_threads"] in (1, None)
    assert loop["step_processes"] == (2 if "worker_peak_rss_mb" in counters else 1)
    if loop["step_processes"] == 2:
        assert isinstance(counters["worker_minor_page_faults"], int)
        assert counters["worker_peak_rss_mb"] > 0


GRAPH_CONFIG = {"graph": {"alpha_m": 7.5, "k": 2, "include_ego_candidate": False}}


def _strategy_fields(strategy):
    return strategy.alpha_m, strategy.k, strategy.include_ego_candidate


def test_train_strategy_keeps_the_configured_graph(workdir, tmp_path, monkeypatch):
    import graphnav.cli as cli_mod

    config = tmp_path / "graph.json"
    config.write_text(json.dumps(GRAPH_CONFIG))
    seen = []

    def fake_train(dataset, tcfg, out_dir, resume=None):
        seen.append(tcfg)
        (out_dir / "loss.csv").write_text("")
        return SimpleNamespace(steps=0, history=[], counters={}, step_loop={})
    monkeypatch.setattr(cli_mod, "train", fake_train)
    assert main(["train", "--config", str(config), "--dataset", str(workdir["data"]),
                 "--strategy", "star_connected", "--out", str(tmp_path / "o")]) == 0
    [tcfg] = seen
    assert tcfg.reencode and tcfg.graph.strategy.kind.value == "star_connected"
    assert _strategy_fields(tcfg.graph.strategy) == (7.5, 2, False)


def test_ablate_strategies_keep_the_configured_graph(workdir, tmp_path, monkeypatch, capsys):
    import graphnav.cli as cli_mod

    config = tmp_path / "graph.json"
    config.write_text(json.dumps(GRAPH_CONFIG))
    seen = []

    def fake_ablation(dataset, strategies, *args, **kwargs):
        seen.extend(strategies)
        return [], {}
    monkeypatch.setattr(cli_mod, "run_ablation", fake_ablation)
    args = ["ablate", "--config", str(config), "--dataset", str(workdir["data"]),
            "--out", str(tmp_path / "o")]
    assert main(args + ["--strategies", "non_weighted, star_connected"]) == 0
    assert [s.kind.value for s in seen] == ["non_weighted", "star_connected"]
    assert all(_strategy_fields(s) == (7.5, 2, False) for s in seen)
    assert main(args + ["--strategies", "mesh"]) == 2
    assert "unknown edge strategy 'mesh'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["collect", "--episodes", "1", "--seed", "-1"], "--seed"),
    (["collect", "--episodes", "-2"], "--episodes"),
    (["eval", "--checkpoint", "always-brake", "--trials", "0"], "--trials"),
    (["eval", "--checkpoint", "always-brake", "--seed", "-5"], "--seed"),
    (["ablate", "--dataset", "d", "--trials", "0"], "--trials"),
    (["replay", "--checkpoint", "c", "--seed", "1", "--density", "-1"], "--density"),
])
def test_flag_out_of_its_config_range_is_usage_error(tmp_path, capsys, argv, flag):
    # the flags stand in for config keys and take those keys' range checks
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gradcheck_seed_below_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seed", "-1"])
    assert exc.value.code == 2 and "argument --seed:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["collect", "--out", str(tmp_path / "o"), "--episodes", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "d", "--jobs", "7"],
    ["replay", "--checkpoint", "c", "--seed", "1", "--jobs", "9"],
])
def test_jobs_on_a_subcommand_without_episode_workers_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_checkpoint_kind_mismatch_is_runtime_error(workdir, tmp_path, capsys):
    ckpt = workdir["run"] / "checkpoint_final.json"
    code = main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), "--network", "setcil"])
    assert code == 3


def test_gradcheck_passes_and_fails(monkeypatch, capsys):
    assert main(["gradcheck", "--network", "nncil"]) == 0
    assert "max relative error" in capsys.readouterr().out
    import graphnav.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_policy_check", lambda kind, seed=0: 1.0)
    assert main(["gradcheck", "--network", "nncil"]) == 4


def test_missing_dataset_is_runtime_error(workdir, tmp_path):
    code = main(["train", "--config", str(workdir["config"]),
                 "--dataset", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
    assert code == 3
