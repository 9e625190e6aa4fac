import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import reaped
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


def test_replay_density_defaults_to_the_configs_traffic_density(workdir, tmp_path):
    config = tmp_path / "dense.json"
    config.write_text(json.dumps({**TINY_CONFIG, "traffic": {"density": 5}}))
    out = tmp_path / "replay"
    assert main(["replay", "--config", str(config), "--out", str(out), "--seed", "11",
                 "--checkpoint", str(workdir["run"] / "checkpoint_final.json")]) == 0
    with open(out / "trajectory.csv") as fh:
        assert {row["vehicle_id"] for row in csv.DictReader(fh)} == {str(i) for i in range(6)}


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


@pytest.mark.parametrize("field", ["S", "u_star"])
def test_non_finite_dataset_value_is_runtime_error(workdir, tmp_path, capsys, field):
    def edit(record):
        values = record[field][0] if field == "S" else record[field]
        values[0] = float("nan")

    code, path = _train_on_edited_record(workdir, tmp_path, edit)
    assert code == 3
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and f"{field} holds a non-finite value" in err


def test_buffer_that_mixes_node_counts_is_runtime_error(workdir, tmp_path, capsys):
    code, path = _train_on_edited_record(workdir, tmp_path, lambda r: r["S"].pop())
    assert code == 3
    err = capsys.readouterr().err
    assert f"{path}:2: S has 2 rows, but the buffer's first record has 3" in err
    assert "Traceback" not in err


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


def _manifest_edit(edit_manifest):
    """A dataset edit that passes the manifest through `edit_manifest`."""
    def edit(data):
        manifest = json.loads((data / "manifest.json").read_text())
        edit_manifest(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
    return edit


def _schema(version):
    """Set the manifest's schema_version to `version`, or drop it for None."""
    def edit_manifest(manifest):
        del manifest["schema_version"]
        if version is not None:
            manifest["schema_version"] = version
    return _manifest_edit(edit_manifest)


@pytest.mark.parametrize("edit, where, reason", [
    (_schema(99), "manifest.json", "schema_version 99"),
    (_schema(2), "manifest.json", "schema_version 2"),
    (_schema(1), "manifest.json", "schema_version 1"),
    (_schema(None), "manifest.json", "schema_version None"),
    (_manifest_edit(lambda m: m.pop("v_pref")), "manifest.json",
     "v_pref must be a finite number, got None"),
    (lambda data: (data / "manifest.json").unlink(), "manifest.json", "missing"),
    # schema 1 also stored each record's ego block as "x_ego"
    (_record_edit(lambda r: r.update(x_ego=r["S"][0][:6])), "turn_left.jsonl:2",
     "unexpected fields ['x_ego']"),
], ids=["schema-99", "schema-2", "schema-1", "no-schema", "no-v_pref", "no-manifest",
         "x_ego-record"])
def test_dataset_of_another_schema_is_runtime_error(workdir, tmp_path, capsys, edit, where,
                                                    reason):
    code, data = _train_on_edited_copy(workdir, tmp_path, edit)
    assert code == 3
    err = capsys.readouterr().err
    assert f"{data / where}: " in err and reason in err and "re-collect" in err


def _empty_turn_left(data):
    (data / "turn_left.jsonl").write_text("")
    _manifest_edit(lambda m: m["counts"].update(turn_left=0))(data)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_empty_buffer_is_runtime_error_naming_its_file(workdir, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(workdir["data"], data)
    _empty_turn_left(data)
    argv = [command, "--config", str(workdir["config"]), "--dataset", str(data),
            "--out", str(tmp_path / "o")]
    if command == "ablate":
        argv += ["--strategies", "star_connected", "--trials", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "empty demonstration buffer for command 'turn_left' (turn_left.jsonl)" in err
    assert "Traceback" not in err


def test_train_refuses_features_built_under_other_graph_settings(workdir, tmp_path, capsys):
    config = tmp_path / "ego_frame.json"
    config.write_text(json.dumps({**TINY_CONFIG, "graph": {"ego_frame": True}}))
    data = tmp_path / "data"
    assert main(["collect", "--config", str(config), "--out", str(data), "--seed", "3",
                 "--episodes", "1"]) == 0
    code = main(["train", "--config", str(workdir["config"]), "--dataset", str(data),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and "'ego_frame': True" in err and "'ego_frame': False" in err
    assert not (tmp_path / "o" / "checkpoint_final.json").exists()


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


NOT_UTF8 = b"\x93"  # a cp1252 curly quote: no UTF-8 sequence starts with it


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "quoted.json"
    config.write_bytes(b'{"traffic": {"density": ' + NOT_UTF8 + b"3" + NOT_UTF8 + b"}}")
    assert main(["collect", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config file {config} is not valid JSON" in err and "0x93" in err
    assert not (tmp_path / "o").exists()


def test_manifest_that_is_not_utf8_is_runtime_error(workdir, tmp_path, capsys):
    def edit(data):
        path = data / "manifest.json"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + [NOT_UTF8 + lines[2]] + lines[3:]))
    code, data = _train_on_edited_copy(workdir, tmp_path, edit)
    assert code == 3
    assert f"{data / 'manifest.json'}:3: not UTF-8 text" in capsys.readouterr().err


def test_buffer_line_that_is_not_utf8_is_runtime_error(workdir, tmp_path, capsys):
    def edit(data):
        path = data / "turn_right.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:4] + [lines[4].replace(b",", NOT_UTF8 + b",", 1)] + lines[5:]))
    code, data = _train_on_edited_copy(workdir, tmp_path, edit)
    assert code == 3
    assert f"{data / 'turn_right.jsonl'}:5: not UTF-8 text" in capsys.readouterr().err


def test_checkpoint_that_is_not_utf8_is_runtime_error(workdir, tmp_path, capsys):
    raw = (workdir["run"] / "checkpoint_final.json").read_bytes()
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_bytes(raw[:100] + NOT_UTF8 + raw[100:])
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert f"cannot read checkpoint {ckpt}" in err and "0x93" in err


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


def test_replay_of_a_checkpoint_with_null_params_is_runtime_error(workdir, tmp_path, capsys):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    doc["params"] = None
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "o"), "--command", "forward", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: params must be a JSON object, got None" in err


def test_resume_without_optimizer_state_is_runtime_error(workdir, tmp_path, capsys):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    doc["optimizer"] = None
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "invalid optimizer state" in err


def _nan_moment(doc):
    doc["optimizer"]["m"]["gcn.0.w"][0][0] = float("nan")


# an edit of the saved optimizer section, and the words the refusal must hold
BAD_OPTIMIZER_STATES = {
    "string-lr": ({"lr": "0.001"}, "lr must be a finite number, got '0.001'"),
    "float-t": ({"t": 2.7}, "t must be an integer, got 2.7"),
    "negative-eps": ({"eps": -1.0}, "eps must be positive, got -1.0"),
    "bool-beta1": ({"beta1": True}, "beta1 must be a finite number, got True"),
    "beta2-of-one": ({"beta2": 1.0}, "beta2 must be in [0, 1), got 1.0"),
    "negative-t": ({"t": -1}, "t must be non-negative, got -1"),
    "zero-lr": ({"lr": 0}, "lr must be positive, got 0"),
    "nan-moment": (_nan_moment, "optimizer m[gcn.0.w] holds a non-finite value"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIMIZER_STATES))
def test_resume_refuses_a_malformed_optimizer_section(workdir, tmp_path, capsys, case):
    edit, words = BAD_OPTIMIZER_STATES[case]
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    if callable(edit):
        edit(doc)
    else:
        doc["optimizer"].update(edit)
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    config = tmp_path / "config.json"  # one more epoch than the checkpoint's run
    config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "epochs": 2}}))
    assert main(["train", "--config", str(config), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: invalid optimizer state: {words}" in err


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


@pytest.mark.parametrize("step", ["x", None, [1], -3, 1.5, True, 99999999],
                         ids=["string", "null", "list", "negative", "float", "bool", "past-t"])
def test_resume_refuses_a_malformed_step(workdir, tmp_path, capsys, step):
    doc = json.loads((workdir["run"] / "checkpoint_final.json").read_text())
    doc["train_state"]["step"] = step
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: train_state step {step!r} must be the optimizer's t" in err


def test_resume_past_this_runs_budget_is_refused(workdir, tmp_path, capsys):
    ckpt = workdir["run"] / "checkpoint_final.json"
    step = json.loads(ckpt.read_text())["train_state"]["step"]
    config = tmp_path / "config.json"  # no epochs: a budget of no steps
    config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "epochs": 0}}))
    assert main(["train", "--config", str(config), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "o"), "--resume", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert f"train_state step {step} must be the optimizer's t ({step}) and at most " \
           f"this run's 0 steps" in err


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
        return SimpleNamespace(steps=0, history=[], counters={}, step_loop={},
                               checkpoint_paths=[])
    monkeypatch.setattr(cli_mod, "train", fake_train)
    assert main(["train", "--config", str(config), "--dataset", str(workdir["data"]),
                 "--strategy", "star_connected", "--out", str(tmp_path / "o")]) == 0
    [tcfg] = seen
    assert tcfg.graph.strategy.kind.value == "star_connected"
    assert _strategy_fields(tcfg.graph.strategy) == (7.5, 2, False)


def test_eval_and_replay_act_under_the_checkpoints_strategy(workdir, tmp_path, monkeypatch):
    import graphnav.cli as cli_mod
    from graphnav.checkpoint import load_checkpoint

    config = tmp_path / "graph.json"
    config.write_text(json.dumps({**TINY_CONFIG, **GRAPH_CONFIG}))
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--dataset", str(workdir["data"]),
                 "--strategy", "star_connected", "--out", str(run)]) == 0
    ckpt = run / "checkpoint_final.json"
    trained = load_checkpoint(ckpt).graph.strategy
    assert trained.kind.value == "star_connected"
    seen, act = [], cli_mod.NetworkController.act

    def spy(self, world, goal, command, graph_cfg):
        seen.append(graph_cfg.strategy)
        return act(self, world, goal, command, graph_cfg)
    monkeypatch.setattr(cli_mod.NetworkController, "act", spy)
    for argv in (["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e"), "--trials", "1"],
                 ["replay", "--checkpoint", str(ckpt), "--out", str(tmp_path / "r"), "--seed", "3"]):
        seen.clear()
        assert main(argv) == 0
        assert seen and all(strategy == trained for strategy in seen)


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
    with pytest.raises(SystemExit) as exc:
        main(args + ["--strategies", "non_weighted, mesh"])
    assert exc.value.code == 2
    assert "argument --strategies: unknown edge strategy 'mesh'" in capsys.readouterr().err


def _manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


def test_run_manifests_state_what_ran(workdir, tmp_path):
    """A config flag's value is in the effective config the manifest records."""
    run = tmp_path / "run"
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(workdir["data"]),
                 "--strategy", "star_connected", "--out", str(run)]) == 0
    assert _manifest(run)["effective_config"]["graph"]["strategy"] == "star_connected"
    ckpt = run / "checkpoint_final.json"
    assert json.loads(ckpt.read_text())["graph"]["strategy"] == "star_connected"

    replay = tmp_path / "replay"
    assert main(["replay", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(replay), "--density", "2", "--command", "turn_left",
                 "--seed", "3"]) == 0
    manifest = _manifest(replay)
    assert manifest["effective_config"]["traffic"]["density"] == 2
    assert (manifest["command"], manifest["seeds"]) == ("turn_left", {"seed": 3})

    evaluated = tmp_path / "eval"  # no --config: the defaults hold other trials and seed
    assert main(["eval", "--checkpoint", str(ckpt), "--out", str(evaluated),
                 "--trials", "1", "--seed", "5"]) == 0
    manifest = _manifest(evaluated)
    assert {key: manifest["effective_config"]["eval"][key] for key in ("trials", "base_seed")} \
        == {"trials": 1, "base_seed": 5}
    assert manifest["seeds"] == {"base_seed": 5, "trials_per_cell": 1}


def _config_flags():
    """(subcommand, its parser, action) for every flag whose dest is dotted."""
    import argparse

    from graphnav.cli import build_parser

    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, parser, action) for name, parser in sub.choices.items()
            for action in parser._actions if "." in action.dest]


CONFIG_FLAGS = _config_flags()


@pytest.mark.parametrize("subcommand, parser, action", CONFIG_FLAGS,
                         ids=[f"{name}{action.option_strings[0]}" for name, _, action in CONFIG_FLAGS])
def test_a_config_flag_overrides_its_key_in_the_run_manifest(tmp_path, monkeypatch, subcommand,
                                                             parser, action):
    """A misspelt dest would pass argparse and never reach the config."""
    import graphnav.cli as cli_mod
    from graphnav.config import DEFAULTS

    section, key = action.dest.split(".")
    assert key in DEFAULTS.get(section, {}), f"{action.dest} is not a config key"
    default = DEFAULTS[section][key]
    value = next(c for c in action.choices if c != default) if action.choices else default + 1
    monkeypatch.setattr(cli_mod, f"cmd_{subcommand}", lambda args, cfg, out: ({}, [], None))
    required = [arg for a in parser._actions if a.required and a.dest != "out"
                for arg in (a.option_strings[0], "1")]
    out = tmp_path / "o"
    assert main([subcommand, *required, "--out", str(out),
                 action.option_strings[0], str(value)]) == 0
    assert _manifest(out)["effective_config"][section][key] == value


@pytest.mark.parametrize("argv, flag", [
    (["collect", "--episodes", "1", "--seed", "-1"], "--seed"),
    (["collect", "--episodes", "-2"], "--episodes"),
    (["eval", "--checkpoint", "always-brake", "--trials", "0"], "--trials"),
    (["eval", "--checkpoint", "always-brake", "--seed", "-5"], "--seed"),
    (["ablate", "--dataset", "d", "--trials", "0"], "--trials"),
    (["replay", "--checkpoint", "c", "--seed", "1", "--density", "-1"], "--density"),
    (["ablate", "--dataset", "d", "--strategies", "mesh"], "--strategies"),
    (["collect", "--episodes", "0"], "--episodes"),
])
def test_flag_out_of_its_config_range_is_usage_error(tmp_path, capsys, argv, flag):
    # the flags stand in for config keys and take those keys' range checks;
    # --strategies takes only edge strategy names
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


def test_train_manifest_counts_checkpoint_saves(workdir):
    counters = json.loads((workdir["run"] / "run_manifest.json").read_text())["counters"]
    assert counters["checkpoint_saves"] == 1  # eval_every 0: the final checkpoint only
    assert isinstance(counters["checkpoint_save_s"], float) and counters["checkpoint_save_s"] > 0


def test_importing_the_cli_loads_no_module_it_does_not_need():
    """A fresh interpreter: every module `import graphnav.cli` loads adds to
    a run's setup time, compiled afresh where bytecode is not written."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, graphnav.cli; "
            "print(sorted({'mmap', 'resource', 'secrets', 'tracemalloc'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         check=True, text=True, capture_output=True).stdout
    assert out.strip() == "[]"


def test_collect_manifest_counts_outcomes_and_the_write(workdir):
    from graphnav import atomic
    counters = json.loads((workdir["data"] / "run_manifest.json").read_text())["counters"]
    outcomes = counters["outcomes"]
    assert sorted(outcomes) == ["forward", "turn_left", "turn_right"]
    assert all(sum(tags.values()) == 2 for tags in outcomes.values())  # episodes_per_command
    assert {"success", "collision", "timeout", "goal_missed"} == set(outcomes["forward"])
    assert isinstance(counters["dataset_write_s"], float) and counters["dataset_write_s"] > 0
    # with two CPUs, forward and turn_left are written behind the next command's episodes
    two = atomic.usable_cpus() > 1
    buffers = counters["dataset_buffers"]
    assert {c: (b["behind"], b["processes"]) for c, b in buffers.items()} == {
        "forward": (two, 1), "turn_left": (two, 1), "turn_right": (False, 2 if two else 1)}
    assert all(isinstance(b["write_s"], float) and b["write_s"] > 0 for b in buffers.values())
    assert "counters" not in json.loads((workdir["data"] / "manifest.json").read_text())


def test_a_failed_buffer_writer_exits_3_naming_its_buffer(tmp_path, monkeypatch, capsys,
                                                         helper_pids):
    """The forward buffer's writer fails behind the turn_left episodes:
    collect exits 3 naming forward.jsonl, every writer is reaped, and the
    previous manifest.json is all the output directory holds."""
    from graphnav import dataset
    from graphnav.layout import Command
    emit = dataset._emit_records

    def failing(fh, samples):
        if samples[0].command is Command.FORWARD:
            raise OSError("No space left on device")
        emit(fh, samples)
    monkeypatch.setattr(dataset, "_emit_records", failing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "data"
    out.mkdir()
    (out / "manifest.json").write_text("previous\n")
    assert main(["collect", "--config", str(config), "--out", str(out), "--seed", "3"]) == 3
    assert f"cannot write {out / 'forward.jsonl'}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_text() == "previous\n"
    assert len(helper_pids) == 2 and all(map(reaped, helper_pids))


def test_a_failed_step_worker_exits_3_with_its_error(workdir, tmp_path, monkeypatch, capsys,
                                                     helper_pids):
    """The training step worker fails its first pass: train exits 3 with the
    worker's own error, and the worker is reaped."""
    from graphnav import training
    if training._openblas() is None:
        pytest.skip("the step worker needs numpy's OpenBLAS")

    def failing(*args):
        raise RuntimeError("planted worker failure")
    monkeypatch.setattr(training, "_first_pass", failing)
    assert main(["train", "--config", str(workdir["config"]), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "error: the training step worker failed:" in err
    assert "RuntimeError: planted worker failure" in err
    assert len(helper_pids) == 1 and reaped(helper_pids[0])


def test_train_manifest_lists_only_this_runs_checkpoints(workdir, tmp_path):
    out = tmp_path / "run"
    for eval_every in (1, 0):
        config = tmp_path / f"every{eval_every}.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"],
                                                               "eval_every": eval_every}}))
        assert main(["train", "--config", str(config), "--dataset", str(workdir["data"]),
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (out / "checkpoint_step1.json").exists()  # left by the first run
    assert sorted(manifest["files"]) == ["checkpoint_final.json", "loss.csv"]
    assert manifest["counters"]["checkpoint_saves"] == 1


def test_eval_manifest_lists_only_this_runs_trajectories(workdir, tmp_path):
    out = tmp_path / "eval"
    ckpt = workdir["run"] / "checkpoint_final.json"
    for seed in ("11", "500"):
        assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                     "--out", str(out), "--trials", "1", "--seed", seed,
                     "--dump-trajectories"]) == 0
    listed = json.loads((out / "run_manifest.json").read_text())["files"]
    with open(out / "trials.csv") as fh:
        seeds = {row["seed"] for row in csv.DictReader(fh)}
    dumped = [name for name in listed if name.startswith("trajectories/")]
    assert len(list((out / "trajectories").glob("*.csv"))) == 18
    assert len(dumped) == 9 and all(name.rsplit("_", 1)[1][:-4] in seeds for name in dumped)


def test_eval_manifest_counts_outcomes_per_setup_and_command(workdir, tmp_path):
    out = tmp_path / "eval"
    ckpt = workdir["run"] / "checkpoint_final.json"
    assert main(["eval", "--config", str(workdir["config"]), "--checkpoint", str(ckpt),
                 "--out", str(out), "--trials", "2", "--seed", "31"]) == 0
    outcomes = json.loads((out / "run_manifest.json").read_text())["counters"]["outcomes"]
    with open(out / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(outcomes) == ["easy", "hard", "middle"]
    for setup, cells in outcomes.items():
        assert sorted(cells) == ["forward", "turn_left", "turn_right"]
        for command, tags in cells.items():
            assert set(tags) == {"success", "collision", "timeout", "goal_missed"}
            cell = [r["outcome"] for r in rows if (r["setup"], r["command"]) == (setup, command)]
            assert tags == {tag: cell.count(tag) for tag in tags} and sum(tags.values()) == 2
    for name in ("trials.csv", "suite_report.csv"):
        assert "outcomes" not in (out / name).read_text()
