"""Every reader refuses bad bytes with exit 2 or 3 and names the file.

A seeded hypothesis search replaces, inserts or deletes one byte of a small
valid config, checkpoint, dataset manifest or buffer, or truncates it, then
runs the subcommand that reads it through `cli.main`. Whatever the mutation, the run exits 0 (the file
still holds valid input), 2 (a config refused) or 3 (a runtime file
refused) and raises nothing, and a refusal names the file. The dataset runs
resume from a checkpoint that does not exist, so a dataset that reads and
prepares cleanly stops right after, at that checkpoint, without training.

A byte mutation cannot make a valid value of another JSON type out of a
number, so typed mutations put `true`, `"0.5"`, `null`, `[]` or a 400-digit
integer in place of one number of a weight, an Adam moment, a record's `S`
and its `u_star`; each exits 3 naming the file and the parameter or line.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnav.checkpoint import save_checkpoint
from graphnav.cli import main
from graphnav.dataset import BUFFER_FILES, write_dataset
from graphnav.evaluation import collect_dataset
from graphnav.expert import ExpertParams
from graphnav.graph import GraphConfig
from graphnav.layout import COMMANDS
from graphnav.policies import build_network
from graphnav.world import ScenarioConfig

ABSENT = "absent_checkpoint.json"  # named by the refusal that follows an accepted dataset
DATA_FILES = ("manifest.json", *BUFFER_FILES.values())
TARGETS = ("config.json", "checkpoint.json", *DATA_FILES)
# bytes that start no UTF-8 sequence or cannot follow one, and JSON's own syntax
BYTES = [*range(0x80, 0x100, 7), *b'0123456789.-eE,:{}[]" nx\n']


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The valid files: a short-episode config, a fresh nncil checkpoint and
    a one-episode-per-command dataset."""
    root = tmp_path_factory.mktemp("originals")
    (root / "config.json").write_text(json.dumps({"episode": {"timeout_s": 2.0}}))
    save_checkpoint(root / "checkpoint.json", build_network("nncil", seed=0), GraphConfig())
    dataset, _ = collect_dataset(ScenarioConfig(density=0, timeout_s=3.0), GraphConfig(),
                                 ExpertParams(), episodes_per_command=1, base_seed=5,
                                 densities={c: 0 for c in COMMANDS})
    write_dataset(dataset, root / "data")
    (root / "train.json").write_text(json.dumps({"train": {"epochs": 1}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--dataset", str(root / "data"), "--out", str(root / "run"),
                     "--config", str(root / "train.json")]) == 0
    return root


def _mutate(raw: bytes, op: str, at: float, byte: int) -> bytes:
    i = int(at * len(raw))
    if op == "replace":
        return raw[:i] + bytes([byte]) + raw[i + 1:]
    if op == "insert":
        return raw[:i] + bytes([byte]) + raw[i:]
    if op == "delete":
        return raw[:i] + raw[i + 1:]
    return raw[:i]  # truncate


def _argv(target: Path, originals: Path, work: Path) -> tuple:
    """The argv that reads `target`, and the exit code of its refusal."""
    out = ["--out", str(work / "out")]
    if target.name == "config.json":
        return ["replay", "--config", str(target), "--checkpoint", str(originals / "checkpoint.json"),
                "--seed", "1", "--density", "0", *out], 2
    if target.name == "checkpoint.json":
        return ["replay", "--config", str(originals / "config.json"), "--checkpoint", str(target),
                "--seed", "1", "--density", "0", *out], 3
    return ["train", "--dataset", str(target.parent), "--resume", str(work / ABSENT), *out], 3


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(TARGETS),
       op=st.sampled_from(["replace", "insert", "delete", "truncate"]),
       at=st.floats(0.0, 1.0, exclude_max=True), byte=st.sampled_from(BYTES))
def test_a_mutated_input_exits_2_or_3_naming_the_file(originals, name, op, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source, target = originals / name, work / name
        if name in DATA_FILES:
            shutil.copytree(originals / "data", work / "data")
            source, target = originals / "data" / name, work / "data" / name
        target.write_bytes(_mutate(source.read_bytes(), op, at, byte))
        argv, refusal = _argv(target, originals, work)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)  # an exception escaping here is the traceback this test forbids
    assert code in (0, 2, 3), err.getvalue()
    if code == refusal:
        assert name in err.getvalue() or ABSENT in err.getvalue(), err.getvalue()


# a JSON value of another type, or an integer past the float range, in place of a number
TYPED = {"true": True, "string": "0.5", "null": None, "list": [], "huge-int": 10**400}


def _first_number(table, value) -> None:
    """Put `value` in place of the first number of a 1-D or 2-D table."""
    row = table[0] if isinstance(table[0], list) else table
    row[0] = value


def _run(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("value", TYPED.values(), ids=TYPED)
@pytest.mark.parametrize("section, words", [
    ("params", "parameter 'gcn.0.w'"),
    ("optimizer", "invalid optimizer state: optimizer m[gcn.0.w]"),
])
def test_a_typed_checkpoint_value_exits_3_naming_the_parameter(originals, tmp_path, section, words,
                                                               value):
    """A weight is read by replay, a moment by a resume one epoch further."""
    doc = json.loads((originals / "run" / "checkpoint_final.json").read_text())
    _first_number(doc["params"]["gcn.0.w"] if section == "params" else doc["optimizer"]["m"]["gcn.0.w"],
                  value)
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 2}}))
    if section == "params":
        argv, _ = _argv(ckpt, originals, tmp_path)
    else:
        argv = ["train", "--dataset", str(originals / "data"), "--out", str(tmp_path / "out"),
                "--config", str(config), "--resume", str(ckpt)]
    code, err = _run(argv)
    assert code == 3 and f"checkpoint {ckpt}: {words} " in err, err


@pytest.mark.parametrize("value", TYPED.values(), ids=TYPED)
@pytest.mark.parametrize("field", ["S", "u_star"])
def test_a_typed_record_value_exits_3_naming_the_line(originals, tmp_path, field, value):
    shutil.copytree(originals / "data", tmp_path / "data")
    path = tmp_path / "data" / "turn_left.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    _first_number(record[field], value)
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    code, err = _run(["train", "--dataset", str(tmp_path / "data"), "--resume",
                      str(tmp_path / ABSENT), "--out", str(tmp_path / "out")])
    assert code == 3 and f"{path}:2: {field} " in err, err
