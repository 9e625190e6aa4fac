import json
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from conftest import reaped
from graphnav import atomic, checkpoint, training
from graphnav.checkpoint import (FORMAT_VERSION, CheckpointError, graph_config_to_dict,
                                 load_checkpoint, save_checkpoint)
from graphnav.graph import GraphConfig
from graphnav.nn import Adam
from graphnav.policies import NETWORK_KINDS, build_network

TRAIN_STATE = {"seed": 3, "step": 7, "steps_total": 9}


def _stepped(kind, seed=0, steps=2):
    """A network and an Adam whose moments are non-zero."""
    net = build_network(kind, seed=seed)
    opt = Adam(net.parameters())
    training._bind(net, opt)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for g in opt.grads.values():
            g[...] = rng.normal(size=g.shape)
        opt.step(opt.params, opt.grads)
    return net, opt


def _reference_bytes(net, graph_cfg, opt, train_state) -> bytes:
    """The checkpoint as one in-memory JSON document, nested lists and all."""
    optimizer = None
    if opt is not None:
        optimizer = {"t": opt.t, "lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2,
                     "eps": opt.eps, "m": {k: v.tolist() for k, v in opt.m.items()},
                     "v": {k: v.tolist() for k, v in opt.v.items()}}
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": net.kind,
        "topology": net.topology(),
        "graph": graph_config_to_dict(graph_cfg),
        "params": {k: v.tolist() for k, v in net.parameters().items()},
        "optimizer": optimizer,
        "train_state": train_state,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("with_optimizer", [False, True])
def test_streamed_bytes_equal_the_whole_document(tmp_path, kind, with_optimizer):
    net, opt = _stepped(kind)
    opt = opt if with_optimizer else None
    state = TRAIN_STATE if with_optimizer else None
    path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig(), opt, state)
    assert path.read_bytes() == _reference_bytes(net, GraphConfig(), opt, state)


def test_streamed_bytes_keep_nan_as_json_does(tmp_path):
    net, opt = _stepped("gcil")
    net.parameters()["trunk.0.w"][3, 5] = np.nan
    opt.v["gcn.1.w"][0, 0] = -np.inf
    path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig(), opt, TRAIN_STATE)
    raw = path.read_bytes()
    assert b"NaN" in raw and b"-Infinity" in raw
    assert raw == _reference_bytes(net, GraphConfig(), opt, TRAIN_STATE)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("with_optimizer", [False, True])
def test_helper_and_one_cpu_saves_write_the_same_bytes(tmp_path, monkeypatch, helper_pids, kind,
                                                       with_optimizer):
    """A save whose back half a forked helper writes and a one-CPU save both
    write the whole document's bytes, NaN and -Infinity included."""
    net, opt = _stepped(kind)
    net.parameters()["trunk.0.w"][3, 5] = np.nan
    opt.v["trunk.1.w"][0, 0] = -np.inf
    opt, state = (opt, TRAIN_STATE) if with_optimizer else (None, None)
    expected = _reference_bytes(net, GraphConfig(), opt, state)
    assert b"NaN" in expected and (b"-Infinity" in expected) == with_optimizer
    for cpus in (2, 1):
        monkeypatch.setattr(atomic, "usable_cpus", lambda: cpus)
        path = save_checkpoint(tmp_path / f"cpus{cpus}.json", net, GraphConfig(), opt, state)
        assert path.read_bytes() == expected
    assert len(helper_pids) == 1 and reaped(helper_pids[0])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cpus1.json", "cpus2.json"]


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_the_halves_hold_about_half_the_floats_each(kind):
    net, opt = _stepped(kind)
    doc = {"params": net.parameters(), "optimizer": opt.state_dict()}
    front, back = checkpoint._halves(checkpoint._pieces(doc, []))
    floats = [sum(p.size for p in half if not isinstance(p, str)) for half in (front, back)]
    assert sum(floats) == 3 * sum(p.size for p in net.parameters().values())
    assert abs(floats[0] - floats[1]) <= 256  # the widest row


def _in_the_helper(parent: int, emit, parent_emit):
    """An emit that runs `emit` in the helper and `parent_emit` here."""
    def split(fh, pieces):
        (parent_emit if os.getpid() == parent else emit)(fh, pieces)
    return split


def test_a_failing_helper_keeps_the_previous_file(tmp_path, monkeypatch, helper_pids):
    def failing(fh, pieces):
        raise OSError("No space left on device")
    monkeypatch.setattr(checkpoint, "_emit", _in_the_helper(os.getpid(), failing,
                                                            checkpoint._emit))
    path = tmp_path / "ck.json"
    path.write_text("previous\n")
    net, opt = _stepped("gcil")
    with pytest.raises(OSError, match=re.escape(f"cannot write {path}: its forked writer failed:")
                       + "(?s:.*)No space left on device"):
        save_checkpoint(path, net, GraphConfig(), opt, TRAIN_STATE)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
    assert len(helper_pids) == 1 and reaped(helper_pids[0])


def test_an_interrupted_parent_kills_the_helper(tmp_path, monkeypatch, helper_pids):
    """The parent is interrupted once the helper's file exists beside its
    own; the helper, which would write for a minute, is killed and both
    temporary files go."""
    def slow(fh, pieces):
        fh.write("[")
        fh.flush()
        time.sleep(60)

    def interrupted(fh, pieces):
        deadline = time.monotonic() + 30
        while len(list(tmp_path.glob(".ck.json.*.tmp"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        seen.append(len(list(tmp_path.glob(".ck.json.*.tmp"))) == 2)
        raise KeyboardInterrupt
    seen = []
    monkeypatch.setattr(checkpoint, "_emit", _in_the_helper(os.getpid(), slow, interrupted))
    path = tmp_path / "ck.json"
    path.write_text("previous\n")
    net, opt = _stepped("gcil")
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, net, GraphConfig(), opt, TRAIN_STATE)
    assert seen == [True] and time.monotonic() - started < 30
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
    assert len(helper_pids) == 1 and reaped(helper_pids[0])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_save_memory_is_bounded_by_a_row_not_the_model(tmp_path, kind):
    net, opt = _stepped(kind)
    path = tmp_path / "ck.json"
    peak = _traced_peak(lambda: save_checkpoint(path, net, GraphConfig(), opt, TRAIN_STATE))
    # the file is 4-5 MB; building it as one document peaked at 15-19 MB
    assert path.stat().st_size > 4e6
    assert peak < 1e6


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_load_memory_stays_near_the_file_size(tmp_path, kind):
    net, opt = _stepped(kind)
    path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig(), opt, TRAIN_STATE)
    peak = _traced_peak(lambda: load_checkpoint(path))
    # parsing every float as a Python object first peaked at 2.6-2.8x
    assert peak < 2.3 * path.stat().st_size


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_load_returns_arrays_that_resave_to_the_same_bytes(tmp_path, kind):
    net, opt = _stepped(kind)
    path = save_checkpoint(tmp_path / "ck.json", net, GraphConfig(), opt, TRAIN_STATE)
    loaded = load_checkpoint(path, expected_kind=kind)
    state = loaded.optimizer_state
    assert all(isinstance(a, np.ndarray) and a.dtype == float for a in state["m"].values())
    restored = Adam.from_state_dict(state, loaded.network.parameters())
    again = save_checkpoint(tmp_path / "again.json", loaded.network, loaded.graph, restored,
                            loaded.train_state)
    assert again.read_bytes() == path.read_bytes()


def _set(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


def _put(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _drop_param(doc):
    del doc["params"]["gcn.0.w"]


# one case per CheckpointError message, and per JSON type the graph section
# refuses: (edit of the saved document, expected kind passed to
# load_checkpoint, the words the message must hold)
BAD_DOCUMENTS = {
    "version": (_put("format_version", 99), None, "format version 99 unsupported"),
    "kind": (_put("kind", "mlp"), None, "unknown network kind 'mlp'"),
    "expected-kind": (lambda doc: None, "nncil", "holds a 'gcil' network, expected 'nncil'"),
    "parameter-names": (_drop_param, None, "missing=['gcn.0.w']"),
    "shape": (_set("params", "gcn.0.w", [[1.0, 2.0]]), None, "'gcn.0.w' has shape (1, 2)"),
    "ragged": (_set("params", "gcn.0.w", [[1.0, 2.0], [1.0]]), None,
               "'gcn.0.w' is not a numeric array"),
    "non-finite": (_set("params", "gcn.0.w", [[float("nan")] * 32] * 12), None,
                   "'gcn.0.w' holds a non-finite value"),
    "null": (_set("params", "gcn.0.w", [[None] * 32] * 12), None, "'gcn.0.w' holds None, not a number"),
    "params-null": (_put("params", None), None, "params must be a JSON object, got None"),
    "params-number": (_put("params", 3.5), None, "params must be a JSON object, got 3.5"),
    "params-list": (_put("params", [1, 2]), None, "params must be a JSON object, got [1, 2]"),
    "params-bool": (_put("params", True), None, "params must be a JSON object, got True"),
    "graph-section": (_set("graph", "strategy", "hexagonal"), None, "invalid graph section"),
    "graph-float-k": (_set("graph", "k", 3.7), None,
                      "invalid graph section: k must be an integer, got 3.7"),
    "graph-string-bool": (_set("graph", "include_ego_candidate", "false"), None,
                          "include_ego_candidate must be true or false, got 'false'"),
    "graph-nan": (_set("graph", "v_pref", float("nan")), None,
                  "v_pref must be a finite number, got nan"),
    "graph-negative-v-pref": (_set("graph", "v_pref", -1.0), None,
                              "invalid graph section: v_pref must be positive, got -1.0"),
    "graph-zero-v-pref": (_set("graph", "v_pref", 0.0), None,
                          "invalid graph section: v_pref must be positive, got 0.0"),
    "topology": (_set("topology", "gcn_widths", [32, 32, 16]), None,
                 "topology does not match the 'gcil' network: differing keys ['gcn_widths']"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_every_checkpoint_error_names_the_file(tmp_path, case):
    edit, expected_kind, words = BAD_DOCUMENTS[case]
    path = save_checkpoint(tmp_path / "ck.json", build_network("gcil", seed=0), GraphConfig())
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path, expected_kind=expected_kind)
    assert str(path) in str(exc.value) and words in str(exc.value)


def test_a_json_array_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("[1, 2]")
    with pytest.raises(CheckpointError, match="expected a JSON object") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)
