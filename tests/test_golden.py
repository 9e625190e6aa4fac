"""Bit-for-bit pins of the simulator and of the policy path.

`graphnav collect --episodes 1 --seed 0 --jobs 1` is expert-driven, so no
BLAS call touches it, and its three JSONL buffers hold the features,
adjacency and action label of every step of three episodes, in dataset
schema 2. The simulation they hash was first pinned from the scalar
numpy-geometry simulator, before the pure-Python polyline and the single
per-step projection replaced it, in schema 1, whose records also held the
ego block on its own as a last key, "x_ego". When schema 1 was retired, one
run rebuilt that collection line by line as schema 1 and matched the old
pins (e5654cb5..., 911f488e..., f37188a4...), and the same run's schema-2
bytes gave the digests below. Any later engine (a vectorized one included)
must reproduce them, or report the disagreement instead of re-recording
them.

The policy digests hash the actions that seeded gcil, nncil and setcil
networks return through `NetworkController.act` (encoding, canonical node
order and B=1 forward) on 200 spawned evaluation worlds with 1 to 8 nodes.
They were recorded before the list-based adjacency and canonical order
replaced the numpy ones, and they hold under the default BLAS thread count
and under OPENBLAS_NUM_THREADS=1 alike.

The training digests hash `checkpoint_final.json` of gcil, nncil and setcil
trained for four epochs (B=512, seed 3) on that collection: the weights, the
Adam moments, the graph settings and the topology, every byte of the file up
to its closing `train_state` block, which records the run's provenance
rather than its training bits. `train` pins OpenBLAS to one thread for its
step loop, in the parent and in the step worker alike, so these digests are
those of a serial single-thread run. They were recorded under
OPENBLAS_NUM_THREADS=1 before that pin existed, and they hold under the
default thread count too, with or without the worker. (Unpinned, two
OpenBLAS threads sum the weight gradients of the GCN layers and of setcil's
encoder in another order, and gcil's and setcil's digests differed.)
"""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from graphnav.cli import main
from graphnav.config import load_config, scenario_config
from graphnav.dataset import read_dataset
from graphnav.graph import GraphConfig, encode_world
from graphnav.layout import COMMANDS
from graphnav.policies import NETWORK_KINDS, NetworkController, build_network
from graphnav.training import TrainConfig, train
from graphnav.world import spawn_scenario

GOLDEN_SHA256 = {
    "forward.jsonl": "df995c15149ff5a007f109645742b5a8787f1fde817d0b06c9701e9573a4b07c",
    "turn_left.jsonl": "f75e5a08ca6c3fc8702a16294fe54a27870e3790b06bc2487e0544078f9e535f",
    "turn_right.jsonl": "426a4b8ffd91b11e01e372e301d92f1d6e79500691134af00139448fa4300b0d",
}

POLICY_SHA256 = {
    "gcil": "c546ac54a5de956b0ff7a73127643ba964b9c6d382a9a518dc1ff51b8a0c51ac",
    "nncil": "116f53413fd5baa5e0b94aa2ac79b1766ea5bca7986e5b10781e8ab45f521299",
    "setcil": "ed1215702f373b1f3be83af8eb1eec7566661b33c61756b13853b8a9032a3515",
}

TRAINING_SHA256 = {
    "gcil": "9821f368e250963b05f4fc69142d407544433bf6ff2448db63b92762d8f6f228",
    "nncil": "b15cb01c47c4933daf80a39947e8c3a4832fdacd4aae65c4abffac195e025c69",
    "setcil": "481495eb34d625776ef7c19ac39ca4fb6e3dc46f27ef35e05dc5927a310381a5",
}


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "data"
    assert main(["collect", "--out", str(out), "--episodes", "1", "--seed", "0",
                 "--jobs", "1"]) == 0
    return out


def test_collect_digest_is_pinned(collected):
    got = {name: hashlib.sha256((collected / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


def training_digests(data, out) -> dict:
    """sha256 of each network's final checkpoint up to its `train_state`."""
    dataset = read_dataset(data)
    digests = {}
    for kind in NETWORK_KINDS:
        train(dataset, TrainConfig(epochs=4, eval_every=0, seed=3, network=kind),
              out_dir=Path(out) / kind)
        blob = (Path(out) / kind / "checkpoint_final.json").read_bytes()
        digests[kind] = hashlib.sha256(blob[:blob.rindex(b',"train_state":')]).hexdigest()
    return digests


def test_training_bits_are_pinned(collected, tmp_path):
    assert training_digests(collected, tmp_path) == TRAINING_SHA256


def policy_digests() -> dict:
    """sha256 of the packed (steer, throttle) doubles of every act call."""
    template = scenario_config(load_config(), "eval")
    observations = []
    for i in range(200):
        command = COMMANDS[i % 3]
        scenario = dataclasses.replace(template, command=command, density=i % 8)
        world, goal, _ = spawn_scenario(scenario, seed=i)
        observations.append((world, goal, command, encode_world(world, goal, GraphConfig())))
    digests = {}
    for kind in NETWORK_KINDS:
        controller = NetworkController(build_network(kind, seed=5))
        h = hashlib.sha256()
        for world, goal, command, obs in observations:
            action = controller.act(world, goal, command, obs)
            h.update(struct.pack("<2d", action.delta, action.tau))
        digests[kind] = h.hexdigest()
    return digests


def test_policy_actions_are_pinned():
    assert policy_digests() == POLICY_SHA256


def at_one_blas_thread(expression: str):
    """Evaluate `expression`, with `test_golden` imported, in a fresh
    interpreter started at OPENBLAS_NUM_THREADS=1: OpenBLAS reads its thread
    count once, at load."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    code = f"import json, test_golden; print(json.dumps({expression}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, text=True,
                         capture_output=True).stdout
    return json.loads(out.splitlines()[-1])


def test_policy_actions_are_pinned_at_one_blas_thread():
    assert at_one_blas_thread("test_golden.policy_digests()") == POLICY_SHA256


def test_training_bits_are_pinned_at_one_blas_thread(collected, tmp_path):
    expression = f"test_golden.training_digests({str(collected)!r}, {str(tmp_path)!r})"
    assert at_one_blas_thread(expression) == TRAINING_SHA256
