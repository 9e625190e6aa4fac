"""Bit-for-bit pins of the simulator and of the policy path.

`graphnav collect --episodes 1 --seed 0 --jobs 1` is expert-driven, so no
BLAS call touches it, and its three JSONL buffers hold the features,
adjacency and action label of every step of three episodes. The digests
below were recorded from the scalar numpy-geometry simulator before the
pure-Python polyline and the single per-step projection replaced it; any
later engine (a vectorized one included) must reproduce them, or report the
disagreement instead of re-recording them.

The policy digests hash the actions that seeded gcil, nncil and setcil
networks return through `NetworkController.act` (encoding, canonical node
order and B=1 forward) on 200 spawned evaluation worlds with 1 to 8 nodes.
They were recorded before the list-based adjacency and canonical order
replaced the numpy ones, and they hold under the default BLAS thread count
and under OPENBLAS_NUM_THREADS=1 alike.
"""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

from graphnav.cli import main
from graphnav.config import load_config, scenario_config
from graphnav.graph import GraphConfig, encode_world
from graphnav.layout import COMMANDS
from graphnav.policies import NETWORK_KINDS, NetworkController, build_network
from graphnav.world import spawn_scenario

GOLDEN_SHA256 = {
    "forward.jsonl": "e5654cb5cdb40b55f3355d52f8bf54844c9b303e555ca3e2e2a87b73512cbab5",
    "turn_left.jsonl": "911f488e86e308918f7760b2611ef9949462d37ded7a542f7760ada108913a38",
    "turn_right.jsonl": "f37188a48c5b9cd3b92f237c98c8669c1e5c59253e7bf37a6a70beb87a32c5a7",
}

POLICY_SHA256 = {
    "gcil": "c546ac54a5de956b0ff7a73127643ba964b9c6d382a9a518dc1ff51b8a0c51ac",
    "nncil": "116f53413fd5baa5e0b94aa2ac79b1766ea5bca7986e5b10781e8ab45f521299",
    "setcil": "ed1215702f373b1f3be83af8eb1eec7566661b33c61756b13853b8a9032a3515",
}


def test_collect_digest_is_pinned(tmp_path):
    out = tmp_path / "data"
    assert main(["collect", "--out", str(out), "--episodes", "1", "--seed", "0",
                 "--jobs", "1"]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


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


def test_policy_actions_are_pinned_at_one_blas_thread():
    """OpenBLAS reads its thread count once, at load, so the single-thread
    check runs in a fresh interpreter."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    code = "import json, test_golden; print(json.dumps(test_golden.policy_digests()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, text=True,
                         capture_output=True).stdout
    assert json.loads(out) == POLICY_SHA256
