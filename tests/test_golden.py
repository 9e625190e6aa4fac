"""Bit-for-bit pins of the simulator and of the policy path.

`graphnav collect --episodes 1 --seed 0 --jobs 1` is expert-driven, so no
BLAS call touches it, and its three JSONL buffers hold the features and
action label of every step of three episodes, in dataset schema 3. The
simulation they hash was first pinned from the scalar numpy-geometry
simulator, before the pure-Python polyline and the single per-step
projection replaced it, in schema 1, whose records also held the ego block
on its own as a last key, "x_ego". When schema 1 was retired, one run
rebuilt that collection line by line as schema 1 and matched the old pins
(e5654cb5..., 911f488e..., f37188a4...). Schema 2 records also held the
adjacency, "A" (pins df995c15..., f75e5a08..., 426a4b8f...); when schema 3
dropped it, one run showed every S, u_star, episode_id and step of this
collection and of `--episodes 5 --seed 211` equal to schema 2's bit for
bit, and its schema-3 bytes gave the digests below. Any later engine (a
vectorized one included) must reproduce them, or report the disagreement
instead of re-recording them.

The policy digests hash the actions that seeded gcil, nncil and setcil
networks return through `NetworkController.act` (encoding, canonical node
order and B=1 forward) on 200 spawned evaluation worlds with 1 to 8 nodes.
They were recorded before the list-based adjacency and canonical order
replaced the numpy ones, and they hold under the default BLAS thread count
and under OPENBLAS_NUM_THREADS=1 alike. They also held when the adjacency
came to be built from the features' offsets rather than the world
positions, though that moves the last bit of some entries between two
non-ego nodes in 67 of the 200 observations.

The policy digests cannot see such a last-bit change, so the adjacency
digests pin the adjacency itself: the bytes of the adjacency gcil's
`inputs` gives for each of those 200 observations, under each of the four
edge strategies with default parameters. They were recorded while the
rollout still built an adjacency at every env-step.

The trajectory digest pins the world itself beyond the default scenario:
every vehicle's pose and action at every step, then the outcome, of
expert-driven episodes (collection noise on) over the collect and eval
spawn settings, agents that react to the ego on its own arm or not, small
agent fractions 0 and 0.5, non-conflicting fractions 0 and 0.5, every
command, densities 0, 3 and 7 and seeds 0 to 2; a spawn that refuses its
constraints is hashed as the refusal. It was recorded before `track_path`,
`step_world` and `step_vehicle` were folded into fewer calls.

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
encoder in another order, and gcil's and setcil's digests differed.) gcil's
digest was re-recorded once when training came to build every adjacency
from the features under the training strategy instead of reading the
stored one; nncil's and setcil's, which read no adjacency, held.
"""

import dataclasses
import hashlib
import itertools
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
from graphnav.expert import ExpertController, ExpertParams
from graphnav.graph import EdgeStrategy, EdgeStrategyKind, GraphConfig, encode_world
from graphnav.layout import COMMANDS
from graphnav.policies import NETWORK_KINDS, GcilNetwork, NetworkController, build_network
from graphnav.rollout import NoiseParams, run_episode
from graphnav import training
from graphnav.training import TrainConfig, train
from graphnav.world import ScenarioConfig, ScenarioError, spawn_scenario

GOLDEN_SHA256 = {
    "forward.jsonl": "4d3356b2391997406e90546de55d284d1227eaa3b3ba13ff39b04bd68f3ce1cb",
    "turn_left.jsonl": "1df05d29d3e16604fd39b4f54ffa92721a8323baa7bac6bdeed079b99b9d2521",
    "turn_right.jsonl": "0beebd0c12a1627a63972d5b9283e0344b8a3e7586174a713e7b7c1425bbf514",
}

POLICY_SHA256 = {
    "gcil": "c546ac54a5de956b0ff7a73127643ba964b9c6d382a9a518dc1ff51b8a0c51ac",
    "nncil": "116f53413fd5baa5e0b94aa2ac79b1766ea5bca7986e5b10781e8ab45f521299",
    "setcil": "ed1215702f373b1f3be83af8eb1eec7566661b33c61756b13853b8a9032a3515",
}

ADJACENCY_SHA256 = {
    "n_close_weighted": "3b469ecefd7c90392661459700dbe1923bc5bd98b65e1dc16c4b5478cbd7036b",
    "fully_connected": "b76fd0fced70a04c9df992c19142044ba8d0773b991aeb60f496c876714dff7d",
    "star_connected": "906f157f0b739216d6736dc0a301fb9c58ab8403a757ffed99ade0d02c69fc18",
    "non_weighted": "faa5906c932acb041ded63824904b2173c207f44add12fbe593a947281cc1f29",
}

TRAJECTORY_SHA256 = "7e05a9ceb5c1fef530ed45d87a4beec0ca063d04b2fbd9929e242f0207476900"

TRAINING_SHA256 = {
    "gcil": "1b3e920741ff5cf73df8ded711d7e5ccaf8e36ec0517a71045c320ea7462b9ca",
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


def trajectory_digest() -> str:
    """sha256 of the packed trajectory rows and outcome of every episode of
    the grid the module docstring describes, or of its spawn refusal."""
    h = hashlib.sha256()
    templates = (ScenarioConfig(), scenario_config(load_config(), "eval"))
    grid = itertools.product(templates, (False, True), (0.0, 0.5), (0.0, 0.5), COMMANDS, (0, 3, 7))
    for template, react, small, free, command, density in grid:
        cfg = dataclasses.replace(template, command=command, density=density, react_to_ego=react,
                                  allow_ego_arm=react, small_agent_fraction=small,
                                  nonconflicting_fraction=free)
        expert = ExpertController(ExpertParams(), cfg.vehicle, cfg.tracking)
        for seed in range(3):
            try:
                record = run_episode(cfg, seed, expert, GraphConfig(), record_trajectory=True,
                                     noise=NoiseParams())
            except ScenarioError:
                h.update(b"ScenarioError")
                continue
            for row in record.trajectory:
                h.update(struct.pack("<2q6d", *row))
            h.update(struct.pack("<dq", record.outcome.elapsed, record.outcome.steps))
            h.update(record.outcome.tag.value.encode())
    return h.hexdigest()


def test_expert_trajectories_are_pinned():
    assert trajectory_digest() == TRAJECTORY_SHA256


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_training_bits_are_pinned_on_both_step_paths(collected, tmp_path, monkeypatch, cpus):
    """One usable CPU takes the serial step loop, two take the step worker,
    whichever path this host's CPU count picks."""
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    assert training_digests(collected, tmp_path) == TRAINING_SHA256


def golden_observations() -> list:
    """(world, goal, command, observation) of 200 spawned evaluation worlds
    with 1 to 8 nodes."""
    template = scenario_config(load_config(), "eval")
    observations = []
    for i in range(200):
        command = COMMANDS[i % 3]
        scenario = dataclasses.replace(template, command=command, density=i % 8)
        world, goal, _ = spawn_scenario(scenario, seed=i)
        observations.append((world, goal, command, encode_world(world, goal, GraphConfig())))
    return observations


def policy_digests() -> dict:
    """sha256 of the packed (steer, throttle) doubles of every act call."""
    observations = golden_observations()
    digests = {}
    for kind in NETWORK_KINDS:
        controller = NetworkController(build_network(kind, seed=5))
        h = hashlib.sha256()
        for world, goal, command, _ in observations:
            action = controller.act(world, goal, command, GraphConfig())
            h.update(struct.pack("<2d", action.delta, action.tau))
        digests[kind] = h.hexdigest()
    return digests


def test_policy_actions_are_pinned():
    assert policy_digests() == POLICY_SHA256


def adjacency_digests() -> dict:
    """sha256 of the adjacency bytes gcil's `inputs` gives for every golden
    observation, under each edge strategy."""
    observations = golden_observations()
    digests = {}
    for kind in EdgeStrategyKind:
        strategy = EdgeStrategy(kind=kind)
        h = hashlib.sha256()
        for _world, _goal, _command, feats in observations:
            _, adj = GcilNetwork.inputs(feats, strategy)
            h.update(adj.tobytes())
        digests[kind.value] = h.hexdigest()
    return digests


def test_adjacency_bits_are_pinned():
    assert adjacency_digests() == ADJACENCY_SHA256


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
