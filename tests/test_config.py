import json

import numpy as np
import pytest

from graphnav.config import (ConfigError, DEFAULTS, _VALID_KEYS, expert_params, graph_config,
                             key_check, load_config, noise_params, scenario_config,
                             tracking_params, train_config, vehicle_params)
from graphnav.jsontypes import config_hash
from graphnav.rollout import NoiseParams
from graphnav.expert import ExpertParams
from graphnav.graph import EdgeStrategyKind, GraphConfig
from graphnav.layout import Arm
from graphnav.policies import NETWORK_KINDS
from graphnav.tracking import TrackingParams
from graphnav.training import TrainConfig
from graphnav.vehicle import VehicleParams
from graphnav.world import ScenarioConfig


def test_defaults_load_and_validate():
    cfg = load_config(None)
    assert cfg["traffic"]["density"] == 3
    assert cfg["vehicle"]["phi_max_deg"] == 35.0


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"traffic": {"density": 7}, "episode": {"dt": 0.05}}))
    cfg = load_config(path)
    assert cfg["traffic"]["density"] == 7
    assert cfg["episode"]["dt"] == 0.05
    assert cfg["traffic"]["min_separation_m"] == 6.0  # untouched defaults survive


def test_flag_overrides_beat_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 10}}))
    cfg = load_config(path, overrides={"train": {"epochs": 3}})
    assert cfg["train"]["epochs"] == 3


def test_fuzzed_typos_raise_with_suggestion():
    rng = np.random.default_rng(5)
    keys = [k for k in _VALID_KEYS if "." in k and not k.endswith("densities")]
    checked = 0
    for dotted in rng.choice(keys, size=12, replace=False):
        section, key = dotted.split(".", 1)
        if "." in key:
            continue
        drop = int(rng.integers(len(key)))
        typo = key[:drop] + key[drop + 1:]
        if not typo or typo == key or typo in DEFAULTS[section]:
            continue
        with pytest.raises(ConfigError) as err:
            load_config(None, overrides={section: {typo: 1}})
        assert typo in str(err.value)
        checked += 1
    assert checked >= 5


def test_cruise_speed_above_vmax_rejected():
    with pytest.raises(ConfigError):
        load_config(None, overrides={"traffic": {"cruise_speed_range": [3.0, 99.0]}})


def test_spawn_window_outside_arm_rejected():
    with pytest.raises(ConfigError):
        load_config(None, overrides={"traffic": {"spawn_window_m": [3.0, 99.0]}})


def test_bad_strategy_rejected():
    with pytest.raises(ConfigError):
        load_config(None, overrides={"graph": {"strategy": "mesh"}})


@pytest.mark.parametrize("key", ["length", "width"])
@pytest.mark.parametrize("value", [0, -2.0])
def test_non_positive_vehicle_footprint_rejected(key, value):
    with pytest.raises(ConfigError, match=f"vehicle.{key} must be positive"):
        load_config(None, overrides={"vehicle": {key: value}})


def test_unknown_network_rejected_naming_every_kind():
    with pytest.raises(ConfigError) as err:
        load_config(None, overrides={"train": {"network": "mlp"}})
    assert all(kind in str(err.value) for kind in NETWORK_KINDS)


def test_config_hash_stable_and_sensitive():
    a = load_config(None)
    b = load_config(None)
    assert config_hash(a) == config_hash(b)
    c = load_config(None, overrides={"traffic": {"density": 5}})
    assert config_hash(c) != config_hash(a)


def test_typed_builders():
    cfg = load_config(None)
    vp = vehicle_params(cfg)
    assert vp.wheelbase == 2.5
    gc = graph_config(cfg)
    assert gc.strategy.kind is EdgeStrategyKind.N_CLOSE_WEIGHTED
    assert gc.v_pref == 6.0
    ep = expert_params(cfg)
    assert ep.ttc_threshold == 2.5
    train_world = scenario_config(cfg, mode="train")
    eval_world = scenario_config(cfg, mode="eval")
    assert train_world.ego_arm is Arm.SOUTH
    assert train_world.spawn_window != eval_world.spawn_window
    # training and evaluation spawn windows are disjoint ranges
    assert train_world.spawn_window[1] <= eval_world.spawn_window[0]
    assert train_world.ego_spawn_window[1] <= eval_world.ego_spawn_window[0]


def test_default_config_hash_is_pinned():
    assert config_hash(load_config(None)) == (
        "90f37ee9f53f18c31dc9a68a5dd537f4a2a7662d749a53441f3ba834dc084ff9")


def test_default_config_builds_the_dataclass_defaults():
    cfg = load_config(None)
    assert scenario_config(cfg) == ScenarioConfig()
    assert vehicle_params(cfg) == VehicleParams()
    assert tracking_params(cfg) == TrackingParams()
    assert expert_params(cfg) == ExpertParams()
    assert graph_config(cfg) == GraphConfig()
    assert train_config(cfg) == TrainConfig()
    assert noise_params(cfg) == NoiseParams()


@pytest.mark.parametrize("section, key, value", [
    ("episode", "dt", float("nan")),
    ("vehicle", "a_max", float("inf")),
    ("traffic", "spawn_window_m", [3.0, 10.0, 18.0]),
    ("traffic", "react_to_ego", 1),
    ("train", "epochs", 2.0),
])
def test_wrong_json_type_rejected_naming_the_key(section, key, value):
    with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
        load_config(None, overrides={section: {key: value}})


def test_an_int_passes_for_a_float():
    cfg = load_config(None, overrides={"episode": {"dt": 1}, "traffic": {"cruise_speed_range": [2, 6]}})
    assert scenario_config(cfg).dt == 1 and scenario_config(cfg).cruise_speed_range == (2, 6)


def test_a_misspelt_key_has_no_range_check_and_is_named():
    assert key_check("eval.trials")[1] == "at least 1"
    with pytest.raises(ConfigError, match=r"'eval\.trial'; did you mean 'eval\.trials'\?"):
        key_check("eval.trial")
