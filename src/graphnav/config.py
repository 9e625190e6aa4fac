"""Run configuration: defaults, file loading, key validation, typed builders.

One flat JSON file per run with sections (layout, episode, traffic, vehicle,
ego, graph, expert, train, eval). Unknown keys are rejected with the nearest
valid key named, so typos fail fast instead of silently using defaults.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
import math
from pathlib import Path

from .expert import ExpertParams
from .graph import EdgeStrategy, EdgeStrategyKind, GraphConfig
from .layout import Arm, Command
from .policies import NETWORK_KINDS
from .tracking import TrackingParams
from .vehicle import VehicleParams
from .world import ScenarioConfig


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "layout": {
        "lane_width": 4.0,
        "arm_length": 40.0,
        "goal_offset_m": 10.0,
    },
    "episode": {
        "dt": 0.1,
        "timeout_s": 30.0,
        "success_radius_m": 2.0,
        "miss_receding_s": 2.0,
    },
    "traffic": {
        "density": 3,
        "min_separation_m": 6.0,
        "cruise_speed_range": [3.0, 7.0],
        "spawn_window_m": [3.0, 18.0],
        "nonconflicting_fraction": 0.0,
        "small_agent_fraction": 0.0,
        "react_to_ego": False,
        "allow_ego_arm": False,
        "follow_gap_m": 8.0,
        "desired_gap_m": 6.0,
    },
    "vehicle": {
        "wheelbase": 2.5,
        "phi_max_deg": 35.0,
        "a_max": 3.0,
        "b_max": 6.0,
        "v_max": 10.0,
        "length": 4.0,
        "width": 2.0,
    },
    "ego": {
        "arm": "south",
        "spawn_window_m": [10.0, 16.0],
        "start_speed": 4.0,
    },
    "graph": {
        "strategy": "n_close_weighted",
        "alpha_m": 10.0,
        "k": 3,
        "include_ego_candidate": True,
        "ego_frame": False,
    },
    "expert": {
        "lookahead_m": 4.0,
        "ttc_threshold_s": 2.5,
        "creep_speed": 1.5,
        "v_pref": 6.0,
        "yield_zone_m": 1.0,
        "stop_distance_m": 5.0,
        "speed_kp": 0.5,
        "capture_distance_m": 3.0,
        "noise_burst_prob": 0.03,
        "noise_duration_s": [0.4, 1.0],
        "noise_delta_amp": 0.35,
        "noise_tau_amp": 0.2,
    },
    "train": {
        "batch_size": 512,
        "epochs": 50,
        "lr": 0.001,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "eval_every": 200,
        "seed": 0,
        "network": "gcil",
        "episodes_per_command": 100,
        "densities": {"forward": 5, "turn_left": 3, "turn_right": 3},
    },
    "eval": {
        "trials": 70,
        "base_seed": 10000,
        "spawn_window_m": [19.0, 35.0],
        "ego_spawn_window_m": [17.0, 22.0],
        "nonconflicting_fraction": 0.25,
    },
}


def _flat_keys(tree: dict, prefix: str = "") -> list[str]:
    keys = []
    for k, v in tree.items():
        dotted = f"{prefix}{k}"
        keys.append(dotted)
        if isinstance(v, dict):
            keys.extend(_flat_keys(v, prefix=f"{dotted}."))
    return keys


_VALID_KEYS = _flat_keys(DEFAULTS)


def _validate_tree(user: dict, defaults: dict, prefix: str = "") -> None:
    for key, value in user.items():
        dotted = f"{prefix}{key}"
        if key not in defaults:
            hint = difflib.get_close_matches(dotted, _VALID_KEYS, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown config key {dotted!r}{suggestion}")
        if isinstance(defaults[key], dict) and key != "densities":
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted!r} must be a section")
            _validate_tree(value, defaults[key], prefix=f"{dotted}.")


def _merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with the config file, overlaid with flag overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _validate_tree(user, DEFAULTS)
        cfg = _merge(cfg, user)
    if overrides:
        _validate_tree(overrides, DEFAULTS)
        cfg = _merge(cfg, overrides)
    _sanity(cfg)
    return cfg


def _sanity(cfg: dict) -> None:
    lo, hi = cfg["traffic"]["cruise_speed_range"]
    if not (0.0 < lo <= hi <= cfg["vehicle"]["v_max"]):
        raise ConfigError("traffic.cruise_speed_range must be within (0, vehicle.v_max]")
    for section, key in (("traffic", "spawn_window_m"), ("ego", "spawn_window_m"),
                         ("eval", "spawn_window_m"), ("eval", "ego_spawn_window_m")):
        a, b = cfg[section][key]
        if not (0.0 < a < b <= cfg["layout"]["arm_length"]):
            raise ConfigError(f"{section}.{key} must lie within (0, layout.arm_length]")
    if cfg["episode"]["dt"] <= 0:
        raise ConfigError("episode.dt must be positive")
    for key in ("length", "width"):
        if not cfg["vehicle"][key] > 0:
            raise ConfigError(f"vehicle.{key} must be positive")
    if cfg["train"]["network"] not in NETWORK_KINDS:
        raise ConfigError(f"train.network must be one of: {', '.join(NETWORK_KINDS)}")
    try:
        EdgeStrategyKind(cfg["graph"]["strategy"])
    except ValueError:
        valid = ", ".join(k.value for k in EdgeStrategyKind)
        raise ConfigError(f"graph.strategy must be one of: {valid}") from None


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def vehicle_params(cfg: dict) -> VehicleParams:
    v = cfg["vehicle"]
    return VehicleParams(
        wheelbase=v["wheelbase"],
        phi_max=math.radians(v["phi_max_deg"]),
        a_max=v["a_max"],
        b_max=v["b_max"],
        v_max=v["v_max"],
    )


def tracking_params(cfg: dict) -> TrackingParams:
    return TrackingParams(
        lookahead=cfg["expert"]["lookahead_m"],
        speed_kp=cfg["expert"]["speed_kp"],
        capture_distance=cfg["expert"]["capture_distance_m"],
        follow_gap=cfg["traffic"]["follow_gap_m"],
        desired_gap=cfg["traffic"]["desired_gap_m"],
    )


def graph_config(cfg: dict) -> GraphConfig:
    g = cfg["graph"]
    strategy = EdgeStrategy(
        kind=EdgeStrategyKind(g["strategy"]),
        alpha_m=g["alpha_m"],
        k=g["k"],
        include_ego_candidate=g["include_ego_candidate"],
    )
    return GraphConfig(strategy=strategy, v_pref=cfg["expert"]["v_pref"], ego_frame=g["ego_frame"])


def expert_params(cfg: dict) -> ExpertParams:
    e = cfg["expert"]
    return ExpertParams(
        lookahead=e["lookahead_m"],
        ttc_threshold=e["ttc_threshold_s"],
        creep_speed=e["creep_speed"],
        v_pref=e["v_pref"],
        yield_zone=e["yield_zone_m"],
        stop_distance=e["stop_distance_m"],
        speed_kp=e["speed_kp"],
        capture_distance=e["capture_distance_m"],
    )


def noise_params(cfg: dict):
    from .dataset import NoiseParams

    e = cfg["expert"]
    if e["noise_burst_prob"] <= 0.0:
        return None
    return NoiseParams(
        burst_prob=e["noise_burst_prob"],
        duration_s=tuple(e["noise_duration_s"]),
        delta_amp=e["noise_delta_amp"],
        tau_amp=e["noise_tau_amp"],
    )


def scenario_config(cfg: dict, mode: str = "train") -> ScenarioConfig:
    """Scenario template for one run; evaluation mode uses its own disjoint
    spawn windows and non-conflicting traffic fraction."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"scenario mode must be 'train' or 'eval', got {mode!r}")
    traffic = cfg["traffic"]
    if mode == "eval":
        spawn_window = tuple(cfg["eval"]["spawn_window_m"])
        ego_window = tuple(cfg["eval"]["ego_spawn_window_m"])
        nonconflicting = cfg["eval"]["nonconflicting_fraction"]
    else:
        spawn_window = tuple(traffic["spawn_window_m"])
        ego_window = tuple(cfg["ego"]["spawn_window_m"])
        nonconflicting = traffic["nonconflicting_fraction"]
    return ScenarioConfig(
        command=Command.FORWARD,
        density=traffic["density"],
        ego_arm=Arm(cfg["ego"]["arm"]),
        lane_width=cfg["layout"]["lane_width"],
        arm_length=cfg["layout"]["arm_length"],
        goal_offset=cfg["layout"]["goal_offset_m"],
        dt=cfg["episode"]["dt"],
        timeout_s=cfg["episode"]["timeout_s"],
        success_radius=cfg["episode"]["success_radius_m"],
        miss_receding_s=cfg["episode"]["miss_receding_s"],
        min_separation=traffic["min_separation_m"],
        cruise_speed_range=tuple(traffic["cruise_speed_range"]),
        spawn_window=spawn_window,
        nonconflicting_fraction=nonconflicting,
        small_agent_fraction=traffic["small_agent_fraction"],
        react_to_ego=traffic["react_to_ego"],
        allow_ego_arm=traffic["allow_ego_arm"],
        ego_spawn_window=ego_window,
        ego_start_speed=cfg["ego"]["start_speed"],
        length=cfg["vehicle"]["length"],
        width=cfg["vehicle"]["width"],
        vehicle=vehicle_params(cfg),
        tracking=tracking_params(cfg),
    )


def train_config(cfg: dict) -> "TrainConfig":
    from .training import TrainConfig

    t = cfg["train"]
    return TrainConfig(
        batch_size=t["batch_size"],
        epochs=t["epochs"],
        lr=t["lr"],
        beta1=t["beta1"],
        beta2=t["beta2"],
        epsilon=t["epsilon"],
        eval_every=t["eval_every"],
        seed=t["seed"],
        network=t["network"],
        graph=graph_config(cfg),
    )


def train_densities(cfg: dict) -> dict:
    d = cfg["train"]["densities"]
    return {Command(k): int(v) for k, v in d.items()}
