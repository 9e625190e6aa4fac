"""Run configuration: one binding table from JSON keys to typed fields.

One JSON file per run, with sections layout, episode, traffic, vehicle, ego,
graph, expert, train and eval. `_TABLE` has one row per key: the dataclass
fields it sets, the JSON-to-field conversion and an optional range check. A
key's default is its field's dataclass default; only keys whose default no
field holds carry a literal. `DEFAULTS`, the valid keys and the typed builders
derive from the table. `load_config` names the nearest valid key for an unknown one and checks
each value's type, conversion and range, raising a `ConfigError` naming its key.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
import math
from collections import namedtuple
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

from .evaluation import TRAIN_DENSITIES
from .expert import ExpertParams
from .graph import EdgeStrategy, EdgeStrategyKind, GraphConfig
from .jsontypes import COMPACT, has_type_of, type_name
from .layout import Arm, Command
from .policies import NETWORK_KINDS
from .rollout import NoiseParams
from .tracking import TrackingParams
from .training import TrainConfig
from .vehicle import VehicleParams
from .world import ScenarioConfig


class ConfigError(ValueError):
    pass


# Range checks: (predicate on the converted value, what the key must be).
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
_FRACTION = (lambda v: 0 <= v <= 1, "in [0, 1]")
_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")


def _one_of(options):
    return (lambda v: v in options, f"one of: {', '.join(getattr(o, 'value', o) for o in options)}")


def _same(v):
    return v


def _densities(d: dict) -> dict:
    return {Command(k): v for k, v in d.items()}


# targets: (dataclass, field) pairs; "eval" marks a ScenarioConfig field that
# only the evaluation scenario takes from the key;
# convert: JSON value -> field value; check: (predicate, requirement) on the
# converted value; default: the JSON value.
_Row = namedtuple("_Row", "section name targets convert check default")
# The JSON form of a field default, for each conversion that is not the identity.
_TO_JSON = {math.radians: math.degrees, tuple: list,
            Arm: attrgetter("value"), EdgeStrategyKind: attrgetter("value")}


def _row(key, *targets, convert=_same, check=None, default=None) -> _Row:
    """Without a literal `default`, the first target field's default in JSON form."""
    if default is None:
        cls, name = targets[0]
        default = _TO_JSON.get(convert, _same)(getattr(cls(), name))
    return _Row(*key.split("."), targets, convert, check, default)


_TABLE = (
    _row("layout.lane_width", (ScenarioConfig, "lane_width"), check=_POSITIVE),
    _row("layout.arm_length", (ScenarioConfig, "arm_length"), check=_POSITIVE),
    _row("layout.goal_offset_m", (ScenarioConfig, "goal_offset"), check=_POSITIVE),
    _row("episode.dt", (ScenarioConfig, "dt"), check=_POSITIVE),
    _row("episode.timeout_s", (ScenarioConfig, "timeout_s"), check=_POSITIVE),
    _row("episode.success_radius_m", (ScenarioConfig, "success_radius"), check=_POSITIVE),
    _row("episode.miss_receding_s", (ScenarioConfig, "miss_receding_s"), check=_POSITIVE),
    _row("traffic.density", (ScenarioConfig, "density"), check=_NON_NEGATIVE),
    _row("traffic.min_separation_m", (ScenarioConfig, "min_separation"), check=_NON_NEGATIVE),
    _row("traffic.cruise_speed_range", (ScenarioConfig, "cruise_speed_range"), convert=tuple),
    _row("traffic.spawn_window_m", (ScenarioConfig, "spawn_window"), convert=tuple),
    _row("traffic.nonconflicting_fraction", (ScenarioConfig, "nonconflicting_fraction"),
         check=_FRACTION),
    _row("traffic.small_agent_fraction", (ScenarioConfig, "small_agent_fraction"), check=_FRACTION),
    _row("traffic.react_to_ego", (ScenarioConfig, "react_to_ego")),
    _row("traffic.allow_ego_arm", (ScenarioConfig, "allow_ego_arm")),
    _row("traffic.follow_gap_m", (TrackingParams, "follow_gap"), check=_POSITIVE),
    _row("traffic.desired_gap_m", (TrackingParams, "desired_gap"), check=_NON_NEGATIVE),
    _row("vehicle.wheelbase", (VehicleParams, "wheelbase"), check=_POSITIVE),
    _row("vehicle.phi_max_deg", (VehicleParams, "phi_max"), convert=math.radians,
         check=(lambda v: 0 < v < math.pi / 2, "in (0, 90)")),
    _row("vehicle.a_max", (VehicleParams, "a_max"), check=_POSITIVE),
    _row("vehicle.b_max", (VehicleParams, "b_max"), check=_POSITIVE),
    _row("vehicle.v_max", (VehicleParams, "v_max"), check=_POSITIVE),
    _row("vehicle.length", (ScenarioConfig, "length"), check=_POSITIVE),
    _row("vehicle.width", (ScenarioConfig, "width"), check=_POSITIVE),
    _row("ego.arm", (ScenarioConfig, "ego_arm"), convert=Arm, check=_one_of(Arm)),
    _row("ego.spawn_window_m", (ScenarioConfig, "ego_spawn_window"), convert=tuple),
    _row("ego.start_speed", (ScenarioConfig, "ego_start_speed"), check=_NON_NEGATIVE),
    _row("graph.strategy", (EdgeStrategy, "kind"), convert=EdgeStrategyKind,
         check=_one_of(EdgeStrategyKind)),
    _row("graph.alpha_m", (EdgeStrategy, "alpha_m"), check=_POSITIVE),
    _row("graph.k", (EdgeStrategy, "k"), check=_AT_LEAST_ONE),
    _row("graph.include_ego_candidate", (EdgeStrategy, "include_ego_candidate")),
    _row("graph.ego_frame", (GraphConfig, "ego_frame")),
    _row("expert.lookahead_m", (TrackingParams, "lookahead"), check=_POSITIVE),
    _row("expert.ttc_threshold_s", (ExpertParams, "ttc_threshold"), check=_NON_NEGATIVE),
    _row("expert.creep_speed", (ExpertParams, "creep_speed"), check=_NON_NEGATIVE),
    # checkpoints store the graph encoder's copy, so both fields follow this key
    _row("expert.v_pref", (ExpertParams, "v_pref"), (GraphConfig, "v_pref"), check=_POSITIVE),
    _row("expert.yield_zone_m", (ExpertParams, "yield_zone"), check=_NON_NEGATIVE),
    _row("expert.stop_distance_m", (ExpertParams, "stop_distance"), check=_NON_NEGATIVE),
    _row("expert.speed_kp", (TrackingParams, "speed_kp"), check=_POSITIVE),
    _row("expert.capture_distance_m", (TrackingParams, "capture_distance"), check=_POSITIVE),
    _row("expert.noise_burst_prob", (NoiseParams, "burst_prob"), check=_FRACTION),
    _row("expert.noise_duration_s", (NoiseParams, "duration_s"), convert=tuple,
         check=(lambda v: 0 <= v[0] <= v[1], "an ordered pair of non-negative durations")),
    _row("expert.noise_delta_amp", (NoiseParams, "delta_amp"), check=_NON_NEGATIVE),
    _row("expert.noise_tau_amp", (NoiseParams, "tau_amp"), check=_NON_NEGATIVE),
    _row("train.batch_size", (TrainConfig, "batch_size"), check=(lambda v: v >= 3, "at least 3")),
    _row("train.epochs", (TrainConfig, "epochs"), check=_NON_NEGATIVE),
    _row("train.lr", (TrainConfig, "lr"), check=_POSITIVE),
    _row("train.beta1", (TrainConfig, "beta1"), check=(lambda v: 0 <= v < 1, "in [0, 1)")),
    _row("train.beta2", (TrainConfig, "beta2"), check=(lambda v: 0 <= v < 1, "in [0, 1)")),
    _row("train.epsilon", (TrainConfig, "epsilon"), check=_POSITIVE),
    _row("train.eval_every", (TrainConfig, "eval_every"), check=_NON_NEGATIVE),
    _row("train.seed", (TrainConfig, "seed"), check=_NON_NEGATIVE),
    _row("train.network", (TrainConfig, "network"), check=_one_of(NETWORK_KINDS)),
    _row("train.episodes_per_command", check=_AT_LEAST_ONE, default=100),
    _row("train.densities", convert=_densities,
         check=(lambda d: min(d.values()) >= 0, "non-negative counts for forward, turn_left, turn_right"),
         default={c.value: n for c, n in TRAIN_DENSITIES.items()}),
    _row("eval.trials", check=_AT_LEAST_ONE, default=70),
    _row("eval.base_seed", check=_NON_NEGATIVE, default=10000),
    _row("eval.spawn_window_m", ("eval", "spawn_window"), convert=tuple, default=[19.0, 35.0]),
    _row("eval.ego_spawn_window_m", ("eval", "ego_spawn_window"), convert=tuple, default=[17.0, 22.0]),
    _row("eval.nonconflicting_fraction", ("eval", "nonconflicting_fraction"), check=_FRACTION,
         default=0.25),
)

DEFAULTS = {section: {r.name: r.default for r in _TABLE if r.section == section}
            for section in dict.fromkeys(r.section for r in _TABLE)}
_VALID_KEYS = [*DEFAULTS, *(f"{r.section}.{r.name}" for r in _TABLE)]


def _unknown_key(dotted: str) -> ConfigError:
    hint = difflib.get_close_matches(dotted, _VALID_KEYS, n=1)
    suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
    return ConfigError(f"unknown config key {dotted!r}{suggestion}")


def _overlay(cfg: dict, user: dict) -> None:
    """Write the user's values into `cfg`; a dict value (the densities) is
    merged key by key into the current one."""
    for section, keys in user.items():
        if section not in DEFAULTS:
            raise _unknown_key(section)
        if not isinstance(keys, dict):
            raise ConfigError(f"config key {section!r} must be a section")
        for key, value in keys.items():
            if key not in DEFAULTS[section]:
                raise _unknown_key(f"{section}.{key}")
            current = cfg[section][key]
            if isinstance(current, dict) and isinstance(value, dict):
                value = {**current, **value}
            cfg[section][key] = copy.deepcopy(value)


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with the config file, overlaid with flag overrides.
    Every refusal names the file, when one is given."""
    cfg = copy.deepcopy(DEFAULTS)
    user = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    try:
        _overlay(cfg, user)
        _overlay(cfg, overrides or {})
        _validate(cfg)
    except ConfigError as exc:
        if path is None:
            raise
        raise ConfigError(f"config file {path}: {exc}") from exc
    return cfg


def _validate(cfg: dict) -> None:
    for row in _TABLE:
        key, value = f"{row.section}.{row.name}", cfg[row.section][row.name]
        if not has_type_of(value, row.default):
            raise ConfigError(f"{key} must be {type_name(row.default)}, got {value!r}")
        predicate, requirement = row.check or (lambda v: True, "")
        try:
            ok = predicate(row.convert(value))
        except ValueError:  # an enum conversion names its valid values in the check
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {requirement}, got {value!r}")
    lo, hi = cfg["traffic"]["cruise_speed_range"]
    if not (0.0 < lo <= hi <= cfg["vehicle"]["v_max"]):
        raise ConfigError("traffic.cruise_speed_range must be within (0, vehicle.v_max]")
    for section, key in (("traffic", "spawn_window_m"), ("ego", "spawn_window_m"),
                         ("eval", "spawn_window_m"), ("eval", "ego_spawn_window_m")):
        a, b = cfg[section][key]
        if not (0.0 < a < b <= cfg["layout"]["arm_length"]):
            raise ConfigError(f"{section}.{key} must lie within (0, layout.arm_length]")


def key_check(key: str) -> tuple:
    """The (predicate, requirement) range check of the dotted config `key`;
    an unknown key is a ConfigError naming it."""
    for row in _TABLE:
        if f"{row.section}.{row.name}" == key:
            return row.check
    raise _unknown_key(key)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(COMPACT.encode(cfg).encode()).hexdigest()


def _fields(target, cfg: dict) -> dict:
    """Converted values of the rows that set fields of `target`, by field name."""
    return {name: row.convert(cfg[row.section][row.name])
            for row in _TABLE for cls, name in row.targets if cls == target}


def _build(cls, cfg: dict, **extra):
    return cls(**_fields(cls, cfg), **extra)


def vehicle_params(cfg: dict) -> VehicleParams:
    return _build(VehicleParams, cfg)


def tracking_params(cfg: dict) -> TrackingParams:
    return _build(TrackingParams, cfg)


def graph_config(cfg: dict) -> GraphConfig:
    return _build(GraphConfig, cfg, strategy=_build(EdgeStrategy, cfg))


def expert_params(cfg: dict) -> ExpertParams:
    return _build(ExpertParams, cfg)


def noise_params(cfg: dict) -> NoiseParams | None:
    noise = _build(NoiseParams, cfg)
    return noise if noise.burst_prob > 0.0 else None


def scenario_config(cfg: dict, mode: str = "train") -> ScenarioConfig:
    """Scenario template for one run; evaluation mode uses its own disjoint
    spawn windows and non-conflicting traffic fraction."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"scenario mode must be 'train' or 'eval', got {mode!r}")
    scenario = _build(ScenarioConfig, cfg, vehicle=vehicle_params(cfg), tracking=tracking_params(cfg))
    return replace(scenario, **_fields("eval", cfg)) if mode == "eval" else scenario


def train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg, graph=graph_config(cfg))


def train_densities(cfg: dict) -> dict:
    return _densities(cfg["train"]["densities"])
