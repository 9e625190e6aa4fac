"""Checkpoint files: network weights, graph settings, optimizer state.

Plain JSON with sorted keys so that save -> load -> save is byte-identical.
Every checkpoint embeds the network kind and the graph-encoder configuration
needed to reproduce the policy's inputs.

The model is never held as one document: `save_checkpoint` streams the
weights and Adam moments one array row at a time into a temporary file that
replaces the checkpoint only once complete, and `load_checkpoint` turns each
parsed weight table into float arrays as soon as it is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .graph import EdgeStrategy, EdgeStrategyKind, GraphConfig
from .nn import Adam
from .policies import NETWORK_KINDS, build_network

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, version-mismatched, or structurally invalid checkpoint."""


def graph_config_to_dict(cfg: GraphConfig) -> dict:
    return {
        "strategy": cfg.strategy.kind.value,
        "alpha_m": cfg.strategy.alpha_m,
        "k": cfg.strategy.k,
        "include_ego_candidate": cfg.strategy.include_ego_candidate,
        "v_pref": cfg.v_pref,
        "ego_frame": cfg.ego_frame,
    }


def graph_config_from_dict(d: dict) -> GraphConfig:
    strategy = EdgeStrategy(
        kind=EdgeStrategyKind(d["strategy"]),
        alpha_m=float(d["alpha_m"]),
        k=int(d["k"]),
        include_ego_candidate=bool(d["include_ego_candidate"]),
    )
    return GraphConfig(strategy=strategy, v_pref=float(d["v_pref"]), ego_frame=bool(d["ego_frame"]))


@dataclass
class LoadedCheckpoint:
    network: object
    graph: GraphConfig
    optimizer_state: dict | None
    train_state: dict | None


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _write_json(fh, value) -> None:
    """Write `_dumps(value)` to `fh` without building it: dicts key by key in
    sorted order, an ndarray row by row, anything else through `_dumps`."""
    if isinstance(value, dict):
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write("," if i else "")
            fh.write(_dumps(key) + ":")
            _write_json(fh, value[key])
        fh.write("}")
    elif isinstance(value, np.ndarray) and value.ndim > 1:
        fh.write("[")
        for i, row in enumerate(value):
            fh.write("," if i else "")
            _write_json(fh, row)
        fh.write("]")
    else:
        fh.write(_dumps(value.tolist() if isinstance(value, np.ndarray) else value))


def save_checkpoint(path, network, graph_cfg: GraphConfig,
                    optimizer: Adam | None = None, train_state: dict | None = None) -> Path:
    """Write the checkpoint atomically; its bytes are those of `_dumps(doc)`
    plus a newline, streamed so that at most one array row is converted to
    Python floats at a time."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": network.kind,
        "topology": network.topology(),
        "graph": graph_config_to_dict(graph_cfg),
        "params": network.parameters(),
        "optimizer": optimizer.state_dict() if optimizer is not None else None,
        "train_state": train_state,
    }
    path = Path(path)
    with atomic_write(path) as fh:
        _write_json(fh, doc)
        fh.write("\n")
    return path


def _arrays(pairs):
    """JSON object hook: an object whose values are all lists (a weight or
    moment table) gets each list that converts as a float array; a list that
    does not convert, such as a ragged one, stays a list for the checks."""
    obj = dict(pairs)
    if obj and all(isinstance(v, list) for v in obj.values()):
        for key, value in obj.items():
            try:
                obj[key] = np.array(value, dtype=float)
            except (ValueError, TypeError):
                pass
    return obj


def _plain(value):
    """A value as JSON parsed it, before `_arrays` made a float array of it."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def load_checkpoint(path, expected_kind: str | None = None) -> LoadedCheckpoint:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_arrays)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path}: expected a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format version {version} unsupported (need {FORMAT_VERSION})")
    kind = doc.get("kind")
    if kind not in NETWORK_KINDS:
        raise CheckpointError(f"checkpoint {path}: unknown network kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(
            f"checkpoint {path} holds a {kind!r} network, expected {expected_kind!r}")

    network = build_network(kind, seed=0)
    topology = network.topology()
    saved_topology = doc.get("topology")
    if not isinstance(saved_topology, dict):
        saved_topology = {}
    differing = sorted(key for key in set(topology) | set(saved_topology)
                       if _plain(saved_topology.get(key)) != topology.get(key))
    if differing:
        raise CheckpointError(f"checkpoint {path}: topology does not match the {kind!r} "
                              f"network: differing keys {differing}")
    params = network.parameters()
    saved = doc.get("params", {})
    if set(saved) != set(params):
        missing = sorted(set(params) - set(saved))
        extra = sorted(set(saved) - set(params))
        raise CheckpointError(f"checkpoint {path}: parameter names do not match topology: "
                              f"missing={missing}, extra={extra}")
    for name, target in params.items():
        arr = saved[name]
        if not isinstance(arr, np.ndarray):
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} is not a numeric array")
        if arr.shape != target.shape:
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} has shape "
                                  f"{arr.shape}, expected {target.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} holds a non-finite value")
        target[...] = arr

    try:
        graph_cfg = graph_config_from_dict(doc["graph"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: invalid graph section: {exc}") from exc
    return LoadedCheckpoint(
        network=network,
        graph=graph_cfg,
        optimizer_state=doc.get("optimizer"),
        train_state=doc.get("train_state"),
    )
