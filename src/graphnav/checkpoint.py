"""Checkpoint files: network weights, graph settings, optimizer state.

Plain JSON with sorted keys so that save -> load -> save is byte-identical.
Every checkpoint embeds the network kind and the graph-encoder configuration
needed to reproduce the policy's inputs.

The model is never held as one document. `save_checkpoint` walks it once
into ordered pieces, strings and the rows of the weight and Adam-moment
arrays, and cuts them at the end of the row nearest half their floats.
Where two CPUs are usable a forked writer (`atomic.WriteBehind`) writes the
back half while this process writes the front half, one row at a time,
into a temporary file that replaces the checkpoint only once complete
(`atomic.atomic_write_halves`); elsewhere this process writes both halves.
The bytes are the same either way.
`load_checkpoint` turns each parsed weight table into float arrays as soon
as it is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write_halves
from .graph import EdgeStrategy, EdgeStrategyKind, GraphConfig
from .jsontypes import COMPACT, require_types
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


_GRAPH_TYPES = graph_config_to_dict(GraphConfig())


def graph_config_from_dict(d: dict) -> GraphConfig:
    require_types(d, _GRAPH_TYPES)
    strategy = EdgeStrategy(kind=EdgeStrategyKind(d["strategy"]), alpha_m=d["alpha_m"], k=d["k"],
                            include_ego_candidate=d["include_ego_candidate"])
    return GraphConfig(strategy=strategy, v_pref=d["v_pref"], ego_frame=d["ego_frame"])


@dataclass
class LoadedCheckpoint:
    network: object
    graph: GraphConfig
    optimizer_state: dict | None
    train_state: dict | None


def _pieces(value, out: list) -> list:
    """Append `COMPACT.encode(value)`'s text to `out` as ordered pieces:
    strings, and float rows, each written as one JSON list. Dicts go key by
    key in sorted order, a 1-D array is one row and a 2-D array one row per
    piece, with "," pieces between them."""
    if isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(("," if i else "") + COMPACT.encode(key) + ":")
            _pieces(value[key], out)
        out.append("}")
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        out.append("[")
        for i, row in enumerate(value):
            out += [",", row] if i else [row]
        out.append("]")
    elif isinstance(value, np.ndarray) and value.ndim == 1:
        out.append(value)
    else:
        out.append(COMPACT.encode(value))
    return out


def _emit(fh, pieces: list) -> None:
    """Write the pieces, converting one array row to Python floats at a time."""
    for piece in pieces:
        fh.write(piece if isinstance(piece, str) else COMPACT.encode(piece.tolist()))


def _halves(pieces: list) -> tuple[list, list]:
    """The pieces cut at the end of the row nearest half their floats."""
    floats = np.cumsum([0 if isinstance(piece, str) else piece.size for piece in pieces])
    cut = int(np.argmin(np.abs(2 * floats - floats[-1]))) + 1
    return pieces[:cut], pieces[cut:]


def save_checkpoint(path, network, graph_cfg: GraphConfig,
                    optimizer: Adam | None = None, train_state: dict | None = None) -> Path:
    """Write the checkpoint atomically; its bytes are those of
    `json.dumps(doc, sort_keys=True, separators=(",", ":"))` plus a newline."""
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
    atomic_write_halves(path, _emit, *_halves(_pieces(doc, []) + ["\n"]))
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_arrays)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    if not isinstance(saved, dict):
        raise CheckpointError(f"checkpoint {path}: params must be a JSON object, got {saved!r}")
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
        graph_cfg = graph_config_from_dict(doc.get("graph"))
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: invalid graph section: {exc}") from exc
    return LoadedCheckpoint(
        network=network,
        graph=graph_cfg,
        optimizer_state=doc.get("optimizer"),
        train_state=doc.get("train_state"),
    )
