"""Checkpoint files: network weights, graph settings, optimizer state.

Plain JSON with sorted keys so that save -> load -> save is byte-identical.
Every checkpoint embeds the network kind and the graph-encoder configuration
needed to reproduce the policy's inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def save_checkpoint(path, network, graph_cfg: GraphConfig,
                    optimizer: Adam | None = None, train_state: dict | None = None) -> Path:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": network.kind,
        "topology": network.topology(),
        "graph": graph_config_to_dict(graph_cfg),
        "params": {k: v.tolist() for k, v in network.parameters().items()},
        "optimizer": optimizer.state_dict() if optimizer is not None else None,
        "train_state": train_state,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def load_checkpoint(path, expected_kind: str | None = None) -> LoadedCheckpoint:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint format version {version} unsupported (need {FORMAT_VERSION})")
    kind = doc.get("kind")
    if kind not in NETWORK_KINDS:
        raise CheckpointError(f"unknown network kind {kind!r} in checkpoint")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"checkpoint holds a {kind!r} network, expected {expected_kind!r}")

    network = build_network(kind, seed=0)
    params = network.parameters()
    saved = doc.get("params", {})
    if set(saved) != set(params):
        missing = sorted(set(params) - set(saved))
        extra = sorted(set(saved) - set(params))
        raise CheckpointError(f"parameter names do not match topology: missing={missing}, extra={extra}")
    for name, target in params.items():
        arr = np.asarray(saved[name], dtype=float)
        if arr.shape != target.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {arr.shape}, expected {target.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} holds a non-finite value")
        target[...] = arr

    try:
        graph_cfg = graph_config_from_dict(doc["graph"])
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"invalid graph section in checkpoint: {exc}") from exc
    return LoadedCheckpoint(
        network=network,
        graph=graph_cfg,
        optimizer_state=doc.get("optimizer"),
        train_state=doc.get("train_state"),
    )
