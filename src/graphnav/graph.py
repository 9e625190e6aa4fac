"""World-to-graph encoding: node feature matrix and row-stochastic adjacency.

Node 0 is always the ego. Every row of the feature matrix starts with the
shared ego/goal block (6 values) followed by that node's relative block
(6 values, zeros for the ego's own row). The adjacency is built under a
selectable edge strategy and row-normalized to sum 1 with exact summation,
so consistent relabelings of the inputs permute it bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .world import GoalSpec, WorldState

FEATURE_DIM = 12
EGO_DIM = 6


class EdgeStrategyKind(Enum):
    N_CLOSE_WEIGHTED = "n_close_weighted"
    FULLY_CONNECTED = "fully_connected"
    STAR_CONNECTED = "star_connected"
    NON_WEIGHTED = "non_weighted"


@dataclass(frozen=True)
class EdgeStrategy:
    kind: EdgeStrategyKind = EdgeStrategyKind.N_CLOSE_WEIGHTED
    alpha_m: float = 10.0          # distance decay scale, m
    k: int = 3                     # neighbor count for non-ego nodes
    include_ego_candidate: bool = True  # ego competes as a "nearest" neighbor

    def __post_init__(self) -> None:
        if self.alpha_m <= 0:
            raise ValueError(f"alpha_m must be positive, got {self.alpha_m}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class GraphConfig:
    strategy: EdgeStrategy = field(default_factory=EdgeStrategy)
    v_pref: float = 6.0      # m/s, preferred ego speed used by the v_err feature
    ego_frame: bool = False  # rotate vector features into the ego frame


def edge_weight(d: float, alpha: float) -> float:
    """Distance-decayed edge weight exp(-d^2 / alpha^2); 1.0 at d = 0."""
    if d < 0 or alpha <= 0:
        raise ValueError(f"need d >= 0 and alpha > 0, got d={d}, alpha={alpha}")
    return math.exp(-(d * d) / (alpha * alpha))


def _rotate(pairs: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return pairs @ rot.T


def build_features(world: WorldState, goal: GoalSpec, v_pref: float, ego_frame: bool = False) -> np.ndarray:
    """N x 12 node feature matrix; row i is [shared ego block, relative block i]."""
    x, y, heading, speed = world.x, world.y, world.heading, world.speed
    ex, ey, ev = x[0], y[0], speed[0]
    evx, evy = ev * math.cos(heading[0]), ev * math.sin(heading[0])
    gx = goal.target[0] - ex
    gy = goal.target[1] - ey
    ego_v = (evx, evy)  # the ego block's copy; relative velocities use the world-frame one
    if ego_frame:
        back = -heading[0]
        gx, gy = _rotate(np.array([[gx, gy]]), back)[0]
        ego_v = _rotate(np.array([ego_v]), back)[0]

    # one flat list of rows [ego block, 0, dx, dy, 0, dvx, dvy]; the norms fill the zeros below
    x_ego = [math.hypot(gx, gy), gx, gy, v_pref - ev, *ego_v]
    flat = x_ego + [0.0] * (FEATURE_DIM - EGO_DIM)
    for k in range(1, len(x)):
        v = speed[k]
        flat += x_ego
        flat += (0.0, x[k] - ex, y[k] - ey,
                 0.0, v * math.cos(heading[k]) - evx, v * math.sin(heading[k]) - evy)
    # copied so that the array owns its data: recorded samples keep it, and a
    # reshaped view would keep a second array header alive with it
    feats = np.fromiter(flat, float, len(flat)).reshape(-1, FEATURE_DIM).copy()

    if ego_frame:  # rotate [dx, dy, dvx, dvy] as one (N, 4) array; the ego row stays zero
        rel = feats[:, [7, 8, 10, 11]]
        rel[:, 0:2] = _rotate(rel[:, 0:2], back)
        rel[:, 2:4] = _rotate(rel[:, 2:4], back)
        feats[1:, [7, 8, 10, 11]] = rel[1:]
    feats[1:, 6::3] = np.hypot(feats[1:, 7::3], feats[1:, 8::3])  # |(dx, dy)| and |(dvx, dvy)|
    return feats


def ego_feature(features: np.ndarray) -> np.ndarray:
    return features[0, :EGO_DIM].copy()


def build_adjacency(positions, strategy: EdgeStrategy) -> np.ndarray:
    """N x N row-stochastic adjacency over node positions (node 0 = ego)."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
        raise ValueError(f"positions must be (N, 2) with N >= 1, got {pos.shape}")
    n = pos.shape[0]
    kind = strategy.kind
    if kind is EdgeStrategyKind.FULLY_CONNECTED:
        return np.full((n, n), 1.0 / n)  # each row sums n ones, exactly n
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    if kind in (EdgeStrategyKind.N_CLOSE_WEIGHTED, EdgeStrategyKind.STAR_CONNECTED):
        weights = np.square(dist)
        weights /= -(strategy.alpha_m**2)  # the same bits as -(d**2) / alpha**2
        rows = np.exp(weights, out=weights).tolist()
    else:
        rows = [[1.0] * n for _ in range(n)]
    if kind is EdgeStrategyKind.STAR_CONNECTED:
        for i in range(1, n):  # the ego row keeps every node
            raw = [0.0] * n
            raw[0] = rows[i][0]
            raw[i] = rows[i][i]
            rows[i] = raw
    else:  # n-close sparsity: the k nearest, ties to the lower index
        k, skip_ego = strategy.k, not strategy.include_ego_candidate
        orders = np.argsort(dist, axis=1, kind="stable").tolist()
        for i in range(1, n):
            entries = rows[i]
            raw = [0.0] * n
            raw[i] = entries[i]
            picked = 0
            for j in orders[i]:
                if j == i or (j == 0 and skip_ego):
                    continue
                raw[j] = entries[j]
                picked += 1
                if picked >= k:
                    break
            rows[i] = raw
    # exact per-row sums keep normalization invariant under node relabeling
    totals = np.array(list(map(math.fsum, rows)))
    return np.fromiter(chain.from_iterable(rows), float, n * n).reshape(n, n) / totals[:, None]


def world_positions(world: WorldState) -> np.ndarray:
    return np.column_stack((world.x, world.y))


def encode_world(world: WorldState, goal: GoalSpec, cfg: GraphConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convenience bundle: (features, adjacency, ego block) for one world state."""
    feats = build_features(world, goal, cfg.v_pref, cfg.ego_frame)
    adj = build_adjacency(world_positions(world), cfg.strategy)
    return feats, adj, ego_feature(feats)


def adjacency_from_features(features: np.ndarray, strategy: EdgeStrategy) -> np.ndarray:
    """Rebuild the adjacency from the relative positions stored in the features.

    Lets one recorded dataset be re-encoded under any edge strategy: pairwise
    distances are recoverable from the per-node relative offsets.
    """
    feats = np.asarray(features, dtype=float)
    rel = np.zeros((feats.shape[0], 2))
    rel[1:] = feats[1:, 7:9]
    return build_adjacency(rel, strategy)
