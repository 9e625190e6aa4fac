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

import numpy as np

from .vehicle import velocity
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
    ego = world.ego
    evx, evy = velocity(ego)
    gx = goal.target.x - ego.position.x
    gy = goal.target.y - ego.position.y

    n = 1 + len(world.surrounding)
    rel = np.zeros((n, 4))  # dx, dy, dvx, dvy per node (ego row stays zero)
    for i, agent in enumerate(world.surrounding, start=1):
        avx, avy = velocity(agent)
        rel[i] = (agent.position.x - ego.position.x, agent.position.y - ego.position.y,
                  avx - evx, avy - evy)

    if ego_frame:
        back = -ego.heading
        gx, gy = _rotate(np.array([[gx, gy]]), back)[0]
        evx, evy = _rotate(np.array([[evx, evy]]), back)[0]
        rel[:, 0:2] = _rotate(rel[:, 0:2], back)
        rel[:, 2:4] = _rotate(rel[:, 2:4], back)

    x_ego = np.array([math.hypot(gx, gy), gx, gy, v_pref - ego.speed, evx, evy])
    feats = np.zeros((n, FEATURE_DIM))
    feats[:, :EGO_DIM] = x_ego
    feats[1:, 6] = np.hypot(rel[1:, 0], rel[1:, 1])
    feats[1:, 7:9] = rel[1:, 0:2]
    feats[1:, 9] = np.hypot(rel[1:, 2], rel[1:, 3])
    feats[1:, 10:12] = rel[1:, 2:4]
    return feats


def ego_feature(features: np.ndarray) -> np.ndarray:
    return features[0, :EGO_DIM].copy()


def build_adjacency(positions, strategy: EdgeStrategy) -> np.ndarray:
    """N x N row-stochastic adjacency over node positions (node 0 = ego)."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
        raise ValueError(f"positions must be (N, 2) with N >= 1, got {pos.shape}")
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    weights = np.exp(-(dist**2) / (strategy.alpha_m**2))

    kind = strategy.kind
    if kind is EdgeStrategyKind.FULLY_CONNECTED:
        raw = np.ones((n, n))
    else:
        mask = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(mask, True)
        mask[0, :] = True
        if kind is EdgeStrategyKind.STAR_CONNECTED:
            mask[:, 0] = True
        else:  # n-close sparsity, weighted or not
            orders = np.argsort(dist, axis=1, kind="stable").tolist()
            for i in range(1, n):
                picked = 0
                for j in orders[i]:
                    if j == i or (j == 0 and not strategy.include_ego_candidate):
                        continue
                    mask[i, j] = True
                    picked += 1
                    if picked >= strategy.k:
                        break
        entries = np.ones((n, n)) if kind is EdgeStrategyKind.NON_WEIGHTED else weights
        raw = np.where(mask, entries, 0.0)

    # exact per-row sums keep normalization invariant under node relabeling
    row_sums = np.array([math.fsum(row) for row in raw.tolist()])
    return raw / row_sums[:, None]


def world_positions(world: WorldState) -> np.ndarray:
    return np.array([[v.position.x, v.position.y] for v in world.vehicles])


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
