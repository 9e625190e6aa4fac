"""World-to-graph encoding: node features (the observation) and adjacency.

Node 0 is always the ego. Every row of the feature matrix starts with the
shared ego/goal block (6 values) followed by that node's relative block
(6 values, zeros for the ego's own row). Only gcil builds an adjacency: from
the features' relative offsets under a selectable edge strategy,
row-normalized to sum 1 with exact summation, so consistent relabelings of
the inputs permute it bitwise. The adjacency is built for a (..., N) stack
of samples of one node count at once, with no per-sample path: training
passes a command buffer's samples, which share one node count, and the
controller one (N, 12) sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

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

    def __post_init__(self) -> None:
        if not self.v_pref > 0:
            raise ValueError(f"v_pref must be positive, got {self.v_pref}")

    def feature_settings(self) -> dict:
        """The settings `build_features` reads, as a dataset manifest records them."""
        return {"v_pref": self.v_pref, "ego_frame": self.ego_frame}


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
    ego = [math.hypot(gx, gy), gx, gy, v_pref - ev, *ego_v]
    flat = ego + [0.0] * (FEATURE_DIM - EGO_DIM)
    for k in range(1, len(x)):
        v = speed[k]
        flat += ego
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


def build_adjacency(positions, strategy: EdgeStrategy) -> np.ndarray:
    """(..., N, N) row-stochastic adjacencies over (..., N, 2) node positions
    (node 0 = ego); one sample is the (N, 2) case."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim < 2 or pos.shape[-1] != 2 or pos.shape[-2] < 1:
        raise ValueError(f"positions must be (..., N, 2) with N >= 1, got {pos.shape}")
    n = pos.shape[-2]
    kind = strategy.kind
    if kind is EdgeStrategyKind.FULLY_CONNECTED:
        return np.full(pos.shape[:-1] + (n,), 1.0 / n)  # each row sums n ones, exactly n
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    if kind is EdgeStrategyKind.NON_WEIGHTED:
        weights = np.ones_like(dist)
    else:
        weights = np.square(dist)
        weights /= -(strategy.alpha_m**2)  # the same bits as -(d**2) / alpha**2
        np.exp(weights, out=weights)
    if kind is EdgeStrategyKind.STAR_CONNECTED:  # each node keeps itself and the ego
        keep = np.eye(n, dtype=bool)
        keep[:, 0] = True
    else:  # itself and its k nearest, ties to the lower index
        skip_ego = not strategy.include_ego_candidate
        flat = dist.reshape(-1, n * n)  # a view: hypot's output is contiguous
        if skip_ego:
            flat[:, ::n] = np.nan  # column 0; nan ranks after every distance
        flat[:, ::n + 1] = -np.inf  # the diagonal ranks first
        # stable twice: numpy's default int sort pages in ~256 KB of SIMD sort code
        ranks = dist.argsort(kind="stable").argsort(kind="stable")
        keep = ranks <= min(strategy.k, n - 1 - skip_ego)
    keep[..., 0, :] = True  # the ego row keeps every node
    weights *= keep
    # exact per-row sums keep normalization invariant under node relabeling
    totals = np.fromiter(map(math.fsum, weights.reshape(-1, n).tolist()), float, weights.size // n)
    weights /= totals.reshape(weights.shape[:-1] + (1,))
    return weights


def encode_world(world: WorldState, goal: GoalSpec, cfg: GraphConfig) -> np.ndarray:
    """The observation of one world state: its (N, 12) features under `cfg`'s
    feature settings; the ego block is `features[0, :EGO_DIM]`. gcil's
    `inputs` builds the adjacency from them."""
    return build_features(world, goal, cfg.v_pref, cfg.ego_frame)


def adjacency_from_features(features: np.ndarray, strategy: EdgeStrategy) -> np.ndarray:
    """The adjacency over the (..., N, 12) features' relative positions, the
    ego at the origin: the one construction, so training sees the bits
    inference sees."""
    feats = np.asarray(features, dtype=float)
    rel = np.zeros(feats.shape[:-1] + (2,))
    rel[..., 1:, :] = feats[..., 1:, 7:9]
    return build_adjacency(rel, strategy)
