"""Branched command-conditional policies over three perception frontends.

Every network is one skeleton, `BranchedPolicy`: a perception frontend whose
output feeds a shared trunk MLP, mapped to an action by the branch selected
by the high-level command. The graph policy's frontend is a 3-layer GCN
whose ego-node output is joined by the shared ego block; the two baselines
use a fixed nearest-3 vector MLP or a summed set encoding. `NETWORKS` is the
one place that maps a kind to its class; each class's static `inputs` turns
the observation's features and an edge strategy into what its forward takes
(only gcil's reads the strategy, to build the adjacency). `inputs` takes a
(..., N, 12) stack of one node count, so training builds a command
buffer's inputs, which share one node count, in one call per chunk, and
`act` the one sample's. The ego block is row 0's
first six features; no network takes it separately. A `GraphConfig` holds
both the feature settings and the edge strategy: `NetworkController` holds
only the network and acts under the `GraphConfig` its rollout passes.

Each class's static `canonical` puts a sample's nodes (or set elements) in
a canonical sort order, which makes permutation equivariance/invariance hold
bitwise despite floating-point summation order. The order is set once per
sample: `forward` (the `act` path) applies it to its one sample, training
applies it once to each buffer's stacked inputs, and `forward_batch` takes
inputs already in canonical order.
"""

from __future__ import annotations

import numpy as np

from .graph import EGO_DIM, FEATURE_DIM, GraphConfig, adjacency_from_features, encode_world
from .layout import COMMANDS, Command
from .nn import RELU, TANH, GcnLayer, Mlp
from .vehicle import Action

GCN_WIDTHS = (32, 32, 10)
TRUNK_WIDTHS = (128, 256, 64, 64)
BRANCH_HIDDEN = 64
PERCEPTION_WIDTHS = (64, 64, 64)
NNCIL_INPUT_DIM = 24  # ego block + three nearest relative blocks

# Characteristic scales dividing each feature block at the network boundary
# (meters for distances, m/s for speeds). Raw-unit inputs saturate the tanh
# head so hard that 1 - tanh^2 underflows to exactly zero and training
# freezes; dividing by fixed unit scales keeps activations in range. The
# scales are constants of the architecture, not data statistics.
BLOCK_SCALE = np.array([20.0, 20.0, 20.0, 5.0, 5.0, 5.0])
FEATURE_SCALE = np.concatenate([BLOCK_SCALE, BLOCK_SCALE])
NNCIL_SCALE = np.concatenate([BLOCK_SCALE] * 4)


def _canonical_order(x: np.ndarray, fixed: int) -> np.ndarray:
    """(B, N) row indices that put each (B, N, D) sample in canonical order.

    The first `fixed` rows keep their place; the rest sort lexicographically
    and stably, as np.lexsort does on finite rows. One Python sort per sample
    over its row lists serves every batch size.
    """
    batch, n = x.shape[:2]
    head = list(range(fixed))
    order = [head + sorted(range(fixed, n), key=rows.__getitem__) for rows in x.tolist()]
    return np.array(order, dtype=np.intp).reshape(batch, n)


def _named(prefix: str, pairs) -> dict:
    """Name a stack of (weight, bias) pairs `{prefix}.{i}.w` / `{prefix}.{i}.b`,
    such as the gradients an Mlp's backward returns."""
    return {f"{prefix}.{i}.{attr}": array
            for i, pair in enumerate(pairs) for attr, array in zip("wb", pair)}


def _slots(prefix: str, layers) -> dict:
    """Where each parameter of a stack of layers lives, (layer, attribute),
    named `{prefix}.{i}.w` / `{prefix}.{i}.b` as `_named` names them."""
    return {f"{prefix}.{i}.{attr}": (layer, attr)
            for i, layer in enumerate(layers) for attr in ("w", "b") if hasattr(layer, attr)}


class _BranchedHead:
    """Shared trunk MLP plus one two-layer branch per command."""

    def __init__(self, rng, n_in: int) -> None:
        self.n_in = n_in
        self.trunk = Mlp.create(rng, [n_in, *TRUNK_WIDTHS], [RELU] * len(TRUNK_WIDTHS))
        self.branches = {
            c: Mlp.create(rng, [TRUNK_WIDTHS[-1], BRANCH_HIDDEN, 2], [RELU, TANH])
            for c in COMMANDS
        }

    def forward(self, p: np.ndarray, command: Command):
        z, trunk_cache = self.trunk.forward(p)
        u, branch_cache = self.branches[command].forward(z)
        return u, (command, trunk_cache, branch_cache)

    def kink_margin(self, cache) -> float:
        command, trunk_cache, branch_cache = cache
        return min(self.trunk.kink_margin(trunk_cache),
                   self.branches[command].kink_margin(branch_cache))

    def backward(self, cache, du: np.ndarray):
        command, trunk_cache, branch_cache = cache
        dz, branch_grads = self.branches[command].backward(branch_cache, du)
        dp, trunk_grads = self.trunk.backward(trunk_cache, dz)
        grads = _named("trunk", trunk_grads)
        for c in COMMANDS:
            pairs = branch_grads if c is command else [
                (np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in self.branches[c].layers]
            grads.update(_named(f"branch.{c.value}", pairs))
        return dp, grads

    def slots(self) -> dict:
        slots = _slots("trunk", self.trunk.layers)
        for c in COMMANDS:
            slots.update(_slots(f"branch.{c.value}", self.branches[c].layers))
        return slots


class BranchedPolicy:
    """A perception frontend feeding the shared branched head.

    Each subclass builds `frontend`, its list of ReLU perception layers,
    from `rng` before the head, and names their parameters
    `{prefix}.{i}.w` / `.b` after its class `prefix`. It defines the static
    `inputs(feats, strategy)` tuple of (..., N, 12) features, the static
    `canonical` that puts (B, ...) inputs in canonical order, the
    `forward_batch` that takes them so ordered, its `backward_batch` and the
    frontend's topology keys. `forward` is the one-sample case: the same
    `inputs`, `canonical` and `forward_batch` at B=1. Batch caches start
    with (one cache per frontend layer, head cache), so the parameter slots
    and the ReLU kink margin walk `frontend` here.
    """

    kind: str
    prefix: str

    def topology(self) -> dict:
        return {**self.frontend_topology(), "trunk_widths": list(TRUNK_WIDTHS),
                "branch_hidden": BRANCH_HIDDEN}

    def slots(self) -> dict:
        """(layer, attribute) of every parameter, by name."""
        return {**_slots(self.prefix, self.frontend), **self.head.slots()}

    def parameters(self) -> dict:
        return {name: getattr(layer, attr) for name, (layer, attr) in self.slots().items()}

    def kink_margin(self, cache) -> float:
        return min(*(layer.kink_margin(c) for layer, c in zip(self.frontend, cache[0])),
                   self.head.kink_margin(cache[1]))

    def forward(self, *args):
        """One sample in any node order: the `inputs` tuple, then the command."""
        *inputs, command = args
        batch = self.canonical(*[np.asarray(a, dtype=float)[None] for a in inputs])
        u, cache = self.forward_batch(*batch, command)
        return u[0], cache

    def act(self, *args) -> Action:
        u, _ = self.forward(*args)
        return Action(float(u[0]), float(u[1]))


class GcilNetwork(BranchedPolicy):
    """GCN perception into the branched control head."""

    kind = "gcil"
    prefix = "gcn"

    def __init__(self, rng) -> None:
        widths = (FEATURE_DIM, *GCN_WIDTHS)
        self.frontend = [GcnLayer.create(rng, widths[i], widths[i + 1])
                         for i in range(len(GCN_WIDTHS))]
        self.head = _BranchedHead(rng, GCN_WIDTHS[-1] + EGO_DIM)

    @staticmethod
    def inputs(feats, strategy) -> tuple:
        return feats, adjacency_from_features(feats, strategy)

    @staticmethod
    def canonical(feats, adj) -> tuple:
        """The ego node first, the others sorted by their scaled rows; the
        adjacency follows the same order."""
        r = _canonical_order(feats / FEATURE_SCALE, 1)
        b = np.arange(len(r))[:, None]
        return feats[b, r], adj[b[:, :, None], r[:, :, None], r[:, None, :]]

    def frontend_topology(self) -> dict:
        return {"feature_dim": FEATURE_DIM, "gcn_widths": list(GCN_WIDTHS)}

    def forward_batch(self, feats: np.ndarray, adj: np.ndarray, command: Command):
        """A batch of `canonical` samples; the ego node is row 0, and its
        first EGO_DIM features are the ego block the head also takes."""
        h = feats / FEATURE_SCALE
        ego = feats[:, 0, :EGO_DIM] / BLOCK_SCALE
        gcn_caches = []
        for layer in self.frontend:
            h, cache = layer.forward(adj, h)
            gcn_caches.append(cache)
        p = np.concatenate([h[:, 0, :], ego], axis=1)
        u, head_cache = self.head.forward(p, command)
        return u, (gcn_caches, head_cache, h.shape)

    def backward_batch(self, cache, du: np.ndarray) -> dict:
        gcn_caches, head_cache, top_shape = cache
        dp, grads = self.head.backward(head_cache, du)
        dh = np.zeros(top_shape)
        dh[:, 0, :] = dp[:, :GCN_WIDTHS[-1]]  # the ego-block half of p is input, not parameter
        for i in range(len(self.frontend) - 1, -1, -1):
            dh, dw = self.frontend[i].backward(gcn_caches[i], dh)
            grads[f"gcn.{i}.w"] = dw
        return grads


def nncil_vector(feats: np.ndarray) -> np.ndarray:
    """Fixed 24-vectors of (..., N, 12) features: the ego block plus the three
    nearest relative blocks, sorted by relative distance (stable, so equal
    distances keep id order), zero-padded when fewer than three agents exist."""
    feats = np.asarray(feats, dtype=float)
    lead = feats.shape[:-2]
    others = feats[..., 1:, EGO_DIM:]
    order = others[..., 0].argsort(kind="stable")[..., :3]
    width = EGO_DIM * order.shape[-1]
    nearest = np.take_along_axis(others, order[..., None], axis=-2).reshape(lead + (width,))
    pad = np.zeros(lead + (NNCIL_INPUT_DIM - EGO_DIM - width,))
    return np.concatenate([feats[..., 0, :EGO_DIM], nearest, pad], axis=-1)


class NnCilNetwork(BranchedPolicy):
    """Fixed-width nearest-3 perception MLP into the branched control head."""

    kind = "nncil"
    prefix = "perception"

    def __init__(self, rng) -> None:
        widths = (NNCIL_INPUT_DIM, *PERCEPTION_WIDTHS)
        self.perception = Mlp.create(rng, list(widths), [RELU] * len(PERCEPTION_WIDTHS))
        self.frontend = self.perception.layers
        self.head = _BranchedHead(rng, PERCEPTION_WIDTHS[-1])

    @staticmethod
    def inputs(feats, strategy) -> tuple:
        return (nncil_vector(feats),)

    @staticmethod
    def canonical(x) -> tuple:
        """The identity: `nncil_vector` already fixes the slot order."""
        return (x,)

    def frontend_topology(self) -> dict:
        return {"input_dim": NNCIL_INPUT_DIM, "perception_widths": list(PERCEPTION_WIDTHS)}

    def forward_batch(self, x: np.ndarray, command: Command):
        x = x / NNCIL_SCALE
        z, pcache = self.perception.forward(x)
        u, head_cache = self.head.forward(z, command)
        return u, (pcache, head_cache)

    def backward_batch(self, cache, du: np.ndarray) -> dict:
        pcache, head_cache = cache
        dz, grads = self.head.backward(head_cache, du)
        _, pgrads = self.perception.backward(pcache, dz)
        grads.update(_named("perception", pgrads))
        return grads


def set_elements(feats: np.ndarray) -> np.ndarray:
    """(..., N, 6) elements of (..., N, 12) features for the set encoder: the
    ego block plus every relative block."""
    feats = np.asarray(feats, dtype=float)
    return np.concatenate([feats[..., :1, :EGO_DIM], feats[..., 1:, EGO_DIM:]], axis=-2)


class SetCilNetwork(BranchedPolicy):
    """Order-free perception: encode each 6-vector and sum, then the head."""

    kind = "setcil"
    prefix = "encoder"

    def __init__(self, rng) -> None:
        widths = (EGO_DIM, *PERCEPTION_WIDTHS)
        self.encoder = Mlp.create(rng, list(widths), [RELU] * len(PERCEPTION_WIDTHS))
        self.frontend = self.encoder.layers
        self.head = _BranchedHead(rng, PERCEPTION_WIDTHS[-1])

    @staticmethod
    def inputs(feats, strategy) -> tuple:
        return (set_elements(feats),)

    @staticmethod
    def canonical(elements) -> tuple:
        """The elements sorted by their scaled rows."""
        r = _canonical_order(elements / BLOCK_SCALE, 0)
        return (elements[np.arange(len(r))[:, None], r],)

    def frontend_topology(self) -> dict:
        return {"element_dim": EGO_DIM, "encoder_widths": list(PERCEPTION_WIDTHS)}

    def forward_batch(self, elements: np.ndarray, command: Command):
        """A batch of `canonical` element sets."""
        elems = elements / BLOCK_SCALE
        if elems.ndim != 3:
            raise ValueError(f"set elements must be (B, M, 6), got shape {elems.shape}")
        b, m, d = elems.shape
        enc, ecache = self.encoder.forward(elems.reshape(b * m, d))
        pooled = enc.reshape(b, m, -1).sum(axis=1)
        u, head_cache = self.head.forward(pooled, command)
        return u, (ecache, head_cache, (b, m))

    def backward_batch(self, cache, du: np.ndarray) -> dict:
        ecache, head_cache, (b, m) = cache
        dpool, grads = self.head.backward(head_cache, du)
        dspread = np.repeat(dpool, m, axis=0)
        _, egrads = self.encoder.backward(ecache, dspread)
        grads.update(_named("encoder", egrads))
        return grads


NETWORKS = {cls.kind: cls for cls in (GcilNetwork, NnCilNetwork, SetCilNetwork)}
NETWORK_KINDS = tuple(NETWORKS)


def build_network(kind: str, seed: int = 0, rng=None) -> BranchedPolicy:
    if kind not in NETWORKS:
        raise ValueError(f"unknown network kind {kind!r}, expected one of {NETWORK_KINDS}")
    if rng is None:
        rng = np.random.default_rng([seed, 1])
    return NETWORKS[kind](rng)


class NetworkController:
    """Adapts a policy network to the episode-loop controller interface: it
    encodes the world under the rollout's `GraphConfig` and acts on the
    network's inputs under that config's edge strategy."""

    def __init__(self, network) -> None:
        self.network = network

    def act(self, world, goal, command: Command, graph_cfg: GraphConfig) -> Action:
        feats = encode_world(world, goal, graph_cfg)
        return self.network.act(*self.network.inputs(feats, graph_cfg.strategy), command)
