"""Dense-matrix neural layers with exact analytic backprop, Adam, and the action loss.

Everything runs in float64 numpy. Dense layers take (B, n_in) batches; the
graph layer takes a (B, N, N) adjacency with (B, N, n_in) node features.
Backward methods return parameter gradients summed over the batch.
"""

from __future__ import annotations

import math

import numpy as np

from .jsontypes import require_types

RELU = "relu"
TANH = "tanh"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, TANH, IDENTITY)


def he_uniform(rng, n_in: int, n_out: int) -> np.ndarray:
    """Fan-in scaled uniform init for ReLU layers."""
    limit = math.sqrt(6.0 / n_in)
    return rng.uniform(-limit, limit, size=(n_in, n_out))


def glorot_uniform(rng, n_in: int, n_out: int) -> np.ndarray:
    """Fan-average scaled uniform init for tanh/linear layers."""
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


class DenseLayer:
    """Affine map plus an elementwise activation."""

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"dense weight must be 2-d, got shape {w.shape}")
        if b.shape != (w.shape[1],):
            raise ValueError(f"bias shape {b.shape} does not fit weight {w.shape}")
        self.w = w
        self.b = b
        self.activation = activation

    @classmethod
    def create(cls, rng, n_in: int, n_out: int, activation: str) -> "DenseLayer":
        init = he_uniform if activation == RELU else glorot_uniform
        return cls(init(rng, n_in, n_out), np.zeros(n_out), activation)

    def forward(self, x: np.ndarray):
        if not (x.ndim == 2 and x.shape[1] == self.w.shape[0]):
            raise ValueError(f"dense layer expects (B, {self.w.shape[0]}), got {x.shape}")
        pre = x @ self.w
        pre += self.b
        if self.activation == RELU:
            out = np.maximum(pre, 0.0)
        elif self.activation == TANH:
            out = np.tanh(pre)
        else:
            out = pre
        return out, (x, pre, out)

    def backward(self, cache, upstream: np.ndarray):
        x, pre, out = cache
        if upstream.shape != pre.shape:
            raise ValueError(f"upstream shape {upstream.shape} does not match {pre.shape}")
        if self.activation == RELU:
            dpre = upstream * (pre > 0.0)
        elif self.activation == TANH:
            dpre = upstream * (1.0 - out * out)
        else:
            dpre = upstream
        dw = x.T @ dpre
        db = dpre.sum(axis=0)
        dx = dpre @ self.w.T
        return dx, dw, db

    def kink_margin(self, cache) -> float:
        """Distance of the closest pre-activation to the ReLU kink (inf if smooth)."""
        if self.activation != RELU:
            return np.inf
        pre = cache[1]
        return float(np.abs(pre).min()) if pre.size else np.inf


class GcnLayer:
    """Graph convolution relu(A @ H @ W); no bias, adjacency is a constant."""

    def __init__(self, w: np.ndarray) -> None:
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"gcn weight must be 2-d, got shape {w.shape}")
        self.w = w

    @classmethod
    def create(cls, rng, n_in: int, n_out: int) -> "GcnLayer":
        return cls(he_uniform(rng, n_in, n_out))

    def forward(self, adj: np.ndarray, h: np.ndarray):
        if not (adj.ndim == 3 and adj.shape[1] == adj.shape[2]):
            raise ValueError(f"adjacency must be (B, N, N), got {adj.shape}")
        if not (h.ndim == 3 and h.shape[:2] == adj.shape[:2] and h.shape[2] == self.w.shape[0]):
            raise ValueError(f"node features must be (B, {adj.shape[1]}, {self.w.shape[0]}), "
                             f"got {h.shape}")
        ah = adj @ h
        pre = ah @ self.w
        return np.maximum(pre, 0.0), (adj, ah, pre)

    def backward(self, cache, upstream: np.ndarray):
        adj, ah, pre = cache
        if upstream.shape != pre.shape:
            raise ValueError(f"upstream shape {upstream.shape} does not match {pre.shape}")
        dpre = upstream * (pre > 0.0)
        dw = np.tensordot(ah, dpre, axes=([0, 1], [0, 1]))
        dh = np.swapaxes(adj, 1, 2) @ (dpre @ self.w.T)
        return dh, dw

    def kink_margin(self, cache) -> float:
        pre = cache[2]
        return float(np.abs(pre).min()) if pre.size else np.inf


class Mlp:
    """A stack of dense layers applied in order."""

    def __init__(self, layers) -> None:
        self.layers = list(layers)

    @classmethod
    def create(cls, rng, widths, activations) -> "Mlp":
        if len(widths) != len(activations) + 1:
            raise ValueError("widths must be one longer than activations")
        layers = [DenseLayer.create(rng, widths[i], widths[i + 1], act)
                  for i, act in enumerate(activations)]
        return cls(layers)

    def forward(self, x: np.ndarray):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, upstream: np.ndarray):
        grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            upstream, dw, db = layer.backward(cache, upstream)
            grads.append((dw, db))
        return upstream, list(reversed(grads))

    def kink_margin(self, caches) -> float:
        return min(layer.kink_margin(cache) for layer, cache in zip(self.layers, caches))


def _views(flat: np.ndarray, like: dict) -> dict:
    """Consecutive views of the 1-d `flat`, shaped like the arrays of `like`."""
    ends = np.cumsum([array.size for array in like.values()])
    return {name: part.reshape(array.shape)
            for (name, array), part in zip(like.items(), np.split(flat, ends[:-1]))}


# Adam's scalar state as a checkpoint holds it: (JSON type, range rule) per key
_STATE_RULES = {"t": (0, lambda v: v >= 0, "non-negative"),
                "lr": (0.0, lambda v: v > 0, "positive"),
                "beta1": (0.0, lambda v: 0 <= v < 1, "in [0, 1)"),
                "beta2": (0.0, lambda v: 0 <= v < 1, "in [0, 1)"),
                "eps": (0.0, lambda v: v > 0, "positive")}


class Adam:
    """Bias-corrected Adam over a named parameter dict, updated in place.

    Its (4, size) float64 buffer `flat`, an anonymous shared mapping that a
    later fork sees too, holds the parameters (a copy of `params`), their
    gradient and the two moments; `params`, `grads`, `m` and `v` are its
    rows' views by name, and the update is one elementwise pass over it.
    step() takes only these views: write the gradient into `grads` first.
    """

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        import mmap  # kept out of `import graphnav.cli`

        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = sum(p.size for p in params.values())
        self.flat = np.frombuffer(mmap.mmap(-1, 4 * 8 * size), dtype=np.float64).reshape(4, size)
        self.params, self.grads, self.m, self.v = (_views(row, params) for row in self.flat)
        for name, p in params.items():
            self.params[name][...] = p

    def step(self, params: dict, grads: dict) -> None:
        if params is not self.params or grads is not self.grads:
            raise ValueError("Adam.step takes the optimizer's own params and grads views")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        p, g, m, v = self.flat
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_dict(self) -> dict:
        """Hyperparameters, step count and the moment arrays themselves (not
        copies), which the checkpoint writer streams to disk."""
        return {
            "t": self.t,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "m": dict(self.m),
            "v": dict(self.v),
        }

    @classmethod
    def from_state_dict(cls, state: dict, params: dict) -> "Adam":
        """A new optimizer whose moments are copies of `state`'s arrays. A
        scalar of the wrong JSON type or out of range, or a moment of the
        wrong shape or not finite, raises a ValueError naming its key."""
        require_types(state, {key: rule[0] for key, rule in _STATE_RULES.items()})
        for key, (_, in_range, words) in _STATE_RULES.items():
            if not in_range(state[key]):
                raise ValueError(f"{key} must be {words}, got {state[key]!r}")
        opt = cls(params, lr=state["lr"], beta1=state["beta1"],
                  beta2=state["beta2"], eps=state["eps"])
        opt.t = state["t"]
        for field_name, target in (("m", opt.m), ("v", opt.v)):
            saved = state[field_name]
            if set(saved) != set(target):
                raise ValueError(f"optimizer {field_name} keys do not match parameters")
            for k in target:
                arr = np.asarray(saved[k], dtype=float)
                if arr.shape != target[k].shape:
                    raise ValueError(f"optimizer {field_name}[{k}] shape {arr.shape} "
                                     f"does not match {target[k].shape}")
                if not np.isfinite(arr).all():
                    raise ValueError(f"optimizer {field_name}[{k}] holds a non-finite value")
                target[k][...] = arr
        return opt


def batch_action_loss(u: np.ndarray, targets: np.ndarray, denom: int):
    """Per-sample losses and the gradient of their sum divided by `denom`:
    the size of the whole minibatch this slice of it belongs to."""
    u = np.asarray(u, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if not (u.shape == targets.shape and u.ndim == 2 and u.shape[1] == 2):
        raise ValueError(f"batch actions must be (B, 2), got {u.shape} and {targets.shape}")
    diff = u - targets
    per_sample = (diff * diff).sum(axis=1)
    return per_sample, (2.0 / denom) * diff
