"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from .layout import COMMANDS
from .nn import batch_action_loss
from .policies import FEATURE_SCALE, NETWORKS, build_network


def finite_diff_check(loss_fn, params: dict, analytic: dict, n_samples: int = 200,
                      eps: float = 1e-5, rng=None) -> float:
    """Max relative error between central differences and analytic gradients
    over a random subsample of parameter coordinates.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")
    if rng is None:
        rng = np.random.default_rng(0)
    names = sorted(params)
    sizes = np.array([params[k].size for k in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    coords = rng.choice(total, size=min(n_samples, total), replace=False)

    worst = 0.0
    for flat in coords:
        which = int(np.searchsorted(offsets, flat, side="right")) - 1
        name = names[which]
        idx = int(flat - offsets[which])
        p = params[name]
        orig = p.flat[idx]
        p.flat[idx] = orig + eps
        lp = loss_fn()
        p.flat[idx] = orig - eps
        lm = loss_fn()
        p.flat[idx] = orig
        numeric = (lp - lm) / (2.0 * eps)
        ana = analytic[name].flat[idx]
        rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def synthetic_inputs(kind: str, rng, batch: int = 4, n_nodes: int = 4):
    """Random physical-unit-scaled inputs for gradient verification."""
    samples = []
    for _ in range(batch):
        feats = rng.normal(0.0, 2.0, size=(n_nodes, 12)) * FEATURE_SCALE
        feats[0, 6:] = 0.0
        feats[:, :6] = feats[0, :6]
        raw = np.abs(rng.normal(1.0, 0.5, size=(n_nodes, n_nodes))) + 0.05
        adj = raw / raw.sum(axis=1, keepdims=True)
        samples.append(NETWORKS[kind].inputs(feats, adj))
    commands = [COMMANDS[i % 3] for i in range(batch)]
    return samples, commands


def policy_gradient_check(network, samples, commands, targets, n_samples: int = 200,
                          eps: float = 1e-5, rng=None, margin: float = 1e-3) -> float:
    """End-to-end check of a policy network's backward pass on a small batch.

    The mean action loss over the batch is differentiated analytically and
    compared against central differences. Raises if any ReLU pre-activation
    sits within `margin` of its kink, in which case the caller should draw a
    fresh batch.
    """
    params = network.parameters()
    batch = len(samples)

    def batch_outputs():
        outs = []
        caches = []
        for inputs, command in zip(samples, commands):
            u, cache = network.forward(*inputs, command)
            outs.append(u)
            caches.append(cache)
        return np.array(outs), caches

    u, caches = batch_outputs()
    for cache in caches:
        m = network.kink_margin(cache)
        if m < margin:
            raise ValueError(f"relu pre-activation within {margin} of the kink (min {m:.2e})")
    per_sample, du = batch_action_loss(u, targets)
    analytic = None
    for i, cache in enumerate(caches):
        grads = network.backward(cache, du[i])
        if analytic is None:
            analytic = grads
        else:
            for k in analytic:
                analytic[k] = analytic[k] + grads[k]

    def loss_fn() -> float:
        outs, _ = batch_outputs()
        per, _ = batch_action_loss(outs, targets)
        return float(per.mean())

    return finite_diff_check(loss_fn, params, analytic, n_samples=n_samples, eps=eps, rng=rng)


def run_policy_check(kind: str, seed: int = 0, n_samples: int = 200, eps: float = 1e-5) -> float:
    """Build a fresh seeded network and verify its gradients end to end.

    Targets sit close to the initial outputs so the loss stays small, which
    keeps central-difference cancellation noise far below the tolerance.
    Configurations whose ReLU pre-activations hug a kink are redrawn.
    """
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt, 3])
        network = build_network(kind, rng=np.random.default_rng([seed, attempt, 1]))
        samples, commands = synthetic_inputs(kind, rng)
        outputs = np.array([network.forward(*inputs, command)[0]
                            for inputs, command in zip(samples, commands)])
        targets = np.clip(outputs + rng.uniform(-0.25, 0.25, size=outputs.shape), -1.0, 1.0)
        try:
            return policy_gradient_check(network, samples, commands, targets,
                                         n_samples=n_samples, eps=eps,
                                         rng=np.random.default_rng([seed, attempt, 7]))
        except ValueError:
            continue
    raise RuntimeError(f"could not find a kink-free configuration for {kind}")
