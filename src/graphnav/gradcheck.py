"""Finite-difference verification of the analytic gradients, through the
training step's own forward, loss and backward."""

from __future__ import annotations

import numpy as np

from .dataset import DemoDataset
from .graph import GraphConfig
from .layout import COMMANDS
from .policies import FEATURE_SCALE, build_network
from .rollout import DemoSample
from .training import _losses, _PreparedData, _train_step


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


def policy_gradient_check(network, prepared, n_samples: int = 200, eps: float = 1e-5,
                          rng=None, margin: float = 1e-3) -> float:
    """End-to-end check of training's own step on every sample of `prepared`.

    The gradient `_train_step` writes is compared against central
    differences of the mean loss it returns. Raises if any ReLU
    pre-activation sits within `margin` of its kink, in which case the
    caller should draw a fresh batch.
    """
    every = {c: np.arange(prepared.sizes[c]) for c in COMMANDS}
    batch = sum(prepared.sizes.values())
    for *_, cache in _losses(network, prepared, every, batch):
        m = network.kink_margin(cache)
        if m < margin:
            raise ValueError(f"relu pre-activation within {margin} of the kink (min {m:.2e})")
    params = network.parameters()
    analytic, scratch = ({k: np.empty_like(v) for k, v in params.items()} for _ in range(2))
    _train_step(network, prepared, every, batch, analytic)
    return finite_diff_check(lambda: _train_step(network, prepared, every, batch, scratch)[0],
                             params, analytic, n_samples=n_samples, eps=eps, rng=rng)


def run_policy_check(kind: str, seed: int = 0, n_samples: int = 200, eps: float = 1e-5) -> float:
    """Build a fresh seeded network and verify its training gradient end to end
    on a synthetic dataset of four physical-unit-scaled 4-node samples, whose
    adjacencies their features give under the default edge strategy.

    Targets sit close to the initial outputs so the loss stays small, which
    keeps central-difference cancellation noise far below the tolerance.
    Configurations whose ReLU pre-activations hug a kink are redrawn.
    """
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt, 3])
        network = build_network(kind, rng=np.random.default_rng([seed, attempt, 1]))
        samples = []
        for i in range(4):
            feats = rng.normal(0.0, 2.0, size=(4, 12)) * FEATURE_SCALE
            feats[0, 6:] = 0.0
            feats[:, :6] = feats[0, :6]
            samples.append((feats, COMMANDS[i % 3]))
        outputs = np.array([network.forward(*network.inputs(f, GraphConfig().strategy), c)[0]
                            for f, c in samples])
        targets = np.clip(outputs + rng.uniform(-0.25, 0.25, size=outputs.shape), -1.0, 1.0)
        dataset = DemoDataset()
        for i, ((feats, command), u_star) in enumerate(zip(samples, targets)):
            dataset.buffers[command].append(DemoSample(feats, command, u_star, attempt, i))
        prepared = _PreparedData(dataset, kind, GraphConfig())
        try:
            return policy_gradient_check(network, prepared, n_samples=n_samples, eps=eps,
                                         rng=np.random.default_rng([seed, attempt, 7]))
        except ValueError:
            continue
    raise RuntimeError(f"could not find a kink-free configuration for {kind}")
