"""Closed-loop episode execution shared by demonstration collection and evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphConfig, encode_world
from .layout import Command
from .vehicle import Action
from .world import EpisodeOutcome, OutcomeTracker, ScenarioConfig, WorldState, spawn_scenario, step_world


@dataclass(frozen=True)
class NoiseParams:
    """Short perturbation bursts applied to the executed (not recorded) action
    during collection, so the buffers cover off-path states with the expert's
    corrective labels."""

    burst_prob: float = 0.03          # per-step chance to start a burst
    duration_s: tuple = (0.4, 1.0)    # burst length range
    delta_amp: float = 0.35           # steering offset bound
    tau_amp: float = 0.2              # throttle offset bound


class ActionNoise:
    def __init__(self, params: NoiseParams, rng, dt: float) -> None:
        self.params = params
        self.rng = rng
        self.dt = dt
        self._remaining = 0
        self._offset = (0.0, 0.0)

    def __call__(self, action: Action) -> Action:
        p = self.params
        if self._remaining <= 0 and self.rng.random() < p.burst_prob:
            self._remaining = max(1, int(self.rng.uniform(*p.duration_s) / self.dt))
            self._offset = (self.rng.uniform(-p.delta_amp, p.delta_amp),
                            self.rng.uniform(-p.tau_amp, p.tau_amp))
        if self._remaining > 0:
            self._remaining -= 1
            return Action(min(1.0, max(-1.0, action.delta + self._offset[0])),
                          min(1.0, max(-1.0, action.tau + self._offset[1])))
        return action


@dataclass
class DemoSample:
    """One recorded step: the observation's features, encoded under the
    rollout's `GraphConfig` (its ego block is `features[0, :6]`; its
    adjacency is rebuilt from them under the edge strategy it is trained
    with), and the controller's action label."""

    features: np.ndarray   # (N, 12)
    command: Command
    u_star: np.ndarray     # (2,) the (delta, tau) label
    episode_id: int        # the episode's seed
    step: int


@dataclass
class EpisodeRecord:
    seed: int
    command: Command
    outcome: EpisodeOutcome
    samples: list | None
    trajectory: list | None  # rows (step, vehicle_id, x, y, heading, speed, delta, tau)


def _trajectory_rows(step: int, world: WorldState, actions: list[Action]) -> list[tuple]:
    return [(step, i, world.x[i], world.y[i], world.heading[i], world.speed[i], a.delta, a.tau)
            for i, a in enumerate(actions)]


def run_episode(
    cfg: ScenarioConfig,
    seed: int,
    controller,
    graph_cfg: GraphConfig,
    record_samples: bool = False,
    record_trajectory: bool = False,
    noise: NoiseParams | None = None,
) -> EpisodeRecord:
    """Run one seeded episode to its terminal outcome.

    The controller sees the pre-step world and `graph_cfg`, under which a
    network controller encodes its observation, and returns an Action for
    the ego; surrounding agents are scripted inside step_world. Exactly one
    terminal outcome is produced. The features are encoded here only to
    record them in each `DemoSample`.

    `noise`, when given, perturbs the executed action in bursts seeded from
    [seed, 5]; the recorded sample keeps the controller's clean action. This
    lets demonstration collection visit off-path states whose labels are the
    expert's corrections.
    """
    world, goal, command = spawn_scenario(cfg, seed)
    action_noise = None if noise is None else ActionNoise(noise, np.random.default_rng([seed, 5]),
                                                          cfg.dt)
    tracker = OutcomeTracker(cfg)
    samples: list | None = [] if record_samples else None
    trajectory: list | None = [] if record_trajectory else None

    outcome = tracker.check(world, goal)
    step = 0
    max_steps = int(math.ceil(cfg.timeout_s / cfg.dt)) + 2
    while outcome is None and step < max_steps:
        action = controller.act(world, goal, command, graph_cfg)
        if record_samples:
            samples.append(DemoSample(encode_world(world, goal, graph_cfg), command,
                                      np.array([action.delta, action.tau]), seed, step))
        executed = action if action_noise is None else action_noise(action)
        actions = step_world(world, executed, cfg)
        if record_trajectory:
            trajectory.extend(_trajectory_rows(step, world, actions))
        step += 1
        outcome = tracker.check(world, goal)
    if outcome is None:  # dt jitter guard; the timeout check is inclusive
        raise RuntimeError(f"episode did not terminate within {max_steps} steps")
    return EpisodeRecord(seed=seed, command=command, outcome=outcome,
                         samples=samples, trajectory=trajectory)
