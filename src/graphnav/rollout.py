"""Closed-loop episode execution shared by demonstration collection and evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphConfig, encode_world
from .layout import Command
from .vehicle import Action
from .world import EpisodeOutcome, OutcomeTracker, ScenarioConfig, WorldState, spawn_scenario, step_world


POOL_CHUNKSIZE = 4  # episodes per task chunk sent to a pool worker


def pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for `n_tasks` episodes mapped in POOL_CHUNKSIZE chunks:
    `jobs`, capped at the chunk count; 1 or less means run serially."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, -(-n_tasks // POOL_CHUNKSIZE))


# Arguments every episode of one pool shares (policy, configs), set once per
# worker by the pool initializer so the per-chunk tasks stay small.
_worker_shared: tuple = ()


def init_worker(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def call_shared(fn, task):
    """fn(*shared, task) with the arguments init_worker stored in this worker."""
    return fn(*_worker_shared, task)


@dataclass
class DemoSample:
    """One recorded step: the observation (its ego block is `features[0, :6]`)
    and the controller's action label."""

    features: np.ndarray   # (N, 12)
    adjacency: np.ndarray  # (N, N)
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
    action_noise=None,
) -> EpisodeRecord:
    """Run one seeded episode to its terminal outcome.

    The controller sees the pre-step world plus the encoded observation and
    returns an Action for the ego; surrounding agents are scripted inside
    step_world. Exactly one terminal outcome is produced.

    `action_noise`, when given, maps (step, action) to the action actually
    executed; the recorded sample keeps the controller's clean action. This
    lets demonstration collection visit off-path states whose labels are the
    expert's corrections.
    """
    world, goal, command = spawn_scenario(cfg, seed)
    tracker = OutcomeTracker(cfg)
    samples: list | None = [] if record_samples else None
    trajectory: list | None = [] if record_trajectory else None

    outcome = tracker.check(world, goal)
    step = 0
    max_steps = int(math.ceil(cfg.timeout_s / cfg.dt)) + 2
    while outcome is None and step < max_steps:
        obs = encode_world(world, goal, graph_cfg)
        action = controller.act(world, goal, command, obs)
        if record_samples:
            samples.append(DemoSample(*obs, command, np.array([action.delta, action.tau]),
                                      seed, step))
        executed = action if action_noise is None else action_noise(step, action)
        actions = step_world(world, executed, cfg)
        if record_trajectory:
            trajectory.extend(_trajectory_rows(step, world, actions))
        step += 1
        outcome = tracker.check(world, goal)
    if outcome is None:  # dt jitter guard; the timeout check is inclusive
        raise RuntimeError(f"episode did not terminate within {max_steps} steps")
    return EpisodeRecord(seed=seed, command=command, outcome=outcome,
                         samples=samples, trajectory=trajectory)
