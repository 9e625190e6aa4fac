import math

import numpy as np
import pytest

from graphnav.expert import ExpertController, ExpertParams, time_to_circle
from graphnav.graph import GraphConfig
from graphnav.rollout import run_episode
from graphnav.world import OutcomeTag, ScenarioConfig, spawn_scenario

from conftest import make_world


class TestTimeToCircle:
    def test_head_on_approach(self):
        # 10 m away closing at 2 m/s toward a 4 m circle: enters at t = 3
        assert time_to_circle(10.0, 0.0, -2.0, 0.0, 4.0) == pytest.approx(3.0)

    def test_already_inside(self):
        assert time_to_circle(1.0, 1.0, 5.0, 5.0, 4.0) == 0.0

    def test_receding_never_enters(self):
        assert time_to_circle(10.0, 0.0, 3.0, 0.0, 4.0) == math.inf

    def test_stationary_outside(self):
        assert time_to_circle(10.0, 0.0, 0.0, 0.0, 4.0) == math.inf

    def test_miss_tangentially(self):
        # passes 6 m from the origin, circle radius 4: never enters
        assert time_to_circle(-20.0, 6.0, 5.0, 0.0, 4.0) == math.inf

    def test_matches_root_finding_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        for i in range(1000):
            rx, ry = rng.uniform(-40, 40, 2)
            if i % 2 == 0:
                vx, vy = rng.uniform(-8, 8, 2)
            else:  # aim roughly at the origin so the entry time is finite
                speed = rng.uniform(1.0, 8.0)
                jitter = rng.uniform(-0.3, 0.3)
                norm = np.hypot(rx, ry)
                vx = -speed * rx / norm + jitter
                vy = -speed * ry / norm - jitter
            radius = rng.uniform(2.0, 12.0)
            got = time_to_circle(rx, ry, vx, vy, radius)
            # independent oracle: polynomial roots of |r + v t|^2 = R^2
            c = rx * rx + ry * ry - radius * radius
            if c <= 0:
                expected = 0.0
            else:
                roots = np.roots([vx * vx + vy * vy, 2 * (rx * vx + ry * vy), c])
                real = sorted(t.real for t in roots if abs(t.imag) < 1e-12 and t.real >= 0)
                expected = real[0] if real else math.inf
            if math.isinf(expected) or math.isinf(got):
                assert got == expected
            else:
                assert got == pytest.approx(expected, abs=1e-9, rel=1e-9)
                checked += 1
        assert checked > 200


def _expert(cfg):
    return ExpertController(ExpertParams(), cfg.vehicle, cfg.tracking)


class TestExpertControl:
    def test_steady_state_on_empty_road(self):
        cfg = ScenarioConfig(density=0, ego_start_speed=6.0)
        world, goal, command = spawn_scenario(cfg, seed=1)
        action = _expert(cfg).act(world, goal, command)
        assert abs(action.delta) < 0.05
        assert abs(action.tau) < 0.05

    def test_brakes_for_imminent_crossing_traffic(self):
        cfg = ScenarioConfig(density=0, ego_start_speed=6.0)
        world, goal, command = spawn_scenario(cfg, seed=1)
        # crossing vehicle about to enter the junction from the west at 9 m/s
        ego = (world.x[0], world.y[0], world.heading[0], world.speed[0])
        crossing = (-18.0, -2.0, 0.0, 9.0)
        world = make_world([ego, crossing], world.route[0])
        action = _expert(cfg).act(world, goal, command)
        assert action.tau < 0.0

    def test_committed_inside_junction_does_not_yield(self):
        cfg = ScenarioConfig(density=0, ego_start_speed=5.0)
        world, goal, command = spawn_scenario(cfg, seed=1)
        # place the ego just past the junction entry, traffic bearing down
        route = world.route[0]
        x, y = route.path.point_at(route.entry_s + 1.0)
        ego = (x, y, route.path.heading_at(route.entry_s + 1.0), world.speed[0])
        crossing = (-15.0, -2.0, 0.0, 8.0)
        world = make_world([ego, crossing], route)
        action = _expert(cfg).act(world, goal, command)
        assert action.tau > -0.2  # keeps rolling instead of stopping in the box

    def test_actions_always_in_box(self):
        cfg = ScenarioConfig(density=4)
        expert = _expert(cfg)
        record = run_episode(cfg, 77, expert, GraphConfig(), record_samples=True)
        for sample in record.samples:
            assert -1.0 <= sample.action.delta <= 1.0
            assert -1.0 <= sample.action.tau <= 1.0

    def test_expert_never_reverses(self):
        cfg = ScenarioConfig(density=5)
        record = run_episode(cfg, 31, _expert(cfg), GraphConfig(), record_trajectory=True)
        speeds = [row[5] for row in record.trajectory if row[1] == 0]
        assert all(s >= 0.0 for s in speeds)

    def test_easy_density_success_sample(self):
        cfg = ScenarioConfig(density=3)
        outcomes = []
        for seed in range(20):
            record = run_episode(cfg, 900 + seed, _expert(cfg), GraphConfig())
            outcomes.append(record.outcome.tag)
        successes = sum(1 for t in outcomes if t is OutcomeTag.SUCCESS)
        assert successes >= 18


def test_act_projects_the_ego_once(projection_calls):
    cfg = ScenarioConfig(density=3)
    world, goal, command = spawn_scenario(cfg, seed=8)
    ExpertController(ExpertParams(), cfg.vehicle, cfg.tracking).act(world, goal, command)
    assert projection_calls == [(world.x[0], world.y[0])]
