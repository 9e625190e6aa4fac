import math
from dataclasses import replace

import numpy as np
import pytest

from graphnav import world as world_module
from graphnav.layout import Arm, Command, COMMANDS, build_layout
from graphnav.vehicle import Action
from graphnav.world import (GoalSpec, OutcomeTag, OutcomeTracker, ScenarioConfig,
                            ScenarioError, ego_collision, spawn_scenario, step_world)

from conftest import make_world


def test_spawn_density3_has_four_vehicles():
    cfg = ScenarioConfig(density=3)
    world, goal, command = spawn_scenario(cfg, seed=5)
    assert len(world.x) == 4
    assert world.route[0] is world.layout.route(cfg.ego_arm, cfg.command)  # vehicle 0 is the ego
    assert command is Command.FORWARD
    assert goal.success_radius == 2.0


def test_spawn_is_deterministic():
    cfg = ScenarioConfig(density=5, command=Command.TURN_LEFT)
    a = spawn_scenario(cfg, seed=123)
    b = spawn_scenario(cfg, seed=123)
    assert a[0] == b[0]
    assert a[1] == b[1]
    c = spawn_scenario(cfg, seed=124)
    assert c[0] != a[0]


def test_spawn_respects_min_separation_over_seeds():
    cfg = ScenarioConfig(density=7, spawn_window=(19.0, 35.0), nonconflicting_fraction=0.25)
    for seed in range(300):
        world, _, _ = spawn_scenario(cfg, seed)
        pts = list(zip(world.x, world.y))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) >= cfg.min_separation


def test_spawn_unsatisfiable_raises():
    # a 4 m window cannot hold 7 agents at 6 m spacing on three arms
    cfg = ScenarioConfig(density=7, spawn_window=(3.0, 7.0))
    with pytest.raises(ScenarioError):
        spawn_scenario(cfg, seed=0)


def test_agent_ids_unique_and_on_lanes():
    # a vehicle's id is its index: every per-vehicle list has one entry each
    cfg = ScenarioConfig(density=5)
    world, _, _ = spawn_scenario(cfg, seed=9)
    columns = (world.route, world.length, world.width, world.cruise, world.x, world.y,
               world.heading, world.speed, world.leaders)
    assert {len(c) for c in columns} == {6}
    for i in range(1, 6):
        route = world.route[i]
        s, lateral = route.path.project(world.x[i], world.y[i])
        assert lateral < 1e-6
        assert s <= route.entry_s - 3.0 + 1e-6


def test_surrounding_agents_default_avoid_ego_arm():
    cfg = ScenarioConfig(density=7)
    world, _, _ = spawn_scenario(cfg, seed=11)
    assert all(r.arm is not cfg.ego_arm for r in world.route[1:])


def test_small_agent_fraction_shrinks_footprints():
    cfg = ScenarioConfig(density=5, small_agent_fraction=1.0)
    world, _, _ = spawn_scenario(cfg, seed=2)
    assert world.length[1:] == [cfg.small_length] * 5
    assert world.width[1:] == [cfg.small_width] * 5


def test_step_world_moves_agents_along_routes():
    cfg = ScenarioConfig(density=3)
    world, goal, _ = spawn_scenario(cfg, seed=21)
    before = list(zip(world.x, world.y))
    actions = step_world(world, Action(0.0, 0.0), cfg)
    assert len(actions) == 4  # the ego's, then one per agent
    assert world.time == pytest.approx(cfg.dt)
    for i in range(1, 4):
        moved = math.hypot(world.x[i] - before[i][0], world.y[i] - before[i][1])
        assert moved > 0.0
        _, lateral = world.route[i].path.project(world.x[i], world.y[i])
        assert lateral < 0.5


class TestOutcomeTracker:
    def _world_with(self, ego_pos, agents=(), time=0.0):
        route = build_layout().route(Arm.SOUTH, Command.FORWARD)
        return make_world([(*ego_pos, math.pi / 2, 2.0), *agents], route, time=time)

    def test_success_inside_radius(self):
        goal = GoalSpec((2.0, 18.0), 2.0)
        world = self._world_with((2.0, 16.1))
        tracker = OutcomeTracker(ScenarioConfig())
        outcome = tracker.check(world, goal)
        assert outcome is not None and outcome.tag is OutcomeTag.SUCCESS

    def test_collision_beats_success(self):
        goal = GoalSpec((2.0, 18.0), 2.0)
        overlapping = (2.0, 17.0, 0.0, 0.0)
        world = self._world_with((2.0, 17.5), agents=[overlapping])
        assert ego_collision(world)
        outcome = OutcomeTracker(ScenarioConfig()).check(world, goal)
        assert outcome.tag is OutcomeTag.COLLISION

    def test_timeout_boundary_is_inclusive(self):
        goal = GoalSpec((2.0, 18.0), 2.0)
        world = self._world_with((2.0, -30.0), time=30.0)
        outcome = OutcomeTracker(ScenarioConfig(timeout_s=30.0)).check(world, goal)
        assert outcome.tag is OutcomeTag.TIMEOUT

    def test_goal_missed_needs_sustained_receding(self):
        goal = GoalSpec((2.0, 18.0), 2.0)
        tracker = OutcomeTracker(ScenarioConfig(arm_length=40.0, miss_receding_s=2.0))
        # ego driving south away from the goal, well outside the junction
        outcome = None
        for k in range(40):
            world = self._world_with((2.0, -25.0 - k), time=0.1 * k)
            outcome = tracker.check(world, goal)
            if outcome is not None:
                break
        assert outcome is not None and outcome.tag is OutcomeTag.GOAL_MISSED

    def test_receding_resets_when_approaching(self):
        goal = GoalSpec((2.0, 18.0), 2.0)
        tracker = OutcomeTracker(ScenarioConfig(arm_length=40.0, miss_receding_s=2.0))
        ys = []
        for k in range(60):
            ys.append(-25.0 - k if k % 3 != 2 else -25.0 - k + 2)  # approaches every 3rd step
        outcome = None
        for k, y in enumerate(ys):
            outcome = tracker.check(self._world_with((2.0, y), time=0.1 * k), goal)
            if outcome is not None:
                break
        assert outcome is None


def test_react_to_ego_flag_gates_ego_following():
    # an agent close behind the ego on the ego's own route slows only when
    # the reaction flag is on; by default it ignores the ego entirely
    base = ScenarioConfig(density=0, ego_start_speed=2.0)
    world, _, _ = spawn_scenario(base, seed=1)
    route = world.route[0]
    s_ego, _ = route.path.project(world.x[0], world.y[0])
    x, y = route.path.point_at(s_ego - 7.0)
    ego = (world.x[0], world.y[0], world.heading[0], world.speed[0])
    follower = (x, y, route.path.heading_at(s_ego - 7.0), 6.0)
    for react, expect_slowdown in ((False, False), (True, True)):
        cfg = replace(base, react_to_ego=react)
        w = make_world([ego, follower], route, react_to_ego=react)
        actions = step_world(w, Action(0.0, 0.0), cfg)
        if expect_slowdown:
            assert actions[1].tau < 0.0
        else:
            assert actions[1].tau >= 0.0


def test_layout_conflicts_are_symmetric_and_sane():
    layout = build_layout()
    keys = list(layout.routes)
    for a in keys:
        for b in layout.conflicts[a]:
            assert a in layout.conflicts[b]
    # crossing traffic from the west conflicts with the south-forward route
    assert (Arm.WEST, Command.FORWARD) in layout.conflicts[(Arm.SOUTH, Command.FORWARD)]
    # oncoming parallel traffic does not
    assert (Arm.NORTH, Command.FORWARD) not in layout.conflicts[(Arm.SOUTH, Command.FORWARD)]


def test_step_projects_each_agent_once(projection_calls):
    cfg = ScenarioConfig(density=5)
    world, _, _ = spawn_scenario(cfg, seed=3)
    step_world(world, Action(0.0, 0.0), cfg)
    assert len(projection_calls) == 5
    # reacting to the ego adds exactly the ego's projection
    react = replace(cfg, react_to_ego=True)
    world, _, _ = spawn_scenario(react, seed=3)
    projection_calls.clear()
    step_world(world, Action(0.0, 0.0), react)
    assert len(projection_calls) == 6


def test_step_calls_step_vehicle_once_per_vehicle(monkeypatch):
    # the benchmark wraps step_vehicle by name and divides the projection
    # count by its calls, so every vehicle is stepped by one call of it
    calls = []
    real = world_module.step_vehicle

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(world_module, "step_vehicle", counting)
    for react in (False, True):
        cfg = ScenarioConfig(density=5, react_to_ego=react)
        world, _, _ = spawn_scenario(cfg, seed=3)
        calls.clear()
        step_world(world, Action(0.0, 0.0), cfg)
        assert len(calls) == 6
