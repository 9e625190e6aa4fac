import math
from dataclasses import replace

import numpy as np
import pytest

from graphnav.geometry import Vec2
from graphnav.layout import Arm, Command, COMMANDS, build_layout
from graphnav.vehicle import Action, Role, VehicleState
from graphnav.world import (EpisodeLimits, GoalSpec, OutcomeTag, OutcomeTracker,
                            ScenarioConfig, ScenarioError, WorldState,
                            ego_collision, spawn_scenario, step_world)


def test_spawn_density3_has_four_vehicles():
    world, goal, command = spawn_scenario(ScenarioConfig(density=3), seed=5)
    assert len(world.vehicles) == 4
    assert world.ego.role is Role.EGO
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
        pts = [(v.position.x, v.position.y) for v in world.vehicles]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) >= cfg.min_separation


def test_spawn_unsatisfiable_raises():
    # a 4 m window cannot hold 7 agents at 6 m spacing on three arms
    cfg = ScenarioConfig(density=7, spawn_window=(3.0, 7.0))
    with pytest.raises(ScenarioError):
        spawn_scenario(cfg, seed=0)


def test_agent_ids_unique_and_on_lanes():
    cfg = ScenarioConfig(density=5)
    world, _, _ = spawn_scenario(cfg, seed=9)
    ids = [v.id for v in world.vehicles]
    assert len(set(ids)) == len(ids)
    for agent, route in zip(world.surrounding, world.agent_routes):
        s, lateral = route.path.project(agent.position.x, agent.position.y)
        assert lateral < 1e-6
        assert s <= route.entry_s - 3.0 + 1e-6


def test_surrounding_agents_default_avoid_ego_arm():
    cfg = ScenarioConfig(density=7)
    world, _, _ = spawn_scenario(cfg, seed=11)
    assert all(r.arm is not cfg.ego_arm for r in world.agent_routes)


def test_small_agent_fraction_shrinks_footprints():
    cfg = ScenarioConfig(density=5, small_agent_fraction=1.0)
    world, _, _ = spawn_scenario(cfg, seed=2)
    assert all(a.length == cfg.small_length and a.width == cfg.small_width
               for a in world.surrounding)


def test_step_world_moves_agents_along_routes():
    cfg = ScenarioConfig(density=3)
    world, goal, _ = spawn_scenario(cfg, seed=21)
    before = [a.position for a in world.surrounding]
    world2, actions = step_world(world, Action(0.0, 0.0), cfg)
    assert len(actions) == 3
    assert world2.time == pytest.approx(cfg.dt)
    for a0, a1, route in zip(before, world2.surrounding, world2.agent_routes):
        moved = math.hypot(a1.position.x - a0.x, a1.position.y - a0.y)
        assert moved > 0.0
        _, lateral = route.path.project(a1.position.x, a1.position.y)
        assert lateral < 0.5


class TestOutcomeTracker:
    def _world_with(self, ego_pos, agents=(), time=0.0):
        layout = build_layout()
        route = layout.route(Arm.SOUTH, Command.FORWARD)
        ego = VehicleState(0, Vec2(*ego_pos), math.pi / 2, 2.0, 4.0, 2.0, Role.EGO)
        return WorldState(time=time, dt=0.1, ego=ego, surrounding=tuple(agents),
                          layout=layout, ego_route=route, agent_routes=tuple(route for _ in agents),
                          agent_cruise=tuple(3.0 for _ in agents))

    def test_success_inside_radius(self):
        goal = GoalSpec(Vec2(2.0, 18.0), 2.0)
        world = self._world_with((2.0, 16.1))
        tracker = OutcomeTracker(EpisodeLimits())
        outcome = tracker.check(world, goal)
        assert outcome is not None and outcome.tag is OutcomeTag.SUCCESS

    def test_collision_beats_success(self):
        goal = GoalSpec(Vec2(2.0, 18.0), 2.0)
        overlapping = VehicleState(1, Vec2(2.0, 17.0), 0.0, 0.0, 4.0, 2.0, Role.SURROUNDING)
        world = self._world_with((2.0, 17.5), agents=[overlapping])
        assert ego_collision(world)
        outcome = OutcomeTracker(EpisodeLimits()).check(world, goal)
        assert outcome.tag is OutcomeTag.COLLISION

    def test_timeout_boundary_is_inclusive(self):
        goal = GoalSpec(Vec2(2.0, 18.0), 2.0)
        world = self._world_with((2.0, -30.0), time=30.0)
        outcome = OutcomeTracker(EpisodeLimits(timeout_s=30.0)).check(world, goal)
        assert outcome.tag is OutcomeTag.TIMEOUT

    def test_goal_missed_needs_sustained_receding(self):
        goal = GoalSpec(Vec2(2.0, 18.0), 2.0)
        tracker = OutcomeTracker(EpisodeLimits(miss_distance=40.0, miss_receding_s=2.0))
        # ego driving south away from the goal, well outside the junction
        outcome = None
        for k in range(40):
            world = self._world_with((2.0, -25.0 - k), time=0.1 * k)
            outcome = tracker.check(world, goal)
            if outcome is not None:
                break
        assert outcome is not None and outcome.tag is OutcomeTag.GOAL_MISSED

    def test_receding_resets_when_approaching(self):
        goal = GoalSpec(Vec2(2.0, 18.0), 2.0)
        tracker = OutcomeTracker(EpisodeLimits(miss_distance=40.0, miss_receding_s=2.0))
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
    route = world.ego_route
    s_ego, _ = route.path.project(world.ego.position.x, world.ego.position.y)
    x, y = route.path.point_at(s_ego - 7.0)
    follower = VehicleState(1, Vec2(x, y), route.path.heading_at(s_ego - 7.0),
                            6.0, 4.0, 2.0, Role.SURROUNDING)
    for react, expect_slowdown in ((False, False), (True, True)):
        cfg = replace(base, react_to_ego=react)
        w = replace(world, surrounding=(follower,), agent_routes=(route,),
                    agent_cruise=(6.0,), react_to_ego=react)
        _, actions = step_world(w, Action(0.0, 0.0), cfg)
        if expect_slowdown:
            assert actions[0].tau < 0.0
        else:
            assert actions[0].tau >= 0.0


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
