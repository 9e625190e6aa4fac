"""World assembly: seeded scenario spawning, simultaneous stepping, outcome detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import Vec2, rects_collide
from .layout import Arm, Command, COMMANDS, IntersectionLayout, Route, build_layout
from .tracking import TrackingParams, surrounding_control
from .vehicle import Action, Role, VehicleParams, VehicleState, step_vehicle


class ScenarioError(RuntimeError):
    """Raised when a scenario cannot satisfy its spawn constraints."""


class OutcomeTag(Enum):
    SUCCESS = "success"
    COLLISION = "collision"
    TIMEOUT = "timeout"
    GOAL_MISSED = "goal_missed"


@dataclass(frozen=True)
class EpisodeOutcome:
    tag: OutcomeTag
    elapsed: float  # s
    steps: int


@dataclass(frozen=True)
class GoalSpec:
    target: Vec2
    success_radius: float  # m


@dataclass(frozen=True)
class ScenarioConfig:
    command: Command = Command.FORWARD
    density: int = 3                       # surrounding vehicles
    ego_arm: Arm = Arm.SOUTH
    # layout
    lane_width: float = 4.0
    arm_length: float = 40.0
    goal_offset: float = 10.0
    # episode
    dt: float = 0.1
    timeout_s: float = 30.0
    success_radius: float = 2.0
    miss_receding_s: float = 2.0
    # traffic
    min_separation: float = 6.0
    cruise_speed_range: tuple[float, float] = (3.0, 7.0)
    spawn_window: tuple[float, float] = (3.0, 18.0)       # m before junction entry
    nonconflicting_fraction: float = 0.0
    small_agent_fraction: float = 0.0
    react_to_ego: bool = False
    allow_ego_arm: bool = False
    max_spawn_attempts: int = 200
    # ego
    ego_spawn_window: tuple[float, float] = (10.0, 16.0)  # m before junction entry
    ego_start_speed: float = 4.0
    # footprints
    length: float = 4.0
    width: float = 2.0
    small_length: float = 1.8
    small_width: float = 0.6
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    tracking: TrackingParams = field(default_factory=TrackingParams)

    def layout(self) -> IntersectionLayout:
        return build_layout(self.lane_width, self.arm_length, self.goal_offset)


@dataclass(frozen=True)
class WorldState:
    time: float
    dt: float
    ego: VehicleState
    surrounding: tuple[VehicleState, ...]
    layout: IntersectionLayout
    ego_route: Route
    agent_routes: tuple[Route, ...]
    agent_cruise: tuple[float, ...]
    react_to_ego: bool = False

    @property
    def vehicles(self) -> tuple[VehicleState, ...]:
        return (self.ego,) + self.surrounding


def _place_on_route(route: Route, s: float, vid: int, speed: float,
                    length: float, width: float, role: Role) -> VehicleState:
    x, y = route.path.point_at(s)
    return VehicleState(
        id=vid,
        position=Vec2(x, y),
        heading=route.path.heading_at(s),
        speed=speed,
        length=length,
        width=width,
        role=role,
    )


def _pick_routes(rng, cfg: ScenarioConfig, layout: IntersectionLayout, ego_route: Route) -> list[Route]:
    candidates = [
        layout.route(arm, cmd)
        for arm in Arm
        for cmd in COMMANDS
        if cfg.allow_ego_arm or arm is not cfg.ego_arm
    ]
    candidates = [r for r in candidates if r.key != ego_route.key]
    conflicting = [r for r in candidates if layout.conflicting(r.key, ego_route.key)]
    free = [r for r in candidates if not layout.conflicting(r.key, ego_route.key)]
    routes = []
    for _ in range(cfg.density):
        want_free = rng.random() < cfg.nonconflicting_fraction
        pool = free if (want_free and free) else (conflicting or free)
        routes.append(pool[int(rng.integers(len(pool)))])
    return routes


def spawn_scenario(cfg: ScenarioConfig, seed: int) -> tuple[WorldState, GoalSpec, Command]:
    """Deterministically build the initial world for (cfg, seed).

    The ego starts on its approach arm; surrounding agents start at offsets
    drawn uniformly from the spawn window with a minimum pairwise separation
    (bounded retries, then ScenarioError).
    """
    if cfg.density < 0:
        raise ScenarioError(f"density must be non-negative, got {cfg.density}")
    lo, hi = cfg.spawn_window
    if not (0.0 < lo < hi <= cfg.arm_length):
        raise ScenarioError(f"spawn window {cfg.spawn_window} must lie within (0, arm_length]")
    rng = np.random.default_rng(seed)
    layout = cfg.layout()
    ego_route = layout.route(cfg.ego_arm, cfg.command)

    d_ego = rng.uniform(*cfg.ego_spawn_window)
    ego = _place_on_route(ego_route, ego_route.entry_s - d_ego, 0,
                          cfg.ego_start_speed, cfg.length, cfg.width, Role.EGO)

    n = cfg.density
    span = hi - lo
    gap = cfg.min_separation + 1e-6  # pad keeps exact-separation pairs above the threshold
    routes: list[Route] = []
    positions = None
    for _attempt in range(cfg.max_spawn_attempts):
        routes = _pick_routes(rng, cfg, layout, ego_route)
        by_arm: dict = {}
        for idx, route in enumerate(routes):
            by_arm.setdefault(route.arm, []).append(idx)
        if any((len(idxs) - 1) * gap > span for idxs in by_arm.values()):
            continue  # this arm allocation cannot hold its agents, redraw routes
        offsets = np.zeros(n)
        for idxs in by_arm.values():
            k = len(idxs)
            slack = span - (k - 1) * gap
            u = np.sort(rng.uniform(0.0, slack, size=k))
            for rank, idx in enumerate(idxs):
                offsets[idx] = lo + u[rank] + rank * gap
        pts = [r.path.point_at(r.entry_s - d) for r, d in zip(routes, offsets)]
        pts_all = [(ego.position.x, ego.position.y)] + pts
        ok = all(
            math.hypot(pts_all[i][0] - pts_all[k][0], pts_all[i][1] - pts_all[k][1]) >= cfg.min_separation
            for i in range(len(pts_all))
            for k in range(i + 1, len(pts_all))
        )
        if ok:
            positions = offsets
            break
    if positions is None and n > 0:
        raise ScenarioError(
            f"could not satisfy min separation {cfg.min_separation} m for "
            f"density {n} after {cfg.max_spawn_attempts} attempts (seed {seed})"
        )
    if n == 0:
        positions = np.zeros(0)

    cruise = rng.uniform(*cfg.cruise_speed_range, size=n)
    small = rng.random(n) < cfg.small_agent_fraction
    agents = []
    for i in range(n):
        length = cfg.small_length if small[i] else cfg.length
        width = cfg.small_width if small[i] else cfg.width
        agents.append(_place_on_route(
            routes[i], routes[i].entry_s - positions[i], i + 1,
            min(float(cruise[i]), cfg.vehicle.v_max), length, width, Role.SURROUNDING,
        ))

    world = WorldState(
        time=0.0,
        dt=cfg.dt,
        ego=ego,
        surrounding=tuple(agents),
        layout=layout,
        ego_route=ego_route,
        agent_routes=tuple(routes[:n]),
        agent_cruise=tuple(float(c) for c in cruise),
        react_to_ego=cfg.react_to_ego,
    )
    goal = GoalSpec(target=ego_route.goal, success_radius=cfg.success_radius)
    return world, goal, cfg.command


def _leader_for(
    world: WorldState, i: int, arc: list[float], ego_arc: float | None
) -> tuple[float, float] | None:
    """Nearest vehicle directly ahead on the same path as agent i, if any.

    Agents on the same full route follow anywhere; agents sharing only the
    inbound arm follow while both are still before the junction entry.
    """
    me = world.agent_routes[i]
    me_key = me.key
    s_i = arc[i]
    best = None
    for k, other in enumerate(world.agent_routes):
        if k == i:
            continue
        same_route = other.key == me_key
        shared_inbound = other.arm == me.arm and arc[k] <= other.entry_s and s_i <= me.entry_s
        if not (same_route or shared_inbound):
            continue
        gap = arc[k] - s_i
        if gap > 0.0 and (best is None or gap < best[0]):
            best = (gap, world.surrounding[k].speed)
    if world.react_to_ego and ego_arc is not None and world.ego_route.arm == me.arm:
        same_route = world.ego_route.key == me_key
        shared_inbound = ego_arc <= world.ego_route.entry_s and s_i <= me.entry_s
        if same_route or shared_inbound:
            gap = ego_arc - s_i
            if gap > 0.0 and (best is None or gap < best[0]):
                best = (gap, world.ego.speed)
    return best


def step_world(world: WorldState, ego_action: Action, cfg: ScenarioConfig) -> tuple[WorldState, tuple[Action, ...]]:
    """Advance every vehicle one step; all controls come from the pre-step state."""
    projections = [route.path.project(a.position.x, a.position.y)
                   for a, route in zip(world.surrounding, world.agent_routes)]
    arc = [p[0] for p in projections]
    ego_arc = None
    if world.react_to_ego:
        ego_arc = world.ego_route.path.project(world.ego.position.x, world.ego.position.y)[0]

    agent_actions = []
    for i, agent in enumerate(world.surrounding):
        leader = _leader_for(world, i, arc, ego_arc)
        action = surrounding_control(
            agent, world.agent_routes[i].path, projections[i], world.agent_cruise[i],
            cfg.tracking, cfg.vehicle,
            leader_gap=None if leader is None else leader[0],
            leader_speed=None if leader is None else leader[1],
        )
        agent_actions.append(action)

    dt = world.dt
    new_agents = tuple(
        step_vehicle(a, act, dt, cfg.vehicle)
        for a, act in zip(world.surrounding, agent_actions)
    )
    new_ego = step_vehicle(world.ego, ego_action, dt, cfg.vehicle)
    stepped = WorldState(time=world.time + dt, dt=dt, ego=new_ego, surrounding=new_agents,
                         layout=world.layout, ego_route=world.ego_route,
                         agent_routes=world.agent_routes, agent_cruise=world.agent_cruise,
                         react_to_ego=world.react_to_ego)
    return stepped, tuple(agent_actions)


def ego_collision(world: WorldState) -> bool:
    e = world.ego
    for a in world.surrounding:
        if rects_collide(e.position.x, e.position.y, e.heading, e.length, e.width,
                         a.position.x, a.position.y, a.heading, a.length, a.width):
            return True
    return False


@dataclass(frozen=True)
class EpisodeLimits:
    timeout_s: float = 30.0
    miss_distance: float = 40.0   # m from goal before "receding" can trigger
    miss_receding_s: float = 2.0  # s of continuous receding outside the box


class OutcomeTracker:
    """Per-episode terminal-state detector.

    Precedence within a step: collision, then success, then timeout, then
    goal-missed. Goal-missed needs the ego far from the goal, outside the
    junction box, and receding for a sustained window, so it carries state.
    """

    def __init__(self, limits: EpisodeLimits) -> None:
        self.limits = limits
        self._receding = 0.0
        self._prev_dist: float | None = None

    def check(self, world: WorldState, goal: GoalSpec) -> EpisodeOutcome | None:
        steps = int(round(world.time / world.dt))
        if ego_collision(world):
            return EpisodeOutcome(OutcomeTag.COLLISION, world.time, steps)
        dist = world.ego.position.distance_to(goal.target)
        if dist < goal.success_radius:
            return EpisodeOutcome(OutcomeTag.SUCCESS, world.time, steps)
        if world.time >= self.limits.timeout_s:
            return EpisodeOutcome(OutcomeTag.TIMEOUT, world.time, steps)
        outside = not world.layout.junction_contains(world.ego.position.x, world.ego.position.y)
        if (outside and dist > self.limits.miss_distance
                and self._prev_dist is not None and dist > self._prev_dist):
            self._receding += world.dt
        else:
            self._receding = 0.0
        self._prev_dist = dist
        if self._receding >= self.limits.miss_receding_s:
            return EpisodeOutcome(OutcomeTag.GOAL_MISSED, world.time, steps)
        return None
