"""World assembly: seeded scenario spawning, simultaneous stepping, outcome detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import rects_collide
from .layout import Arm, Command, COMMANDS, IntersectionLayout, Route, build_layout
from .tracking import TrackingParams, surrounding_control
from .vehicle import Action, VehicleParams, step_vehicle


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
    target: tuple[float, float]  # (x, y)
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


@dataclass
class WorldState:
    """One trial's vehicles, stepped in place by `step_world`.

    Per-vehicle values are parallel lists indexed by vehicle, 0 being the
    ego. `x`, `y`, `heading` and `speed` change every step. `route`,
    `length`, `width` and `cruise` (the agents' set-point speeds; the ego's
    entry is unused) are fixed at spawn, and so is `leaders`, derived from
    the routes: per agent, (vehicle, same route, that vehicle's entry_s) for
    each vehicle that may lead it. Those are the other agents on its inbound
    arm in index order, then the ego if agents react to it and it shares
    the arm. The layout and its routes are shared by every trial and never
    mutated, so nothing carries over from one trial to the next.
    """

    dt: float
    layout: IntersectionLayout
    route: list[Route]
    length: list[float]
    width: list[float]
    cruise: list[float]
    x: list[float]
    y: list[float]
    heading: list[float]
    speed: list[float]
    react_to_ego: bool = False
    time: float = 0.0
    leaders: list[tuple] = field(init=False)

    def __post_init__(self) -> None:
        route = self.route
        self.leaders = [()]
        for i in range(1, len(route)):
            me = route[i]
            ahead = [k for k in range(1, len(route)) if k != i and route[k].arm is me.arm]
            if self.react_to_ego and route[0].arm is me.arm:
                ahead.append(0)
            self.leaders.append(tuple((k, route[k].key == me.key, route[k].entry_s) for k in ahead))


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
    ego_s = ego_route.entry_s - d_ego
    ego_xy = ego_route.path.point_at(ego_s)

    n = cfg.density
    span = hi - lo
    gap = cfg.min_separation + 1e-6  # pad keeps exact-separation pairs above the threshold
    routes: list[Route] = []
    positions = None
    for _attempt in range(cfg.max_spawn_attempts):
        routes = _pick_routes(rng, cfg, layout, ego_route)
        by_arm: dict = {}
        for idx, r in enumerate(routes):
            by_arm.setdefault(r.arm, []).append(idx)
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
        pts_all = [ego_xy] + pts
        ok = all(
            math.hypot(pts_all[i][0] - pts_all[k][0], pts_all[i][1] - pts_all[k][1]) >= cfg.min_separation
            for i in range(len(pts_all))
            for k in range(i + 1, len(pts_all))
        )
        if ok:
            positions = offsets
            break
    if positions is None:
        raise ScenarioError(
            f"could not satisfy min separation {cfg.min_separation} m for "
            f"density {n} after {cfg.max_spawn_attempts} attempts (seed {seed})"
        )

    cruise = rng.uniform(*cfg.cruise_speed_range, size=n)
    small = rng.random(n) < cfg.small_agent_fraction
    route = [ego_route] + routes
    starts = [ego_s] + [r.entry_s - d for r, d in zip(routes, positions)]
    xy = [r.path.point_at(s) for r, s in zip(route, starts)]
    world = WorldState(
        dt=cfg.dt,
        layout=layout,
        route=route,
        length=[cfg.length] + [cfg.small_length if tiny else cfg.length for tiny in small],
        width=[cfg.width] + [cfg.small_width if tiny else cfg.width for tiny in small],
        cruise=[0.0] + [float(c) for c in cruise],
        x=[p[0] for p in xy],
        y=[p[1] for p in xy],
        heading=[r.path.heading_at(s) for r, s in zip(route, starts)],
        speed=[cfg.ego_start_speed] + [min(float(c), cfg.vehicle.v_max) for c in cruise],
        react_to_ego=cfg.react_to_ego,
    )
    goal = GoalSpec(target=ego_route.goal, success_radius=cfg.success_radius)
    return world, goal, cfg.command


def _leader_for(world: WorldState, i: int, arc: list) -> tuple[float, float] | None:
    """(gap, speed) of the nearest vehicle directly ahead on agent i's path, if any.

    Agents on the same full route follow anywhere; agents sharing only the
    inbound arm follow while both are still before the junction entry. Ties
    go to the earlier candidate in `world.leaders[i]`.
    """
    s_i = arc[i]
    before_entry = s_i <= world.route[i].entry_s
    best = None
    for k, same_route, entry_k in world.leaders[i]:
        if same_route or (arc[k] <= entry_k and before_entry):
            gap = arc[k] - s_i
            if gap > 0.0 and (best is None or gap < best[0]):
                best = (gap, world.speed[k])
    return best


def step_world(world: WorldState, ego_action: Action, cfg: ScenarioConfig) -> list[Action]:
    """Advance every vehicle one step in place; return the actions taken,
    indexed by vehicle. Every control comes from the pre-step state: all
    agents' actions are computed before any vehicle moves."""
    x, y, heading, speed, route = world.x, world.y, world.heading, world.speed, world.route
    n = len(x)
    projections = [route[i].path.project(x[i], y[i]) for i in range(1, n)]
    # the ego's arc length is read only by agents that react to it
    arc = [route[0].path.project(x[0], y[0])[0] if world.react_to_ego else None]
    arc += [p[0] for p in projections]

    actions = [ego_action]
    for i in range(1, n):
        leader = _leader_for(world, i, arc)
        actions.append(surrounding_control(
            x[i], y[i], heading[i], speed[i], route[i].path, projections[i - 1],
            world.cruise[i], cfg.tracking, cfg.vehicle,
            leader_gap=None if leader is None else leader[0],
            leader_speed=None if leader is None else leader[1],
        ))

    dt = world.dt
    for i, action in enumerate(actions):
        x[i], y[i], heading[i], speed[i] = step_vehicle(x[i], y[i], heading[i], speed[i],
                                                        action, dt, cfg.vehicle)
    world.time += dt
    return actions


def ego_collision(world: WorldState) -> bool:
    x, y, heading, length, width = world.x, world.y, world.heading, world.length, world.width
    for k in range(1, len(x)):
        if rects_collide(x[0], y[0], heading[0], length[0], width[0],
                         x[k], y[k], heading[k], length[k], width[k]):
            return True
    return False


class OutcomeTracker:
    """Per-episode terminal-state detector.

    Precedence within a step: collision, then success, then timeout, then
    goal-missed. Goal-missed needs the ego more than an arm length from the
    goal, outside the junction box, and receding for `miss_receding_s`, so it
    carries state.
    """

    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg = cfg
        self._receding = 0.0
        self._prev_dist: float | None = None

    def check(self, world: WorldState, goal: GoalSpec) -> EpisodeOutcome | None:
        steps = int(round(world.time / world.dt))
        if ego_collision(world):
            return EpisodeOutcome(OutcomeTag.COLLISION, world.time, steps)
        ex, ey = world.x[0], world.y[0]
        gx, gy = goal.target
        dist = math.hypot(ex - gx, ey - gy)
        if dist < goal.success_radius:
            return EpisodeOutcome(OutcomeTag.SUCCESS, world.time, steps)
        if steps * world.dt >= self.cfg.timeout_s:  # `time` sums dt and can run an ulp short
            return EpisodeOutcome(OutcomeTag.TIMEOUT, world.time, steps)
        outside = not world.layout.junction_contains(ex, ey)
        if (outside and dist > self.cfg.arm_length
                and self._prev_dist is not None and dist > self._prev_dist):
            self._receding += world.dt
        else:
            self._receding = 0.0
        self._prev_dist = dist
        if self._receding >= self.cfg.miss_receding_s:
            return EpisodeOutcome(OutcomeTag.GOAL_MISSED, world.time, steps)
        return None
