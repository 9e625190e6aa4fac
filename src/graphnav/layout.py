"""Four-arm crossing of one-way lane pairs with per-command reference routes.

Geometry convention: x east, y north, headings counterclockwise from +x.
Each arm carries one inbound and one outbound lane (right-hand traffic) at
+-lane_width/2 from the road axis. The junction box is the square of
half-size 2 * lane_width around the origin, which leaves turn connectors
wide enough for the bicycle model's minimum radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .geometry import Polyline


class Command(Enum):
    FORWARD = "forward"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"


COMMANDS = (Command.FORWARD, Command.TURN_LEFT, Command.TURN_RIGHT)


class Arm(Enum):
    SOUTH = "south"
    WEST = "west"
    NORTH = "north"
    EAST = "east"


# Exact 90-degree rotations mapping the SOUTH-arm template onto each arm.
_ROTATIONS = {
    Arm.SOUTH: lambda x, y: (x, y),
    Arm.WEST: lambda x, y: (y, -x),
    Arm.NORTH: lambda x, y: (-x, -y),
    Arm.EAST: lambda x, y: (-y, x),
}

_ARC_STEP = 0.5  # m between sampled connector points


@dataclass(frozen=True)
class Route:
    arm: Arm
    command: Command
    path: Polyline
    entry_s: float   # arc length of the junction entry point
    goal: tuple[float, float]  # (x, y) target on the outbound lane

    @property
    def key(self) -> tuple[Arm, Command]:
        return (self.arm, self.command)


def _arc_points(cx: float, cy: float, radius: float, a0: float, a1: float) -> list[tuple[float, float]]:
    n = max(2, int(math.ceil(abs(a1 - a0) * radius / _ARC_STEP)) + 1)
    return [(cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in np.linspace(a0, a1, n)]


def _south_template(lane_width: float, arm_length: float, goal_offset: float, command: Command):
    """Route points for an approach from the south, before arm rotation."""
    w2 = 0.5 * lane_width
    j = 2.0 * lane_width  # junction half-size
    start = (w2, -(j + arm_length))
    entry = (w2, -j)
    if command is Command.FORWARD:
        pts = [start, (w2, j + arm_length)]
        goal = (w2, j + goal_offset)
    elif command is Command.TURN_RIGHT:
        arc = _arc_points(j, -j, j - w2, math.pi, 0.5 * math.pi)
        pts = [start] + arc + [(j + arm_length, -w2)]
        goal = (j + goal_offset, -w2)
    else:  # TURN_LEFT
        arc = _arc_points(-j, -j, j + w2, 0.0, 0.5 * math.pi)
        pts = [start] + arc + [(-(j + arm_length), w2)]
        goal = (-(j + goal_offset), w2)
    assert abs(math.hypot(start[0] - entry[0], start[1] - entry[1]) - arm_length) < 1e-9
    return pts, arm_length, goal


@dataclass(frozen=True)
class IntersectionLayout:
    lane_width: float
    arm_length: float
    goal_offset: float
    junction_half: float
    routes: dict
    conflicts: dict

    def route(self, arm: Arm, command: Command) -> Route:
        return self.routes[(arm, command)]

    def junction_contains(self, x: float, y: float) -> bool:
        return abs(x) <= self.junction_half and abs(y) <= self.junction_half

    def conflicting(self, a: tuple, b: tuple) -> bool:
        return b in self.conflicts[a]


def _route_conflicts(routes: dict, junction_half: float) -> dict:
    """Two routes conflict when their paths pass within a vehicle width of
    each other inside the (slightly inflated) junction box."""
    clearance = 2.5  # m between centerlines, below this footprints can meet
    samples = {}
    for key, route in routes.items():
        pts = route.path.sample(0.25)
        inside = np.max(np.abs(pts), axis=1) <= junction_half + 1.0
        samples[key] = pts[inside]
    conflicts: dict = {key: set() for key in routes}
    keys = list(routes)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            pa, pb = samples[ka], samples[kb]
            if len(pa) == 0 or len(pb) == 0:
                continue
            d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
            if d2.min() < clearance**2:
                conflicts[ka].add(kb)
                conflicts[kb].add(ka)
    return {k: frozenset(v) for k, v in conflicts.items()}


@lru_cache(maxsize=8)
def build_layout(lane_width: float = 4.0, arm_length: float = 40.0, goal_offset: float = 10.0) -> IntersectionLayout:
    if lane_width <= 0 or arm_length <= 0 or goal_offset <= 0:
        raise ValueError("layout dimensions must be positive")
    junction_half = 2.0 * lane_width
    routes = {}
    for arm, rot in _ROTATIONS.items():
        for command in COMMANDS:
            pts, entry_s, goal = _south_template(lane_width, arm_length, goal_offset, command)
            rpts = [rot(x, y) for x, y in pts]
            routes[(arm, command)] = Route(
                arm=arm,
                command=command,
                path=Polyline(rpts),
                entry_s=entry_s,
                goal=rot(*goal),
            )
    conflicts = _route_conflicts(routes, junction_half)
    return IntersectionLayout(
        lane_width=lane_width,
        arm_length=arm_length,
        goal_offset=goal_offset,
        junction_half=junction_half,
        routes=routes,
        conflicts=conflicts,
    )
