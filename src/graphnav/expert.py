"""Scripted crossing expert: pure-pursuit steering with time-gap yield logic.

The expert tracks the ego's reference route. Before committing to the
junction it watches every surrounding vehicle's constant-velocity motion:
if any of them would enter the yield zone (the circle inscribed in the
inflated junction box) within the time-gap threshold, the ego creeps toward
the entry line and holds just short of it. Once the ego is past the entry
line, or can no longer stop before it, it clears the box without yielding,
which avoids stalling in the middle of crossing traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tracking import TrackingParams, track_path
from .vehicle import Action, VehicleParams
from .world import GoalSpec, WorldState


@dataclass(frozen=True)
class ExpertParams:
    ttc_threshold: float = 2.5      # s, reject gaps shorter than this
    creep_speed: float = 1.5        # m/s while blocked but far from the line
    v_pref: float = 6.0             # m/s cruise target
    yield_zone: float = 1.0         # m of junction-box inflation
    stop_distance: float = 5.0      # m before the entry line to hold at


def time_to_circle(rel_x: float, rel_y: float, vel_x: float, vel_y: float, radius: float) -> float:
    """Earliest t >= 0 at which a constant-velocity point is within `radius`
    of the origin; 0.0 if already inside, inf if never."""
    c = rel_x * rel_x + rel_y * rel_y - radius * radius
    if c <= 0.0:
        return 0.0
    a = vel_x * vel_x + vel_y * vel_y
    if a == 0.0:
        return math.inf
    b = 2.0 * (rel_x * vel_x + rel_y * vel_y)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return math.inf
    t = (-b - math.sqrt(disc)) / (2.0 * a)
    return t if t >= 0.0 else math.inf


class ExpertController:
    """Episode-loop controller wrapping the scripted expert."""

    def __init__(self, params: ExpertParams, vparams: VehicleParams, tracking: TrackingParams) -> None:
        self.params = params
        self.vparams = vparams
        self.tracking = tracking

    def _gap_rejected(self, world: WorldState) -> bool:
        radius = world.layout.junction_half + self.params.yield_zone
        x, y, heading, speed = world.x, world.y, world.heading, world.speed
        for k in range(1, len(x)):
            v = speed[k]
            t = time_to_circle(x[k], y[k], v * math.cos(heading[k]), v * math.sin(heading[k]), radius)
            if t < self.params.ttc_threshold:
                return True
        return False

    def _target_speed(self, world: WorldState, s: float) -> float:
        dist_to_entry = world.route[0].entry_s - s
        if dist_to_entry <= 0.0:
            return self.params.v_pref  # inside or past the box: clear it
        stopping = world.speed[0]**2 / (2.0 * self.vparams.b_max)
        if dist_to_entry <= stopping + 0.3:
            return self.params.v_pref  # cannot brake in time, commit
        if self._gap_rejected(world):
            return 0.0 if dist_to_entry <= self.params.stop_distance else self.params.creep_speed
        return self.params.v_pref

    def act(self, world: WorldState, goal: GoalSpec, command, obs=None) -> Action:
        path = world.route[0].path
        x, y = world.x[0], world.y[0]
        projection = path.project(x, y)
        return track_path(x, y, world.heading[0], world.speed[0], path, projection,
                          self._target_speed(world, projection[0]), self.tracking,
                          self.vparams).action

