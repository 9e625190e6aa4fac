"""Path tracking: pure-pursuit steering plus proportional speed control.

Shared by the scripted surrounding traffic and the expert demonstrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Polyline
from .vehicle import Action, VehicleParams


@dataclass(frozen=True)
class TrackingParams:
    lookahead: float = 4.0           # m ahead along the path
    speed_kp: float = 0.5            # throttle per m/s of speed error
    capture_distance: float = 3.0    # m, beyond this the follower is off-path
    follow_gap: float = 8.0          # m, react to a leader closer than this
    desired_gap: float = 6.0         # m, spacing the follower regulates toward


def track_path(
    x: float,
    y: float,
    heading: float,
    speed: float,
    path: Polyline,
    projection: tuple[float, float],
    target_speed: float,
    tparams: TrackingParams,
    vparams: VehicleParams,
) -> Action:
    """Pure pursuit along `path` from the pose (x, y, heading, speed);
    `projection` is `path.project(x, y)`, which the caller has already
    needed for its own arc length.

    The steering follows the curvature of the arc from the pose through the
    lookahead point, 2*sin(alpha)/d for bearing error alpha and chord d,
    through the wheel angle atan(kappa * wheelbase) scaled by `phi_max`; the
    throttle is proportional to the speed error. Both are clamped to
    [-1, 1]."""
    s, lateral = projection
    if lateral > tparams.capture_distance:
        return Action(0.0, 0.0)
    tx, ty = path.point_at(s + tparams.lookahead)
    dx, dy = tx - x, ty - y
    d2 = dx * dx + dy * dy
    kappa = 0.0 if d2 < 1e-12 else 2.0 * (-math.sin(heading) * dx + math.cos(heading) * dy) / d2
    # the clamps as vehicle.step_vehicle writes max(-1.0, min(1.0, v))
    delta = math.atan(kappa * vparams.wheelbase) / vparams.phi_max
    delta = delta if delta < 1.0 else 1.0
    tau = tparams.speed_kp * (target_speed - speed)
    tau = tau if tau < 1.0 else 1.0
    return Action(delta if delta > -1.0 else -1.0, tau if tau > -1.0 else -1.0)


def surrounding_control(
    x: float,
    y: float,
    heading: float,
    speed: float,
    path: Polyline,
    projection: tuple[float, float],
    cruise_speed: float,
    tparams: TrackingParams,
    vparams: VehicleParams,
    leader_gap: float | None = None,
    leader_speed: float | None = None,
) -> Action:
    """Lane tracking at a set-point speed, blind to everything except a
    leader directly ahead on the same path within the following gap."""
    target = cruise_speed
    if leader_gap is not None and leader_gap < tparams.follow_gap:
        spacing_term = leader_speed + 0.5 * (leader_gap - tparams.desired_gap)
        target = min(cruise_speed, max(0.0, spacing_term))
    return track_path(x, y, heading, speed, path, projection, target, tparams, vparams)
