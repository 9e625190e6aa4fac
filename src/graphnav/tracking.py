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


def pursuit_curvature(x: float, y: float, heading: float, tx: float, ty: float) -> float:
    """Curvature of the arc from the pose (x, y, heading) through (tx, ty).

    Equivalent to 2*sin(alpha)/d for bearing error alpha and chord d.
    """
    dx, dy = tx - x, ty - y
    c, s = math.cos(heading), math.sin(heading)
    y_local = -s * dx + c * dy
    d2 = dx * dx + dy * dy
    if d2 < 1e-12:
        return 0.0
    return 2.0 * y_local / d2


def steering_for_curvature(kappa: float, params: VehicleParams) -> float:
    phi = math.atan(kappa * params.wheelbase)
    return max(-1.0, min(1.0, phi / params.phi_max))


def speed_control(speed: float, target: float, kp: float) -> float:
    return max(-1.0, min(1.0, kp * (target - speed)))


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
    needed for its own arc length."""
    s, lateral = projection
    if lateral > tparams.capture_distance:
        return Action(0.0, 0.0)
    tx, ty = path.point_at(s + tparams.lookahead)
    kappa = pursuit_curvature(x, y, heading, tx, ty)
    delta = steering_for_curvature(kappa, vparams)
    tau = speed_control(speed, target_speed, tparams.speed_kp)
    return Action(delta, tau)


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
