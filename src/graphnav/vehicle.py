"""Vehicle controls and the kinematic bicycle step."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import normalize_angle


@dataclass(frozen=True)
class Action:
    """Normalized control. Positive delta steers left (heading increases)."""

    delta: float  # steering, [-1, 1]
    tau: float    # throttle/brake, [-1, 1]


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 2.5                   # m
    phi_max: float = math.radians(35.0)      # max front-wheel angle, rad
    a_max: float = 3.0                       # m/s^2 at full throttle
    b_max: float = 6.0                       # m/s^2 at full brake
    v_max: float = 10.0                      # m/s


def step_vehicle(x: float, y: float, heading: float, speed: float, action: Action,
                 dt: float, params: VehicleParams) -> tuple[float, float, float, float]:
    """Advance the pose (x, y, heading in (-pi, pi], speed >= 0) one step and
    return the new one: position along the current heading, heading via the
    bicycle yaw rate v * tan(phi) / wheelbase, then the speed update with the
    result clamped to [0, v_max]."""
    delta, tau = action.delta, action.tau
    # one call clears the common case: the sum is finite only if every input
    # is; a non-finite sum may be an overflow, which the per-input check passes
    if not math.isfinite(x + y + heading + speed + delta + tau + dt):
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y) and isfinite(heading) and isfinite(speed)
                and isfinite(delta) and isfinite(tau) and isfinite(dt)):
            raise ValueError(f"non-finite vehicle step input: pose=({x}, {y}, {heading}, {speed}), "
                             f"action={action}, dt={dt}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    # each clamp max(lo, min(hi, v)) as the two comparisons those builtins
    # make, in their order, for the same bits without their two calls
    delta = delta if delta < 1.0 else 1.0
    delta = delta if delta > -1.0 else -1.0
    tau = tau if tau < 1.0 else 1.0
    tau = tau if tau > -1.0 else -1.0
    phi = delta * params.phi_max
    accel = tau * (params.a_max if tau >= 0.0 else params.b_max)
    v = speed + accel * dt
    v = v if v < params.v_max else params.v_max

    return (x + speed * math.cos(heading) * dt,
            y + speed * math.sin(heading) * dt,
            normalize_angle(heading + speed / params.wheelbase * math.tan(phi) * dt),
            v if v > 0.0 else 0.0)
