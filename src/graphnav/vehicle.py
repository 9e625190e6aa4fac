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
    isfinite = math.isfinite
    if not (isfinite(x) and isfinite(y) and isfinite(heading) and isfinite(speed)
            and isfinite(action.delta) and isfinite(action.tau) and isfinite(dt)):
        raise ValueError(f"non-finite vehicle step input: pose=({x}, {y}, {heading}, {speed}), "
                         f"action={action}, dt={dt}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    delta = max(-1.0, min(1.0, action.delta))
    tau = max(-1.0, min(1.0, action.tau))
    phi = delta * params.phi_max
    accel = tau * (params.a_max if tau >= 0.0 else params.b_max)

    return (x + speed * math.cos(heading) * dt,
            y + speed * math.sin(heading) * dt,
            normalize_angle(heading + speed / params.wheelbase * math.tan(phi) * dt),
            max(0.0, min(params.v_max, speed + accel * dt)))
