"""Vehicle state and the kinematic bicycle step."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import Vec2, normalize_angle


class Role(Enum):
    EGO = "ego"
    SURROUNDING = "surrounding"


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


@dataclass(frozen=True)
class VehicleState:
    id: int
    position: Vec2
    heading: float  # rad, (-pi, pi]
    speed: float    # m/s, >= 0 (no reverse)
    length: float   # m
    width: float    # m
    role: Role = Role.SURROUNDING


def step_vehicle(state: VehicleState, action: Action, dt: float, params: VehicleParams) -> VehicleState:
    """Advance one step: position along the current heading, heading via the
    bicycle yaw rate v * tan(phi) / wheelbase, then the speed update with the
    result clamped to [0, v_max]."""
    pos = state.position
    isfinite = math.isfinite
    if not (isfinite(pos.x) and isfinite(pos.y) and isfinite(state.heading)
            and isfinite(state.speed) and isfinite(action.delta) and isfinite(action.tau)
            and isfinite(dt)):
        raise ValueError(f"non-finite vehicle step input: state={state}, action={action}, dt={dt}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    delta = max(-1.0, min(1.0, action.delta))
    tau = max(-1.0, min(1.0, action.tau))
    phi = delta * params.phi_max
    accel = tau * (params.a_max if tau >= 0.0 else params.b_max)

    v = state.speed
    x = pos.x + v * math.cos(state.heading) * dt
    y = pos.y + v * math.sin(state.heading) * dt
    heading = normalize_angle(state.heading + v / params.wheelbase * math.tan(phi) * dt)
    speed = max(0.0, min(params.v_max, v + accel * dt))
    return VehicleState(id=state.id, position=Vec2(x, y), heading=heading, speed=speed,
                        length=state.length, width=state.width, role=state.role)


def velocity(state: VehicleState) -> tuple[float, float]:
    return state.speed * math.cos(state.heading), state.speed * math.sin(state.heading)
