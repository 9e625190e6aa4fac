import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphnav.geometry import Polyline
from graphnav.tracking import TrackingParams, surrounding_control, track_path
from graphnav.vehicle import Action, VehicleParams

VPARAMS = VehicleParams()
TPARAMS = TrackingParams()
STRAIGHT = Polyline([(0.0, -50.0), (0.0, 50.0)])  # northbound along x = 0


def agent(x, y, heading, speed):
    """(x, y, heading, speed), the leading arguments of the tracking controllers."""
    return x, y, heading, speed


def on_straight(state):
    """The projection a caller of track_path computes once per step."""
    return STRAIGHT.project(state[0], state[1])


def track(state, target_speed):
    return track_path(*state, STRAIGHT, on_straight(state), target_speed, TPARAMS, VPARAMS)


def aim(x, y, heading, tx, ty, speed=0.0, target_speed=0.0):
    """track_path from the pose with its lookahead point at (tx, ty): the
    path starts there and the projection is one lookahead before its start."""
    path = Polyline([(tx, ty), (tx + 1.0, ty)])
    return track_path(x, y, heading, speed, path, (-TPARAMS.lookahead, 0.0), target_speed,
                      TPARAMS, VPARAMS)


def test_on_path_at_cruise_gives_zero_action():
    action = track(agent(0.0, 0.0, math.pi / 2, 5.0), 5.0)
    assert abs(action.delta) < 1e-6
    assert abs(action.tau) < 1e-6
    # on the path, a speed error is tracked
    assert track(agent(0.0, 0.0, math.pi / 2, 5.0), 7.0).tau == TPARAMS.speed_kp * 2.0


def test_offset_left_steers_right():
    # positive delta steers left, so a vehicle left of the path must get delta < 0
    assert track(agent(-0.5, 0.0, math.pi / 2, 5.0), 5.0).delta < 0.0
    # and mirrored: offset right steers left
    assert track(agent(0.5, 0.0, math.pi / 2, 5.0), 5.0).delta > 0.0


def test_curvature_matches_bearing_formula():
    # independent identity: kappa = 2 sin(alpha) / L_d, read back through the wheel angle
    rng = np.random.default_rng(11)
    unclamped = 0
    for _ in range(500):
        x, y = rng.uniform(-20, 20, 2)
        heading = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-20, 20, 2)
        if math.hypot(tx - x, ty - y) < 0.5:
            continue
        delta = aim(x, y, heading, tx, ty).delta
        dx, dy = tx - x, ty - y
        alpha = math.atan2(-math.sin(heading) * dx + math.cos(heading) * dy,
                           math.cos(heading) * dx + math.sin(heading) * dy)
        expected = 2.0 * math.sin(alpha) / math.hypot(dx, dy)
        wheel = math.atan(expected * VPARAMS.wheelbase) / VPARAMS.phi_max
        if abs(wheel) < 1.0 - 1e-9:
            kappa = math.tan(delta * VPARAMS.phi_max) / VPARAMS.wheelbase
            assert kappa == pytest.approx(expected, abs=1e-9, rel=1e-9)
            unclamped += 1
        elif abs(wheel) > 1.0 + 1e-9:
            assert delta == math.copysign(1.0, wheel)
    assert unclamped > 400


def test_steering_maps_through_wheel_angle():
    # from the origin heading east, the arc through (10, 10) has curvature 0.1
    phi = math.atan(0.1 * VPARAMS.wheelbase)
    assert aim(0.0, 0.0, 0.0, 10.0, 10.0).delta == pytest.approx(phi / VPARAMS.phi_max)
    assert aim(0.0, 0.0, 0.0, 0.1, 1.0).delta == 1.0
    assert aim(0.0, 0.0, 0.0, 0.1, -1.0).delta == -1.0


def test_speed_control_sign_and_clamp():
    # the lookahead point dead ahead: tau alone follows the speed error
    assert aim(0.0, 0.0, 0.0, 4.0, 0.0, speed=5.0, target_speed=5.0) == Action(0.0, 0.0)
    assert aim(0.0, 0.0, 0.0, 4.0, 0.0, speed=2.0, target_speed=6.0).tau > 0.0
    assert aim(0.0, 0.0, 0.0, 4.0, 0.0, speed=9.0, target_speed=0.0).tau == -1.0


def test_off_path_holds_zero_action():
    assert track(agent(10.0, 0.0, 0.0, 5.0), 5.0) == Action(0.0, 0.0)
    # beyond the capture distance even a speed error is not tracked
    assert track(agent(10.0, 0.0, 0.0, 5.0), 7.0) == Action(0.0, 0.0)


def test_following_gap_slows_to_leader():
    follower = agent(0.0, 0.0, math.pi / 2, 6.0)
    projection = on_straight(follower)
    free = surrounding_control(*follower, STRAIGHT, projection, 6.0, TPARAMS, VPARAMS)
    held = surrounding_control(*follower, STRAIGHT, projection, 6.0, TPARAMS, VPARAMS,
                               leader_gap=4.0, leader_speed=2.0)
    assert free.tau == pytest.approx(0.0)
    assert held.tau < 0.0
    far = surrounding_control(*follower, STRAIGHT, projection, 6.0, TPARAMS, VPARAMS,
                              leader_gap=50.0, leader_speed=0.0)
    assert far.tau == pytest.approx(0.0)


def reference_aim(x, y, heading, tx, ty, speed, target_speed):
    """track_path's action toward the lookahead point (tx, ty) from the
    separate pursuit-curvature, steering and speed helpers it once called,
    clamped by the min/max builtins."""
    dx, dy = tx - x, ty - y
    c, s = math.cos(heading), math.sin(heading)
    y_local = -s * dx + c * dy
    d2 = dx * dx + dy * dy
    kappa = 0.0 if d2 < 1e-12 else 2.0 * y_local / d2
    phi = math.atan(kappa * VPARAMS.wheelbase)
    return Action(max(-1.0, min(1.0, phi / VPARAMS.phi_max)),
                  max(-1.0, min(1.0, TPARAMS.speed_kp * (target_speed - speed))))


coordinate = st.floats(-30.0, 30.0)


@settings(max_examples=300, deadline=None)
@given(x=coordinate, y=coordinate, heading=st.floats(-math.pi, math.pi), tx=coordinate,
       ty=coordinate, speed=st.floats(-1.0, 12.0), target_speed=st.floats(-1.0, 12.0))
@example(x=1.0, y=2.0, heading=0.3, tx=1.0, ty=2.0, speed=5.0, target_speed=5.0)
@example(x=0.0, y=0.0, heading=0.0, tx=4.0, ty=0.0, speed=0.0, target_speed=-0.0)
def test_track_path_matches_its_helpers_bit_for_bit(x, y, heading, tx, ty, speed, target_speed):
    got = aim(x, y, heading, tx, ty, speed, target_speed)
    lookahead = Polyline([(tx, ty), (tx + 1.0, ty)]).point_at(0.0)  # aim's, -0.0 made 0.0
    want = reference_aim(x, y, heading, *lookahead, speed, target_speed)
    assert struct.pack("<2d", got.delta, got.tau) == struct.pack("<2d", want.delta, want.tau)
