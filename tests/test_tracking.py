import math

import numpy as np
import pytest

from graphnav.geometry import Polyline
from graphnav.tracking import (TrackingParams, pursuit_curvature, speed_control,
                               steering_for_curvature, surrounding_control, track_path)
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


def test_on_path_at_cruise_gives_zero_action():
    action = track(agent(0.0, 0.0, math.pi / 2, 5.0), 5.0)
    assert abs(action.delta) < 1e-6
    assert abs(action.tau) < 1e-6
    # on the path, a speed error is tracked
    assert track(agent(0.0, 0.0, math.pi / 2, 5.0), 7.0).tau == speed_control(5.0, 7.0, TPARAMS.speed_kp)


def test_offset_left_steers_right():
    # positive delta steers left, so a vehicle left of the path must get delta < 0
    assert track(agent(-0.5, 0.0, math.pi / 2, 5.0), 5.0).delta < 0.0
    # and mirrored: offset right steers left
    assert track(agent(0.5, 0.0, math.pi / 2, 5.0), 5.0).delta > 0.0


def test_curvature_matches_bearing_formula():
    # independent identity: kappa = 2 sin(alpha) / L_d
    rng = np.random.default_rng(11)
    for _ in range(500):
        x, y = rng.uniform(-20, 20, 2)
        heading = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-20, 20, 2)
        if math.hypot(tx - x, ty - y) < 0.5:
            continue
        kappa = pursuit_curvature(x, y, heading, tx, ty)
        dx, dy = tx - x, ty - y
        alpha = math.atan2(-math.sin(heading) * dx + math.cos(heading) * dy,
                           math.cos(heading) * dx + math.sin(heading) * dy)
        expected = 2.0 * math.sin(alpha) / math.hypot(dx, dy)
        assert kappa == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_steering_maps_through_wheel_angle():
    kappa = 0.1
    phi = math.atan(kappa * VPARAMS.wheelbase)
    assert steering_for_curvature(kappa, VPARAMS) == pytest.approx(phi / VPARAMS.phi_max)
    assert steering_for_curvature(100.0, VPARAMS) == 1.0
    assert steering_for_curvature(-100.0, VPARAMS) == -1.0


def test_speed_control_sign_and_clamp():
    assert speed_control(5.0, 5.0, 0.5) == 0.0
    assert speed_control(2.0, 6.0, 0.5) > 0.0
    assert speed_control(9.0, 0.0, 0.5) == -1.0


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
