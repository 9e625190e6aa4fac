import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnav.geometry import normalize_angle
from graphnav.vehicle import Action, VehicleParams, step_vehicle

PARAMS = VehicleParams()


def pose(x=0.0, y=0.0, heading=0.0, speed=0.0):
    """(x, y, heading, speed), the leading arguments of step_vehicle."""
    return x, y, heading, speed


def test_straight_line_advance():
    x, y, heading, speed = step_vehicle(*pose(speed=5.0), Action(0.0, 0.0), 0.1, PARAMS)
    assert x == 0.5
    assert y == 0.0
    assert heading == 0.0
    assert speed == 5.0


def test_no_reverse_from_standstill():
    x, y, _, speed = step_vehicle(*pose(speed=0.0), Action(0.0, -1.0), 0.1, PARAMS)
    assert speed == 0.0
    assert (x, y) == (0.0, 0.0)


def test_speed_clamped_at_vmax():
    *_, speed = step_vehicle(*pose(speed=9.9), Action(0.0, 1.0), 0.5, PARAMS)
    assert speed == PARAMS.v_max


def test_full_left_turn_matches_hand_integration():
    # oracle values computed from the bicycle equations at 40-digit precision:
    # v=5, phi=35 deg, dt=0.1, wheelbase=2.5, from pose (0, 0, 0)
    x, y, heading, speed = step_vehicle(*pose(speed=5.0), Action(1.0, 0.0), 0.1, PARAMS)
    assert x == pytest.approx(0.5, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)
    assert heading == pytest.approx(0.14004150764194195589, abs=1e-12)
    assert speed == pytest.approx(5.0, abs=1e-12)


def test_generic_step_matches_hand_integration():
    # v=4, delta=-0.5, tau=0.5, dt=0.1 from pose (1, -2, 0.3); same oracle
    x, y, heading, speed = step_vehicle(*pose(1.0, -2.0, 0.3, 4.0), Action(-0.5, 0.5), 0.1,
                                        PARAMS)
    assert x == pytest.approx(1.3821345956502424079, abs=1e-12)
    assert y == pytest.approx(-1.88179191733546417, abs=1e-12)
    assert heading == pytest.approx(0.24955219377936263717, abs=1e-12)
    assert speed == pytest.approx(4.15, abs=1e-12)


def test_heading_stays_normalized():
    state = pose(heading=math.pi - 0.01, speed=8.0)
    for _ in range(40):
        state = step_vehicle(*state, Action(1.0, 0.0), 0.1, PARAMS)
        assert -math.pi < state[2] <= math.pi


def test_rejects_non_finite_inputs():
    # every argument, each non-finite value: the one-call sum check must fall
    # back to the per-argument check and raise exactly as it does
    finite = [1.0, -2.0, 0.3, 4.0, -0.5, 0.5, 0.1]
    for index in range(7):
        for bad in (math.nan, math.inf, -math.inf):
            args = list(finite)
            args[index] = bad
            x, y, heading, speed, delta, tau, dt = args
            with pytest.raises(ValueError, match="non-finite"):
                step_vehicle(x, y, heading, speed, Action(delta, tau), dt, PARAMS)


def test_overflowing_finite_inputs_step_normally():
    # the inputs' sum overflows to +inf or -inf, yet every input is finite
    for big in (1e308, -1e308):
        assert not math.isfinite(big + big)
        x, y, heading, speed = step_vehicle(*pose(big, big, 0.0, 5.0), Action(0.0, 0.0), 0.1,
                                            PARAMS)
        assert (x, y, heading, speed) == (big + 0.5, big, 0.0, 5.0)


def test_rejects_non_positive_dt():
    for dt in (0.0, -0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            step_vehicle(*pose(), Action(0.0, 0.0), dt, PARAMS)


@settings(max_examples=120, deadline=None)
@given(
    speed=st.floats(0.0, 10.0),
    heading=st.floats(-math.pi + 1e-9, math.pi),
    delta=st.floats(-1.0, 1.0),
    tau=st.floats(-1.0, 1.0),
)
def test_kinematic_consistency(speed, heading, delta, tau):
    # per-step displacement never exceeds v_max*dt + a_max*dt^2/2
    dt = 0.1
    x, y, _, v = step_vehicle(*pose(heading=heading, speed=speed), Action(delta, tau), dt, PARAMS)
    moved = math.hypot(x, y)
    assert moved <= PARAMS.v_max * dt + 0.5 * PARAMS.a_max * dt**2 + 1e-12
    assert v >= 0.0


def reference_step(x, y, heading, speed, action, dt, params):
    """step_vehicle's arithmetic with its clamps as the min/max builtins."""
    delta = max(-1.0, min(1.0, action.delta))
    tau = max(-1.0, min(1.0, action.tau))
    phi = delta * params.phi_max
    accel = tau * (params.a_max if tau >= 0.0 else params.b_max)
    return (x + speed * math.cos(heading) * dt,
            y + speed * math.sin(heading) * dt,
            normalize_angle(heading + speed / params.wheelbase * math.tan(phi) * dt),
            max(0.0, min(params.v_max, speed + accel * dt)))


def edgy(lo, hi):
    """Floats in [lo, hi], the clamp bounds and both zeros among them."""
    return st.one_of(st.floats(lo, hi), st.sampled_from([0.0, -0.0, 1.0, -1.0, lo, hi]))


@settings(max_examples=300, deadline=None)
@given(x=edgy(-50.0, 50.0), y=edgy(-50.0, 50.0), heading=edgy(-math.pi, math.pi),
       speed=edgy(-1.0, 12.0), delta=edgy(-2.0, 2.0), tau=edgy(-2.0, 2.0),
       dt=st.sampled_from([0.1, 0.5, 1.0]))
def test_step_matches_builtin_clamps_bit_for_bit(x, y, heading, speed, delta, tau, dt):
    got = step_vehicle(x, y, heading, speed, Action(delta, tau), dt, PARAMS)
    want = reference_step(x, y, heading, speed, Action(delta, tau), dt, PARAMS)
    assert struct.pack("<4d", *got) == struct.pack("<4d", *want)
