import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import circular_arc_state, reference_g, reference_integrate_step

from kbfplan.core import ClfParams, Control, RobotParams, State
from kbfplan.dynamics import V_EPS, integrate_step, io_linearize, pd_control, tracking_error

ROBOT = RobotParams()


def test_integrate_straight_line_exact():
    z = integrate_step(State(0, 0, 0, 1), Control(0, 0), 0.1, ROBOT)
    assert (z.x, z.y, z.theta, z.v) == (0.1, 0.0, 0.0, 1.0)


def test_integrate_rk4_circular_arc():
    z = integrate_step(State(0, 0, 0, 1), Control(1, 0), 0.1, ROBOT)
    exact = circular_arc_state(0, 0, 0, 1, 1, 0.1)
    assert z.x == pytest.approx(exact[0], abs=1e-6)
    assert z.y == pytest.approx(exact[1], abs=1e-6)
    assert z.theta == pytest.approx(exact[2], abs=1e-9)
    assert z.v == 1.0


def test_integrate_speed_clamp():
    z = integrate_step(State(0, 0, 0, ROBOT.v_max), Control(0, ROBOT.a_max), 0.1, ROBOT)
    assert z.v == ROBOT.v_max
    z = integrate_step(State(0, 0, 0, 0.0), Control(0, -1.0), 0.1, ROBOT)
    assert z.v == 0.0


def test_integrate_coasting_preserves_heading_and_speed():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z0 = State(rng.uniform(-5, 5), rng.uniform(-5, 5),
                   rng.uniform(-3, 3), rng.uniform(0, 1.2))
        z1 = integrate_step(z0, Control(0.0, 0.0), 0.3, ROBOT)
        assert z1.v == z0.v
        assert z1.theta == z0.theta


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-10, 10),
       st.floats(0.0, ROBOT.v_max), st.floats(-2 * ROBOT.c_max, 2 * ROBOT.c_max),
       st.floats(-5.0, 5.0), st.floats(1e-3, 2.0))
@example(0.0, 0.0, 0.0, 0.1, 1.0, -5.0, 1.0)            # clamps at 0
@example(0.0, 0.0, 0.0, ROBOT.v_max, 1.0, 1.0, 0.5)     # clamps at v_max
@example(1.0, 2.0, math.pi, 0.5, -3.0, 0.3, 0.5)
def test_integrate_step_matches_stage_tuple_reference(x, y, theta, v, c, a, dt):
    z, u = State(x, y, theta, v), Control(c, a)
    got = integrate_step(z, u, dt, ROBOT)
    want = reference_integrate_step(z, u, dt, ROBOT)
    assert (got.x, got.y, got.theta, got.v) == (want.x, want.y, want.theta, want.v)


def test_rk4_order_gain_on_step_halving():
    z_full = integrate_step(State(0, 0, 0, 1), Control(1, 0), 0.1, ROBOT)
    z_half = integrate_step(State(0, 0, 0, 1), Control(1, 0), 0.05, ROBOT)
    e_full = np.array(circular_arc_state(0, 0, 0, 1, 1, 0.1)) \
        - np.array((z_full.x, z_full.y, z_full.theta, z_full.v))
    e_half = np.array(circular_arc_state(0, 0, 0, 1, 1, 0.05)) \
        - np.array((z_half.x, z_half.y, z_half.theta, z_half.v))
    assert np.linalg.norm(e_full) >= 8.0 * np.linalg.norm(e_half)


def test_transform_examples():
    # the flat transform x1 = (x, y), x2 = v (cos theta, sin theta), read off
    # the tracking error (pos - x1, vel - x2) against a reference (pos, vel)
    e = tracking_error(State(1, 2, 0, 3), (0.0, 0.0), (0.0, 0.0))
    assert e[:2] == (-1, -2) and e[2:] == pytest.approx((-3, 0))
    e = tracking_error(State(0, 0, math.pi / 2, 2), (1.0, 1.0), (0.0, 2.0))
    assert e == pytest.approx((1, 1, 0, 0), abs=1e-12)
    e = tracking_error(State(5, 5, math.pi / 4, math.sqrt(2)), (5.0, 5.0), (1.0, 1.0))
    assert e == pytest.approx((0, 0, 0, 0), abs=1e-12)


def test_transform_speed_consistency():
    rng = np.random.default_rng(2)
    for _ in range(200):
        z = State(rng.uniform(-5, 5), rng.uniform(-5, 5),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0, 2))
        e = tracking_error(z, (0.0, 0.0), (0.0, 0.0))
        assert math.hypot(e[2], e[3]) == pytest.approx(abs(z.v), abs=1e-12)


def test_io_linearize_examples():
    u = io_linearize(State(0, 0, 0, 1), (0, 1), ROBOT)
    assert (u.c, u.a) == pytest.approx((1, 0))
    u = io_linearize(State(0, 0, 0, 1), (1, 0), ROBOT)
    assert (u.c, u.a) == pytest.approx((0, 1))
    # at standstill g is evaluated at speed V_EPS: c = mu2 / V_EPS^2
    u = io_linearize(State(0, 0, 0, 0), (0, 0.001), ROBOT)
    assert (u.c, u.a) == pytest.approx((0.001 / V_EPS ** 2, 0))


def test_io_linearize_inverts_g():
    rng = np.random.default_rng(3)
    for _ in range(300):
        z = State(rng.uniform(-5, 5), rng.uniform(-5, 5),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 1.2))
        u = (rng.uniform(-ROBOT.c_max, ROBOT.c_max), rng.uniform(-ROBOT.a_max, ROBOT.a_max))
        mu = reference_g(z) @ np.array(u)
        back = io_linearize(z, (mu[0], mu[1]), ROBOT)
        assert np.allclose((back.c, back.a), u, atol=1e-9)


def test_io_linearize_saturates():
    u = io_linearize(State(0, 0, 0, 0.2), (0.0, 5.0), ROBOT)
    assert abs(u.c) <= ROBOT.c_max + 1e-12
    assert -ROBOT.a_max <= u.a <= ROBOT.a_max


def test_pd_control_examples():
    clf = ClfParams()
    assert pd_control((0, 0, 0, 0), clf) == (0, 0)
    assert pd_control((1, 0, 0, 0), clf) == pytest.approx((-1, 0))
    clf2 = ClfParams(K_P=2.0, K_D=1.0)
    assert pd_control((0, 1, 0, 1), clf2) == pytest.approx((0, -3))
