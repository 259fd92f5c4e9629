import math

import numpy as np
import pytest

from oracles import robust_worst_grid

from kbfplan.core import (CbfParams, Control, Obstacle, RobotParams, State,
                          UncertaintyBounds)
from kbfplan.safety import (barrier_terms, barrier_value, condition_value,
                            gate_value, kbf_check, pseudo_accel, robust_kbf_check,
                            robust_terms, robust_worst_value, sample_control)

CBF = CbfParams(1.0, 1.0)
ROBOT = RobotParams()


def random_tuple(rng):
    z = State(rng.uniform(-5, 5), rng.uniform(-5, 5),
              rng.uniform(-math.pi, math.pi), rng.uniform(0, 2.0))
    u = Control(rng.uniform(-ROBOT.c_max, ROBOT.c_max), rng.uniform(-1.0, 1.5))
    o = Obstacle(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 2.0))
    r = o.r + ROBOT.r_r
    cbf = CbfParams(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
    return z, u, o, r, cbf


def test_barrier_terms_examples():
    t = barrier_terms(State(0, 0, 0, 1), Obstacle(5, 0, 1), 1.0, CBF)
    assert (t.B, t.Bdot, t.B1) == (24.0, -10.0, 14.0)
    t = barrier_terms(State(1.0, 0, 2.0, 0), Obstacle(0, 0, 1), 1.0, CBF)
    assert (t.B, t.Bdot, t.B1) == (0.0, 0.0, 0.0)
    t = barrier_terms(State(0, 0, 0, 2), Obstacle(2.2, 0, 1), 1.0, CBF)
    assert t.B == pytest.approx(3.84)
    assert t.Bdot == pytest.approx(-8.8)
    assert t.B1 == pytest.approx(-4.96)


def test_barrier_affine_form_contracts_correctly():
    rng = np.random.default_rng(53)
    for _ in range(200):
        z, u, o, r, cbf = random_tuple(rng)
        t = barrier_terms(z, o, r, cbf)
        const, row = t.B1dot_affine
        mu = pseudo_accel(z, u)
        direct = const + row[0] * mu[0] + row[1] * mu[1]
        # independent reconstruction of the second derivative
        vx = z.v * math.cos(z.theta)
        vy = z.v * math.sin(z.theta)
        expected = (cbf.gamma1 * t.Bdot + 2 * vx * vx + 2 * vy * vy
                    + 2 * (z.x - o.x) * mu[0] + 2 * (z.y - o.y) * mu[1])
        assert direct == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_kbf_check_examples():
    assert condition_value(State(0, 0, 0, 1), Control(0, 0), Obstacle(5, 0, 1), 1.0, CBF) \
        == pytest.approx(6.0)
    assert kbf_check(State(0, 0, 0, 1), Control(0, 0), Obstacle(5, 0, 1), 1.0, CBF)

    assert condition_value(State(0, 0, 0, 2), Control(0, 0), Obstacle(2.2, 0, 1), 1.0, CBF) \
        == pytest.approx(-5.76)
    assert not kbf_check(State(0, 0, 0, 2), Control(0, 0), Obstacle(2.2, 0, 1), 1.0, CBF)

    # stationary on the boundary: the whole chain collapses to zero
    assert condition_value(State(1.0, 0, 1.0, 0), Control(0, 0), Obstacle(0, 0, 1), 1.0, CBF) \
        == pytest.approx(0.0, abs=1e-12)
    assert kbf_check(State(1.0, 0, 1.0, 0), Control(0, 0), Obstacle(0, 0, 1), 1.0, CBF)


def test_robust_terms_examples():
    z = State(0, 0, 0, 1)
    o = Obstacle(5, 0, 1)
    t = robust_terms(z, o, 1.0, CBF, UncertaintyBounds(0.0, 0.0))
    assert t.psi0_worst == t.A_val == pytest.approx(6.0)
    assert t.psi1_p == t.psi1_n == t.b_row == (-10.0, 0.0)

    t = robust_terms(z, o, 1.0, CBF, UncertaintyBounds(0.5, 0.0))
    assert t.psi0_worst == pytest.approx(1.0)

    t = robust_terms(z, o, 1.0, CBF, UncertaintyBounds(0.0, 0.1))
    assert t.psi1_p == pytest.approx((-11.0, 0.0))
    assert t.psi1_n == pytest.approx((-9.0, 0.0))


def test_robust_check_examples():
    z = State(0, 0, 0, 1)
    u = Control(0, 0)
    o = Obstacle(5, 0, 1)
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.5, 0.0)) \
        == pytest.approx(1.0)
    assert robust_kbf_check(z, u, o, 1.0, CBF, UncertaintyBounds(0.5, 0.0))
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.7, 0.0)) \
        == pytest.approx(-1.0)
    assert not robust_kbf_check(z, u, o, 1.0, CBF, UncertaintyBounds(0.7, 0.0))


def test_zero_bounds_reduce_to_nominal_exactly():
    rng = np.random.default_rng(59)
    zero = UncertaintyBounds(0.0, 0.0)
    for _ in range(10_000):
        z, u, o, r, cbf = random_tuple(rng)
        nominal = condition_value(z, u, o, r, cbf)
        worst = robust_worst_value(z, u, o, r, cbf, zero)
        assert worst == nominal  # bit-identical, not just close
        assert robust_kbf_check(z, u, o, r, cbf, zero) == kbf_check(z, u, o, r, cbf)


def test_robust_pass_nested_in_nominal_pass():
    rng = np.random.default_rng(61)
    violations = 0
    for _ in range(10_000):
        z, u, o, r, cbf = random_tuple(rng)
        bounds = UncertaintyBounds(rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.9))
        if robust_kbf_check(z, u, o, r, cbf, bounds) and not kbf_check(z, u, o, r, cbf):
            violations += 1
    assert violations == 0


def test_worst_value_monotone_in_bounds():
    rng = np.random.default_rng(67)
    for _ in range(2000):
        z, u, o, r, cbf = random_tuple(rng)
        d1a, d1b = sorted((rng.uniform(0, 1.5), rng.uniform(0, 1.5)))
        d2a, d2b = sorted((rng.uniform(0, 0.9), rng.uniform(0, 0.9)))
        small = robust_worst_value(z, u, o, r, cbf, UncertaintyBounds(d1a, d2a))
        big = robust_worst_value(z, u, o, r, cbf, UncertaintyBounds(d1b, d2b))
        assert big <= small + 1e-12
        if robust_kbf_check(z, u, o, r, cbf, UncertaintyBounds(d1b, d2b)):
            assert robust_kbf_check(z, u, o, r, cbf, UncertaintyBounds(d1a, d2a))


def test_worst_value_matches_grid_oracle():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        z, u, o, r, cbf = random_tuple(rng)
        bounds = UncertaintyBounds(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.9))
        analytic = robust_worst_value(z, u, o, r, cbf, bounds)
        t = robust_terms(z, o, r, cbf, bounds)
        mu = pseudo_accel(z, u)
        s_mu = t.b_row[0] * mu[0] + t.b_row[1] * mu[1]
        grid = robust_worst_grid(t.A_val, t.b_row[0], t.b_row[1], s_mu,
                                 bounds.delta1_max, bounds.delta2_max)
        assert analytic == pytest.approx(grid, abs=1e-9)


def test_gate_fails_closed_on_nan_obstacle():
    z, u = State(0.0, 0.0, 0.0, 0.5), Control(0.0, 0.5)
    safe = (5.0, 5.0, 1.0)
    for bad in ((3.0, math.nan, 1.0), (math.nan, 0.0, 1.0), (3.0, 0.0, math.nan)):
        for obstacles, bounds in (([bad], (0.0, 0.0)), ([safe, bad], (0.0, 0.0)),
                                  ([safe, bad], (0.3, 0.3))):
            value = gate_value(z.x, z.y, z.theta, z.v, u.c, u.a, obstacles,
                               1.0, 1.0, *bounds)
            assert not value >= 0.0
    assert not kbf_check(z, u, Obstacle(3.0, math.nan, 1.0), 1.25, CBF)
    assert gate_value(z.x, z.y, z.theta, z.v, u.c, u.a, [safe], 1.0, 1.0) >= 0.0


def test_gate_value_is_the_worst_obstacle_value():
    rng = np.random.default_rng(79)
    for _ in range(2000):
        z, u, _, _, cbf = random_tuple(rng)
        bounds = UncertaintyBounds(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
        obstacles = [Obstacle(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 2.0))
                     for _ in range(int(rng.integers(1, 5)))]
        radii = [o.r + ROBOT.r_r for o in obstacles]
        values = [robust_worst_value(z, u, o, r, cbf, bounds) for o, r in zip(obstacles, radii)]
        value = gate_value(z.x, z.y, z.theta, z.v, u.c, u.a,
                           [(o.x, o.y, r * r) for o, r in zip(obstacles, radii)],
                           cbf.gamma1, cbf.gamma2, bounds.delta1_max, bounds.delta2_max)
        if all(v >= 0.0 for v in values):
            assert value == min(values)
        else:
            # stops at the first failing obstacle
            assert value == next(v for v in values if v < 0.0)


def test_barrier_value_uses_combined_radius():
    z = State(0.0, 0.0, 0.0, 0.0)
    o = Obstacle(2.0, 0.0, 1.0)
    r = o.r + ROBOT.r_r
    assert barrier_value(z, o, r) == pytest.approx(4.0 - r * r)


def test_sample_control_bounds_and_moments():
    rng = np.random.default_rng(73)
    n = 10_000
    cs, accs = [], []
    for _ in range(n):
        u = sample_control(rng, ROBOT)
        assert -ROBOT.c_max <= u.c <= ROBOT.c_max
        assert 0.0 <= u.a <= ROBOT.a_max
        cs.append(u.c)
        accs.append(u.a)
    # uniform moments: mean a = a_max/2 within 3 sigma / sqrt(n)
    sigma = ROBOT.a_max / math.sqrt(12.0)
    assert abs(np.mean(accs) - ROBOT.a_max / 2) <= 3 * sigma / math.sqrt(n)
    assert abs(np.mean(cs)) <= 3 * (2 * ROBOT.c_max / math.sqrt(12)) / math.sqrt(n)


def test_sample_control_deterministic():
    g1 = np.random.default_rng(9)
    g2 = np.random.default_rng(9)
    seq1 = [sample_control(g1, ROBOT) for _ in range(100)]
    seq2 = [sample_control(g2, ROBOT) for _ in range(100)]
    assert seq1 == seq2
