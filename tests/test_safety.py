import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import frozen_gate_value, reference_condition, robust_worst_grid, same_float

from kbfplan.core import (Bounds, CbfParams, Control, Obstacle, PlannerConfig,
                          RobotParams, Scenario, State, UncertaintyBounds)
from kbfplan.planners import NoPath, plan_robust_rrt_kbf, plan_rrt_kbf
from kbfplan.safety import barrier_value, gate_check, gate_rows, kbf_check, robust_worst_value

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


def nominal_value(z, u, o, r, cbf):
    """The nominal gate condition A + b.mu for one obstacle."""
    rows = gate_rows(z.x, z.y, z.theta, z.v, [(o.x, o.y, r * r)], cbf.gamma1, cbf.gamma2)
    return gate_check(z.theta, z.v, rows, u.c, u.a)


def condition_terms(z, o, r, cbf):
    """(A, bx, by) as the controller builds its barrier row: the gate at zero
    control (mu = 0) is A itself, and b = 2 (z - o) from the oracle."""
    zero = Control(0.0, 0.0)
    _, b, _ = reference_condition(z, zero, o, r, cbf)
    return nominal_value(z, zero, o, r, cbf), b[0], b[1]


def test_barrier_terms_examples():
    # B = 24, B' = -10, B1 = 14, so A = -10 + 2 + 14
    assert barrier_value(State(0, 0, 0, 1), Obstacle(5, 0, 1), 1.0) == 24.0
    assert condition_terms(State(0, 0, 0, 1), Obstacle(5, 0, 1), 1.0, CBF) == (6.0, -10.0, 0.0)
    assert barrier_value(State(1.0, 0, 2.0, 0), Obstacle(0, 0, 1), 1.0) == 0.0
    assert condition_terms(State(1.0, 0, 2.0, 0), Obstacle(0, 0, 1), 1.0, CBF) == (0.0, 2.0, 0.0)
    # B = 3.84, B' = -8.8, B1 = -4.96, so A = -8.8 + 8 - 4.96
    assert barrier_value(State(0, 0, 0, 2), Obstacle(2.2, 0, 1), 1.0) == pytest.approx(3.84)
    A, bx, by = condition_terms(State(0, 0, 0, 2), Obstacle(2.2, 0, 1), 1.0, CBF)
    assert (A, bx, by) == pytest.approx((-5.76, -4.4, 0.0))


def test_barrier_affine_form_contracts_correctly():
    rng = np.random.default_rng(53)
    for _ in range(200):
        z, u, o, r, cbf = random_tuple(rng)
        A, b, mu = reference_condition(z, u, o, r, cbf)
        assert nominal_value(z, u, o, r, cbf) == pytest.approx(A + b @ mu, rel=1e-12, abs=1e-9)
        # at zero control mu = 0, so the gate value is A itself
        A_c = nominal_value(z, Control(0.0, 0.0), o, r, cbf)
        assert A_c == pytest.approx(A, rel=1e-12, abs=1e-9)


def test_kbf_check_examples():
    assert nominal_value(State(0, 0, 0, 1), Control(0, 0), Obstacle(5, 0, 1), 1.0, CBF) \
        == pytest.approx(6.0)
    assert kbf_check(State(0, 0, 0, 1), Control(0, 0), Obstacle(5, 0, 1), 1.0, CBF)

    assert nominal_value(State(0, 0, 0, 2), Control(0, 0), Obstacle(2.2, 0, 1), 1.0, CBF) \
        == pytest.approx(-5.76)
    assert not kbf_check(State(0, 0, 0, 2), Control(0, 0), Obstacle(2.2, 0, 1), 1.0, CBF)

    # stationary on the boundary: the whole chain collapses to zero
    assert nominal_value(State(1.0, 0, 1.0, 0), Control(0, 0), Obstacle(0, 0, 1), 1.0, CBF) \
        == pytest.approx(0.0, abs=1e-12)
    assert kbf_check(State(1.0, 0, 1.0, 0), Control(0, 0), Obstacle(0, 0, 1), 1.0, CBF)


def test_robust_terms_examples():
    # A = 6 and b = (-10, 0); holding a = 1 at heading 0 gives mu = (1, 0)
    z = State(0, 0, 0, 1)
    o = Obstacle(5, 0, 1)
    u = Control(0, 1)
    assert nominal_value(z, u, o, 1.0, CBF) == pytest.approx(-4.0)
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.0, 0.0)) \
        == pytest.approx(-4.0)
    # additive corner: A - delta1 ||b||_1
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.5, 0.0)) \
        == pytest.approx(-9.0)
    # multiplicative corner: min(b.mu (1 + delta2), b.mu (1 - delta2))
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.0, 0.1)) \
        == pytest.approx(-5.0)
    assert robust_worst_value(z, Control(0, -1), o, 1.0, CBF, UncertaintyBounds(0.0, 0.1)) \
        == pytest.approx(15.0)


def test_robust_check_examples():
    z = State(0, 0, 0, 1)
    u = Control(0, 0)
    o = Obstacle(5, 0, 1)
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.5, 0.0)) \
        == pytest.approx(1.0)
    assert robust_worst_value(z, u, o, 1.0, CBF, UncertaintyBounds(0.7, 0.0)) \
        == pytest.approx(-1.0)


def test_zero_bounds_reduce_to_nominal_exactly():
    rng = np.random.default_rng(59)
    zero = UncertaintyBounds(0.0, 0.0)
    for _ in range(10_000):
        z, u, o, r, cbf = random_tuple(rng)
        nominal = nominal_value(z, u, o, r, cbf)
        worst = robust_worst_value(z, u, o, r, cbf, zero)
        assert worst == nominal  # bit-identical, not just close
        assert (worst >= 0.0) == kbf_check(z, u, o, r, cbf)


def test_robust_pass_nested_in_nominal_pass():
    rng = np.random.default_rng(61)
    violations = 0
    for _ in range(10_000):
        z, u, o, r, cbf = random_tuple(rng)
        bounds = UncertaintyBounds(rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.9))
        if robust_worst_value(z, u, o, r, cbf, bounds) >= 0.0 and not kbf_check(z, u, o, r, cbf):
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
        if big >= 0.0:
            assert small >= 0.0


def test_worst_value_matches_grid_oracle():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        z, u, o, r, cbf = random_tuple(rng)
        bounds = UncertaintyBounds(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.9))
        analytic = robust_worst_value(z, u, o, r, cbf, bounds)
        A, b, mu = reference_condition(z, u, o, r, cbf)
        grid = robust_worst_grid(A, b[0], b[1], float(b @ mu),
                                 bounds.delta1_max, bounds.delta2_max)
        assert analytic == pytest.approx(grid, abs=1e-9)


def test_gate_fails_closed_on_nan_obstacle():
    z, u = State(0.0, 0.0, 0.0, 0.5), Control(0.0, 0.5)
    safe = (5.0, 5.0, 1.0)
    for bad in ((3.0, math.nan, 1.0), (math.nan, 0.0, 1.0), (3.0, 0.0, math.nan)):
        for obstacles, bounds in (([bad], (0.0, 0.0)), ([safe, bad], (0.0, 0.0)),
                                  ([safe, bad], (0.3, 0.3))):
            rows = gate_rows(z.x, z.y, z.theta, z.v, obstacles, 1.0, 1.0, *bounds)
            assert not gate_check(z.theta, z.v, rows, u.c, u.a, bounds[1]) >= 0.0
    assert not kbf_check(z, u, Obstacle(3.0, math.nan, 1.0), 1.25, CBF)
    rows = gate_rows(z.x, z.y, z.theta, z.v, [safe], 1.0, 1.0)
    assert gate_check(z.theta, z.v, rows, u.c, u.a) >= 0.0


def test_gate_value_is_the_worst_obstacle_value():
    rng = np.random.default_rng(79)
    for _ in range(2000):
        z, u, _, _, cbf = random_tuple(rng)
        bounds = UncertaintyBounds(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
        obstacles = [Obstacle(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 2.0))
                     for _ in range(int(rng.integers(1, 5)))]
        radii = [o.r + ROBOT.r_r for o in obstacles]
        values = [robust_worst_value(z, u, o, r, cbf, bounds) for o, r in zip(obstacles, radii)]
        rows = gate_rows(z.x, z.y, z.theta, z.v,
                         [(o.x, o.y, r * r) for o, r in zip(obstacles, radii)],
                         cbf.gamma1, cbf.gamma2, bounds.delta1_max, bounds.delta2_max)
        value = gate_check(z.theta, z.v, rows, u.c, u.a, bounds.delta2_max)
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


def far_goal_scenario(max_iters):
    """A goal the barrier-gated planners do not reach within max_iters."""
    return Scenario(start=State(0.5, 0.5, 0.0, 0.0), goal=State(9.5, 9.5, 0.0, 0.0),
                    obstacles=(Obstacle(5.0, 5.0, 1.0),), bounds=Bounds(0.0, 10.0, 0.0, 10.0),
                    planner=PlannerConfig(max_iters=max_iters))


def test_sample_control_bounds_and_moments():
    # the barrier-gated planners draw (c, a) uniformly over
    # [-c_max, c_max] x [0, a_max]; the trace records every draw
    s = far_goal_scenario(10_000)
    for bounds in (UncertaintyBounds(), UncertaintyBounds(0.3, 0.3)):
        trace = []
        with pytest.raises(NoPath):
            plan_robust_rrt_kbf(s, bounds, np.random.default_rng(73), trace)
        n = len(trace)
        cs = np.array([c for _, c, _, _ in trace])
        accs = np.array([a for _, _, a, _ in trace])
        assert n == 10_000
        assert np.all((-ROBOT.c_max <= cs) & (cs <= ROBOT.c_max))
        assert np.all((0.0 <= accs) & (accs <= ROBOT.a_max))
        # uniform moments: mean within 3 sigma / sqrt(n)
        sigma = ROBOT.a_max / math.sqrt(12.0)
        assert abs(np.mean(accs) - ROBOT.a_max / 2) <= 3 * sigma / math.sqrt(n)
        assert abs(np.mean(cs)) <= 3 * (2 * ROBOT.c_max / math.sqrt(12)) / math.sqrt(n)


def test_sample_control_deterministic():
    s = far_goal_scenario(100)
    traces = [[], [], []]
    for trace in traces[:2]:
        with pytest.raises(NoPath):
            plan_rrt_kbf(s, np.random.default_rng(9), trace)
    with pytest.raises(NoPath):
        plan_rrt_kbf(s, np.random.default_rng(10), traces[2])
    assert traces[0] == traces[1]
    assert traces[0] != traces[2]


COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))
OBSTACLE = st.tuples(COORD, COORD, st.floats(0.0, 4.0), st.booleans())


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@settings(max_examples=600, deadline=None)
@given(x=COORD, y=COORD, theta=st.one_of(st.sampled_from([0.0, -0.0, math.nan]),
                                         st.floats(-4.0, 4.0)),
       v=st.one_of(SPECIAL, st.floats(-1.5, 1.5)),
       c=st.one_of(SPECIAL, st.floats(-8.0, 8.0)), a=st.one_of(SPECIAL, st.floats(-2.0, 2.0)),
       obstacles=st.lists(OBSTACLE, max_size=6), g1=st.floats(0.1, 5.0), g2=st.floats(0.1, 5.0),
       d1=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 2.0)),
       d2=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.99)),
       nan_at=st.sampled_from(["none", "x", "y", "xo", "yo", "r2", "d1", "d2"]),
       slack=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)))
# at rest on the circle A is 0, and dx mu1 = 1.5 * 5e-324 is subnormal: the frozen
# 2 (dx mu1) reads 2e-323 where (2 dx) mu1 would read 1.5e-323
@example(x=1.5, y=0.0, theta=0.0, v=0.0, c=0.0, a=5e-324, obstacles=[(0.0, 0.0, 0.0, True)],
         g1=1.0, g2=1.0, d1=0.0, d2=0.0, nan_at="none", slack=(0.0, 0.0))
def test_gate_value_matches_the_frozen_gate(x, y, theta, v, c, a, obstacles, g1, g2, d1, d2,
                                            nan_at, slack):
    # gate_check over every row of gate_rows is the frozen one-pass gate bit
    # for bit: nominal and robust, signed zeros, NaN anywhere, and the first
    # failing value; a NaN in xo, yo or r2 goes into the last obstacle, so the
    # obstacles before it decide first. Pruned to a control box that holds
    # (c, a), the gate keeps the verdict and the first failing value. For one
    # obstacle, kbf_check and robust_worst_value compose the same halves.
    x, y, d1, d2 = [math.nan if nan_at == k else val
                    for k, val in (("x", x), ("y", y), ("d1", d1), ("d2", d2))]
    obs = [(xo, yo, (x - xo) ** 2 + (y - yo) ** 2 if on_edge else r2)
           for xo, yo, r2, on_edge in obstacles]
    if obs and nan_at in ("xo", "yo", "r2"):
        obs[-1] = tuple(math.nan if nan_at == k else val
                        for k, val in zip(("xo", "yo", "r2"), obs[-1]))
    frozen = frozen_gate_value(x, y, theta, v, c, a, obs, g1, g2, d1, d2)
    rows = gate_rows(x, y, theta, v, obs, g1, g2, d1, d2)
    assert same_float(gate_check(theta, v, rows, c, a, d2), frozen)
    if math.isfinite(c) and math.isfinite(a):
        rows = gate_rows(x, y, theta, v, obs, g1, g2, d1, d2,
                         abs(c) + slack[0], abs(a) + slack[1])
        pruned = gate_check(theta, v, rows, c, a, d2)
        assert (pruned >= 0.0) == (frozen >= 0.0)
        if not frozen >= 0.0:
            assert same_float(pruned, frozen)
    if len(obs) == 1 and nan_at not in ("d1", "d2"):  # UncertaintyBounds rejects NaN
        [(xo, yo, r2)] = obs
        z, u, r = State(x, y, theta, v), Control(c, a), math.sqrt(r2)  # State wraps theta
        o, cbf, one = Obstacle(xo, yo, r), CbfParams(g1, g2), [(xo, yo, r * r)]
        nominal = frozen_gate_value(x, y, z.theta, v, c, a, one, g1, g2)
        assert kbf_check(z, u, o, r, cbf) == (nominal >= 0.0)
        assert same_float(robust_worst_value(z, u, o, r, cbf, UncertaintyBounds(d1, d2)),
                          frozen_gate_value(x, y, z.theta, v, c, a, one, g1, g2, d1, d2))


NODE = dict(x=st.floats(-5.0, 5.0), y=st.floats(-5.0, 5.0), theta=st.floats(-4.0, 4.0),
            v=st.floats(0.0, ROBOT.v_max),
            obstacles=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                                         st.floats(0.0, 25.0)), min_size=1, max_size=8),
            g1=st.floats(1e-2, 1e2), g2=st.floats(1e-2, 1e2),
            d1=st.floats(0.0, 2.0), d2=st.floats(0.0, 0.99),
            c_max=st.floats(1e-3, 10.0), a_max=st.floats(1e-3, 10.0))


@settings(max_examples=1000, deadline=None)
@given(**NODE, interior=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
                                 max_size=8))
def test_gate_rows_drop_only_obstacles_no_control_in_the_box_fails(
        x, y, theta, v, obstacles, g1, g2, d1, d2, c_max, a_max, interior):
    # the value is affine in (c, a) per uncertainty corner, so the box corners
    # hold its minimum; drawn interior controls check the same claim inside
    controls = [(-c_max, 0.0), (c_max, 0.0), (-c_max, a_max), (c_max, a_max)]
    controls += [(fc * c_max, fa * a_max) for fc, fa in interior]
    kept = ()
    for ob in obstacles:
        row = gate_rows(x, y, theta, v, [ob], g1, g2, d1, d2, c_max, a_max)
        kept += row
        if not row:
            every = gate_rows(x, y, theta, v, [ob], g1, g2, d1, d2)
            for c, a in controls:
                assert gate_check(theta, v, every, c, a, d2) >= 0.0
    assert gate_rows(x, y, theta, v, obstacles, g1, g2, d1, d2, c_max, a_max) == kept


@settings(max_examples=300, deadline=None)
@given(**NODE, nan_at=st.sampled_from(["x", "y", "theta", "v", "xo", "yo", "r2"]))
def test_gate_rows_keep_every_row_under_the_default_box_and_every_nan_row(
        x, y, theta, v, obstacles, g1, g2, d1, d2, c_max, a_max, nan_at):
    rows = gate_rows(x, y, theta, v, obstacles, g1, g2, d1, d2)
    assert len(rows) == len(obstacles) and all(len(row) == 3 for row in rows)
    # a NaN in the node keeps every row, and one in an obstacle keeps its row
    x, y, theta, v = [math.nan if nan_at == k else val
                      for k, val in (("x", x), ("y", y), ("theta", theta), ("v", v))]
    bad = tuple(math.nan if nan_at == k else val
                for k, val in zip(("xo", "yo", "r2"), obstacles[0]))
    rows = gate_rows(x, y, theta, v, [bad] + obstacles[1:], g1, g2, d1, d2, c_max, a_max)
    kept = len(obstacles) if nan_at in ("x", "y", "theta", "v") else 1
    assert len(rows) >= kept and any(r != r for r in rows[0])
