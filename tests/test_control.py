import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_condition, same_float

from kbfplan.core import (CbfParams, ClfParams, Control, Obstacle, RobotParams, State,
                          combined_radius, gate_obstacles)
from kbfplan.control import (InfeasibleSafety, NotHurwitz, clf_cbf_qp_control,
                             clf_terms, pd_control, safety_qp, solve_lyapunov)
from kbfplan.dynamics import tracking_error
from kbfplan.qp import ActiveSetQp
from kbfplan.safety import gate_rows

ROBOT = RobotParams()
CBF = CbfParams(1.0, 1.0)


def qp_control(z, e, obstacles, cbf, clf, P, solver):
    """clf_cbf_qp_control on a problem set up for this one call, at mu_rm = 0."""
    return clf_cbf_qp_control(z, e, obstacles, cbf, clf, P, solver,
                              safety_qp(clf, len(obstacles)), (0.0, 0.0))


def tracking_qp(e, P, clf):
    """clf_cbf_qp_control with no obstacles, at the error e.

    With no obstacles the plant state enters only through e.
    """
    mu, _, _ = qp_control(State(0.0, 0.0, 0.0, 0.0), tuple(e), (), CBF, clf, P, ActiveSetQp())
    return mu


def random_spd(rng, n, scale=2.0):
    m = rng.normal(size=(n, n))
    return m @ m.T * scale / n + 0.3 * np.eye(n)


def test_lyapunov_identity_gains_block_form():
    P = solve_lyapunov(ClfParams())
    expected = np.block([[1.5 * np.eye(2), 0.5 * np.eye(2)],
                         [0.5 * np.eye(2), 1.0 * np.eye(2)]])
    assert np.max(np.abs(np.array(P) - expected)) <= 1e-12
    assert clf_terms((1, 0, 0, 0), P, ClfParams().Q)[0] == pytest.approx(1.5)


def test_lyapunov_scales_linearly_with_q():
    P1 = solve_lyapunov(ClfParams(Q=1.0))
    P2 = solve_lyapunov(ClfParams(Q=2.0))
    assert np.allclose(P2, 2.0 * np.array(P1), atol=1e-12)


def test_lyapunov_residual_random_gains():
    rng = np.random.default_rng(23)
    for _ in range(100):
        clf = ClfParams(K_P=random_spd(rng, 2), K_D=random_spd(rng, 2))
        P = np.array(solve_lyapunov(clf))
        A_cl = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.array(clf.K_P), -np.array(clf.K_D)]])
        residual = np.max(np.abs(A_cl.T @ P + P @ A_cl + clf.Q))
        assert residual <= 1e-10
        assert np.min(np.linalg.eigvalsh(P)) > 0.0


def test_lyapunov_rejects_unstable_gains():
    with pytest.raises(NotHurwitz):
        solve_lyapunov(ClfParams(K_P=-1.0, K_D=1.0))


@pytest.mark.parametrize("penalty", [0.0, -1.0, math.nan, math.inf])
def test_lyapunov_rejects_a_penalty_without_a_convex_qp(penalty):
    # the penalty is checked where the QP's Hessian diag(2, 2, 2*penalty) is formed
    with pytest.raises(ValueError, match="penalty"):
        safety_qp(ClfParams(penalty=penalty), 0)


def test_lyapunov_is_memoized_per_gain_setting():
    P = solve_lyapunov(ClfParams(K_P=2.0, Q=3.0))
    assert solve_lyapunov(ClfParams(K_P=2.0, Q=3.0)) is P
    # shared by every caller, so immutable float rows
    assert type(P) is tuple and all(type(r) is tuple for r in P)
    assert all(type(x) is float for r in P for x in r)
    fresh = solve_lyapunov.__wrapped__(ClfParams(K_P=2.0, Q=3.0))  # not the memoized one
    assert fresh == P and hash(fresh) == hash(P)
    assert safety_qp(ClfParams(penalty=5.0), 1).H.tolist() == [
        [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 10.0]]
    for _ in range(2):  # a rejected setting raises on every call, not only the first
        with pytest.raises(NotHurwitz):
            solve_lyapunov(ClfParams(K_P=-1.0, K_D=1.0))
        with pytest.raises(ValueError, match="penalty"):
            safety_qp(ClfParams(penalty=0.0), 1)


def test_clf_terms_examples():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    assert clf_terms((0, 0, 0, 0), P, clf.Q) == (0.0, 0.0, (0.0, 0.0))
    V, _, LgV = clf_terms((1, 0, 0, 0), P, clf.Q)
    assert V == pytest.approx(1.5)
    assert LgV == pytest.approx((1.0, 0.0))


_COORD = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.tuples(_COORD, _COORD, _COORD, _COORD))
def test_clf_terms_match_the_numpy_forms(seed, e):
    # random Hurwitz gains (K_P, K_D symmetric positive definite) and weight Q
    rng = np.random.default_rng(seed)
    clf = ClfParams(K_P=random_spd(rng, 2), K_D=random_spd(rng, 2), Q=random_spd(rng, 4))
    P, Q, ea = np.array(solve_lyapunov(clf)), np.array(clf.Q), np.array(e)
    F = np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), np.zeros((2, 2))]])
    M = F.T @ P + P @ F
    V, LfV_eQe, LgV = clf_terms(e, solve_lyapunov(clf), clf.Q)
    tol = 1e-12 * float(ea @ ea)  # per unit of a matrix's largest entry
    assert abs(V - ea @ P @ ea) <= tol * np.max(np.abs(P))
    assert abs(LfV_eQe - (ea @ M @ ea + ea @ Q @ ea)) <= tol * np.max(np.abs(np.hstack([M, Q])))
    # LgV is linear in e, so its bound scales with |e|
    assert np.max(np.abs(np.array(LgV) - 2.0 * ea @ P[:, 2:])) <= (
        1e-12 * np.linalg.norm(ea) * np.max(np.abs(P)))


def test_clf_value_quadratic_homogeneity():
    rng = np.random.default_rng(29)
    clf = ClfParams()
    P = solve_lyapunov(clf)
    for _ in range(50):
        e = rng.normal(size=4)
        alpha = rng.uniform(-3, 3)
        v1 = clf_terms(tuple(e), P, clf.Q)[0]
        v2 = clf_terms(tuple(alpha * e), P, clf.Q)[0]
        assert v2 == pytest.approx(alpha * alpha * v1, rel=1e-10, abs=1e-12)


def test_clf_qp_zero_error():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    rng = np.random.default_rng(30)
    for _ in range(50):
        z = State(rng.uniform(-5, 5), rng.uniform(-5, 5),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0, 1.2))
        e = tracking_error(z, (z.x, z.y), (z.v * math.cos(z.theta), z.v * math.sin(z.theta)))
        mu, slack, V = qp_control(z, e, (), CBF, clf, P, ActiveSetQp())
        assert mu == pytest.approx((0.0, 0.0), abs=1e-12)
        assert slack == 0.0
        assert V == clf_terms(e, P, clf.Q)[0]


def test_clf_qp_returns_pd_when_row_satisfied():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    rng = np.random.default_rng(31)
    for _ in range(100):
        e = tuple(rng.normal(size=4))
        mu = tracking_qp(e, P, clf)
        mu_pd = pd_control(e, clf)
        assert np.allclose(mu, mu_pd, atol=1e-10)


def test_clf_qp_decrease_row_holds():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    rng = np.random.default_rng(37)
    for _ in range(1000):
        e = tuple(rng.normal(size=4))
        mu = tracking_qp(e, P, clf)
        _, LfV_eQe, LgV = clf_terms(e, P, clf.Q)
        row = LfV_eQe + LgV[0] * mu[0] + LgV[1] * mu[1]
        assert row <= 1e-8


def test_clf_decrease_along_error_dynamics():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    rng = np.random.default_rng(41)
    dt = 0.01
    F = np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), np.zeros((2, 2))]])
    G = np.vstack([np.zeros((2, 2)), np.eye(2)])
    Pa = np.array(P)
    for _ in range(100):
        e = rng.normal(size=4)
        v_prev = float(e @ Pa @ e)
        for _ in range(150):
            mu = tracking_qp(e, P, clf)
            de = F @ e + G @ np.array(mu)
            # RK2 on the closed-loop error system
            e_mid = e + 0.5 * dt * de
            mu_mid = tracking_qp(e_mid, P, clf)
            e = e + dt * (F @ e_mid + G @ np.array(mu_mid))
            v = float(e @ Pa @ e)
            assert v <= v_prev + 1e-6
            v_prev = v


def test_clf_cbf_qp_zero_error_no_obstacles():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    z = State(0, 0, 0, 1.0)
    e = tracking_error(z, (0.0, 0.0), (1.0, 0.0))
    mu, slack, _ = qp_control(z, e, (), CBF, clf, P, ActiveSetQp())
    assert mu == pytest.approx((0.0, 0.0), abs=1e-10)
    assert slack == pytest.approx(0.0, abs=1e-10)


def test_clf_cbf_qp_distant_obstacle_matches_clf_qp():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    rng = np.random.default_rng(43)
    far = Obstacle(500.0, 500.0, 1.0)
    for _ in range(200):
        z = State(rng.uniform(-2, 2), rng.uniform(-2, 2),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0, 1.2))
        e = tracking_error(z, (rng.uniform(-2, 2), rng.uniform(-2, 2)),
                           (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        mu_cbf, _, _ = qp_control(z, e, gate_obstacles((far,), ROBOT), CBF, clf, P,
                                  ActiveSetQp())
        mu_clf, _, _ = qp_control(z, e, (), CBF, clf, P, ActiveSetQp())
        assert np.allclose(mu_cbf, mu_clf, atol=1e-9)


def test_clf_cbf_qp_barrier_rows_hold_near_obstacle():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    rng = np.random.default_rng(47)
    for _ in range(1000):
        o = Obstacle(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 1.0))
        r = combined_radius(o, ROBOT)
        # random state outside the inflated disc but within braking range
        phi = rng.uniform(0, 2 * math.pi)
        dist = r + rng.uniform(0.05, 1.5)
        z = State(o.x + dist * math.cos(phi), o.y + dist * math.sin(phi),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0, 1.2))
        e = tracking_error(z, (o.x, o.y), (0.0, 0.0))  # reference pulls into the obstacle
        try:
            mu_e, slack, _ = qp_control(z, e, gate_obstacles((o,), ROBOT), CBF, clf, P,
                                        ActiveSetQp())
        except InfeasibleSafety:
            continue
        assert slack >= 0.0
        A, b, _ = reference_condition(z, Control(0.0, 0.0), o, r, CBF)
        mu_plant = (-mu_e[0], -mu_e[1])
        assert A + b[0] * mu_plant[0] + b[1] * mu_plant[1] >= -1e-8


COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


@settings(max_examples=400, deadline=None)
@given(x=COORD, y=COORD, theta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0)),
       v=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, ROBOT.v_max)),
       nan_at=st.sampled_from(["none", "x", "y", "theta"]),
       obstacles=st.lists(st.tuples(COORD, COORD, st.floats(0.0, 4.0), st.booleans()),
                          max_size=6),
       g1=st.floats(0.1, 5.0), g2=st.floats(0.1, 5.0),
       mu_rm=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       e=st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_clf_cbf_qp_barrier_rows_are_the_gate_rows(x, y, theta, v, nan_at, obstacles, g1, g2,
                                                   mu_rm, e):
    # after one tick, QP row 2 + j is obstacle j's gate row (dx, dy, A) at the
    # plant state, written as b mu <= A + b mu_rm with b = 2 (dx, dy), bit for
    # bit; on_edge puts the state on the inflated circle, and a NaN row fails closed
    x, y, theta = [math.nan if nan_at == k else val
                   for k, val in (("x", x), ("y", y), ("theta", theta))]
    obs = [(xo, yo, (x - xo) ** 2 + (y - yo) ** 2 if on_edge else r2)
           for xo, yo, r2, on_edge in obstacles]
    z = State(x, y, theta, v)
    clf = ClfParams()
    P = solve_lyapunov(clf)
    prob = safety_qp(clf, len(obs))
    try:
        clf_cbf_qp_control(z, e, obs, CbfParams(g1, g2), clf, P, ActiveSetQp(), prob, mu_rm)
        solved = True
    except InfeasibleSafety:
        solved = False
    rows = gate_rows(z.x, z.y, z.theta, z.v, obs, g1, g2)
    assert len(rows) == len(obs)
    m0, m1 = mu_rm
    for j, (dx, dy, A) in enumerate(rows, 2):
        bx, by = 2.0 * dx, 2.0 * dy
        assert all(map(same_float, prob.A_ineq[j].tolist(), (bx, by, 0.0)))
        assert same_float(prob.b_ineq[j], A + bx * m0 + by * m1)
        if math.isnan(bx) or math.isnan(by) or math.isnan(A):
            assert not solved


def test_clf_cbf_qp_penalty_monotone_in_slack():
    d_prev = None
    z = State(0.0, 0.0, 0.0, 1.0)
    # reference accelerating hard into a nearby obstacle forces the slack up
    e = tracking_error(z, (2.0, 0.0), (1.2, 0.0))
    o = Obstacle(1.4, 0.0, 0.5)
    for penalty in (1e1, 1e2, 1e3, 1e4):
        clf = ClfParams(penalty=penalty)
        P = solve_lyapunov(clf)
        _, slack, _ = qp_control(z, e, gate_obstacles((o,), ROBOT), CBF, clf, P,
                                 ActiveSetQp())
        if d_prev is not None:
            assert slack <= d_prev + 1e-9
        d_prev = slack


def test_clf_cbf_qp_infeasible_raises():
    clf = ClfParams()
    P = solve_lyapunov(clf)
    # at rest between two overlapping inflated discs: both rows reduce to
    # A + b mu >= 0 with A < 0 and opposite normals, so no mu satisfies them
    z = State(0.0, 0.0, 0.0, 0.0)
    obstacles = (Obstacle(0.9, 0.0, 0.8), Obstacle(-0.9, 0.0, 0.8))
    with pytest.raises(InfeasibleSafety):
        qp_control(z, (0.0, 0.0, 0.0, 0.0), gate_obstacles(obstacles, ROBOT), CBF,
                   clf, P, ActiveSetQp())
