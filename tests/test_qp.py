import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import objective, random_qp, solve_qp_enumeration

from kbfplan import qp
from kbfplan.qp import ActiveSetQp, QpProblem, QpStatus


def test_unconstrained_minimum():
    H, f = 2.0 * np.eye(2), [-4.0, 0.0]
    sol = ActiveSetQp().solve(QpProblem(H, f, np.zeros((0, 2)), []))
    assert sol.status is QpStatus.OPTIMAL
    assert np.allclose(sol.x, [2.0, 0.0])
    assert objective(H, f, sol.x) == pytest.approx(-4.0)
    assert sol.active_set == ()


def test_halfline_projection():
    # min (x-2)^2 s.t. x <= 1
    sol = ActiveSetQp().solve(QpProblem([[2.0]], [-4.0], [[1.0]], [1.0]))
    assert sol.status is QpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.active_set == (0,)
    assert sol.multipliers[0] == pytest.approx(2.0)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(42)
    for k in range(1000):
        H, f, A, b = random_qp(rng, force_infeasible=(k % 5 == 4))
        oracle = solve_qp_enumeration(H, f, A, b)
        sol = ActiveSetQp().solve(QpProblem(H, f, A, b))
        if oracle is None:
            assert sol.status is QpStatus.INFEASIBLE, f"instance {k}"
        else:
            assert sol.status is QpStatus.OPTIMAL, f"instance {k}"
            assert np.max(np.abs(sol.x - oracle[0])) <= 1e-8, f"instance {k}"
            assert abs(objective(H, f, sol.x) - oracle[1]) <= 1e-8, f"instance {k}"


def test_kkt_conditions_at_optimum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        H, f, A, b = random_qp(rng)
        sol = ActiveSetQp().solve(QpProblem(H, f, A, b))
        if sol.status is not QpStatus.OPTIMAL:
            continue
        if len(b):
            assert np.all(A @ sol.x - b <= 1e-8)
        lam = np.zeros(len(b))
        for i, v in zip(sol.active_set, sol.multipliers):
            assert v >= -1e-9
            lam[i] = v
        stationarity = H @ sol.x + f + (A.T @ lam if len(b) else 0.0)
        assert np.max(np.abs(stationarity)) <= 1e-8


def test_optimum_dominates_random_feasible_points():
    rng = np.random.default_rng(11)
    H, f, A, b = random_qp(rng, n_max=3, m_max=4)
    while len(b) == 0:
        H, f, A, b = random_qp(rng, n_max=3, m_max=4)
    sol = ActiveSetQp().solve(QpProblem(H, f, A, b))
    assert sol.status is QpStatus.OPTIMAL
    n = len(f)
    tried = 0
    for _ in range(10_000):
        x = sol.x + rng.normal(scale=2.0, size=n)
        if np.all(A @ x - b <= 0.0):
            tried += 1
            assert objective(H, f, sol.x) <= objective(H, f, x) + 1e-8
    assert tried > 100  # the sampler actually exercised the feasible set


def test_active_set_stable_under_dual_shift():
    # shifting f along the active normals with multipliers strictly inside
    # (0, lambda*) keeps the same KKT point and active set
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        H, f, A, b = random_qp(rng, n_max=3, m_max=4)
        sol = ActiveSetQp().solve(QpProblem(H, f, A, b))
        if sol.status is not QpStatus.OPTIMAL or not sol.active_set:
            continue
        if min(sol.multipliers) < 1e-6:
            continue  # skip degenerate instances
        lam_hat = 0.5 * np.array(sol.multipliers)
        f2 = f + A[list(sol.active_set)].T @ lam_hat
        sol2 = ActiveSetQp().solve(QpProblem(H, f2, A, b))
        assert sol2.status is QpStatus.OPTIMAL
        assert sol2.active_set == sol.active_set
        assert np.allclose(sol2.x, sol.x, atol=1e-8)
        checked += 1


def test_deterministic_solutions():
    rng = np.random.default_rng(17)
    for _ in range(50):
        H, f, A, b = random_qp(rng)
        s1 = ActiveSetQp().solve(QpProblem(H, f, A, b))
        s2 = ActiveSetQp().solve(QpProblem(H, f, A, b))
        assert s1.status == s2.status
        if s1.status is QpStatus.OPTIMAL:
            assert np.array_equal(s1.x, s2.x)
            assert s1.active_set == s2.active_set


def test_infeasible_detection():
    # x <= 0 and -x <= -1 cannot both hold
    sol = ActiveSetQp().solve(QpProblem([[2.0]], [0.0], [[1.0], [-1.0]], [0.0, -1.0]))
    assert sol.status is QpStatus.INFEASIBLE
    assert sol.x is None


def test_iteration_limit_reported(monkeypatch):
    monkeypatch.setattr(qp, "_MAX_ITER", 0)
    H = np.eye(2)
    f = np.array([-10.0, -10.0])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 1.5])
    sol = ActiveSetQp().solve(QpProblem(H, f, A, b))
    assert sol.status is QpStatus.ITER_LIMIT


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(19)
    solver = ActiveSetQp()
    for _ in range(100):
        H, f, A, b = random_qp(rng, n_max=3, m_max=4)
        warm = solver.solve(QpProblem(H, f, A, b))
        cold = ActiveSetQp().solve(QpProblem(H, f, A, b))
        assert warm.status == cold.status
        if warm.status is QpStatus.OPTIMAL:
            assert np.allclose(warm.x, cold.x, atol=1e-8)
            assert objective(H, f, warm.x) == pytest.approx(objective(H, f, cold.x), abs=1e-8)


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        QpProblem([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), [0.0, 0.0], [[1.0, 0.0]], [1.0, 2.0])
    # asymmetry up to 1e-12 passes; a NaN or an inf fails, on the diagonal or
    # off it (np.allclose takes equal infs as close, and np.linalg.cholesky
    # accepts an inf on the diagonal)
    QpProblem([[1.0, 1e-12], [0.0, 1.0]], [0.0, 0.0], np.zeros((0, 2)), [])
    for H in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
              [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(H, [0.0, 0.0], np.zeros((0, 2)), [])


@pytest.mark.parametrize("H", [[[1.0, 0.0], [0.0, -1.0]],   # indefinite: a saddle, no minimum
                               [[1.0, 0.0], [0.0, 0.0]],    # singular diagonal
                               [[1.0, 1.0], [1.0, 1.0]]])   # singular dense
def test_hessian_not_positive_definite_rejected(H):
    # the dual method assumes a strictly convex problem; without this check the
    # indefinite case read OPTIMAL at the saddle point (0, 1) of an unbounded problem
    with pytest.raises(ValueError, match="positive definite"):
        QpProblem(H, [0.0, 1.0], [[1.0, 0.0]], [5.0])


_THIRD = st.sampled_from([1.0, 0.0, -0.0])  # -f[2] and -A[p, 2] of the controller's QP
_A_THIRD = st.sampled_from([-1.0, 0.0, -0.0])  # A[:, 2]: the slack's column
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.floats(1e-3, 1e6), _FINITE, _FINITE, _THIRD)
def test_controller_hessian_inverse_matches_solve(penalty, v0, v1, v2):
    # the controller's H = diag(2, 2, 2p) is inverted once per problem; each
    # product with the inverse must give the floats of the solve it replaces
    H = np.diag([2.0, 2.0, 2.0 * penalty])
    H_inv = QpProblem(H, np.zeros(3), np.zeros((0, 3)), []).H_inv
    v = np.array([v0, v1, v2])
    assert np.array_equal(H_inv @ v, np.linalg.solve(H, v))


@given(st.floats(1e-3, 1e6),
       st.lists(st.tuples(_FINITE, _FINITE, _A_THIRD), min_size=1, max_size=3))
def test_controller_hessian_inverse_matches_solve_on_working_sets(penalty, rows):
    H = np.diag([2.0, 2.0, 2.0 * penalty])
    H_inv = QpProblem(H, np.zeros(3), np.zeros((0, 3)), []).H_inv
    N = -np.array(rows).T  # Fortran order, as the solver's -A[W].T
    HN = H_inv @ N
    assert np.array_equal(HN, np.linalg.solve(H, N))
    # a solve returns C order; keeping it keeps the BLAS kernels of N.T @ HN and HN @ r
    assert HN.flags.c_contiguous


NAN = float("nan")
CONTROLLER_H = np.diag([2.0, 2.0, 2000.0])


@pytest.mark.parametrize("f, A, b", [
    ([-1.0, -1.0, 0.0], [[1.0, 0.0, 0.0], [NAN, 0.0, 0.0]], [0.1, 0.0]),  # NaN row
    ([-1.0, -1.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.1, NAN]),  # NaN bound
    ([-1.0, NAN, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.1, 0.0]),   # NaN cost
    ([-1.0, NAN, 0.0], np.zeros((0, 3)), []),                             # ... unconstrained
])
def test_nan_fails_closed(f, A, b):
    sol = ActiveSetQp().solve(QpProblem(CONTROLLER_H, f, A, b))
    assert sol.status is QpStatus.INFEASIBLE
    assert sol.x is None


def test_nan_fails_closed_on_the_warm_path():
    solver = ActiveSetQp()
    A = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert solver.solve(QpProblem(CONTROLLER_H, [-1.0, -1.0, 0.0], A, [0.1, 0.2])).active_set \
        == (0, 1)
    # the retained working set is tried first; its KKT point must not hide a NaN
    for b in ([0.1, NAN], [NAN, 0.2]):
        assert solver.solve(QpProblem(CONTROLLER_H, [-1.0, -1.0, 0.0], A, b)).status \
            is QpStatus.INFEASIBLE


def test_reused_problem_matches_fresh_problems():
    # one problem rewritten in place, as the follower does each tick, gives the
    # same solutions and warm sets as a fresh problem per solve
    rng = np.random.default_rng(53)
    reused_solver, fresh_solver = ActiveSetQp(), ActiveSetQp()
    H, f, A, b = random_qp(rng, n_max=3, m_max=4)
    while len(f) != 3 or len(b) != 4:
        H, f, A, b = random_qp(rng, n_max=3, m_max=4)
    prob = QpProblem(H, np.zeros(3), np.zeros((4, 3)), np.zeros(4))
    warm_hits = 0
    for _ in range(300):
        f = f + rng.normal(scale=0.1, size=3)
        A = A + rng.normal(scale=0.02, size=(4, 3))
        b = b + rng.normal(scale=0.1, size=4)
        prob.f[:], prob.A_ineq[:], prob.b_ineq[:] = f, A, b
        reused = reused_solver.solve(prob)
        fresh = fresh_solver.solve(QpProblem(H, f, A, b))
        assert reused_solver._warm == fresh_solver._warm
        assert (reused.status, reused.active_set, reused.multipliers, reused.iterations) == \
            (fresh.status, fresh.active_set, fresh.multipliers, fresh.iterations)
        if fresh.x is not None:
            assert np.array_equal(reused.x, fresh.x)
            warm_hits += fresh.iterations == 0 and fresh.active_set != ()
    assert warm_hits > 10
