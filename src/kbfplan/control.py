"""Lyapunov-based tracking control: gain synthesis and the safety-filtered QP law.

The tracking error e = x_ref - x (the 4-tuple of dynamics.tracking_error)
obeys the double-integrator error dynamics de/dt = F e + G mu with
F = [[0, I], [0, 0]], G = [0; I]. Closing the loop with mu = [-K_P -K_D] e
gives A_cl = [[0, I], [-K_P, -K_D]]; the quadratic form V = e'Pe with
A_cl' P + P A_cl = -Q certifies its stability, and the decrease condition

    LfV + LgV mu + e'Qe <= 0

is imposed as a QP row. The controller keeps the barrier rows hard and
relaxes the decrease row by a slack d >= 0 penalized in the cost, so safety
always wins over tracking when the two conflict. It returns V with its
solution, so the follower logs the value the QP was built from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import CbfParams, ClfParams, State
from .dynamics import pd_control
from .qp import ActiveSetQp, QpProblem, QpStatus
from .safety import gate_rows

_LYAP_RESIDUAL_TOL = 1e-10


class NotHurwitz(ValueError):
    """Closed-loop matrix has an eigenvalue with nonnegative real part."""


class InfeasibleSafety(RuntimeError):
    """The barrier rows (with relaxed tracking row) admit no pseudo-control."""


@dataclass(frozen=True)
class ClfData:
    """Synthesized Lyapunov data for one gain setting, as tuples of float rows."""

    P: tuple  # 4x4 e'Pe, exactly symmetric and positive definite
    Q: tuple  # 4x4 weight of the decrease row's e'Qe (ClfParams.Q)
    H: tuple  # 3x3 QP Hessian diag(2, 2, 2*penalty)


@functools.lru_cache(maxsize=8)
def solve_lyapunov(clf: ClfParams) -> ClfData:
    """Solve A_cl' P + P A_cl = -Q for P by vectorizing to a 16x16 system.

    Memoized per ClfParams (a hashable value), so a follow or plan with the
    gains of an earlier one does no solve; a rejected setting raises every call.
    """
    if not 0.0 < clf.penalty < np.inf:  # else the QP Hessian is not positive definite
        raise ValueError(f"penalty must be positive and finite, got {clf.penalty}")
    I2 = np.eye(2)
    Z2 = np.zeros((2, 2))
    A = np.block([[Z2, I2], [-np.array(clf.K_P), -np.array(clf.K_D)]])
    if np.any(np.linalg.eigvals(A).real >= 0.0):
        raise NotHurwitz(f"closed-loop spectrum not strictly stable for gains "
                         f"K_P={clf.K_P}, K_D={clf.K_D}")
    Q = np.array(clf.Q)
    I4 = np.eye(4)
    lhs = np.kron(A.T, I4) + np.kron(I4, A.T)
    P = np.linalg.solve(lhs, (-Q).reshape(16)).reshape(4, 4)
    P = 0.5 * (P + P.T)
    residual = np.max(np.abs(A.T @ P + P @ A + Q))
    if residual > _LYAP_RESIDUAL_TOL:
        raise ArithmeticError(f"Lyapunov solve residual {residual:.3e} exceeds tolerance")
    H = ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0 * clf.penalty))
    return ClfData(P=tuple(map(tuple, P.tolist())), Q=clf.Q, H=H)


def clf_terms(e: tuple, d: ClfData) -> tuple[float, float, tuple[float, float]]:
    """(V, LfV + e'Qe, LgV) at the tracking error 4-tuple e, in plain floats.

    With P symmetric, e'(F'P + PF)e = 2 (Fe)'Pe and e'PG = (Pe)[2:], so the
    one product Pe gives V = e'Pe, LfV and LgV = 2 e'PG.
    """
    e0, e1, e2, e3 = e
    p0, p1, p2, p3 = [a * e0 + b * e1 + c * e2 + g * e3 for a, b, c, g in d.P]
    q0, q1, q2, q3 = [a * e0 + b * e1 + c * e2 + g * e3 for a, b, c, g in d.Q]
    return (e0 * p0 + e1 * p1 + e2 * p2 + e3 * p3,
            2.0 * (e2 * p0 + e3 * p1) + (e0 * q0 + e1 * q1 + e2 * q2 + e3 * q3),
            (2.0 * p2, 2.0 * p3))


def safety_qp(d: ClfData, n_obstacles: int) -> QpProblem:
    """The controller's QP over (mu1, mu2, slack), built once per follow: the
    decrease row relaxed by the slack, slack >= 0, then one row per obstacle."""
    A = np.array([[0.0, 0.0, -1.0]] * 2 + [[0.0, 0.0, 0.0]] * n_obstacles)
    return QpProblem(H=d.H, f=np.zeros(3), A_ineq=A, b_ineq=np.zeros(2 + n_obstacles))


def clf_cbf_qp_control(z: State, e: tuple, obstacles, cbf: CbfParams, clf: ClfParams,
                       d: ClfData, solver: ActiveSetQp, prob: QpProblem,
                       mu_rm: tuple[float, float] = (0.0, 0.0)
                       ) -> tuple[tuple[float, float], float, float]:
    """Safety-filtered tracking controller at the tracking error e.

    Decision variables are the error-system pseudo-control (mu1, mu2) and the
    decrease-row slack dd. One hard barrier row is added per obstacle, given
    as (xo, yo, r*r) with r the combined radius (core.gate_obstacles): the
    planner gate's (dx, dy, A) row from safety.gate_rows, whose default box keeps
    every obstacle, read as A + b (mu_rm - mu) >= 0 with b = 2 (dx, dy), mu_rm
    the reference feedforward acceleration and mu_rm - mu the plant's. The tick
    rewrites prob, from safety_qp(d, len(obstacles)), in place.

    Returns (error-system pseudo-control, slack, V at e). The caller maps to
    the plant via mu_plant = mu_rm - mu and then io_linearize. Raises
    InfeasibleSafety when the rows admit no solution.
    """
    mu_pd = pd_control(e, clf)
    V, LfV_eQe, LgV = clf_terms(e, d)
    f, rows, rhs = prob.f, prob.A_ineq.reshape(-1), prob.b_ineq  # views, written in place
    f[0], f[1] = -2.0 * mu_pd[0], -2.0 * mu_pd[1]
    rows[0], rows[1] = LgV
    rhs[0] = -LfV_eQe
    m0, m1 = mu_rm
    for i, (dx, dy, A) in enumerate(
            gate_rows(z.x, z.y, z.theta, z.v, obstacles, cbf.gamma1, cbf.gamma2), 2):
        # A + b (mu_rm - mu) >= 0  ->  b mu <= A + b mu_rm
        rows[3 * i], rows[3 * i + 1] = bx, by = 2.0 * dx, 2.0 * dy
        rhs[i] = A + bx * m0 + by * m1

    sol = solver.solve(prob)
    if sol.status is not QpStatus.OPTIMAL:
        raise InfeasibleSafety(f"safety-filtered QP returned {sol.status.value} "
                               f"at state ({z.x:.3f}, {z.y:.3f}, v={z.v:.3f})")
    mu1, mu2, slack = sol.x.tolist()
    return (mu1, mu2), max(0.0, slack), V
