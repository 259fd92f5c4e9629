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

from dataclasses import dataclass

import numpy as np

from .core import CbfParams, ClfParams, State
from .dynamics import pd_control
from .qp import ActiveSetQp, QpProblem, QpStatus
from .safety import barrier_rows

_LYAP_RESIDUAL_TOL = 1e-10


class NotHurwitz(ValueError):
    """Closed-loop matrix has an eigenvalue with nonnegative real part."""


class InfeasibleSafety(RuntimeError):
    """The barrier rows (with relaxed tracking row) admit no pseudo-control."""


@dataclass(frozen=True, eq=False)
class ClfData:
    """Synthesized Lyapunov data for one gain setting."""

    P_lyap: np.ndarray  # 4x4, symmetric positive definite
    Q: np.ndarray       # 4x4 weight of the decrease row's e'Qe
    M: np.ndarray       # F'P + PF, cached for the Lie derivative
    PG: np.ndarray      # P G, cached for the input Lie derivative
    H: np.ndarray       # QP Hessian diag(2, 2, 2*penalty), read-only


def solve_lyapunov(clf: ClfParams) -> ClfData:
    """Solve A_cl' P + P A_cl = -Q for P by vectorizing to a 16x16 system."""
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
    F = np.block([[Z2, I2], [Z2, Z2]])
    G = np.vstack([Z2, I2])
    H = np.diag([2.0, 2.0, 2.0 * clf.penalty])
    H.setflags(write=False)
    return ClfData(P_lyap=P, Q=Q, M=F.T @ P + P @ F, PG=P @ G, H=H)


def clf_terms(e: tuple, d: ClfData) -> tuple[float, float, tuple[float, float]]:
    """(V, LfV, LgV) at the tracking error e, a 4-tuple or array."""
    ea = np.asarray(e)
    V = float(ea @ d.P_lyap @ ea)
    LfV = float(ea @ d.M @ ea)
    return V, LfV, tuple((2.0 * (ea @ d.PG)).tolist())


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
    as (xo, yo, r*r) with r the combined radius (core.gate_obstacles).
    The barrier condition constrains the plant acceleration mu_rm - mu, where
    mu_rm is the reference feedforward acceleration. The tick rewrites prob,
    from safety_qp(d, len(obstacles)), in place.

    Returns (error-system pseudo-control, slack, V at e). The caller maps to
    the plant via mu_plant = mu_rm - mu and then io_linearize. Raises
    InfeasibleSafety when the rows admit no solution.
    """
    mu_pd = pd_control(e, clf)
    ea = np.asarray(e)
    V, LfV, LgV = clf_terms(ea, d)
    f, rows, rhs = prob.f, prob.A_ineq.reshape(-1), prob.b_ineq  # views, written in place
    f[0], f[1] = -2.0 * mu_pd[0], -2.0 * mu_pd[1]
    rows[0], rows[1] = LgV
    rhs[0] = -LfV - float(ea @ d.Q @ ea)
    m0, m1 = mu_rm
    for i, (bx, by, value) in enumerate(
            barrier_rows(z.x, z.y, z.theta, z.v, obstacles, cbf.gamma1, cbf.gamma2), 2):
        # A + b (mu_rm - mu) >= 0  ->  b mu <= A + b mu_rm
        rows[3 * i], rows[3 * i + 1] = bx, by
        rhs[i] = value + bx * m0 + by * m1

    sol = solver.solve(prob)
    if sol.status is not QpStatus.OPTIMAL:
        raise InfeasibleSafety(f"safety-filtered QP returned {sol.status.value} "
                               f"at state ({z.x:.3f}, {z.y:.3f}, v={z.v:.3f})")
    mu1, mu2, slack = sol.x.tolist()
    return (mu1, mu2), max(0.0, slack), V
