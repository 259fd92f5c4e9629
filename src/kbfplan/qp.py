"""Dense active-set solver for the small convex QPs built by the controllers.

Problems have at most a handful of variables and inequality rows, and the
same instance shape is re-solved every controller tick, so a dual active-set
method (Goldfarb-Idnani scheme) with a warm-started working set beats any
general-purpose solver here by a wide margin. As in that scheme, each problem
forms H^{-1} once, and a solve multiplies by it instead of solving with H.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

_MAX_ITER = 100     # working-set changes a cold solve makes before ITER_LIMIT
_VIOL_TOL = 1e-10   # constraint slack treated as satisfied
_Z_TOL = 1e-12      # primal step direction considered zero below this
_R_TOL = 1e-12      # dual direction entries considered nonpositive below this
_MULT_TOL = 1e-9    # multiplier negativity tolerated on the warm-start path


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iter_limit"


class QpProblem:
    """min 0.5 x'Hx + f'x  subject to  A_ineq x <= b_ineq, with H positive definite.

    A plain object: validated, and H_inv formed, once in __init__. The caller
    may then rewrite f, A_ineq and b_ineq, not H, in place between solves."""

    def __init__(self, H, f, A_ineq, b_ineq) -> None:
        f = np.asarray(f, dtype=float).ravel()
        n = f.shape[0]
        H = np.asarray(H, dtype=float).reshape(n, n)
        h = H.tolist()  # not np.allclose, which takes equal infs as close: inf - inf is NaN
        if not all(abs(h[i][j] - h[j][i]) <= 1e-12 for i in range(n) for j in range(i, n)):
            raise ValueError("H must be symmetric")  # or holds a NaN or inf, diagonal included
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("H must be positive definite") from None
        A = np.asarray(A_ineq, dtype=float).reshape(-1, n)
        b = np.asarray(b_ineq, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A_ineq has {A.shape[0]} rows but b_ineq has {b.shape[0]}")
        self.H = H
        self.H_inv = np.linalg.inv(H)
        self.f = f
        self.A_ineq = A
        self.b_ineq = b


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray | None
    status: QpStatus
    active_set: tuple[int, ...]
    multipliers: tuple[float, ...]  # aligned with active_set, >= 0
    iterations: int                 # working-set changes performed


class ActiveSetQp:
    """Dual active-set solver for strictly convex inequality-constrained QPs.

    Iteration starts at the unconstrained minimizer -H^{-1}f and repeatedly
    pulls in the most violated constraint (lowest index on ties), taking the
    largest step that keeps all working-set multipliers nonnegative; a
    constraint whose multiplier would cross zero is dropped first. When the
    incoming constraint normal lies in the span of the working set and no
    multiplier can give way, the dual is unbounded, which certifies primal
    infeasibility (Farkas direction). A NaN in a row, bound or cost fails
    closed: the result is INFEASIBLE.

    The working set of the last optimal solve is retained and tried first on
    the next call, so repeated solves of slowly varying instances usually
    cost a single KKT solve. Instances must not be shared across threads.
    """

    _warm: tuple[int, ...] = ()  # working set of the last optimal solve

    def solve(self, prob: QpProblem) -> QpSolution:
        H, H_inv, A, b = prob.H, prob.H_inv, prob.A_ineq, prob.b_ineq
        neg_f = -prob.f
        m = A.shape[0]

        if self._warm and all(i < m for i in self._warm):
            warm = self._solve_working_set(H, neg_f, A, b, self._warm)
            if warm is not None:
                return warm

        x = H_inv @ neg_f

        W: list[int] = []
        lam: list[float] = []
        changes = 0
        while True:
            p = -1
            worst = _VIOL_TOL
            for i, v in enumerate((A @ x - b).tolist()):
                if v > worst and i not in W:
                    worst = v
                    p = i
                elif v != v:  # a NaN row fails closed
                    return QpSolution(None, QpStatus.INFEASIBLE, tuple(W), tuple(lam), changes)
            if p < 0:
                return self._optimal(x, W, lam, changes)

            n_p = -A[p]  # inward normal of the incoming constraint
            lam_p = 0.0
            while True:
                if changes >= _MAX_ITER:
                    return QpSolution(None, QpStatus.ITER_LIMIT, tuple(W), tuple(lam), changes)
                hn = H_inv @ n_p
                if W:
                    N = -A[W].T
                    HN = H_inv @ N  # C order, as from a solve, keeps the BLAS kernels below
                    r = np.linalg.solve(N.T @ HN, N.T @ hn)
                    z = hn - HN @ r
                else:
                    r = np.zeros(0)
                    z = hn
                # distance to feasibility of p along z, infinite if z vanishes
                zn = float(n_p @ z)
                s_p = float(n_p @ x) + b[p]  # negative while p is violated
                step_add = -s_p / zn if zn > _Z_TOL else math.inf
                # largest step before some working multiplier hits zero
                step_drop = math.inf
                k_drop = -1
                for j in range(len(W)):
                    rj = float(r[j])
                    if rj > _R_TOL:
                        ratio = lam[j] / rj
                        if ratio < step_drop:
                            step_drop = ratio
                            k_drop = j
                step = step_add if step_add < step_drop else step_drop
                if step == math.inf:
                    return QpSolution(None, QpStatus.INFEASIBLE, tuple(W), tuple(lam), changes)
                for j in range(len(W)):
                    lam[j] -= step * float(r[j])
                lam_p += step
                if step_add <= step_drop:
                    x = x + step_add * z
                    W.append(p)
                    lam.append(lam_p)
                    changes += 1
                    break
                if step_add < math.inf:
                    x = x + step * z
                del W[k_drop]
                del lam[k_drop]
                changes += 1

    # -- helpers ------------------------------------------------------------

    def _solve_working_set(self, H, neg_f, A, b, W: tuple[int, ...]) -> QpSolution | None:
        """Try a candidate active set directly; return its KKT point if valid."""
        n = neg_f.shape[0]
        idx = list(W)
        Aw = A[idx]
        k = len(idx)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = Aw.T
        kkt[n:, :n] = Aw
        rhs = np.concatenate([neg_f, b[idx]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x = sol[:n]
        mult = sol[n:].tolist()
        # scalar tests beat numpy reductions here; a NaN fails them, then the cold path
        if (any(not v >= -_MULT_TOL for v in mult)
                or any(not v <= _VIOL_TOL for v in (A @ x - b).tolist())):
            return None
        return self._optimal(x, idx, [max(0.0, v) for v in mult], 0)

    def _optimal(self, x, W: list[int], lam: list[float], iters: int) -> QpSolution:
        if not all(map(math.isfinite, x.tolist())):
            return QpSolution(None, QpStatus.INFEASIBLE, tuple(W), tuple(lam), iters)
        pairs = sorted(zip(W, lam))
        active = tuple(i for i, _ in pairs)
        mults = tuple(float(v) for _, v in pairs)
        self._warm = active
        return QpSolution(x, QpStatus.OPTIMAL, active, mults, iters)

