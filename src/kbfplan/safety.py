"""Barrier evaluation and the planner-side safety gates.

For an obstacle at (xo, yo) with combined radius r the barrier is

    B  = (x - xo)^2 + (y - yo)^2 - r^2
    B' = 2 (x - xo) vx + 2 (y - yo) vy
    B1 = B' + gamma1 B

and differentiating once more gives the affine-in-acceleration condition

    B1' + gamma2 B1 = A + b mu >= 0,
    A = gamma1 B' + 2 vx^2 + 2 vy^2 + gamma2 B1,
    b = 2 [x - xo, y - yo],

where mu = g(z) u is the acceleration pair produced by holding the physical
control u at state z. gate_rows forms the control-free part once, one
(dx, dy, A) row per obstacle with b = 2 (dx, dy); the planner's gate_check adds
b mu for a held control, and the follower's CBF-QP reads the same rows as
b mu <= A + b mu_rm. The robust gate additionally guards against an unknown
additive error d1 (per-component bound delta1_max) and a multiplicative error
d2 (|d2| <= delta2_max < 1) acting on mu, by requiring the condition to hold
at the worst corner of the bound box:

    (A - delta1_max ||b||_1) + min(b mu (1 + delta2_max), b mu (1 - delta2_max)) >= 0.

With zero bounds this reduces bit-for-bit to the nominal gate.
"""

from __future__ import annotations

import math

from .core import CbfParams, Control, Obstacle, State, UncertaintyBounds


def barrier_value(z: State, o: Obstacle, r: float) -> float:
    """B only; used by trajectory monitoring."""
    dx = z.x - o.x
    dy = z.y - o.y
    return dx * dx + dy * dy - r * r


def gate_rows(x: float, y: float, theta: float, v: float, obstacles, g1: float, g2: float,
              d1: float = 0.0, d2: float = 0.0, c_max: float = math.inf, a_max: float = math.inf):
    """The gate's control-free part at (x, y, theta, v): a tuple of (dx, dy, A) rows,
    b = 2 (dx, dy), A with the robust d1 term. An obstacle is left out when A exceeds
    a bound on |b mu|, d2 corner included, over |c| <= c_max, |a| <= a_max; the float
    steps of gate_check are monotone, so it then passes every control in that box.
    NaN keeps its row, and the default infinite box keeps every row. A row holds
    dx, not 2 dx: (2 dx) mu1 rounds unlike 2 (dx mu1) where the product is subnormal."""
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    vx, vy, v2 = v * cos_t, v * sin_t, v * v
    kinetic = 2.0 * (vx * vx + vy * vy)
    robust = d1 != 0.0 or d2 != 0.0
    m1 = (v2 * abs(sin_t) * c_max + abs(cos_t) * a_max) * (1.0 + 1e-9)  # >= |mu1|
    m2 = (v2 * abs(cos_t) * c_max + abs(sin_t) * a_max) * (1.0 + 1e-9)  # >= |mu2|
    scale = 2.0 * (1.0 + d2) * (1.0 + 1e-9)
    rows = []
    for xo, yo, r2 in obstacles:
        dx, dy = x - xo, y - yo
        Bdot = 2.0 * (dx * vx + dy * vy)
        B1 = Bdot + g1 * (dx * dx + dy * dy - r2)
        A = g1 * Bdot + kinetic + g2 * B1
        if robust:
            A -= d1 * (abs(2.0 * dx) + abs(2.0 * dy))
        if not A > scale * (abs(dx) * m1 + abs(dy) * m2):
            rows.append((dx, dy, A))
    return tuple(rows)


def gate_check(theta: float, v: float, rows, c: float, a: float, d2: float = 0.0) -> float:
    """A + b mu over gate_rows' rows for holding (c, a): the smallest value, or the
    first that fails. The gate passes iff it is >= 0.0, so NaN fails closed; a
    nonzero d2 takes the worst multiplicative corner."""
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    v2 = v * v
    mu1 = -v2 * sin_t * c + cos_t * a
    mu2 = v2 * cos_t * c + sin_t * a
    d2p, d2n = 1.0 + d2, 1.0 - d2
    worst = math.inf
    for dx, dy, A in rows:
        s = 2.0 * (dx * mu1 + dy * mu2)
        if d2 != 0.0:
            sp, sn = s * d2p, s * d2n
            s = sp if sp < sn else sn
        value = A + s
        if not value >= 0.0:
            return value
        if value < worst:
            worst = value
    return worst


def kbf_check(z: State, u: Control, o: Obstacle, r: float, cbf: CbfParams) -> bool:
    """Nominal gate: True (pass) iff the barrier condition holds at (z, u)."""
    rows = gate_rows(z.x, z.y, z.theta, z.v, [(o.x, o.y, r * r)], cbf.gamma1, cbf.gamma2)
    return gate_check(z.theta, z.v, rows, u.c, u.a) >= 0.0


def robust_worst_value(z: State, u: Control, o: Obstacle, r: float,
                       cbf: CbfParams, bounds: UncertaintyBounds) -> float:
    """Worst value of the gate condition over the uncertainty box."""
    d1, d2 = bounds.delta1_max, bounds.delta2_max
    rows = gate_rows(z.x, z.y, z.theta, z.v, [(o.x, o.y, r * r)], cbf.gamma1, cbf.gamma2, d1, d2)
    return gate_check(z.theta, z.v, rows, u.c, u.a, d2)
