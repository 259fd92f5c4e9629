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
control u at state z. The robust gate additionally guards against an unknown
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


def gate_value(x: float, y: float, theta: float, v: float, c: float, a: float,
               obstacles, g1: float, g2: float, d1: float = 0.0, d2: float = 0.0) -> float:
    """The (robust) gate condition A + b mu for holding (c, a) at (x, y, theta, v).

    obstacles holds (xo, yo, r*r) per obstacle, r the combined radius. Returns
    the smallest value over the obstacles, or the first one that fails: the
    gate passes iff the result is >= 0.0, so NaN fails closed. Nonzero bounds
    (d1, d2) take the worst corner of the uncertainty box.
    """
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    vx = v * cos_t
    vy = v * sin_t
    v2 = v * v
    mu1 = -v2 * sin_t * c + cos_t * a
    mu2 = v2 * cos_t * c + sin_t * a
    kinetic = 2.0 * (vx * vx + vy * vy)
    robust = d1 != 0.0 or d2 != 0.0
    d2p = 1.0 + d2
    d2n = 1.0 - d2
    worst = math.inf
    for xo, yo, r2 in obstacles:
        dx = x - xo
        dy = y - yo
        Bdot = 2.0 * (dx * vx + dy * vy)
        B1 = Bdot + g1 * (dx * dx + dy * dy - r2)
        A = g1 * Bdot + kinetic + g2 * B1
        s = 2.0 * (dx * mu1 + dy * mu2)
        if robust:
            A -= d1 * (abs(2.0 * dx) + abs(2.0 * dy))
            sp = s * d2p
            sn = s * d2n
            s = sp if sp < sn else sn
        value = A + s
        if not value >= 0.0:
            return value
        if value < worst:
            worst = value
    return worst


def barrier_rows(x: float, y: float, theta: float, v: float, obstacles, g1: float, g2: float):
    """Yield (2 dx, 2 dy, A + b mu) per obstacle at zero control, the follower's rows.
    The last is gate_value(x, y, theta, v, 0.0, 0.0, [ob], g1, g2) bit for bit,
    signed zeros and NaN included, with sin/cos taken once for all obstacles."""
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    vx, vy, v2 = v * cos_t, v * sin_t, v * v
    mu1 = -v2 * sin_t * 0.0 + cos_t * 0.0  # the gate's mu at c = a = 0: +-0.0 or NaN
    mu2 = v2 * cos_t * 0.0 + sin_t * 0.0
    kinetic = 2.0 * (vx * vx + vy * vy)
    for xo, yo, r2 in obstacles:
        dx, dy = x - xo, y - yo
        Bdot = 2.0 * (dx * vx + dy * vy)
        B1 = Bdot + g1 * (dx * dx + dy * dy - r2)
        yield 2.0 * dx, 2.0 * dy, g1 * Bdot + kinetic + g2 * B1 + 2.0 * (dx * mu1 + dy * mu2)


def kbf_check(z: State, u: Control, o: Obstacle, r: float, cbf: CbfParams) -> bool:
    """Nominal gate: True (pass) iff the barrier condition holds at (z, u)."""
    return gate_value(z.x, z.y, z.theta, z.v, u.c, u.a, [(o.x, o.y, r * r)],
                      cbf.gamma1, cbf.gamma2) >= 0.0


def robust_worst_value(z: State, u: Control, o: Obstacle, r: float,
                       cbf: CbfParams, bounds: UncertaintyBounds) -> float:
    """Worst value of the gate condition over the uncertainty box."""
    return gate_value(z.x, z.y, z.theta, z.v, u.c, u.a, [(o.x, o.y, r * r)],
                      cbf.gamma1, cbf.gamma2, bounds.delta1_max, bounds.delta2_max)
