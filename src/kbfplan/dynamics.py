"""Bicycle-model kinematics, the flat double-integrator form and its tracking error.

State z = (x, y, theta, v) with inputs u = (c, a), c = tan(psi)/L:

    dx/dt = v cos(theta),  dy/dt = v sin(theta),
    dtheta/dt = v c,       dv/dt = a.

In the transformed coordinates x1 = (x, y), x2 = (v cos(theta), v sin(theta))
the acceleration is affine in the input, d(x2)/dt = g(z) u with

    g(z) = [[-v^2 sin(theta), cos(theta)],
            [ v^2 cos(theta), sin(theta)]],   det g = -v^2,

so a desired acceleration pair mu maps back to a physical input through
u = g(z)^{-1} mu (decoupling is singular at standstill).
"""

from __future__ import annotations

import math

from .core import Control, RobotParams, State

V_EPS = 0.05  # m/s, regularization floor when inverting the decoupling matrix


def rk4_step(x: float, y: float, theta: float, v: float, c: float, a: float,
             dt: float, v_max: float) -> tuple[float, float, float, float]:
    """One classical RK4 step of the bicycle model under a held control (c, a).

    Returns (x, y, theta, v) with the speed clamped to [0, v_max]; the heading
    is not wrapped. The stage derivatives do not depend on x and y, so only
    the heading and speed of each stage are formed.
    """
    h = 0.5 * dt
    vh = v + h * a  # speed at both midpoint stages
    th2 = theta + h * (v * c)
    k2t = vh * c
    th3 = theta + h * k2t
    v4 = v + dt * a
    th4 = theta + dt * k2t  # the third stage's turn rate equals the second's
    k4t = v4 * c
    cos2, sin2 = math.cos(th2), math.sin(th2)
    cos3, sin3 = math.cos(th3), math.sin(th3)
    sixth = dt / 6.0
    nx = x + sixth * (v * math.cos(theta) + 2.0 * (vh * cos2) + 2.0 * (vh * cos3)
                      + v4 * math.cos(th4))
    ny = y + sixth * (v * math.sin(theta) + 2.0 * (vh * sin2) + 2.0 * (vh * sin3)
                      + v4 * math.sin(th4))
    nth = theta + sixth * (v * c + 2.0 * k2t + 2.0 * k2t + k4t)
    nv = v + sixth * (a + 2.0 * a + 2.0 * a + a)
    if nv < 0.0:
        nv = 0.0
    elif nv > v_max:
        nv = v_max
    return nx, ny, nth, nv


def integrate_step(z: State, u: Control, dt: float, p: RobotParams) -> State:
    """Advance the state one RK4 step under a held control.

    The resulting speed is clamped to [0, v_max] and the heading renormalized.
    """
    return State(*rk4_step(z.x, z.y, z.theta, z.v, u.c, u.a, dt, p.v_max))


def tracking_error(z: State, pos: tuple[float, float],
                   vel: tuple[float, float]) -> tuple[float, float, float, float]:
    """Reference-minus-plant error (pos error pair, vel error pair) in
    transformed coordinates, for the reference position pos and velocity vel."""
    return (pos[0] - z.x, pos[1] - z.y,
            vel[0] - z.v * math.cos(z.theta), vel[1] - z.v * math.sin(z.theta))


def io_linearize(z: State, mu: tuple[float, float], p: RobotParams) -> Control:
    """Map a commanded acceleration pair to a physical control, u = g^{-1} mu.

    Near standstill the inverse blows up (det g = -v^2), so g is evaluated at
    v_reg = max(|v|, V_EPS) instead. The result is saturated to
    |c| <= tan(psi_max)/L and a in [-a_max, a_max].
    """
    v = abs(z.v)
    if v < V_EPS:
        v = V_EPS
    s, co = math.sin(z.theta), math.cos(z.theta)
    v2 = v * v
    m1, m2 = mu
    # g^{-1} = [[-sin/v^2, cos/v^2], [cos, sin]]
    c = (-s * m1 + co * m2) / v2
    a = co * m1 + s * m2
    cmax = p.c_max
    amax = p.a_max
    return Control(cmax if c > cmax else -cmax if c < -cmax else c,
                   amax if a > amax else -amax if a < -amax else a)
