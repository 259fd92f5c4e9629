"""Independent brute-force oracles used by the test suite.

These deliberately take the dumbest correct route (enumeration, grids,
closed forms) so they share no code path with the implementations they
check.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from kbfplan.control import (InfeasibleSafety, clf_cbf_qp_control, clf_terms, safety_qp,
                             solve_lyapunov)
from kbfplan.core import (Control, PlanResult, State, Waypoint, combined_radius,
                          gate_obstacles)
from kbfplan.dynamics import integrate_step, io_linearize, tracking_error
from kbfplan.planners import (K_SIM, SAMPLE_TOLERANCE, STEER_SPEED_FRAC, NoPath,
                              point_segment_distance)
from kbfplan.qp import ActiveSetQp
from kbfplan.safety import barrier_value
from kbfplan.sim import (DT_CTRL_DEFAULT, ControllerInfeasible, TimeBudgetExceeded, Trajectory,
                         TrajectorySample)


def objective(H, f, x):
    """0.5 x'Hx + f'x, the cost of the QP (H, f) at x."""
    return float(0.5 * (x @ H @ x) + np.asarray(f, dtype=float) @ x)


def solve_qp_enumeration(H, f, A, b, tol=1e-9):
    """Brute-force KKT solve: try every subset of constraints as the active
    set, keep the candidate that is primal feasible with nonnegative
    multipliers. Returns (x, objective) or None when no subset works
    (infeasible problem).
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, f.shape[0])
    b = np.asarray(b, dtype=float).ravel()
    n = f.shape[0]
    m = A.shape[0]
    best = None
    for mask in range(1 << m):
        idx = [i for i in range(m) if (mask >> i) & 1]
        if len(idx) > n:
            continue
        k = len(idx)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        if k:
            kkt[:n, n:] = A[idx].T
            kkt[n:, :n] = A[idx]
        rhs = np.concatenate([-f, b[idx]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        lam = sol[n:]
        if k and np.any(lam < -tol):
            continue
        if m and np.any(A @ x - b > tol):
            continue
        obj = objective(H, f, x)
        if best is None or obj < best[1]:
            best = (x, obj)
    return best


def random_qp(rng, n_max=3, m_max=4, force_infeasible=False):
    """Random strictly convex QP instance; most draws are feasible."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    M = rng.normal(size=(n, n))
    H = M.T @ M + 0.5 * np.eye(n)
    f = rng.normal(size=n)
    if force_infeasible and m < 2:
        m = 2
    A = rng.normal(size=(m, n))
    if m:
        x0 = rng.normal(size=n)
        b = A @ x0 + rng.uniform(-0.3, 1.0, size=m)
    else:
        b = np.zeros(0)
    if force_infeasible:
        # contradictory pair: a.x <= t and -a.x <= -t - 1
        a = rng.normal(size=n)
        t = float(rng.normal())
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [t, -t - 1.0]])
    return H, f, A, b


def circular_arc_state(x0, y0, theta0, v, c, t):
    """Closed-form bicycle state after time t under constant (c, a=0), c != 0."""
    theta = theta0 + v * c * t
    x = x0 + (math.sin(theta) - math.sin(theta0)) / c
    y = y0 - (math.cos(theta) - math.cos(theta0)) / c
    return (x, y, theta, v)


def robust_worst_grid(A_val, bx, by, s_mu, d1_max, d2_max, n=21):
    """Grid minimum of A + b(mu + d1 + d2*mu) over the bound box.

    s_mu is the nominal product b.mu. The function is affine in each box
    coordinate, so a grid containing the corners attains the exact minimum.
    """
    d1x = np.linspace(-d1_max, d1_max, n)
    d1y = np.linspace(-d1_max, d1_max, n)
    d2 = np.linspace(-d2_max, d2_max, n)
    g1x, g1y, g2 = np.meshgrid(d1x, d1y, d2, indexing="ij")
    vals = A_val + s_mu + bx * g1x + by * g1y + g2 * s_mu
    return float(vals.min())


# ---------------------------------------------------------------------------
# The barrier condition A + b mu >= 0 and the decoupling matrix g(z), written
# out from the formulas in the safety and dynamics module docstrings. They
# share no code with safety.gate_rows, safety.gate_check or dynamics.io_linearize.
# ---------------------------------------------------------------------------

def reference_g(z):
    """g(z) = [[-v^2 sin(theta), cos(theta)], [v^2 cos(theta), sin(theta)]]."""
    s, c = math.sin(z.theta), math.cos(z.theta)
    v2 = z.v * z.v
    return np.array([[-v2 * s, c], [v2 * c, s]])


def reference_condition(z, u, o, r, cbf):
    """(A, b, mu) of the condition A + b.mu >= 0 for holding u at z, mu = g(z) u."""
    px, py = z.x - o.x, z.y - o.y
    vx, vy = z.v * math.cos(z.theta), z.v * math.sin(z.theta)
    B = px ** 2 + py ** 2 - r ** 2
    Bdot = 2 * px * vx + 2 * py * vy
    B1 = Bdot + cbf.gamma1 * B
    A = cbf.gamma1 * Bdot + 2 * vx ** 2 + 2 * vy ** 2 + cbf.gamma2 * B1
    b = np.array([2 * px, 2 * py])
    mu = reference_g(z) @ np.array([u.c, u.a])
    return A, b, mu


def same_float(a, b):
    """Bit-level equality up to NaN payload: equal values with equal signs, or both NaN."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def frozen_gate_value(x, y, theta, v, c, a, obstacles, g1, g2, d1=0.0, d2=0.0):
    """safety.gate_value as it was before the gate was split at the control
    (gate_rows, gate_check): one pass over every obstacle, the first failing
    value or the smallest. The shipped composition must match it bit for bit."""
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


# ---------------------------------------------------------------------------
# Loop-form reference of the barrier-gated planners: one State per node, the
# RK4 step built from derivative tuples, and the gate math written out inline.
# The flat-state planners must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def _deriv(x, y, theta, v, c, a):
    return (v * math.cos(theta), v * math.sin(theta), v * c, a)


def reference_integrate_step(z, u, dt, p):
    """RK4 step from the four stage-derivative tuples, speed clamped."""
    c, a = u.c, u.a
    k1 = _deriv(z.x, z.y, z.theta, z.v, c, a)
    h = 0.5 * dt
    k2 = _deriv(z.x + h * k1[0], z.y + h * k1[1], z.theta + h * k1[2], z.v + h * k1[3], c, a)
    k3 = _deriv(z.x + h * k2[0], z.y + h * k2[1], z.theta + h * k2[2], z.v + h * k2[3], c, a)
    k4 = _deriv(z.x + dt * k3[0], z.y + dt * k3[1], z.theta + dt * k3[2], z.v + dt * k3[3], c, a)
    sixth = dt / 6.0
    nx = z.x + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    ny = z.y + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    nth = z.theta + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    nv = z.v + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    if nv < 0.0:
        nv = 0.0
    elif nv > p.v_max:
        nv = p.v_max
    return State(nx, ny, nth, nv)


class ReferenceTree:
    """Append-only tree of State objects with per-edge controls, and a numpy
    mirror of the planar positions scanned by nearest()."""

    def __init__(self, root):
        self.states = [root]
        self.parents = [-1]
        self.controls = [None]
        self._xy = np.empty((128, 2))
        self._xy[0, 0] = root.x
        self._xy[0, 1] = root.y

    def add(self, state, parent, control):
        idx = len(self.states)
        if idx == self._xy.shape[0]:
            self._xy = np.concatenate((self._xy, np.empty_like(self._xy)))
        self._xy[idx, 0] = state.x
        self._xy[idx, 1] = state.y
        self.states.append(state)
        self.parents.append(parent)
        self.controls.append(control)
        return idx

    def nearest(self, qx, qy):
        pts = self._xy[: len(self.states)]
        d2 = (pts[:, 0] - qx) ** 2 + (pts[:, 1] - qy) ** 2
        return int(np.argmin(d2))  # argmin keeps the lowest index on ties

    def path_indices(self, leaf):
        chain = []
        i = leaf
        while i >= 0:
            chain.append(i)
            i = self.parents[i]
        chain.reverse()
        return chain

    def plan(self, leaf, times, iterations):
        """PlanResult along root..leaf; times(chain) gives the waypoint times."""
        chain = self.path_indices(leaf)
        waypoints = []
        for k, (t, idx) in enumerate(zip(times(chain), chain)):
            control = self.controls[chain[k + 1]] if k + 1 < len(chain) else None
            waypoints.append(Waypoint(t, self.states[idx], control))
        return PlanResult(tuple(waypoints), tuple((z.x, z.y, z.theta, z.v) for z in self.states),
                          tuple(self.parents), iterations)


def _in_goal(z, s):
    dx = z.x - s.goal.x
    dy = z.y - s.goal.y
    tol = s.planner.goal_tolerance
    return dx * dx + dy * dy <= tol * tol


def _start_plan(s):
    z = s.start
    return PlanResult((Waypoint(0.0, z, None),), ((z.x, z.y, z.theta, z.v),), (-1,), 0)


def reference_plan_kbf(s, rng, bounds=None, trace=None):
    """rrt-kbf (bounds None) or robust-rrt-kbf, one State object per node."""
    if _in_goal(s.start, s):
        return _start_plan(s)
    tree = ReferenceTree(s.start)
    states = tree.states
    robot = s.robot
    g1 = s.cbf.gamma1
    g2 = s.cbf.gamma2
    dt = s.planner.dt
    wb = s.bounds
    gx, gy = s.goal.x, s.goal.y
    tol2 = s.planner.goal_tolerance ** 2
    cmax = robot.c_max
    a_max = robot.a_max
    obs = [(o.x, o.y, combined_radius(o, robot)) for o in s.obstacles]
    robust = bounds is not None and (bounds.delta1_max != 0.0 or bounds.delta2_max != 0.0)
    d1 = bounds.delta1_max if bounds is not None else 0.0
    d2p = 1.0 + (bounds.delta2_max if bounds is not None else 0.0)
    d2n = 1.0 - (bounds.delta2_max if bounds is not None else 0.0)

    for it in range(1, s.planner.max_iters + 1):
        i = int(rng.integers(0, len(states)))
        z = states[i]
        c = rng.uniform(-cmax, cmax)
        a = rng.uniform(0.0, a_max)

        sin_t = math.sin(z.theta)
        cos_t = math.cos(z.theta)
        vx = z.v * cos_t
        vy = z.v * sin_t
        v2 = z.v * z.v
        mu1 = -v2 * sin_t * c + cos_t * a
        mu2 = v2 * cos_t * c + sin_t * a
        ok = True
        for ox, oy, r in obs:
            dx = z.x - ox
            dy = z.y - oy
            B = dx * dx + dy * dy - r * r
            Bdot = 2.0 * (dx * vx + dy * vy)
            B1 = Bdot + g1 * B
            A = g1 * Bdot + 2.0 * (vx * vx + vy * vy) + g2 * B1
            sv = 2.0 * (dx * mu1 + dy * mu2)
            if robust:
                A -= d1 * (abs(2.0 * dx) + abs(2.0 * dy))
                sp = sv * d2p
                sn = sv * d2n
                sv = sp if sp < sn else sn
            if A + sv < 0.0:
                ok = False
                break
        if trace is not None:
            trace.append((i, c, a, ok))
        if not ok:
            continue

        u = Control(c, a)
        z2 = reference_integrate_step(z, u, dt, robot)
        if not (wb.xmin <= z2.x <= wb.xmax and wb.ymin <= z2.y <= wb.ymax):
            continue
        j = tree.add(z2, i, u)
        ddx = z2.x - gx
        ddy = z2.y - gy
        if ddx * ddx + ddy * ddy <= tol2:
            return tree.plan(j, lambda chain: [k * dt for k in range(len(chain))], it)
    raise NoPath(f"no path after {s.planner.max_iters} iterations", s.planner.max_iters)


def frozen_block_draws(rng, c_max, a_max):
    """(draw, restore): draw(n), 1 <= n < 2**32, is `(rng.integers(0, n),
    rng.uniform(-c_max, c_max), rng.uniform(0, a_max))` decoded as numpy does;
    restore() leaves rng as those calls would. Frozen from when the
    barrier-gated planners called it once per iteration, before they took
    their draws from decoded blocks."""
    bg = getattr(rng, "bit_generator", None)
    entry = bg.state if bg is not None else {"has_uint32": 0, "uinteger": 0}
    pending, half = bool(entry["has_uint32"]), entry["uinteger"]
    words, cs, accels = [], [], []
    pos = end = drawn = 0

    def fetch():  # blocks of 64, 64, 128, ... up to 4096 words, only when one is due
        nonlocal pos, end, drawn
        k = min(max(drawn, 64), 4096)
        drawn += k
        pos, end = 0, k
        block = rng.integers(0, 2**64, size=k, dtype=np.uint64)
        frac = (block >> np.uint64(11)) * 2.0 ** -53
        words[:] = block.tolist()
        cs[:] = (-c_max + (c_max - -c_max) * frac).tolist()
        accels[:] = (0.0 + a_max * frac).tolist()

    def draw(n):
        nonlocal pos, pending, half
        threshold = 0x100000000 % n
        i = 0
        while n > 1:
            if pending:
                u, pending = half, False
            else:
                if pos == end:
                    fetch()
                w = words[pos]
                u, half, pending = w & 0xFFFFFFFF, w >> 32, True
                pos += 1
            m = u * n
            if m & 0xFFFFFFFF >= threshold:
                i = m >> 32
                break
        if pos == end:
            fetch()
        c = cs[pos]
        pos += 1
        if pos == end:
            fetch()
        a = accels[pos]
        pos += 1
        return i, c, a

    def restore():
        if bg is not None:
            bg.state = entry
            bg.random_raw(drawn - end + pos, output=False)
            bg.state = {**bg.state, "has_uint32": int(pending), "uinteger": half}

    return draw, restore


class FrozenDrawRng:
    """The `integers(0, n)` and two `uniform` calls of each reference_plan_kbf
    iteration, served by frozen_block_draws on rng; restore() as there."""

    def __init__(self, rng, c_max, a_max):
        self._draw, self.restore = frozen_block_draws(rng, c_max, a_max)
        self._uniforms = []

    def integers(self, low, high):
        assert low == 0
        i, c, a = self._draw(high)
        self._uniforms = [a, c]
        return i

    def uniform(self, low, high):
        return self._uniforms.pop()


# ---------------------------------------------------------------------------
# Nearest-neighbour planners (rrt, rrt-cbf-qp), frozen from when they grew a
# tree of State objects: uniform point sample, nearest node by a numpy scan,
# then a straight step (rrt) or closed-loop QP steering (rrt-cbf-qp). The
# steering calls the shipped controller, which the frozen-tick tests pin.
# The shipped planners must reproduce these bit for bit.
# ---------------------------------------------------------------------------

def reference_plan_rrt(s, rng):
    if _in_goal(s.start, s):
        return _start_plan(s)
    tree = ReferenceTree(s.start)
    b = s.bounds
    step = s.planner.step_size
    radii = [combined_radius(o, s.robot) for o in s.obstacles]
    v_nom = 0.8 * s.robot.v_max

    def times(chain):
        ts = [0.0]
        for prev, idx in zip(chain, chain[1:]):
            z, p = tree.states[idx], tree.states[prev]
            ts.append(ts[-1] + math.hypot(z.x - p.x, z.y - p.y) / v_nom)
        return ts

    for it in range(1, s.planner.max_iters + 1):
        qx = rng.uniform(b.xmin, b.xmax)
        qy = rng.uniform(b.ymin, b.ymax)
        i = tree.nearest(qx, qy)
        zi = tree.states[i]
        dx = qx - zi.x
        dy = qy - zi.y
        dist = math.hypot(dx, dy)
        if dist < 1e-12:
            continue
        scale = min(step, dist) / dist
        nx = zi.x + dx * scale
        ny = zi.y + dy * scale
        if any(point_segment_distance(o.x, o.y, zi.x, zi.y, nx, ny) < r
               for o, r in zip(s.obstacles, radii)):
            continue
        heading = math.atan2(ny - zi.y, nx - zi.x)
        j = tree.add(State(nx, ny, heading, v_nom), i, None)
        if _in_goal(tree.states[j], s):
            return tree.plan(j, times, it)
    raise NoPath(f"no path after {s.planner.max_iters} iterations", s.planner.max_iters)


def reference_plan_rrt_cbf_qp(s, rng):
    if _in_goal(s.start, s):
        return _start_plan(s)
    tree = ReferenceTree(s.start)
    robot = s.robot
    dt_sub = s.planner.dt / 10.0
    max_ticks = 10 * K_SIM
    b = s.bounds
    radii = [combined_radius(o, s.robot) for o in s.obstacles]
    obs = gate_obstacles(s.obstacles, robot)
    P = solve_lyapunov(s.clf)
    solver = ActiveSetQp()
    prob = safety_qp(s.clf, len(obs))
    v_ref = STEER_SPEED_FRAC * robot.v_max
    tol2 = SAMPLE_TOLERANCE * SAMPLE_TOLERANCE

    for it in range(1, s.planner.max_iters + 1):
        qx = rng.uniform(b.xmin, b.xmax)
        qy = rng.uniform(b.ymin, b.ymax)
        i = tree.nearest(qx, qy)
        z0 = tree.states[i]
        dx = qx - z0.x
        dy = qy - z0.y
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            continue
        ux = dx / dist
        uy = dy / dist

        chain = []
        z = z0
        ok = True
        reached = False
        for k in range(1, max_ticks + 1):
            adv = min(v_ref * k * dt_sub, dist)
            ref_pos = (z0.x + ux * adv, z0.y + uy * adv)
            ref_vel = (0.0, 0.0) if adv >= dist else (ux * v_ref, uy * v_ref)
            try:
                mu_e, _, _ = clf_cbf_qp_control(z, tracking_error(z, ref_pos, ref_vel),
                                                obs, s.cbf, s.clf, P, solver, prob,
                                                (0.0, 0.0))
            except InfeasibleSafety:
                ok = False
                break
            u = io_linearize(z, (-mu_e[0], -mu_e[1]), robot)
            z = integrate_step(z, u, dt_sub, robot)
            if not b.contains(z.x, z.y) or any(
                    barrier_value(z, o, r) < 0.0 for o, r in zip(s.obstacles, radii)):
                ok = False
                break
            chain.append((z, u))
            if _in_goal(z, s):
                reached = True
                break
            if (z.x - qx) ** 2 + (z.y - qy) ** 2 <= tol2:
                break
        if not ok or not chain:
            continue
        parent = i
        for zs, us in chain:
            parent = tree.add(zs, parent, us)
        if reached:
            return tree.plan(parent, lambda c: [k * dt_sub for k in range(len(c))], it)
    raise NoPath(f"no path after {s.planner.max_iters} iterations", s.planner.max_iters)


# ---------------------------------------------------------------------------
# The follower's reference, frozen from before each segment's row was formed
# once: parallel lists of vertex times, positions and velocities, a bisect
# fallback when t leaves the last segment, and each segment's differences and
# acceleration recomputed on every eval. sim._PlanReference must reproduce it
# bit for bit.
# ---------------------------------------------------------------------------

class FrozenPlanReference:
    """Piecewise-linear reference through the waypoints and on to the goal point."""

    def __init__(self, plan, goal_xy):
        wps = plan.waypoints
        self.times = [w.t for w in wps]
        self.px = [w.state.x for w in wps]
        self.py = [w.state.y for w in wps]
        dist = math.hypot(goal_xy[0] - self.px[-1], goal_xy[1] - self.py[-1])
        if dist > 1e-9:
            if len(self.times) > 1:
                last_span = self.times[-1] - self.times[-2]
                last_len = math.hypot(self.px[-1] - self.px[-2],
                                      self.py[-1] - self.py[-2])
                speed = max(last_len / last_span, 0.1)
            else:
                speed = 0.5
            self.times.append(self.times[-1] + dist / speed)
            self.px.append(goal_xy[0])
            self.py.append(goal_xy[1])
        spans = [b - a for a, b in zip(self.times, self.times[1:])]
        self.vx = [(b - a) / h for a, b, h in zip(self.px, self.px[1:], spans)] + [0.0]
        self.vy = [(b - a) / h for a, b, h in zip(self.py, self.py[1:], spans)] + [0.0]
        self.duration = self.times[-1]
        self.k = 0

    def eval(self, t):
        """(pos, vel, acc) of the reference at time t."""
        if t <= 0.0:
            return ((self.px[0], self.py[0]), (self.vx[0], self.vy[0]), (0.0, 0.0))
        if t >= self.duration:
            return ((self.px[-1], self.py[-1]), (0.0, 0.0), (0.0, 0.0))
        k = self.k
        if not self.times[k] <= t < self.times[k + 1]:
            k = self.k = bisect.bisect_right(self.times, t) - 1
        span = self.times[k + 1] - self.times[k]
        s = (t - self.times[k]) / span
        pos = (self.px[k] + s * (self.px[k + 1] - self.px[k]),
               self.py[k] + s * (self.py[k + 1] - self.py[k]))
        vel = (self.vx[k] + s * (self.vx[k + 1] - self.vx[k]),
               self.vy[k] + s * (self.vy[k + 1] - self.vy[k]))
        acc = ((self.vx[k + 1] - self.vx[k]) / span,
               (self.vy[k + 1] - self.vy[k]) / span)
        return pos, vel, acc


# ---------------------------------------------------------------------------
# Reference follower tick, frozen from before the follower's QP was set up
# once per follow: a fresh np.diag Hessian and fresh row arrays each tick, an
# np.allclose symmetry check, numpy-indexed PD gains, combined_radius per
# obstacle, the zero-control barrier value written out per obstacle, and the
# dual active-set solver with its objective computed on every solve and
# np.any tests on the warm-start path. Its CLF terms, e'Qe included, come from
# the shipped control.clf_terms, which test_control checks against numpy.
# follow_path and the rrt-cbf-qp planner must reproduce it bit for bit.
# ---------------------------------------------------------------------------

class ReferenceQp:
    """Frozen dual active-set solver: solve(H, f, A, b) -> x, or None on failure."""

    def __init__(self, max_iter=100):
        self.max_iter = max_iter
        self._warm = ()

    def solve(self, H, f, A, b):
        m = A.shape[0]
        if m and self._warm and all(i < m for i in self._warm):
            warm = self._solve_working_set(H, f, A, b, self._warm)
            if warm is not None:
                return warm
        x = np.linalg.solve(H, -f)
        if m == 0:
            return self._optimal(x, [], [])
        W, lam, changes = [], [], 0
        while True:
            viol = A @ x - b
            p = -1
            worst = 1e-10
            for i in range(m):
                if viol[i] > worst and i not in W:
                    worst = viol[i]
                    p = i
            if p < 0:
                return self._optimal(x, W, lam)
            n_p = -A[p]
            lam_p = 0.0
            while True:
                if changes >= self.max_iter:
                    return None
                hn = np.linalg.solve(H, n_p)
                if W:
                    N = -A[W].T
                    HN = np.linalg.solve(H, N)
                    r = np.linalg.solve(N.T @ HN, N.T @ hn)
                    z = hn - HN @ r
                else:
                    r = np.zeros(0)
                    z = hn
                zn = float(n_p @ z)
                s_p = float(n_p @ x) + b[p]
                step_add = -s_p / zn if zn > 1e-12 else math.inf
                step_drop = math.inf
                k_drop = -1
                for j in range(len(W)):
                    rj = float(r[j])
                    if rj > 1e-12:
                        ratio = lam[j] / rj
                        if ratio < step_drop:
                            step_drop = ratio
                            k_drop = j
                step = step_add if step_add < step_drop else step_drop
                if step == math.inf:
                    return None
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

    def _solve_working_set(self, H, f, A, b, W):
        n = f.shape[0]
        idx = list(W)
        Aw = A[idx]
        k = len(idx)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = Aw.T
        kkt[n:, :n] = Aw
        rhs = np.concatenate([-f, b[idx]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x = sol[:n]
        mult = sol[n:]
        if np.any(mult < -1e-9):
            return None
        if np.any(A @ x - b > 1e-10):
            return None
        return self._optimal(x, idx, [max(0.0, float(v)) for v in mult])

    def _optimal(self, x, W, lam):
        self._warm = tuple(i for i, _ in sorted(zip(W, lam)))
        return x


def reference_barrier_condition(z, ox, oy, r, cbf):
    """A + b mu at zero control, mu = 0 written out with its signed zeros."""
    sin_t = math.sin(z.theta)
    cos_t = math.cos(z.theta)
    vx = z.v * cos_t
    vy = z.v * sin_t
    v2 = z.v * z.v
    mu1 = -v2 * sin_t * 0.0 + cos_t * 0.0
    mu2 = v2 * cos_t * 0.0 + sin_t * 0.0
    dx = z.x - ox
    dy = z.y - oy
    Bdot = 2.0 * (dx * vx + dy * vy)
    B1 = Bdot + cbf.gamma1 * (dx * dx + dy * dy - r * r)
    A = cbf.gamma1 * Bdot + 2.0 * (vx * vx + vy * vy) + cbf.gamma2 * B1
    return A + 2.0 * (dx * mu1 + dy * mu2)


def reference_qp_control(z, e, obstacles, robot, cbf, clf, P, solver, mu_rm=(0.0, 0.0)):
    """The safety-filtered tracking QP, built from Obstacle objects each tick."""
    kp, kd = np.asarray(clf.K_P), np.asarray(clf.K_D)
    mu_pd = (float(-(kp[0, 0] * e[0] + kp[0, 1] * e[1]) - (kd[0, 0] * e[2] + kd[0, 1] * e[3])),
             float(-(kp[1, 0] * e[0] + kp[1, 1] * e[1]) - (kd[1, 0] * e[2] + kd[1, 1] * e[3])))
    V, LfV_eQe, LgV = clf_terms(e, P, clf.Q)
    rows = [[LgV[0], LgV[1], -1.0], [0.0, 0.0, -1.0]]
    rhs = [-LfV_eQe, 0.0]
    for o in obstacles:
        A_val = reference_barrier_condition(z, o.x, o.y, combined_radius(o, robot), cbf)
        bx = 2.0 * (z.x - o.x)
        by = 2.0 * (z.y - o.y)
        rows.append([bx, by, 0.0])
        rhs.append(A_val + bx * mu_rm[0] + by * mu_rm[1])
    H = np.diag([2.0, 2.0, 2.0 * clf.penalty])
    if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
        raise ValueError("H must be symmetric")
    x = solver.solve(H, np.array([-2.0 * mu_pd[0], -2.0 * mu_pd[1], 0.0]),
                        np.array(rows), np.array(rhs))
    if x is None:
        raise InfeasibleSafety("reference QP found no solution")
    return (float(x[0]), float(x[1])), max(0.0, float(x[2])), V


def reference_follow_path(plan, s, perceived_obstacles=None):
    """follow_path at the default period and budget, on the frozen tick and reference."""
    dt_ctrl = DT_CTRL_DEFAULT
    if perceived_obstacles is None:
        perceived_obstacles = s.obstacles
    P = solve_lyapunov(s.clf)
    solver = ReferenceQp()
    ref = FrozenPlanReference(plan, (s.goal.x, s.goal.y))
    time_budget = ref.duration + 10.0
    true_radii = [combined_radius(o, s.robot) for o in s.obstacles]
    tol2 = s.planner.goal_tolerance ** 2
    z = plan.waypoints[0].state
    t = 0.0
    samples = []

    def snapshot(state):
        return tuple(barrier_value(state, o, r) for o, r in zip(s.obstacles, true_radii))

    while True:
        pos, vel, acc = ref.eval(t)
        e = tracking_error(z, pos, vel)
        dx = z.x - s.goal.x
        dy = z.y - s.goal.y
        if dx * dx + dy * dy <= tol2:
            samples.append(TrajectorySample(t, z, Control(0.0, 0.0), snapshot(z),
                                            clf_terms(e, P, s.clf.Q)[0], 0.0))
            return Trajectory(tuple(samples))
        if t > time_budget:
            raise TimeBudgetExceeded(t, Trajectory(tuple(samples)))
        try:
            mu_e, slack, V = reference_qp_control(z, e, perceived_obstacles, s.robot, s.cbf,
                                                  s.clf, P, solver, mu_rm=acc)
        except InfeasibleSafety as exc:
            raise ControllerInfeasible(t, Trajectory(tuple(samples))) from exc
        u = io_linearize(z, (acc[0] - mu_e[0], acc[1] - mu_e[1]), s.robot)
        samples.append(TrajectorySample(t, z, u, snapshot(z), V, slack))
        z = integrate_step(z, u, dt_ctrl, s.robot)
        t += dt_ctrl
