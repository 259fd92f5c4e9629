"""Closed-loop path following with safety monitoring.

The follower turns a plan into a time-parameterized reference (linear
interpolation of position and velocity between waypoints, velocities from
finite differences), runs the safety-filtered tracking QP on the tracking
error each control period against the *perceived* obstacle set, and
integrates the true plant (`ClosedLoop.tick`, which the rrt-cbf-qp steer
shares). Each tick records the controller's V and the barrier values
against the *true* obstacles, for the perception audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Control, PlanResult, Scenario, State, combined_radius, gate_obstacles
from .control import (InfeasibleSafety, clf_cbf_qp_control, clf_terms, safety_qp,
                      solve_lyapunov)
from .dynamics import integrate_step, io_linearize, tracking_error
from .qp import ActiveSetQp
from .safety import barrier_value

DT_CTRL_DEFAULT = 0.02  # s
MAX_TICKS = 10**6       # follow_path takes a time budget of at most MAX_TICKS ticks
BUDGET_MARGIN = 10.0    # s, the time budget is the plan's duration plus this


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: State
    control: Control          # physical control applied over this tick
    b_values: tuple[float, ...]  # barrier value per true obstacle
    V: float
    d: float                  # tracking-row slack granted by the QP


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[TrajectorySample, ...]


class FollowFailure(RuntimeError):
    """The follow stopped short of the goal at time t; carries the partial run.
    Each kind of failure names its cause in `message`, formatted with t."""

    def __init__(self, t: float, trajectory: Trajectory):
        super().__init__(self.message.format(t))
        self.t = t
        self.trajectory = trajectory


class ControllerInfeasible(FollowFailure):
    """The per-tick safety QP became infeasible."""
    message = "controller infeasible at t={:.3f}s"


class TimeBudgetExceeded(FollowFailure):
    """The plant failed to reach the goal region within the time budget."""
    message = "goal not reached within {:.3f}s"


class ClosedLoop:
    """The safety-filtered tracking controller closed around the true plant, set
    up once per follow or rrt-cbf-qp plan; the QP sees `perceived_obstacles`."""

    def __init__(self, s: Scenario, dt: float, perceived_obstacles=None):
        obs = gate_obstacles(s.obstacles if perceived_obstacles is None
                             else perceived_obstacles, s.robot)
        self.P = solve_lyapunov(s.clf)
        # clf_cbf_qp_control's arguments after (z, e)
        self.qp = (obs, s.cbf, s.clf, self.P, ActiveSetQp(), safety_qp(s.clf, len(obs)))
        self.true_obs = [(o, combined_radius(o, s.robot)) for o in s.obstacles]
        self.robot = s.robot
        self.dt = dt

    def tick(self, z: State, e: tuple, mu_rm: tuple[float, float]):
        """(control, slack, V, next state) of one period; raises InfeasibleSafety."""
        mu_e, slack, V = clf_cbf_qp_control(z, e, *self.qp, mu_rm)
        u = io_linearize(z, (mu_rm[0] - mu_e[0], mu_rm[1] - mu_e[1]), self.robot)
        return u, slack, V, integrate_step(z, u, self.dt, self.robot)


class _PlanReference:
    """Piecewise-linear reference built from plan waypoints.

    Vertex velocities are forward differences of position over the waypoint
    spacing. The plan ends inside the goal region but not necessarily at the
    goal point, and a forward-only vehicle cannot park on an arbitrary nearby
    point, so the reference is extended by one synthetic segment from the
    last waypoint to the goal position; the vehicle crosses the goal region
    at speed instead of trying to stop just outside it. Beyond the last
    timestamp the reference holds position with zero velocity. Each segment's
    row is formed once; eval's times must not decrease from call to call.
    """

    def __init__(self, plan: PlanResult, goal_xy: tuple[float, float]):
        wps = plan.waypoints
        times = [w.t for w in wps]
        px = [w.state.x for w in wps]
        py = [w.state.y for w in wps]
        dist = math.hypot(goal_xy[0] - px[-1], goal_xy[1] - py[-1])
        if dist > 1e-9:
            if len(times) > 1:
                last_span = times[-1] - times[-2]
                last_len = math.hypot(px[-1] - px[-2], py[-1] - py[-2])
                speed = max(last_len / last_span, 0.1)
            else:
                speed = 0.5
            times.append(times[-1] + dist / speed)
            px.append(goal_xy[0])
            py.append(goal_xy[1])
        spans = [b - a for a, b in zip(times, times[1:])]
        vx = [(b - a) / h for a, b, h in zip(px, px[1:], spans)] + [0.0]
        vy = [(b - a) / h for a, b, h in zip(py, py[1:], spans)] + [0.0]
        # per segment: end and start time, span, the start and change of x, y, vx
        # and vy, and the acceleration pair
        self.segments = []
        for k, h in enumerate(spans):
            dvx, dvy = vx[k + 1] - vx[k], vy[k + 1] - vy[k]
            self.segments.append((times[k + 1], times[k], h, px[k], px[k + 1] - px[k], py[k],
                                  py[k + 1] - py[k], vx[k], dvx, vy[k], dvy, (dvx / h, dvy / h)))
        self.start = ((px[0], py[0]), (vx[0], vy[0]), (0.0, 0.0))
        self.end = ((px[-1], py[-1]), (0.0, 0.0), (0.0, 0.0))
        self.duration = times[-1]
        self.k = 0  # the segment of the last eval

    def eval(self, t: float):
        """(pos, vel, acc) of the reference at time t."""
        if t <= 0.0:
            return self.start
        if t >= self.duration:
            return self.end
        while t >= self.segments[self.k][0]:
            self.k += 1
        _, t0, span, x0, dx, y0, dy, vx0, dvx, vy0, dvy, acc = self.segments[self.k]
        s = (t - t0) / span
        return (x0 + s * dx, y0 + s * dy), (vx0 + s * dvx, vy0 + s * dvy), acc


def follow_path(plan: PlanResult, s: Scenario, dt_ctrl: float = DT_CTRL_DEFAULT,
                perceived_obstacles=None) -> Trajectory:
    """Track a plan with the safety-filtered QP controller on the true plant.

    The controller's barrier rows use `perceived_obstacles` (defaults to the
    scenario's true set); recorded barrier values always use the true set.
    Terminates when the plant enters the goal region. Raises
    ControllerInfeasible if the safety QP fails and TimeBudgetExceeded when
    the budget (plan duration + BUDGET_MARGIN) runs out; both are FollowFailures
    carrying the partial trajectory. Raises ValueError for a bad dt_ctrl.
    """
    ref = _PlanReference(plan, (s.goal.x, s.goal.y))
    if not 0.0 < dt_ctrl < math.inf:
        raise ValueError(f"dt_ctrl must be positive and finite, got {dt_ctrl}")
    budget = ref.duration + BUDGET_MARGIN
    if not budget <= MAX_TICKS * dt_ctrl:
        least = budget / MAX_TICKS  # rounded up, if need be, so that it fits
        least = least if MAX_TICKS * least >= budget else math.nextafter(least, math.inf)
        raise ValueError(f"dt_ctrl {dt_ctrl} is too short for the time budget "
                         f"{budget} s (plan duration + BUDGET_MARGIN): MAX_TICKS = "
                         f"{MAX_TICKS} ticks need dt_ctrl >= {least}")
    loop = ClosedLoop(s, dt_ctrl, perceived_obstacles)
    tol2 = s.planner.goal_tolerance ** 2
    gx, gy = s.goal.x, s.goal.y
    z = plan.waypoints[0].state
    t = 0.0
    samples: list[TrajectorySample] = []

    while True:
        pos, vel, acc = ref.eval(t)
        e = tracking_error(z, pos, vel)
        b_values = tuple([barrier_value(z, o, r) for o, r in loop.true_obs])
        dx = z.x - gx
        dy = z.y - gy
        if dx * dx + dy * dy <= tol2:
            samples.append(TrajectorySample(t, z, Control(0.0, 0.0), b_values,
                                            clf_terms(e, loop.P, s.clf.Q)[0], 0.0))
            return Trajectory(tuple(samples))
        if t > budget:
            raise TimeBudgetExceeded(t, Trajectory(tuple(samples)))
        try:
            u, slack, V, z_next = loop.tick(z, e, acc)
        except InfeasibleSafety as exc:
            raise ControllerInfeasible(t, Trajectory(tuple(samples))) from exc
        samples.append(TrajectorySample(t, z, u, b_values, V, slack))
        z = z_next
        t += dt_ctrl


def min_barrier(traj: Trajectory):
    """Global minimum of the recorded barrier values.

    Returns (value, time, obstacle index), or None when the trajectory was
    run with no obstacles (the minimum over an empty set). The first NaN is
    returned as soon as it is seen, so a broken run cannot look safe.
    """
    best = None
    for sample in traj.samples:
        for j, b in enumerate(sample.b_values):
            if b != b:
                return (b, sample.t, j)
            if best is None or b < best[0]:
                best = (b, sample.t, j)
    return best


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per tick: t,x,y,theta,v,c,a,minB,V,d with 12 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,theta,v,c,a,minB,V,d\n")
        for smp in traj.samples:
            bs = smp.b_values  # any NaN barrier makes minB NaN, as in min_barrier
            min_b = math.nan if any(b != b for b in bs) else min(bs, default=math.inf)
            row = (smp.t, smp.state.x, smp.state.y, smp.state.theta, smp.state.v,
                   smp.control.c, smp.control.a, min_b, smp.V, smp.d)
            fh.write(",".join(format(v, ".12g") for v in row) + "\n")
