"""Tree-search planners: geometric, barrier-gated kinodynamic, and QP-steered.

All four planners grow the same flat `Tree` of (x, y, theta, v) tuples and
build the returned path's `State` objects from it (`_plan`). `rrt` and
`rrt-cbf-qp` share one sample -> nearest -> steer -> append loop (`_grow`)
and differ only in their steer step. The barrier-gated planners (`rrt-kbf`,
`robust-rrt-kbf`) draw their parent uniformly instead, so their loop appends
to the tree's lists inline and never asks for a nearest node. Every planner
is a deterministic function of (scenario, rng): a seeded generator reproduces
the run bit for bit. The barrier-gated ones draw as scalar
`rng.integers`/`uniform` calls would, final rng state included, from raw
PCG64, PCG64DXSM, Philox or SFC64 words: numpy decodes five-word groups that
give two draws each, from an aligned word (block_draws), and the loop takes the
parent index inline, leaving a block for an exact draw where Lemire's method rejects.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Control, PlanResult, Scenario, State, UncertaintyBounds,
                   Waypoint, combined_radius, gate_obstacles, wrap_angle)
# unused here since sim.ClosedLoop runs the tick, but perfbench's tracer swaps these names here
from .control import InfeasibleSafety, clf_cbf_qp_control, solve_lyapunov  # noqa: F401
from .dynamics import integrate_step, io_linearize, rk4_step, tracking_error  # noqa: F401
from .safety import barrier_value, gate_check, gate_rows
from .sim import ClosedLoop


class NoPath(RuntimeError):
    """The iteration budget ran out before the goal region was reached."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


class Tree:
    """Append-only search tree over (x, y, theta, v) node tuples.

    Node 0 is the root (parent -1); a child always has a larger index than
    its parent, so the tree is acyclic by construction. controls[i] is the
    (c, a) held on the edge into node i, or None at the root and on straight
    geometric edges. nearest() copies the positions appended since its last
    call into a growing numpy buffer and scans it, so appends stay plain list
    operations.
    """

    def __init__(self, root: State):
        self.nodes = [(root.x, root.y, root.theta, root.v)]
        self.parents = [-1]
        self.controls: list[tuple[float, float] | None] = [None]
        self._xy = np.empty((128, 2))
        self._synced = 0

    def add(self, node: tuple, parent: int, control: tuple[float, float] | None) -> int:
        self.nodes.append(node)
        self.parents.append(parent)
        self.controls.append(control)
        return len(self.nodes) - 1

    def nearest(self, qx: float, qy: float) -> int:
        n = len(self.nodes)
        if self._synced < n:
            while n > self._xy.shape[0]:
                self._xy = np.concatenate((self._xy, np.empty_like(self._xy)))
            self._xy[self._synced:n] = [node[:2] for node in self.nodes[self._synced:n]]
            self._synced = n
        pts = self._xy[:n]
        d2 = (pts[:, 0] - qx) ** 2 + (pts[:, 1] - qy) ** 2
        return int(np.argmin(d2))  # argmin keeps the lowest index on ties


def _plan(tree: Tree, leaf: int, iterations: int,
          dt: float | None = None, v_nom: float | None = None) -> PlanResult:
    """The plan along root..leaf. Waypoint k is at time k * dt, or, with dt
    None, at the path length up to it over v_nom."""
    chain = [leaf]
    while chain[-1]:
        chain.append(tree.parents[chain[-1]])
    chain.reverse()
    nodes = tree.nodes
    controls = tree.controls
    waypoints = []
    t = 0.0
    for k, i in enumerate(chain):
        if dt is not None:
            t = k * dt
        elif k:
            prev = nodes[chain[k - 1]]
            t += math.hypot(nodes[i][0] - prev[0], nodes[i][1] - prev[1]) / v_nom
        u = controls[chain[k + 1]] if k + 1 < len(chain) else None
        waypoints.append(Waypoint(t, State(*nodes[i]), None if u is None else Control(*u)))
    return PlanResult(tuple(waypoints), tuple(nodes), tuple(tree.parents), iterations)


def point_segment_distance(px: float, py: float, ax: float, ay: float,
                           bx: float, by: float) -> float:
    """Distance from point (px, py) to the closed segment a-b."""
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    if seg2 <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_collision(p0: tuple[float, float], p1: tuple[float, float],
                      obstacles, radii) -> bool:
    """True iff the closed segment comes strictly closer than the combined
    radius to any obstacle center (touching the boundary is safe)."""
    for o, r in zip(obstacles, radii):
        if point_segment_distance(o.x, o.y, p0[0], p0[1], p1[0], p1[1]) < r:
            return True
    return False


def _goal_reached(x: float, y: float, s: Scenario) -> bool:
    dx = x - s.goal.x
    dy = y - s.goal.y
    tol = s.planner.goal_tolerance
    return dx * dx + dy * dy <= tol * tol


def _grow(s: Scenario, rng: np.random.Generator, steer,
          dt: float | None = None, v_nom: float | None = None) -> PlanResult:
    """The sample -> nearest -> steer -> append loop of rrt and rrt-cbf-qp
    (LaValle & Kuffner's RRT skeleton), for a start outside the goal region.

    Each iteration draws a point uniformly in the workspace and passes the
    nearest node and the point to steer(node, qx, qy), which returns the
    (node, control) chain to append below that node, or None. A chain ends
    at its first node in the goal region, and the plan ends with it. dt or
    v_nom sets the waypoint times, as in _plan.
    """
    tree = Tree(s.start)
    b = s.bounds
    for it in range(1, s.planner.max_iters + 1):
        qx = rng.uniform(b.xmin, b.xmax)
        qy = rng.uniform(b.ymin, b.ymax)
        i = tree.nearest(qx, qy)
        chain = steer(tree.nodes[i], qx, qy)
        if not chain:
            continue
        for node, control in chain:
            i = tree.add(node, i, control)
        if _goal_reached(node[0], node[1], s):
            return _plan(tree, i, it, dt, v_nom)
    raise NoPath(f"no path after {s.planner.max_iters} iterations", s.planner.max_iters)


def plan_rrt(s: Scenario, rng: np.random.Generator) -> PlanResult:
    """Classic geometric tree search with fixed-length extensions.

    Uniform point samples in the workspace, nearest-neighbor selection,
    constant step toward the sample, straight-segment obstacle gate. The
    waypoints carry no controls; headings and speeds are reconstructed from
    segment geometry at a constant reference speed so the result is still
    followable.
    """
    v_nom = 0.8 * s.robot.v_max
    if _goal_reached(s.start.x, s.start.y, s):
        return _plan(Tree(s.start), 0, 0, v_nom=v_nom)
    step = s.planner.step_size
    radii = [combined_radius(o, s.robot) for o in s.obstacles]

    def steer(node, qx, qy):
        x = node[0]
        y = node[1]
        dx = qx - x
        dy = qy - y
        dist = math.hypot(dx, dy)
        if dist < 1e-12:
            return None
        scale = min(step, dist) / dist
        nx = x + dx * scale
        ny = y + dy * scale
        if segment_collision((x, y), (nx, ny), s.obstacles, radii):
            return None
        return [((nx, ny, wrap_angle(math.atan2(ny - y, nx - x)), v_nom), None)]

    return _grow(s, rng, steer, v_nom=v_nom)


def block_draws(rng, c_max: float, a_max: float):
    """(draws, restore) for a stream of `(rng.integers(0, n),
    rng.uniform(-c_max, c_max), rng.uniform(0, a_max))` draws, 1 <= n < 2**32,
    decoded from raw words as numpy does.

    draws(count, n), after count draws were taken, returns lists (us, cs,
    accels) of the next draws. The first is exact for n: Lemire's method on
    32-bit halves, where u is the accepted half (0 when n == 1, which draws no
    integer) and the integer is (u * n) >> 32. The rest come only when n > 1
    and the first draw leaves no half pending, and assume no rejection: from
    that aligned word on, five words give two draws, the low half of word 5k
    with words 5k+1 and 5k+2, then its high half with words 5k+3 and 5k+4. The
    caller takes them in order and calls draws again after them or where
    Lemire's method rejects u: (u * n) mod 2**32 < 2**32 mod n. restore(count)
    leaves rng as count draws would, pending half and stale `uinteger` included.
    """
    bg = getattr(rng, "bit_generator", None)
    if bg is not None and not isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM,
                                              np.random.Philox, np.random.SFC64)):
        raise TypeError(f"{type(bg).__name__} is not PCG64, PCG64DXSM, Philox or SFC64")
    # perfbench's TimedRng proxy has no bit_generator: no pending half, no restore
    entry = bg.state if bg is not None else {"has_uint32": 0, "uinteger": 0}
    pending, half = bool(entry["has_uint32"]), entry["uinteger"]
    block = None
    pos = end = drawn = 0
    start = base = 0  # the last block's groups start at word start, at draw base
    halves = np.array([0, 32], dtype=np.uint64)

    def word():  # fetches blocks of 64, 64, 128, ... up to 4096 words, only when one is due
        nonlocal block, pos, end, drawn
        if pos == end:
            k = min(max(drawn, 64), 4096)
            drawn += k
            pos, end = 0, k
            block = rng.integers(0, 2**64, size=k, dtype=np.uint64)
        pos += 1
        return int(block[pos - 1])

    # lo + (hi - lo) * frac, in this order, as numpy computes it, from a word's
    # top 53 bits as a fraction; w is a word or an array of them
    def uniform(lo, hi, w):
        return lo + (hi - lo) * ((w >> 11) * 2.0 ** -53)

    def commit(count):  # the state after the block draws taken before count
        nonlocal pos, pending, half
        k = count - base  # group draws taken
        if k > 0:
            pos = start + 5 * (k // 2) + 3 * (k % 2)
            pending = bool(k % 2)
            half = int(block[start + 5 * ((k - 1) // 2)]) >> 32

    def draws(count, n):
        nonlocal pending, half, start, base
        commit(count)
        threshold = 0x100000000 % n  # numpy's (2**32 - n) % n
        u = 0
        while n > 1:  # the pending high half of the last word split, else a fresh low half
            if pending:
                u, pending = half, False
            else:
                w = word()
                u, half, pending = w & 0xFFFFFFFF, w >> 32, True
            if (u * n) & 0xFFFFFFFF >= threshold:
                break
        us, cs, accels = [u], [uniform(-c_max, c_max, word())], [uniform(0.0, a_max, word())]
        # whole groups to the end of the fetched words, only from an aligned word
        base, start = count + 1, pos
        groups = (end - pos) // 5 if n > 1 and not pending else 0
        if groups:
            five = block[pos:pos + 5 * groups].reshape(groups, 5)
            us += ((five[:, :1] >> halves) & 0xFFFFFFFF).ravel().tolist()
            cs += uniform(-c_max, c_max, five[:, 1::2]).ravel().tolist()
            accels += uniform(0.0, a_max, five[:, 2::2]).ravel().tolist()
        return us, cs, accels

    def restore(count):  # pending and half are the bit generator's has_uint32, uinteger
        commit(count)
        if bg is not None:
            bg.state = entry
            bg.random_raw(drawn - end + pos, output=False)
            bg.state = {**bg.state, "has_uint32": int(pending), "uinteger": half}

    return draws, restore


def plan_rrt_kbf(s: Scenario, rng: np.random.Generator,
                 trace: list | None = None) -> PlanResult:
    """Barrier-gated kinodynamic planner.

    Accepted edges hold a randomly sampled control for one dt; the stored
    per-edge controls replay exactly through integrate_step, so the plan is
    directly executable. This is plan_robust_rrt_kbf with zero bounds, which
    evaluate the nominal gate.
    """
    return plan_robust_rrt_kbf(s, UncertaintyBounds(), rng, trace)


def plan_robust_rrt_kbf(s: Scenario, bounds: UncertaintyBounds,
                        rng: np.random.Generator,
                        trace: list | None = None) -> PlanResult:
    """Barrier-gated planner with the worst-case model-mismatch gate.

    Each iteration draws a uniformly random visited node and a uniformly
    random admissible control, accepts the pair iff the (robust) barrier
    condition holds at the node for every obstacle, and then integrates one
    control period to create the child node. The gate's control-free part is
    formed once per node, on its first draw, for only the obstacles some
    control in the box can fail (safety.gate_rows); no verdict changes.
    Extensions leaving the workspace are discarded. With `trace` a (node,
    control, verdict) tuple is appended per iteration, which is how the
    zero-bound reduction is audited: with zero bounds the run is exactly that
    of plan_rrt_kbf. The draws, and rng's
    state on return or NoPath, are those of `rng.integers(0, len(nodes))`,
    `rng.uniform(-c_max, c_max)` and `rng.uniform(0, a_max)` calls (block_draws;
    PCG64, PCG64DXSM, Philox or SFC64 bit generators, else TypeError). The loop
    walks each decoded block and takes the parent as (u * n) >> 32; where
    Lemire's method rejects u it leaves the block, and the next block starts
    with that draw taken exactly.
    """
    c_max, a_max = s.robot.c_max, s.robot.a_max
    draws, restore = block_draws(rng, c_max, a_max)
    tree = Tree(s.start)
    dt = s.planner.dt
    if _goal_reached(s.start.x, s.start.y, s):
        return _plan(tree, 0, 0, dt)
    nodes = tree.nodes
    parents = tree.parents
    controls = tree.controls
    robot = s.robot
    g1 = s.cbf.gamma1
    g2 = s.cbf.gamma2
    v_max = robot.v_max
    xmin, xmax, ymin, ymax = s.bounds.xmin, s.bounds.xmax, s.bounds.ymin, s.bounds.ymax
    gx, gy = s.goal.x, s.goal.y
    tol2 = s.planner.goal_tolerance ** 2
    obs = gate_obstacles(s.obstacles, robot)
    d1 = bounds.delta1_max
    d2 = bounds.delta2_max
    node_rows = [None]  # per node: gate_rows over the control box, on its first draw
    max_iters = s.planner.max_iters
    n = 1
    threshold = 0  # Lemire's method rejects u when (u * n) mod 2**32 < 2**32 mod n
    it = 0

    try:
        while it < max_iters:
            us, cs, accels = draws(it, n)
            for it, u, c, a in zip(range(it + 1, max_iters + 1), us, cs, accels):
                m = u * n
                if m & 0xFFFFFFFF < threshold:  # rejected: the next block takes it exactly
                    it -= 1
                    break
                i = m >> 32
                x, y, theta, v = nodes[i]
                rows = node_rows[i]
                if rows is None:
                    rows = node_rows[i] = gate_rows(x, y, theta, v, obs, g1, g2, d1, d2,
                                                    c_max, a_max)
                ok = not rows or gate_check(theta, v, rows, c, a, d2) >= 0.0
                if trace is not None:
                    trace.append((i, c, a, ok))
                if not ok:
                    continue

                nx, ny, nth, nv = rk4_step(x, y, theta, v, c, a, dt, v_max)
                if not (xmin <= nx <= xmax and ymin <= ny <= ymax):
                    continue
                nodes.append((nx, ny, wrap_angle(nth), nv))
                parents.append(i)
                controls.append((c, a))
                node_rows.append(None)
                n += 1
                threshold = 0x100000000 % n
                ddx = nx - gx
                ddy = ny - gy
                if ddx * ddx + ddy * ddy <= tol2:
                    return _plan(tree, n - 1, it, dt)
        raise NoPath(f"no path after {max_iters} iterations", max_iters)
    finally:
        restore(it)


K_SIM = 10               # rrt-cbf-qp steering horizon, control periods
STEER_SPEED_FRAC = 0.6   # rrt-cbf-qp steering speed, fraction of v_max
SAMPLE_TOLERANCE = 0.1   # m, rrt-cbf-qp extension ends this close to its sample


def plan_rrt_cbf_qp(s: Scenario, rng: np.random.Generator) -> PlanResult:
    """Baseline that steers every extension with the safety-filtered QP.

    Each extension runs the follower's tick (sim.ClosedLoop) from the nearest
    node toward the sampled point, for at most K_SIM control periods of dt
    (ten controller ticks per period), stopping early on arrival at the
    sample or the goal. The chain is accepted only if every intermediate
    state kept all barriers nonnegative; a barrier dip or an infeasible tick
    discards the whole extension. Simulating the loop makes each extension
    orders of magnitude more expensive than a sampled-control gate, which is
    the point of carrying this baseline. The steering reference (constant
    speed STEER_SPEED_FRAC * v_max toward the sample) and the horizon cap are
    reconstruction choices, reported with benchmark output.
    """
    dt_sub = s.planner.dt / 10.0
    if _goal_reached(s.start.x, s.start.y, s):
        return _plan(Tree(s.start), 0, 0, dt_sub)
    loop = ClosedLoop(s, dt_sub)
    v_ref = STEER_SPEED_FRAC * s.robot.v_max
    tol2 = SAMPLE_TOLERANCE * SAMPLE_TOLERANCE

    def steer(node, qx, qy):
        dx = qx - node[0]
        dy = qy - node[1]
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            return None
        ux = dx / dist
        uy = dy / dist
        z = State(*node)
        chain = []
        for k in range(1, 10 * K_SIM + 1):
            adv = min(v_ref * k * dt_sub, dist)
            ref_pos = (node[0] + ux * adv, node[1] + uy * adv)
            ref_vel = (0.0, 0.0) if adv >= dist else (ux * v_ref, uy * v_ref)
            try:
                u, _, _, z = loop.tick(z, tracking_error(z, ref_pos, ref_vel), (0.0, 0.0))
            except InfeasibleSafety:
                return None
            if not s.bounds.contains(z.x, z.y) or any(
                    barrier_value(z, o, r) < 0.0 for o, r in loop.true_obs):
                return None
            chain.append(((z.x, z.y, z.theta, z.v), (u.c, u.a)))
            if _goal_reached(z.x, z.y, s):
                break  # _grow ends the plan at this node
            if (z.x - qx) ** 2 + (z.y - qy) ** 2 <= tol2:
                break  # sample reached; extension complete
        return chain

    return _grow(s, rng, steer, dt=dt_sub)


PLANNER_NAMES = ("rrt", "rrt-kbf", "robust-rrt-kbf", "rrt-cbf-qp")

# carried into benchmark output so comparisons against the reconstructed
# baseline state their assumptions
CBF_QP_BASELINE_NOTE = ("rrt-cbf-qp baseline: closed-loop QP steering toward each "
                        f"sample, horizon K_SIM*dt (K_SIM={K_SIM}), controller period "
                        f"dt/10, steer speed {STEER_SPEED_FRAC}*v_max")


def plan(name: str, s: Scenario, rng: np.random.Generator,
         bounds: UncertaintyBounds | None = None) -> PlanResult:
    """Dispatch a planner by CLI name."""
    if name == "rrt":
        return plan_rrt(s, rng)
    if name == "rrt-kbf":
        return plan_rrt_kbf(s, rng)
    if name == "robust-rrt-kbf":
        return plan_robust_rrt_kbf(s, bounds or UncertaintyBounds(), rng)
    if name == "rrt-cbf-qp":
        return plan_rrt_cbf_qp(s, rng)
    raise ValueError(f"unknown planner {name!r}; choose from {PLANNER_NAMES}")
