import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_plan_kbf, reference_plan_rrt, reference_plan_rrt_cbf_qp

from kbfplan import planners, sim
from kbfplan.cli import load_bundled_scenario
from kbfplan.core import (Bounds, CbfParams, Obstacle, PlannerConfig,
                          RobotParams, Scenario, State, UncertaintyBounds,
                          combined_radius, validate_scenario)
from kbfplan.dynamics import integrate_step
from kbfplan.planners import (NoPath, Tree, block_draws, plan, plan_robust_rrt_kbf,
                              plan_rrt, plan_rrt_cbf_qp, plan_rrt_kbf,
                              point_segment_distance, segment_collision)
from kbfplan.safety import kbf_check


def same_plan(a, b):
    """Equality ignoring wall-clock time, by repr, so a zero's sign counts too."""
    return (repr((a.waypoints, a.tree_nodes, a.tree_edges, a.iterations_used))
            == repr((b.waypoints, b.tree_nodes, b.tree_edges, b.iterations_used)))


def open_scenario(goal=(3.0, 0.5), tol=0.6, obstacles=(), max_iters=50_000,
                  span=5.0, start=(0.8, 0.5, 0.0), gammas=3.0):
    return validate_scenario(Scenario(
        start=State(start[0], start[1], start[2], 0.0),
        goal=State(goal[0], goal[1], 0.0, 0.0),
        obstacles=tuple(obstacles),
        bounds=Bounds(0.0, span, 0.0, span),
        cbf=CbfParams(gammas, gammas),
        planner=PlannerConfig(dt=0.5, goal_tolerance=tol, max_iters=max_iters),
    ))


# -- tree / geometry ---------------------------------------------------------

def test_nearest_single_node():
    t = Tree(State(1.0, 1.0, 0.0, 0.0))
    assert t.nodes == [(1.0, 1.0, 0.0, 0.0)]
    assert t.nearest(50.0, 50.0) == 0


def test_nearest_strict_ordering():
    t = Tree(State(0.0, 0.0, 0.0, 0.0))
    t.add((10.0, 0.0, 0.0, 0.0), 0, None)
    assert t.nearest(1.0, 0.0) == 0
    assert t.nearest(9.0, 0.0) == 1
    t.add((10.0, 0.0, 1.0, 0.5), 1, (0.1, 0.2))  # a tie keeps the lowest index
    assert t.nearest(9.0, 0.0) == 1


def test_nearest_matches_linear_scan():
    rng = np.random.default_rng(79)
    t = Tree(State(rng.uniform(0, 10), rng.uniform(0, 10), 0.0, 0.0))
    pts = [t.nodes[0][:2]]
    for n in range(999):
        x, y = rng.uniform(0, 10), rng.uniform(0, 10)
        t.add((x, y, 0.0, 0.0), 0, None)
        pts.append((x, y))
        if n % 97 == 0:  # queries between appends resync the position buffer
            assert t.nearest(x, y) == n + 1
    for _ in range(100):
        q = (rng.uniform(0, 10), rng.uniform(0, 10))
        d2 = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p in pts]
        best = min(range(len(pts)), key=lambda i: (d2[i], i))
        assert t.nearest(*q) == best


def test_point_segment_distance_cases():
    assert point_segment_distance(2.0, 0.5, 0, 0, 4, 0) == pytest.approx(0.5)
    assert point_segment_distance(-3.0, 4.0, 0, 0, 4, 0) == pytest.approx(5.0)
    assert point_segment_distance(1.0, 1.0, 2, 2, 2, 2) == pytest.approx(math.sqrt(2))


def test_segment_collision_examples():
    obstacles = [Obstacle(2.0, 0.5, 1.0)]
    assert segment_collision((0, 0), (4, 0), obstacles, [1.0])
    obstacles = [Obstacle(2.0, 2.0, 1.0)]
    assert not segment_collision((0, 0), (4, 0), obstacles, [1.0])
    # zero-length segment exactly on the inflated boundary: safe (closed set)
    obstacles = [Obstacle(1.0, 0.0, 1.0)]
    assert not segment_collision((0, 0), (0, 0), obstacles, [1.0])


# -- geometric planner -------------------------------------------------------

def test_rrt_goal_adjacent_start():
    s = open_scenario(goal=(1.0, 0.5), tol=0.6)
    result = plan_rrt(s, np.random.default_rng(0))
    assert len(result.waypoints) <= 2
    assert result.waypoints[0].state == s.start


def test_rrt_wall_no_path():
    # obstacles spanning the full workspace height with no usable gap
    wall = [Obstacle(2.5, y, 0.5) for y in np.arange(0.0, 5.5, 0.9)]
    s = open_scenario(goal=(4.5, 2.5), obstacles=wall, max_iters=1500)
    with pytest.raises(NoPath) as exc:
        plan_rrt(s, np.random.default_rng(1))
    assert exc.value.iterations == 1500


def test_rrt_deterministic():
    s = open_scenario(obstacles=[Obstacle(2.0, 0.8, 0.4)])
    r1 = plan_rrt(s, np.random.default_rng(3))
    r2 = plan_rrt(s, np.random.default_rng(3))
    assert same_plan(r1, r2)


def test_rrt_goal_contract_and_timestamps():
    s = open_scenario(obstacles=[Obstacle(2.0, 0.8, 0.4)])
    for seed in range(5):
        r = plan_rrt(s, np.random.default_rng(seed))
        last = r.waypoints[-1].state
        assert math.hypot(last.x - s.goal.x, last.y - s.goal.y) <= s.planner.goal_tolerance
        ts = [w.t for w in r.waypoints]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert r.waypoints[0].state == s.start


# -- kinodynamic planners ----------------------------------------------------

def test_kbf_open_field_success_rate():
    s = open_scenario(goal=(3.0, 0.5))
    ok = 0
    for seed in range(100):
        try:
            plan_rrt_kbf(s, np.random.default_rng(seed))
            ok += 1
        except NoPath:
            pass
    assert ok >= 95


def test_kbf_deterministic():
    s = open_scenario(obstacles=[Obstacle(2.0, 0.8, 0.4)])
    r1 = plan_rrt_kbf(s, np.random.default_rng(5))
    r2 = plan_rrt_kbf(s, np.random.default_rng(5))
    assert same_plan(r1, r2)


def test_kbf_edges_replay_and_pass_gate():
    s = open_scenario(goal=(3.5, 1.2), obstacles=[Obstacle(2.2, 0.8, 0.45)])
    radii = [combined_radius(o, s.robot) for o in s.obstacles]
    robust = UncertaintyBounds(0.3, 0.3)
    for seed in range(20):
        for result in (plan_rrt_kbf(s, np.random.default_rng(seed)),
                       plan_robust_rrt_kbf(s, robust, np.random.default_rng(seed))):
            for k in range(len(result.waypoints) - 1):
                w = result.waypoints[k]
                nxt = result.waypoints[k + 1]
                # held controls come from the admissible box
                assert -s.robot.c_max <= w.control.c <= s.robot.c_max
                assert 0.0 <= w.control.a <= s.robot.a_max
                # accepting check re-passes at the parent for every obstacle
                for o, r in zip(s.obstacles, radii):
                    assert kbf_check(w.state, w.control, o, r, s.cbf)
                # stored control reproduces the child state exactly
                z = integrate_step(w.state, w.control, s.planner.dt, s.robot)
                assert math.hypot(z.x - nxt.state.x, z.y - nxt.state.y) <= 1e-9
                assert abs(z.theta - nxt.state.theta) <= 1e-9
                assert abs(z.v - nxt.state.v) <= 1e-9


def test_kbf_tree_parent_structure():
    s = open_scenario(goal=(3.0, 0.5))
    r = plan_rrt_kbf(s, np.random.default_rng(2))
    seen = set()
    for parent, child in r.tree_edges:
        assert parent < child
        assert child not in seen  # exactly one parent each
        seen.add(child)


def test_robust_zero_bounds_identical_to_nominal():
    s = open_scenario(goal=(3.5, 1.2), obstacles=[Obstacle(2.2, 0.8, 0.45)])
    for seed in range(10):
        tr_n, tr_r = [], []
        rn = plan_rrt_kbf(s, np.random.default_rng(seed), trace=tr_n)
        rr = plan_robust_rrt_kbf(s, UncertaintyBounds(0.0, 0.0),
                                 np.random.default_rng(seed), trace=tr_r)
        assert tr_n == tr_r
        assert same_plan(rn, rr)


# -- flat-state planners against the loop-form reference --------------------

def kbf_pair(bounds):
    """(shipped, reference) for rrt-kbf (bounds None) or robust-rrt-kbf."""
    def shipped(s, rng, trace):
        if bounds is None:
            return plan_rrt_kbf(s, rng, trace=trace)
        return plan_robust_rrt_kbf(s, bounds, rng, trace=trace)
    return shipped, lambda s, rng, trace: reference_plan_kbf(s, rng, bounds, trace)


def untraced(planner):
    return lambda s, rng, trace: planner(s, rng)


NEAREST_PAIRS = {"rrt": (untraced(plan_rrt), untraced(reference_plan_rrt)),
                 "rrt-cbf-qp": (untraced(plan_rrt_cbf_qp),
                                untraced(reference_plan_rrt_cbf_qp))}


def run_both(pair, s, seed, make_rng=np.random.default_rng):
    """Outcome, trace and final generator state of pair's shipped planner and
    of its reference, each on make_rng(seed); the outcome is a PlanResult or
    the NoPath iteration count. Only the barrier-gated pairs fill the trace."""
    runs = []
    for planner in pair:
        rng = make_rng(seed)
        trace = []
        try:
            out = planner(s, rng, trace)
        except NoPath as exc:
            out = exc.iterations
        runs.append((out, trace, rng.bit_generator.state))
    return runs


def assert_identical(runs):
    (a, trace_a, rng_a), (b, trace_b, rng_b) = runs
    if isinstance(a, int) or isinstance(b, int):
        assert a == b
    else:
        assert same_plan(a, b)
    assert trace_a == trace_b
    assert rng_a == rng_b


EQUIVALENCE_BOUNDS = (None, UncertaintyBounds(0.0, 0.0), UncertaintyBounds(0.3, 0.3),
                      UncertaintyBounds(0.0, 0.3))


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_flat_planners_match_loop_reference(name):
    s = load_bundled_scenario(name)
    short = dataclasses.replace(s, planner=dataclasses.replace(s.planner, max_iters=40))
    for seed in range(8):
        for bounds in EQUIVALENCE_BOUNDS:
            runs = run_both(kbf_pair(bounds), s, seed)
            assert not isinstance(runs[0][0], int)
            assert_identical(runs)
            runs = run_both(kbf_pair(bounds), short, seed)
            assert runs[0][0] == 40  # NoPath
            assert_identical(runs)


@settings(max_examples=40, deadline=None)
@given(gamma1=st.floats(0.3, 10.0), gamma2=st.floats(0.3, 10.0),
       dt=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
       bounds=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.6))),
       centers=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
                                  st.floats(0.2, 1.0)), min_size=1, max_size=6))
def test_flat_planners_match_loop_reference_property(gamma1, gamma2, dt, seed, bounds,
                                                     centers):
    robot = RobotParams()
    obstacles = [Obstacle(x, y, r) for x, y, r in centers
                 if math.hypot(x - 0.8, y - 0.5) >= r + robot.r_r]
    s = validate_scenario(Scenario(
        start=State(0.8, 0.5, 0.0, 0.0), goal=State(3.5, 3.5, 0.0, 0.0),
        obstacles=tuple(obstacles), bounds=Bounds(0.0, 5.0, 0.0, 5.0), robot=robot,
        cbf=CbfParams(gamma1, gamma2),
        planner=PlannerConfig(dt=dt, goal_tolerance=0.6, max_iters=1000)))
    assert_identical(run_both(kbf_pair(bounds and UncertaintyBounds(*bounds)), s, seed))


# -- nearest-neighbour planners against their frozen State-object loops -----

@pytest.mark.parametrize("planner", sorted(NEAREST_PAIRS))
@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_nearest_planners_match_frozen_reference(name, planner):
    s = load_bundled_scenario(name)
    short = dataclasses.replace(s, planner=dataclasses.replace(s.planner, max_iters=40))
    no_path = 0
    for seed in range(6):
        runs = run_both(NEAREST_PAIRS[planner], s, seed)
        assert not isinstance(runs[0][0], int)
        assert_identical(runs)
        runs = run_both(NEAREST_PAIRS[planner], short, seed)
        no_path += isinstance(runs[0][0], int)
        assert_identical(runs)
    assert no_path >= 1  # some seeds need more than 40 iterations


@settings(max_examples=40, deadline=None)
@given(step=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1),
       centers=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
                                  st.floats(0.2, 1.0)), min_size=1, max_size=6))
def test_rrt_matches_frozen_reference_property(step, seed, centers):
    robot = RobotParams()
    obstacles = [Obstacle(x, y, r) for x, y, r in centers
                 if math.hypot(x - 0.8, y - 0.5) >= r + robot.r_r]
    s = validate_scenario(Scenario(
        start=State(0.8, 0.5, 0.0, 0.0), goal=State(3.5, 3.5, 0.0, 0.0),
        obstacles=tuple(obstacles), bounds=Bounds(0.0, 5.0, 0.0, 5.0), robot=robot,
        planner=PlannerConfig(step_size=step, goal_tolerance=0.6, max_iters=1000)))
    assert_identical(run_both(NEAREST_PAIRS["rrt"], s, seed))


# -- block-decoded draws against numpy's scalar Generator calls -------------

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)


def same_state(a, b):
    """Bit generator states are equal; Philox's hold arrays, compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@settings(max_examples=80, deadline=None)
@given(bit_generator=st.sampled_from(BIT_GENERATORS), seed=st.integers(0, 2**32 - 1),
       pre=st.integers(0, 3),
       ops=st.lists(st.one_of(
           st.just(1),                                  # integers(0, 1) draws nothing
           st.integers(2, 5000),
           st.integers(2**31 - 3000, 2**31 + 3000),     # above 2**31 about half reject
           st.integers(2, 2**32 - 1),
           st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0))),  # uniform(lo, lo + w)
           max_size=300))
@example(bit_generator=np.random.PCG64, seed=7, pre=1,
         ops=[1, 1, 1, (0.0, 1.0), 1, 3, 1, 1, 2**31 + 5, (-1.0, 2.0), 2**31 + 5, 1])
def test_block_draws_match_scalar_generator_calls(bit_generator, seed, pre, ops):
    # an odd number of integers(0, 7) calls leaves a pending 32-bit half
    scalar = np.random.Generator(bit_generator(seed))
    blocked = np.random.Generator(bit_generator(seed))
    for g in (scalar, blocked):
        for _ in range(pre):
            g.integers(0, 7)
    integers, uniform, restore = block_draws(blocked)
    for op in ops:
        if isinstance(op, int):
            assert integers(op) == scalar.integers(0, op)
        else:
            lo, width = op
            assert uniform(lo, lo + width) == scalar.uniform(lo, lo + width)
    restore()
    assert same_state(blocked.bit_generator.state, scalar.bit_generator.state)
    assert blocked.integers(0, 2**40) == scalar.integers(0, 2**40)


class FixedWords:
    """A generator proxy whose raw 64-bit words are given, then zeros."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        block, self.words = self.words[:size], self.words[size:]
        return np.array(block + [0] * (size - len(block)), dtype=dtype)


def test_block_draws_accept_a_low_half_equal_to_the_threshold():
    # n = 3: numpy rejects while (u * 3) mod 2**32 < 2**32 mod 3 = 1. The first
    # word's low half 0 is rejected; its high half 0xAAAAAAAB gives exactly 1,
    # which numpy accepts, and 0xAAAAAAAB * 3 >> 32 = 2
    integers, uniform, restore = block_draws(FixedWords([0xAAAAAAAB << 32, 5 << 32 | 7]))
    assert integers(3) == 2
    assert integers(2**32 - 1) == 6   # the next word's low half: 7 * (2**32 - 1) >> 32
    assert integers(2**32 - 1) == 4   # then its pending high half
    restore()


def pending_half_rng(seed):
    """A default generator with a pending 32-bit half (has_uint32 set)."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 7)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("make_rng", [
    pending_half_rng,
    lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
    lambda seed: np.random.Generator(np.random.Philox(seed)),
    lambda seed: np.random.Generator(np.random.SFC64(seed)),
], ids=["pcg64-pending-half", "pcg64dxsm", "philox", "sfc64"])
@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_flat_planners_match_loop_reference_on_every_bit_generator(name, make_rng):
    s = load_bundled_scenario(name)
    short = dataclasses.replace(s, planner=dataclasses.replace(s.planner, max_iters=40))
    for seed in range(3):
        for bounds in (None, UncertaintyBounds(0.3, 0.3)):
            for scenario in (s, short):
                (a, trace_a, rng_a), (b, trace_b, rng_b) = run_both(
                    kbf_pair(bounds), scenario, seed, make_rng)
                assert a == b if isinstance(a, int) or isinstance(b, int) else same_plan(a, b)
                assert trace_a == trace_b
                assert same_state(rng_a, rng_b)


def test_kbf_planners_reject_an_unsupported_bit_generator():
    s = load_bundled_scenario("scenario1")
    with pytest.raises(TypeError, match="MT19937"):
        plan_rrt_kbf(s, np.random.Generator(np.random.MT19937(0)))
    with pytest.raises(TypeError, match="MT19937"):
        plan_robust_rrt_kbf(s, UncertaintyBounds(0.3, 0.3),
                            np.random.Generator(np.random.MT19937(0)))


class ScalarDrawsOnly:
    """A generator proxy with only `uniform` and `integers`, as a tracer has."""

    def __init__(self, rng):
        self.uniform = rng.uniform
        self.integers = rng.integers


@pytest.mark.parametrize("bounds", [UncertaintyBounds(), UncertaintyBounds(0.3, 0.3)])
def test_kbf_planners_take_a_proxy_without_bit_generator(bounds):
    s = load_bundled_scenario("scenario2")
    for seed in range(4):
        trace_direct, trace_proxy = [], []
        direct = plan_robust_rrt_kbf(s, bounds, np.random.default_rng(seed), trace_direct)
        proxy = plan_robust_rrt_kbf(s, bounds, ScalarDrawsOnly(np.random.default_rng(seed)),
                                    trace_proxy)
        assert same_plan(direct, proxy)
        assert trace_direct == trace_proxy


def test_robust_bounds_increase_clearance():
    # cluster sitting beside the direct route
    s = open_scenario(goal=(4.2, 0.8), start=(0.8, 0.8, 0.0),
                      obstacles=[Obstacle(2.5, 1.0, 0.4), Obstacle(2.6, 2.0, 0.4)])
    dist_nominal, dist_robust = [], []
    bounds = UncertaintyBounds(0.5, 0.1)
    for seed in range(20):
        rn = plan_rrt_kbf(s, np.random.default_rng(seed))
        dist_nominal.append(rn.min_clearance(s))
        try:
            rr = plan_robust_rrt_kbf(s, bounds, np.random.default_rng(seed))
            dist_robust.append(rr.min_clearance(s))
        except NoPath:
            pass
    assert len(dist_robust) >= 15
    assert np.mean(dist_robust) > np.mean(dist_nominal)


def test_robust_infeasible_corridor():
    # wall whose only opening is narrower than the robust margin demands
    wall = [Obstacle(2.5, y, 0.45) for y in (0.3, 1.2, 3.0, 3.9, 4.8)]
    # gap between y=1.2 and y=3.0 centers: 1.8 - 1.4 = 0.4 m free
    s = open_scenario(goal=(4.3, 2.1), start=(0.8, 2.1, 0.0),
                      obstacles=wall, max_iters=4000)
    with pytest.raises(NoPath):
        plan_robust_rrt_kbf(s, UncertaintyBounds(1.0, 0.2), np.random.default_rng(0))


def test_cbf_qp_open_field_success_rate():
    s = open_scenario(goal=(3.0, 0.5))
    ok = 0
    for seed in range(100):
        try:
            plan_rrt_cbf_qp(s, np.random.default_rng(seed))
            ok += 1
        except NoPath:
            pass
    assert ok >= 95


def test_cbf_qp_deterministic():
    s = open_scenario(goal=(3.0, 0.5), obstacles=[Obstacle(2.0, 0.8, 0.4)])
    r1 = plan_rrt_cbf_qp(s, np.random.default_rng(4))
    r2 = plan_rrt_cbf_qp(s, np.random.default_rng(4))
    assert same_plan(r1, r2)


def test_cbf_qp_extension_cost_dominates_kbf():
    s = open_scenario(goal=(3.5, 1.2), obstacles=[Obstacle(2.2, 0.8, 0.45)])

    t0 = time.perf_counter()
    iters_kbf = 0
    for seed in range(10):
        iters_kbf += plan_rrt_kbf(s, np.random.default_rng(seed)).iterations_used
    per_iter_kbf = (time.perf_counter() - t0) / iters_kbf

    t0 = time.perf_counter()
    iters_qp = 0
    for seed in range(5):
        iters_qp += plan_rrt_cbf_qp(s, np.random.default_rng(seed)).iterations_used
    per_iter_qp = (time.perf_counter() - t0) / iters_qp

    assert per_iter_qp >= 5.0 * per_iter_kbf


def test_kbf_goal_contract():
    s = open_scenario(goal=(3.5, 1.2), obstacles=[Obstacle(2.2, 0.8, 0.45)])
    for planner in (plan_rrt_kbf, plan_rrt_cbf_qp):
        r = planner(s, np.random.default_rng(0))
        last = r.waypoints[-1].state
        assert math.hypot(last.x - s.goal.x, last.y - s.goal.y) <= s.planner.goal_tolerance
        ts = [w.t for w in r.waypoints]
        assert all(b > a for a, b in zip(ts, ts[1:]))


def test_plan_dispatch_names():
    s = open_scenario(goal=(2.0, 0.5))
    rng = np.random.default_rng(0)
    for name in ("rrt", "rrt-kbf", "robust-rrt-kbf", "rrt-cbf-qp"):
        plan(name, s, np.random.default_rng(0))
    with pytest.raises(ValueError):
        plan("dijkstra", s, rng)


def test_start_inside_goal_region_trivial_plan(monkeypatch):
    s = open_scenario(goal=(1.0, 0.6), tol=0.8)
    for planner in (plan_rrt, plan_rrt_kbf, plan_rrt_cbf_qp):
        r = planner(s, np.random.default_rng(0))
        assert len(r.waypoints) == 1
        assert r.waypoints[0].state == s.start
    # every planner's one-node plan matches its frozen reference in full
    for pair in (kbf_pair(None), kbf_pair(UncertaintyBounds(0.3, 0.3)),
                 *NEAREST_PAIRS.values()):
        runs = run_both(pair, s, 0)
        assert runs[0][0].iterations_used == 0
        assert_identical(runs)
    # and rrt-cbf-qp sets up no controller for it
    monkeypatch.setattr(sim, "solve_lyapunov", None)
    assert len(plan_rrt_cbf_qp(s, np.random.default_rng(0)).waypoints) == 1
    with pytest.raises(TypeError):  # the patch reaches the controller's set-up
        plan_rrt_cbf_qp(open_scenario(), np.random.default_rng(0))
