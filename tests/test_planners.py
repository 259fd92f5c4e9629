import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (FrozenDrawRng, frozen_block_draws, reference_plan_kbf, reference_plan_rrt,
                     reference_plan_rrt_cbf_qp)

from kbfplan import planners, sim
from kbfplan.cli import load_bundled_scenario
from kbfplan.core import (Bounds, CbfParams, Obstacle, PlannerConfig,
                          RobotParams, Scenario, State, UncertaintyBounds,
                          combined_radius, validate_scenario)
from kbfplan.dynamics import integrate_step
from kbfplan.planners import (NoPath, Tree, block_draws, plan, plan_robust_rrt_kbf,
                              plan_rrt, plan_rrt_cbf_qp, plan_rrt_kbf,
                              point_segment_distance, segment_collision)
from kbfplan.safety import kbf_check, robust_worst_value


def same_plan(a, b):
    """Whole plans are equal by repr, so a zero's sign counts too."""
    return repr(a) == repr(b)


def assert_same_value(r1, r2):
    """Equal plans compare, hash and print equal: a plan is a value."""
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert repr(r1) == repr(r2)


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


class SamplesAt:
    """A generator proxy whose uniform draws give one point, x then y, again and again."""

    def __init__(self, x, y):
        self.draws = itertools.cycle((x, y))

    def uniform(self, lo, hi):
        return next(self.draws)


@pytest.mark.parametrize("planner", [plan_rrt, plan_rrt_cbf_qp])
def test_nearest_planners_discard_a_sample_on_a_node(planner):
    # every sample is the root itself, so steer has no direction to extend in
    s = open_scenario(max_iters=20)
    with pytest.raises(NoPath) as exc:
        planner(s, SamplesAt(s.start.x, s.start.y))
    assert exc.value.iterations == 20


def test_rrt_deterministic():
    s = open_scenario(obstacles=[Obstacle(2.0, 0.8, 0.4)])
    assert_same_value(plan_rrt(s, np.random.default_rng(3)),
                      plan_rrt(s, np.random.default_rng(3)))


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


def test_kbf_default_planner_config_crosses_an_open_field():
    # a scenario file without a planner section gets PlannerConfig(): its
    # default hold (dt 0.5 s) crosses an empty 6 x 6 m field on every seed,
    # where a 0.1 s hold found no path in 50,000 iterations
    s = validate_scenario(Scenario(start=State(0.8, 3.0, 0.0, 0.0),
                                   goal=State(5.2, 3.0, 0.0, 0.0),
                                   bounds=Bounds(0.0, 6.0, 0.0, 6.0)))
    assert s.planner == PlannerConfig() and s.planner.dt == 0.5
    for seed in range(10):
        end = plan_rrt_kbf(s, np.random.default_rng(seed)).waypoints[-1].state
        assert math.hypot(end.x - 5.2, end.y - 3.0) <= s.planner.goal_tolerance


def test_kbf_deterministic():
    s = open_scenario(obstacles=[Obstacle(2.0, 0.8, 0.4)])
    assert_same_value(plan_rrt_kbf(s, np.random.default_rng(5)),
                      plan_rrt_kbf(s, np.random.default_rng(5)))


def test_kbf_edges_replay_and_pass_gate():
    s = open_scenario(goal=(3.5, 1.2), obstacles=[Obstacle(2.2, 0.8, 0.45)])
    radii = [combined_radius(o, s.robot) for o in s.obstacles]
    robust = UncertaintyBounds(0.3, 0.3)
    for seed in range(20):
        for bounds, result in ((None, plan_rrt_kbf(s, np.random.default_rng(seed))),
                               (robust, plan_robust_rrt_kbf(s, robust,
                                                            np.random.default_rng(seed)))):
            for w, nxt in zip(result.waypoints, result.waypoints[1:]):
                # held controls come from the admissible box
                assert -s.robot.c_max <= w.control.c <= s.robot.c_max
                assert 0.0 <= w.control.a <= s.robot.a_max
                # accepting check re-passes at the parent for every obstacle,
                # and a robust plan's at the worst corner of its own bounds
                for o, r in zip(s.obstacles, radii):
                    assert kbf_check(w.state, w.control, o, r, s.cbf)
                    if bounds is not None:
                        assert robust_worst_value(w.state, w.control, o, r, s.cbf, bounds) >= 0.0
                # stored control reproduces the child state exactly
                assert integrate_step(w.state, w.control, s.planner.dt, s.robot) == nxt.state


def test_kbf_tree_parent_structure():
    s = open_scenario(goal=(3.0, 0.5))
    r = plan_rrt_kbf(s, np.random.default_rng(2))
    assert r.parents[0] == -1 and len(r.parents) == len(r.nodes)
    for child, parent in enumerate(r.parents[1:], 1):  # exactly one parent each
        assert 0 <= parent < child


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


def walk(rng, c_max, a_max, ns):
    """The draws for ns from block_draws, taken as plan_robust_rrt_kbf takes
    them: each block's first draw is exact, and a later one leaves the block
    where Lemire's method rejects its u, or where n is 1 (no integer; the
    planner's tree has one node only before any block draw). restore() runs
    after the last draw."""
    draws, restore = block_draws(rng, c_max, a_max)
    out = []
    while len(out) < len(ns):
        us, cs, accels = draws(len(out), ns[len(out)])
        for k, (n, u, c, a) in enumerate(zip(ns[len(out):], us, cs, accels)):
            m = u * n
            rejected = m & 0xFFFFFFFF < 0x100000000 % n
            assert not (k == 0 and rejected)
            if k and (n == 1 or rejected):
                break
            out.append((m >> 32, c, a))
    restore(len(out))
    return out


@settings(max_examples=80, deadline=None)
@given(bit_generator=st.sampled_from(BIT_GENERATORS), seed=st.integers(0, 2**32 - 1),
       pre=st.integers(0, 3), c_max=st.floats(1e-3, 10.0), a_max=st.floats(1e-3, 10.0),
       ns=st.lists(st.one_of(
           st.just(1),                                  # integers(0, 1) draws nothing
           st.integers(2, 5000),
           st.integers(2**31 - 3000, 2**31 + 3000),     # above 2**31 about half reject
           st.integers(2, 2**32 - 1)),
           max_size=300))
@example(bit_generator=np.random.PCG64, seed=7, pre=1, c_max=0.6, a_max=1.5,
         ns=[1, 1, 1, 1, 3, 1, 1, 2**31 + 5, 2**31 + 5, 1])
def test_block_draws_match_scalar_generator_calls(bit_generator, seed, pre, c_max, a_max, ns):
    # an odd number of integers(0, 7) calls leaves a pending 32-bit half
    scalar, blocked, frozen = (np.random.Generator(bit_generator(seed)) for _ in range(3))
    for g in (scalar, blocked, frozen):
        for _ in range(pre):
            g.integers(0, 7)
    expected = [(scalar.integers(0, n), scalar.uniform(-c_max, c_max), scalar.uniform(0, a_max))
                for n in ns]
    assert walk(blocked, c_max, a_max, ns) == expected
    draw, restore = frozen_block_draws(frozen, c_max, a_max)
    assert [draw(n) for n in ns] == expected
    restore()
    state, next_word = scalar.bit_generator.state, scalar.integers(0, 2**40)
    for g in (blocked, frozen):
        assert same_state(g.bit_generator.state, state)
        assert g.integers(0, 2**40) == next_word


class FixedWords:
    """A generator proxy whose raw 64-bit words are given, then zeros."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        block, self.words = self.words[:size], self.words[size:]
        return np.array(block + [0] * (size - len(block)), dtype=dtype)


class PatchedWords:
    """A generator proxy whose raw words are a PCG64's, some replaced by
    patches (word index -> word). Its bit_generator is that PCG64, so after
    restore its state counts the words used and holds the pending half."""

    def __init__(self, seed, patches, pre=0):
        self.bit_generator = np.random.PCG64(seed)
        for _ in range(pre):  # an odd count leaves a pending 32-bit half
            np.random.Generator(self.bit_generator).integers(0, 7)
        self.patches = patches
        self.fetched = 0

    def integers(self, low, high, size, dtype):
        block = self.bit_generator.random_raw(size)
        for k, w in self.patches.items():
            if self.fetched <= k < self.fetched + size:
                block[k - self.fetched] = w
        self.fetched += size
        return block


def test_block_draws_accept_a_low_half_equal_to_the_threshold():
    # n = 3: numpy rejects while (u * 3) mod 2**32 < 2**32 mod 3 = 1. The first
    # word's low half 0 is rejected; its high half 0xAAAAAAAB gives exactly 1,
    # which numpy accepts, and 0xAAAAAAAB * 3 >> 32 = 2. Each uniform takes a
    # whole word: 0 maps to the low end, 2**63 to the middle. The first draw is
    # a block's exact one; word 3 starts its five-word groups, and word 8's
    # halves give the threshold again, to draws taken inline
    third = 0xAAAAAAAB
    words = [third << 32, 0, 1 << 63, 5 << 32 | 7, 1 << 63, 0, 0, 0,
             third << 32 | third, 1 << 63, 0, 1 << 63, 1 << 63]
    assert walk(FixedWords(words), 1.0, 2.0, [3, 2**32 - 1, 2**32 - 1, 3, 3]) == [
        (2, -1.0, 1.0),
        (6, 0.0, 0.0),    # word 3's low half: 7 * (2**32 - 1) >> 32
        (4, -1.0, 0.0),   # then its high half, with words 6 and 7
        (2, 0.0, 0.0),    # word 8's low half, with words 9 and 10
        (2, 0.0, 1.0),    # then its high half, with words 11 and 12
    ]


@pytest.mark.parametrize("pre, patches", [
    # No pending half at entry: the first draw splits word 0, so the groups
    # start at words 0, 5, 10, ... Word 10 is 0, so the first draw of its group
    # is rejected, and the exact draw rejects its high half too and takes word
    # 11. The groups then start at 11, 16, 21, ...: word 21's high half is 0,
    # so the second draw of its group is rejected, and the exact draw takes
    # word 24. Those groups end with word 63, the last of the first 64-word
    # fetch; word 59's high half is 0, so the block's last draw is rejected,
    # and the exact draw takes words 62 and 63 and then the next fetch's first.
    (0, {10: 0, 21: 0x80000000, 59: 0x80000000}),
    # A pending half at entry: the first draw takes it with words 0 and 1, so
    # the groups start at 2, 7, 12, ... As above, the first draw of word 12's
    # group and the second of word 23's are rejected. The groups from word 26
    # end at word 60, and the exact draw after them rejects both halves of
    # words 61-64, reading across the fetch, and takes word 65.
    (1, {12: 0, 23: 0x80000000, 61: 0, 62: 0, 63: 0, 64: 0}),
], ids=["fresh-word", "pending-half"])
def test_block_draws_take_rejections_in_and_between_blocks_exactly(pre, patches):
    ns = [3] * 60  # 2**32 mod 3 = 1: a zero half is rejected, 0x80000000 accepted
    frozen_rng = PatchedWords(5, patches, pre)
    draw, restore = frozen_block_draws(frozen_rng, 1.0, 2.0)
    expected = [draw(n) for n in ns]
    restore()
    rng = PatchedWords(5, patches, pre)
    draws = walk(rng, 1.0, 2.0, ns)
    assert draws == expected
    assert same_state(rng.bit_generator.state, frozen_rng.bit_generator.state)
    # every patched word's top 32 bits are 0, so had one been read as a
    # uniform, it would sit within 2**-31 of the low end of its range
    assert all(c > -1.0 + 1e-6 and a > 1e-6 for _, c, a in draws)


def test_kbf_planner_takes_exact_draws_mid_plan():
    # From rest at x = 0.05 facing the wall at x = 0, an edge stays in the
    # workspace only for a < 0.4, and a = 0 leaves the node where it is. With
    # no pending half, iteration k <= 5 (n == 1, no integer) reads c and a from
    # words 2k - 2 and 2k - 1; words 1, 3, 5 and 7 give a near a_max, so the
    # first four iterations append nothing, and word 9 appends the second
    # node. Iteration 6 splits word 10 and appends (word 12). Iteration 7, at
    # n = 3, rejects word 10's high half, so its exact draw splits word 13
    # and appends at a = 0 (word 15). Iteration 8 takes word 13's high half
    # and appends (word 17), and iteration 9, at n = 5, rejects word 18's low
    # half and takes its high half 0xFFFFFFFF: parent 4.
    s = validate_scenario(Scenario(
        start=State(0.05, 2.5, math.pi, 0.0), goal=State(1.2, 2.5, 0.0, 0.0),
        obstacles=(), bounds=Bounds(0.0, 5.0, 0.0, 5.0),
        planner=PlannerConfig(dt=0.5, goal_tolerance=0.6, max_iters=300)))
    top = 2**64 - 1
    patches = {1: top, 3: top, 5: top, 7: top, 9: 0, 10: 0x12345678, 12: 0, 15: 0,
               17: 0, 18: 0xFFFFFFFF << 32}
    for bounds in (UncertaintyBounds(), UncertaintyBounds(0.3, 0.3)):
        runs = []
        for shipped in (True, False):
            rng = PatchedWords(11, patches)
            trace = []
            try:
                if shipped:
                    out = plan_robust_rrt_kbf(s, bounds, rng, trace)
                else:
                    frozen = FrozenDrawRng(rng, s.robot.c_max, s.robot.a_max)
                    try:
                        out = reference_plan_kbf(s, frozen, bounds, trace)
                    finally:
                        frozen.restore()
            except NoPath as exc:
                out = exc.iterations
            runs.append((out, trace, rng.bit_generator.state))
        (a, trace_a, rng_a), (b, trace_b, rng_b) = runs
        assert a == b if isinstance(a, int) or isinstance(b, int) else same_plan(a, b)
        assert trace_a == trace_b
        assert same_state(rng_a, rng_b)
        assert [a > 0.4 for _, _, a, _ in trace_a[:4]] == [True] * 4
        assert [t[2] for t in trace_a[4:8]] == [0.0] * 4  # words 9, 12, 15 and 17
        assert trace_a[8][0] == 4


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
    assert_same_value(plan_rrt_cbf_qp(s, np.random.default_rng(4)),
                      plan_rrt_cbf_qp(s, np.random.default_rng(4)))


def test_cbf_qp_discards_an_extension_whose_tick_is_infeasible(monkeypatch):
    calls = []

    def infeasible(*args):
        calls.append(args)
        raise planners.InfeasibleSafety("no pseudo-control")

    monkeypatch.setattr(sim, "clf_cbf_qp_control", infeasible)
    s = open_scenario(max_iters=20)
    with pytest.raises(NoPath) as exc:
        plan_rrt_cbf_qp(s, np.random.default_rng(0))
    assert exc.value.iterations == 20
    assert len(calls) == 20  # each extension ends at its first tick


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


@pytest.mark.parametrize("name", planners.PLANNER_NAMES)
def test_plan_result_tree_views(name):
    start_in_goal = open_scenario(goal=(1.0, 0.6), tol=0.8)
    for s in (open_scenario(goal=(2.0, 0.5)), start_in_goal):
        r = plan(name, s, np.random.default_rng(3))
        assert r.parents[0] == -1
        assert r.tree_nodes == tuple(n[:2] for n in r.nodes)
        assert_same_value(r, plan(name, s, np.random.default_rng(3)))
    z = start_in_goal.start  # r is now the start-in-goal plan: the root alone
    assert r.nodes == ((z.x, z.y, z.theta, z.v),) and r.parents == (-1,)


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
