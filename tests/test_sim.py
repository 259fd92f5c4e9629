import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (FrozenPlanReference, ReferenceQp, reference_follow_path,
                     reference_qp_control, same_float)

import kbfplan
from kbfplan import sim
from kbfplan.cli import inject_perception_error, load_bundled_scenario
from kbfplan.control import clf_terms, solve_lyapunov
from kbfplan.core import (Bounds, Control, Obstacle, PlannerConfig, PlanResult, Scenario,
                          State, Waypoint, validate_scenario)
from kbfplan.dynamics import tracking_error
from kbfplan.planners import NoPath, plan_rrt_cbf_qp, plan_rrt_kbf
from kbfplan.sim import (DT_CTRL_DEFAULT, MAX_TICKS, ControllerInfeasible, FollowFailure,
                         TimeBudgetExceeded, Trajectory, TrajectorySample, _PlanReference,
                         follow_path, min_barrier, write_trajectory_csv)


def straight_line_setup(v=0.9, length=3.0, dt=0.5):
    n = int(length / (v * dt))
    waypoints = []
    for k in range(n + 1):
        waypoints.append(Waypoint(k * dt, State(k * v * dt, 0.0, 0.0, v),
                                  Control(0.0, 0.0) if k < n else None))
    plan = PlanResult(tuple(waypoints),
                      tuple((w.state.x, w.state.y, w.state.theta, w.state.v) for w in waypoints),
                      (-1, *range(n)), n)
    goal = waypoints[-1].state
    scenario = validate_scenario(Scenario(
        start=State(0.0, 0.0, 0.0, v),
        goal=State(goal.x, goal.y, 0.0, 0.0),
        obstacles=(),
        bounds=Bounds(-1.0, length + 2.0, -2.0, 2.0),
        planner=PlannerConfig(dt=dt, goal_tolerance=0.5),
    ))
    return plan, scenario


def test_straight_line_tracking_error():
    plan, scenario = straight_line_setup()
    traj = follow_path(plan, scenario)
    ref_speed = 0.9
    worst = 0.0
    for smp in traj.samples:
        t = smp.t
        ref_x = min(ref_speed * t, plan.waypoints[-1].state.x)
        err = math.hypot(smp.state.x - ref_x, smp.state.y)
        worst = max(worst, err)
    assert worst <= 0.05


def test_straight_line_reaches_goal():
    plan, scenario = straight_line_setup()
    traj = follow_path(plan, scenario)
    last = traj.samples[-1].state
    assert math.hypot(last.x - scenario.goal.x, last.y - scenario.goal.y) \
        <= scenario.planner.goal_tolerance


def test_lyapunov_value_non_increasing_when_unrelaxed():
    plan, scenario = straight_line_setup()
    traj = follow_path(plan, scenario)
    for a, b in zip(traj.samples, traj.samples[1:]):
        if a.d <= 1e-12:
            assert b.V <= a.V + 1e-6


def test_pipeline_keeps_barriers_nonnegative():
    s = load_bundled_scenario("scenario4")
    for seed in range(5):
        plan = plan_rrt_kbf(s, np.random.default_rng(seed))
        traj = follow_path(plan, s)
        mb = min_barrier(traj)
        assert mb is not None
        assert mb[0] >= 0.0


@pytest.mark.parametrize("name,seed", [("scenario1", 3), ("scenario2", 5), ("scenario4", 11)])
def test_logged_v_is_the_controllers_v(name, seed):
    # every tick logs V at the tracking error the controller was given
    s = load_bundled_scenario(name)
    plan = plan_rrt_kbf(s, np.random.default_rng(seed))
    traj = follow_path(plan, s)
    ref = _PlanReference(plan, (s.goal.x, s.goal.y))
    P = solve_lyapunov(s.clf)
    assert len(traj.samples) > 100
    for smp in traj.samples:
        pos, vel, _ = ref.eval(smp.t)
        assert smp.V == clf_terms(tracking_error(smp.state, pos, vel), P, s.clf.Q)[0]


COORD = st.floats(-3.0, 3.0)
TINY = st.floats(-5e-10, 5e-10)  # a goal offset whose length stays below 1e-9


@settings(max_examples=300, deadline=None)
@given(legs=st.lists(st.tuples(st.floats(1e-3, 1.0), COORD, COORD), min_size=1, max_size=12),
       offset=st.one_of(st.tuples(TINY, TINY), st.tuples(COORD, COORD)))
def test_reference_matches_the_frozen_reference(legs, offset):
    # waypoints at increasing times from 0, the goal a synthetic segment away
    # or (offset below 1e-9) at the last waypoint, evaluated on the follower's
    # ticks up to past the end: every float bit for bit, signed zeros included
    t, waypoints = 0.0, []
    for k, (step, x, y) in enumerate(legs):
        control = Control(0.0, 0.0) if k < len(legs) - 1 else None  # None on the last
        waypoints.append(Waypoint(t, State(x, y), control))
        t += step
    plan = PlanResult(tuple(waypoints), tuple((x, y, 0.0, 0.0) for _, x, y in legs),
                      (-1, *range(len(legs) - 1)), len(legs))
    goal = (legs[-1][1] + offset[0], legs[-1][2] + offset[1])
    shipped, frozen = _PlanReference(plan, goal), FrozenPlanReference(plan, goal)
    assert same_float(shipped.duration, frozen.duration)
    k = 0
    while k * DT_CTRL_DEFAULT <= frozen.duration + 0.1:
        got, want = shipped.eval(k * DT_CTRL_DEFAULT), frozen.eval(k * DT_CTRL_DEFAULT)
        assert all(same_float(a, b) for g, w in zip(got, want) for a, b in zip(g, w)), k
        k += 1


@pytest.mark.parametrize("dt_ctrl", [0.0, -0.02, math.nan, math.inf])
def test_follow_rejects_bad_control_period(dt_ctrl):
    plan, scenario = straight_line_setup()
    with pytest.raises(ValueError, match="dt_ctrl"):
        follow_path(plan, scenario, dt_ctrl=dt_ctrl)


def test_follow_caps_the_tick_count(monkeypatch):
    plan, scenario = straight_line_setup()
    # the budget (plan duration + 10 s) is about 1e8 ticks of 1e-7 s
    with pytest.raises(ValueError, match="MAX_TICKS"):
        follow_path(plan, scenario, dt_ctrl=1e-7)
    # the period the message names is the least that fits the budget in MAX_TICKS ticks
    monkeypatch.setattr(sim, "MAX_TICKS", 100)
    with pytest.raises(ValueError, match=r"MAX_TICKS = 100 ticks need dt_ctrl >= (\S+)$") as exc:
        follow_path(plan, scenario, dt_ctrl=0.1)
    least = float(exc.value.args[0].rsplit(" ", 1)[1])
    with pytest.raises(ValueError, match="MAX_TICKS"):
        follow_path(plan, scenario, dt_ctrl=math.nextafter(least, 0.0))
    assert follow_path(plan, scenario, dt_ctrl=least).samples


def test_replay_determinism():
    s = load_bundled_scenario("scenario1")
    plan = plan_rrt_kbf(s, np.random.default_rng(3))
    t1 = follow_path(plan, s)
    t2 = follow_path(plan, s)
    assert t1 == t2


def _follow_outcome(follow, plan, s, perceived_obstacles=None):
    """(failure type or None, samples) of one follow."""
    try:
        return None, follow(plan, s, perceived_obstacles=perceived_obstacles).samples
    except (ControllerInfeasible, TimeBudgetExceeded) as exc:
        return type(exc), exc.trajectory.samples


def assert_follow_matches_reference(plan, s, perceived_obstacles=None):
    kind, samples = _follow_outcome(follow_path, plan, s, perceived_obstacles)
    ref_kind, ref_samples = _follow_outcome(reference_follow_path, plan, s,
                                            perceived_obstacles)
    assert kind is ref_kind
    assert len(samples) == len(ref_samples)
    for a, b in zip(samples, ref_samples):  # by repr, so a zero's sign counts too
        assert repr((a.t, a.state, a.control, a.b_values, a.V, a.d)) == \
            repr((b.t, b.state, b.control, b.b_values, b.V, b.d))


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_follow_matches_frozen_tick(name):
    s = load_bundled_scenario(name)
    for seed in range(25):
        try:
            plan = plan_rrt_kbf(s, np.random.default_rng(seed))
        except NoPath:
            continue
        assert_follow_matches_reference(plan, s)


@pytest.mark.parametrize("name,seed", [("scenario4", 4072274708), ("scenario1", 548737860)])
def test_follow_matches_frozen_tick_on_saturating_runs(name, seed):
    # on these runs the input box clips most of the QP's controls and the
    # plant enters an obstacle; the fast tick must reproduce them too
    s = load_bundled_scenario(name)
    assert_follow_matches_reference(plan_rrt_kbf(s, np.random.default_rng(seed)), s)


def test_follow_matches_frozen_tick_under_perception_error():
    truth = load_bundled_scenario("scenario2")
    rng = np.random.default_rng(5)
    perceived = inject_perception_error(truth, 0.1, 0.05, rng)
    plan = plan_rrt_kbf(perceived, rng)
    assert_follow_matches_reference(plan, truth, perceived.obstacles)


def test_cbf_qp_planner_matches_frozen_tick(monkeypatch):
    # rrt-cbf-qp runs the follower's tick (sim.ClosedLoop) for every extension
    for name in ("scenario1", "scenario2", "scenario3", "scenario4"):
        s = load_bundled_scenario(name)
        solver = ReferenceQp()
        calls = []

        def frozen(z, e, _obstacles, cbf, clf, P, _solver, _prob, mu_rm):
            calls.append(mu_rm)
            return reference_qp_control(z, e, s.obstacles, s.robot, cbf, clf, P, solver, mu_rm)

        shipped = plan_rrt_cbf_qp(s, np.random.default_rng(0))
        with monkeypatch.context() as m:
            m.setattr(sim, "clf_cbf_qp_control", frozen)
            reference = plan_rrt_cbf_qp(s, np.random.default_rng(0))
        assert len(calls) > 0 and set(calls) == {(0.0, 0.0)}
        assert repr(shipped) == repr(reference)


def _load_tracer():
    """perfbench/tracer.py, loaded by path: the benchmark's spans, read as they are."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_span_counts_of_one_follow_and_one_cbf_qp_plan():
    # the benchmark's tracer swaps module globals of planners and sim; every
    # span must still see each call the follower and the rrt-cbf-qp steer make
    tracer = _load_tracer()
    s = load_bundled_scenario("scenario2")
    plan = plan_rrt_kbf(s, np.random.default_rng(3))
    tr = tracer.Tracer()
    with tr.installed(kbfplan):
        follow_path(plan, s)
    tick = {"control.clf_cbf_qp": 263, "dynamics.io_linearize": 263,
            "dynamics.integrate_step": 263, "qp.solve": 263}
    once = {"control.solve_lyapunov": 1, "control.qp_build": 1}
    assert dict(tr.calls) == {**tick, **once, "safety.barrier_value": 1056}
    tr = tracer.Tracer()
    with tr.installed(kbfplan):
        plan_rrt_cbf_qp(s, np.random.default_rng(0))
    assert dict(tr.calls) == {**dict.fromkeys(tick, 514), **once, "safety.barrier_value": 2049,
                              "planners.tree_add": 326, "planners.tree_nearest": 9}


def test_nan_obstacle_row_fails_closed():
    # a NaN barrier row must fail the tick, not pass as satisfied
    plan, scenario = straight_line_setup()
    with pytest.raises(ControllerInfeasible) as exc:
        follow_path(plan, scenario, perceived_obstacles=(Obstacle(math.nan, 1.0, 0.2),))
    assert exc.value.t == 0.0 and exc.value.trajectory.samples == ()
    assert isinstance(exc.value, FollowFailure)
    assert str(exc.value) == "controller infeasible at t=0.000s"


def test_min_barrier_no_obstacles():
    plan, scenario = straight_line_setup()
    traj = follow_path(plan, scenario)
    assert min_barrier(traj) is None


def test_min_barrier_hand_built():
    samples = (
        TrajectorySample(0.0, State(0, 0, 0, 0), Control(0, 0), (3.0,), 0.0, 0.0),
        TrajectorySample(0.02, State(0, 0, 0, 0), Control(0, 0), (1.0,), 0.0, 0.0),
    )
    traj = Trajectory(samples)
    assert min_barrier(traj) == (1.0, 0.02, 0)
    # a NaN barrier must surface, not hide behind a finite minimum
    broken = samples[:1] + (
        TrajectorySample(0.02, State(0, 0, 0, 0), Control(0, 0), (2.0, math.nan),
                         0.0, 0.0),) + samples[1:]
    value, t, j = min_barrier(Trajectory(broken))
    assert math.isnan(value) and (t, j) == (0.02, 1)


def test_trajectory_csv_format(tmp_path):
    s = load_bundled_scenario("scenario1")
    plan = plan_rrt_kbf(s, np.random.default_rng(1))
    traj = follow_path(plan, s)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,theta,v,c,a,minB,V,d"
    assert len(lines) == len(traj.samples) + 1
    row_idx = len(lines) // 2
    row = lines[row_idx].split(",")
    assert len(row) == 10
    # 12 significant digits survive a round trip
    assert float(row[1]) == pytest.approx(traj.samples[row_idx - 1].state.x, rel=1e-11)
    # a NaN barrier writes minB NaN, as min_barrier reports it, not the finite minimum
    broken = TrajectorySample(0.0, State(0, 0, 0, 0), Control(0, 0), (1.0, math.nan), 0.0, 0.0)
    write_trajectory_csv(Trajectory((broken,)), out)
    assert out.read_text().splitlines()[1] == "0,0,0,0,0,0,0,nan,0,0"


def test_time_budget_raises_with_partial_trajectory(monkeypatch):
    plan, scenario = straight_line_setup()
    duration = _PlanReference(plan, (scenario.goal.x, scenario.goal.y)).duration
    monkeypatch.setattr(sim, "BUDGET_MARGIN", 0.11 - duration)  # a budget of 0.11 s
    with pytest.raises(TimeBudgetExceeded) as exc:
        follow_path(plan, scenario)
    assert isinstance(exc.value, FollowFailure)
    assert str(exc.value) == "goal not reached within 0.120s"
    assert exc.value.t == pytest.approx(0.12) and len(exc.value.trajectory.samples) == 6
