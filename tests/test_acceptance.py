"""Acceptance suite: every release gate in one module, one pass/fail line per
criterion (run with -s to see them live).

The planner campaign (criteria 1-4) shares a single session fixture that
streams 100 seeded runs of every planner over the four bundled scenarios,
keeping per-run summaries only, so the whole module stays within a desktop
time budget (a few minutes on one core).
"""

import math
import time

import numpy as np
import pytest

from oracles import (circular_arc_state, objective, random_qp, reference_condition,
                     robust_worst_grid, solve_qp_enumeration)

from kbfplan.cli import inject_perception_error, load_bundled_scenario
from kbfplan.core import (Bounds, CbfParams, ClfParams, Control, Obstacle,
                          PlannerConfig, RobotParams, Scenario, State,
                          UncertaintyBounds, combined_radius, validate_scenario)
from kbfplan.control import solve_lyapunov
from kbfplan.dynamics import integrate_step
from kbfplan.planners import (NoPath, plan_robust_rrt_kbf, plan_rrt,
                              plan_rrt_cbf_qp, plan_rrt_kbf)
from kbfplan.qp import ActiveSetQp, QpProblem, QpStatus
from kbfplan.safety import kbf_check, robust_worst_value
from kbfplan.sim import (ControllerInfeasible, TimeBudgetExceeded, follow_path,
                         min_barrier)

RUNS = 100
REPEATS = 3  # criterion 2 times each of its two calls as the fastest of this many
SCENARIOS = ("scenario1", "scenario2", "scenario3", "scenario4")
ROBUST_SETTINGS = (UncertaintyBounds(0.0, 0.0),
                   UncertaintyBounds(0.3, 0.3),
                   UncertaintyBounds(0.5, 0.5))


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    return ok


@pytest.fixture(scope="session")
def corpus():
    return {name: load_bundled_scenario(name) for name in SCENARIOS}


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except NoPath:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, out


@pytest.fixture(scope="session")
def campaign(corpus):
    """Per (scenario, seed): planner wall times plus the audits that need the
    plan in hand (replay, zero-bound reduction, closed-loop barrier floor)."""
    t_start = time.perf_counter()
    data = {}
    for name, s in corpus.items():
        radii = [combined_radius(o, s.robot) for o in s.obstacles]
        rows = {
            "t_rrt": [], "t_kbf": [], "t_qp": [], "t_rob0": [], "t_rob3": [], "t_rob5": [],
            "t_kbf_best": [], "t_rob0_best": [],
            "ok_rrt": 0, "ok_kbf": 0, "ok_qp": 0, "ok_rob0": 0, "ok_rob3": 0, "ok_rob5": 0,
            "reduction_mismatches": 0, "replay_violations": 0,
            "follow_failures": 0, "follow_min_barrier": math.inf, "follows": 0,
        }
        for seed in range(RUNS):
            dt_run, r = _timed(plan_rrt, s, np.random.default_rng(seed))
            rows["t_rrt"].append(dt_run)
            rows["ok_rrt"] += r is not None

            trace_kbf = []
            dt_run, r_kbf = _timed(plan_rrt_kbf, s, np.random.default_rng(seed),
                                   trace_kbf)
            rows["t_kbf"].append(dt_run)
            rows["ok_kbf"] += r_kbf is not None

            dt_run, r = _timed(plan_rrt_cbf_qp, s, np.random.default_rng(seed))
            rows["t_qp"].append(dt_run)
            rows["ok_qp"] += r is not None

            trace_rob = []
            dt_run, r_rob = _timed(plan_robust_rrt_kbf, s, ROBUST_SETTINGS[0],
                                   np.random.default_rng(seed), trace_rob)
            rows["t_rob0"].append(dt_run)
            rows["ok_rob0"] += r_rob is not None
            same_trace = trace_kbf == trace_rob
            same_plan = (r_kbf is None and r_rob is None) or (
                r_kbf is not None and r_rob is not None
                and r_kbf.waypoints == r_rob.waypoints
                and r_kbf.tree_nodes == r_rob.tree_nodes
                and r_kbf.tree_edges == r_rob.tree_edges)
            if not (same_trace and same_plan):
                rows["reduction_mismatches"] += 1
            best_kbf = rows["t_kbf"][-1]
            best_rob0 = rows["t_rob0"][-1]
            for _ in range(REPEATS - 1):
                best_kbf = min(best_kbf, _timed(plan_rrt_kbf, s, np.random.default_rng(seed),
                                                [])[0])
                best_rob0 = min(best_rob0, _timed(plan_robust_rrt_kbf, s, ROBUST_SETTINGS[0],
                                                  np.random.default_rng(seed), [])[0])
            rows["t_kbf_best"].append(best_kbf)
            rows["t_rob0_best"].append(best_rob0)

            dt_run, r = _timed(plan_robust_rrt_kbf, s, ROBUST_SETTINGS[1],
                               np.random.default_rng(seed))
            rows["t_rob3"].append(dt_run)
            rows["ok_rob3"] += r is not None
            dt_run, r = _timed(plan_robust_rrt_kbf, s, ROBUST_SETTINGS[2],
                               np.random.default_rng(seed))
            rows["t_rob5"].append(dt_run)
            rows["ok_rob5"] += r is not None

            if r_kbf is not None:
                for k in range(len(r_kbf.waypoints) - 1):
                    w = r_kbf.waypoints[k]
                    for o, r_c in zip(s.obstacles, radii):
                        if not kbf_check(w.state, w.control, o, r_c, s.cbf):
                            rows["replay_violations"] += 1
                try:
                    traj = follow_path(r_kbf, s)
                except (ControllerInfeasible, TimeBudgetExceeded) as exc:
                    rows["follow_failures"] += 1
                    traj = exc.trajectory
                rows["follows"] += 1
                mb = min_barrier(traj)
                if mb is not None:
                    rows["follow_min_barrier"] = min(rows["follow_min_barrier"], mb[0])
        data[name] = rows
    data["_elapsed"] = time.perf_counter() - t_start
    return data


def _mean_ok(times, ok_count):
    """Mean wall time over every run, failed ones included; NaN if none succeeded."""
    return math.nan if ok_count == 0 else sum(times) / len(times)


def test_criterion_1_timing_ordering(campaign):
    ok = True
    details = []
    for name in SCENARIOS:
        rows = campaign[name]
        m_rrt = np.mean(rows["t_rrt"])
        m_kbf = np.mean(rows["t_kbf"])
        m_qp = np.mean(rows["t_qp"])
        ratio = m_qp / m_kbf
        this_ok = (m_rrt < m_kbf < m_qp) and ratio >= 5.0 \
            and rows["ok_rrt"] == rows["ok_kbf"] == rows["ok_qp"] == RUNS
        ok = ok and this_ok
        details.append(f"{name}: {m_rrt * 1e3:.1f} < {m_kbf * 1e3:.1f} < "
                       f"{m_qp * 1e3:.1f} ms, ratio {ratio:.1f}")
    detail = "; ".join(details) + f" (campaign {campaign['_elapsed']:.0f}s)"
    assert _report("1 timing-ordering", ok, detail)


def test_criterion_2_zero_uncertainty_reduction(campaign):
    ok = True
    details = []
    for name in SCENARIOS:
        rows = campaign[name]
        mism = rows["reduction_mismatches"]
        # the fastest of REPEATS calls per seed, so that a stall of the host
        # during one call does not read as a difference between the planners
        m_kbf = np.mean(rows["t_kbf_best"])
        m_rob0 = np.mean(rows["t_rob0_best"])
        drift = abs(m_rob0 - m_kbf) / m_kbf
        this_ok = mism == 0 and drift <= 0.10
        ok = ok and this_ok
        details.append(f"{name}: mismatches {mism}, runtime drift {drift * 100:.1f}%")
    assert _report("2 zero-uncertainty-reduction", ok,
                   "; ".join(details) + f" (fastest of {REPEATS} calls per seed)")


def test_criterion_3_uncertainty_cost_trend(campaign):
    ok = True
    details = []
    for name in SCENARIOS:
        rows = campaign[name]
        m0 = _mean_ok(rows["t_rob0"], rows["ok_rob0"])
        m3 = _mean_ok(rows["t_rob3"], rows["ok_rob3"])
        m5 = _mean_ok(rows["t_rob5"], rows["ok_rob5"])
        this_ok = m0 <= m3 <= m5
        ok = ok and this_ok
        details.append(f"{name}: {m0 * 1e3:.1f} <= {m3 * 1e3:.1f} <= {m5 * 1e3:.1f} ms "
                       f"(ok {rows['ok_rob0']}/{rows['ok_rob3']}/{rows['ok_rob5']})")
    assert _report("3 uncertainty-cost-trend", ok, "; ".join(details))


def test_criterion_4_planner_safety_soundness(campaign):
    viol = sum(campaign[name]["replay_violations"] for name in SCENARIOS)
    follows = sum(campaign[name]["follows"] for name in SCENARIOS)
    failures = sum(campaign[name]["follow_failures"] for name in SCENARIOS)
    worst = min(campaign[name]["follow_min_barrier"] for name in SCENARIOS)
    ok = viol == 0 and worst >= -1e-6 and failures == 0 and follows >= 4 * RUNS * 0.95
    detail = (f"replay violations {viol}, follows {follows} "
              f"(failures {failures}), worst min-barrier {worst:.6f}")
    assert _report("4 planner-safety-soundness", ok, detail)


def test_criterion_5_perception_error_experiment():
    base = validate_scenario(Scenario(
        start=State(0.8, 3.0, 0.0, 0.0),
        goal=State(5.2, 3.0, 0.0, 0.0),
        obstacles=(Obstacle(2.7, 3.0, 0.45), Obstacle(4.0, 3.0, 0.45)),
        bounds=Bounds(0.0, 6.0, 0.0, 6.0),
        robot=RobotParams(v_max=0.8),
        cbf=CbfParams(3.0, 3.0),
        planner=PlannerConfig(dt=0.5, goal_tolerance=0.6, max_iters=200_000),
    ))
    bounds = UncertaintyBounds(2.5, 0.2)  # sized to cover 0.5 m + 0.25 m error

    def run_pipeline(seed, robust):
        rng = np.random.default_rng(seed)
        perceived = inject_perception_error(base, 0.5, 0.25, rng)
        try:
            if robust:
                p = plan_robust_rrt_kbf(perceived, bounds, rng)
            else:
                p = plan_rrt_kbf(perceived, rng)
        except NoPath:
            return None
        try:
            traj = follow_path(p, base, perceived_obstacles=perceived.obstacles)
        except (ControllerInfeasible, TimeBudgetExceeded) as exc:
            traj = exc.trajectory
        mb = min_barrier(traj)
        return mb is not None and mb[0] < 0.0

    coll_nom = coll_rob = fails_rob = 0
    for seed in range(50):
        out = run_pipeline(seed, robust=False)
        coll_nom += bool(out)
        out = run_pipeline(seed, robust=True)
        if out is None:
            fails_rob += 1
        else:
            coll_rob += out
    ok = coll_rob == 0 and coll_rob <= coll_nom
    detail = (f"nominal collisions {coll_nom}/50, robust collisions {coll_rob}/50 "
              f"(robust no-path {fails_rob}/50)")
    assert _report("5 perception-error-experiment", ok, detail)


def test_criterion_6_qp_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_x = worst_obj = 0.0
    status_mismatch = 0
    for k in range(1000):
        H, f, A, b = random_qp(rng, n_max=3, m_max=4, force_infeasible=(k % 5 == 4))
        oracle = solve_qp_enumeration(H, f, A, b)
        sol = ActiveSetQp().solve(QpProblem(H, f, A, b))
        if oracle is None:
            status_mismatch += sol.status is not QpStatus.INFEASIBLE
        elif sol.status is not QpStatus.OPTIMAL:
            status_mismatch += 1
        else:
            worst_x = max(worst_x, float(np.max(np.abs(sol.x - oracle[0]))))
            worst_obj = max(worst_obj, abs(objective(H, f, sol.x) - oracle[1]))
    ok = status_mismatch == 0 and worst_x <= 1e-8 and worst_obj <= 1e-8
    detail = (f"status mismatches {status_mismatch}, worst |dx| {worst_x:.2e}, "
              f"worst |dobj| {worst_obj:.2e}")
    assert _report("6 qp-oracle-equivalence", ok, detail)


def test_criterion_7_lyapunov_synthesis():
    d = solve_lyapunov(ClfParams())
    expected = np.block([[1.5 * np.eye(2), 0.5 * np.eye(2)],
                         [0.5 * np.eye(2), 1.0 * np.eye(2)]])
    identity_err = float(np.max(np.abs(d.P_lyap - expected)))

    rng = np.random.default_rng(23)
    worst_residual = 0.0
    for _ in range(100):
        m1 = rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2))
        clf = ClfParams(K_P=m1 @ m1.T + 0.3 * np.eye(2),
                        K_D=m2 @ m2.T + 0.3 * np.eye(2))
        data = solve_lyapunov(clf)
        A_cl = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.array(clf.K_P), -np.array(clf.K_D)]])
        residual = float(np.max(np.abs(A_cl.T @ data.P_lyap + data.P_lyap @ A_cl + clf.Q)))
        worst_residual = max(worst_residual, residual)
    ok = identity_err <= 1e-12 and worst_residual <= 1e-10
    detail = (f"identity-gain block error {identity_err:.2e}, "
              f"worst residual over 100 gains {worst_residual:.2e}")
    assert _report("7 lyapunov-synthesis", ok, detail)


def test_criterion_8_robust_check_box_oracle():
    robot = RobotParams()
    rng = np.random.default_rng(71)

    def random_tuple():
        z = State(rng.uniform(-5, 5), rng.uniform(-5, 5),
                  rng.uniform(-math.pi, math.pi), rng.uniform(0, 2.0))
        u = Control(rng.uniform(-robot.c_max, robot.c_max), rng.uniform(-1.0, 1.5))
        o = Obstacle(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 2.0))
        cbf = CbfParams(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        return z, u, o, o.r + robot.r_r, cbf

    worst_gap = 0.0
    for _ in range(1000):
        z, u, o, r, cbf = random_tuple()
        bounds = UncertaintyBounds(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.9))
        analytic = robust_worst_value(z, u, o, r, cbf, bounds)
        A, b, mu = reference_condition(z, u, o, r, cbf)
        grid = robust_worst_grid(A, b[0], b[1], float(b @ mu),
                                 bounds.delta1_max, bounds.delta2_max)
        worst_gap = max(worst_gap, abs(analytic - grid))

    nest_violations = 0
    for _ in range(10_000):
        z, u, o, r, cbf = random_tuple()
        bounds = UncertaintyBounds(rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.9))
        if robust_worst_value(z, u, o, r, cbf, bounds) >= 0.0 \
                and not kbf_check(z, u, o, r, cbf):
            nest_violations += 1

    ok = worst_gap <= 1e-9 and nest_violations == 0
    detail = f"worst grid gap {worst_gap:.2e}, nesting violations {nest_violations}"
    assert _report("8 robust-check-box-oracle", ok, detail)


def test_criterion_9_dynamics_verification():
    robot = RobotParams()
    z_full = integrate_step(State(0, 0, 0, 1), Control(1, 0), 0.1, robot)
    exact_full = circular_arc_state(0, 0, 0, 1, 1, 0.1)
    err_full = math.sqrt(sum((a - b) ** 2 for a, b in zip(
        (z_full.x, z_full.y, z_full.theta, z_full.v), exact_full)))

    z_half = integrate_step(State(0, 0, 0, 1), Control(1, 0), 0.05, robot)
    exact_half = circular_arc_state(0, 0, 0, 1, 1, 0.05)
    err_half = math.sqrt(sum((a - b) ** 2 for a, b in zip(
        (z_half.x, z_half.y, z_half.theta, z_half.v), exact_half)))

    gain = err_full / err_half
    ok = err_full <= 1e-6 and gain >= 8.0
    detail = f"one-step error {err_full:.2e}, halving gain {gain:.1f}x"
    assert _report("9 dynamics-verification", ok, detail)
