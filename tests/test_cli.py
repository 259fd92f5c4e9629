import csv
import dataclasses
import json
import math
import os
import re
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from kbfplan import cli
from kbfplan.cli import (BENCH_CSV_HEADER, BenchReport, BenchRow, bundled_scenario_names,
                         emit_svg, format_bench_table, inject_perception_error,
                         load_bundled_scenario, load_scenario, main, run_bench,
                         write_bench_csv)
from kbfplan.core import (Control, ParseError, Scenario, State, UncertaintyBounds,
                          validate_scenario)
from kbfplan.planners import CBF_QP_BASELINE_NOTE, NoPath, plan, plan_rrt
from kbfplan.sim import (BUDGET_MARGIN, MAX_TICKS, ControllerInfeasible, TimeBudgetExceeded,
                         Trajectory, TrajectorySample, follow_path)


MINIMAL = {
    "start": {"x": 0.5, "y": 0.5},
    "goal": {"x": 3.0, "y": 3.0},
    "bounds": {"xmin": 0, "xmax": 4, "ymin": 0, "ymax": 4},
}


def write_json(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_minimal_scenario(tmp_path):
    s = load_scenario(write_json(tmp_path, MINIMAL))
    assert isinstance(s, Scenario)
    assert s.obstacles == ()
    # an integral float is read as an int where the field is one
    s = load_scenario(write_json(tmp_path, dict(MINIMAL, planner={"max_iters": 5e4})))
    assert s.planner.max_iters == 50_000 and type(s.planner.max_iters) is int


def test_load_unknown_key(tmp_path):
    doc = dict(MINIMAL)
    doc["extra_stuff"] = 1
    with pytest.raises(ParseError, match="extra_stuff"):
        load_scenario(write_json(tmp_path, doc))


@pytest.mark.parametrize("section, value, message", [
    ("start", 5, "start must be a JSON object"),
    ("start", [1, 2], "start must be a JSON object"),
    ("obstacles", [5], "obstacles[0] must be a JSON object"),
    ("obstacles", 5, "obstacles must be a JSON array"),
    ("robot", {"L": None}, "robot.L must be a number"),
    ("clf", {"K_P": [[1.0, 0.0], [0.0]]}, "clf: "),
    # only JSON numbers are numbers, and an int field takes only integral ones
    ("start", {"x": "0.5", "y": 0.5}, "start.x must be a number, got '0.5'"),
    ("start", {"x": True, "y": 0.5}, "start.x must be a number, got True"),
    ("goal", {"x": [3.0], "y": 3.0}, "goal.x must be a number, got [3.0]"),
    ("bounds", {"xmin": 0, "xmax": 10 ** 400, "ymin": 0, "ymax": 4},
     "bounds.xmax is too large for a float"),
    ("planner", {"max_iters": 2.9}, "planner.max_iters must be an integer, got 2.9"),
    ("planner", {"max_iters": math.inf}, "planner.max_iters must be an integer, got inf"),
    ("planner", {"seed": math.nan}, "planner.seed must be an integer, got nan"),
    ("clf", {"K_P": "2"}, "clf.K_P must be a number, got '2'"),
    ("clf", {"Q": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, None, 0], [0, 0, 0, 1]]},
     "clf.Q must be a number, got None"),
], ids=["start-int", "start-list", "obstacle-int", "obstacles-int", "robot-null", "clf-ragged",
        "start-string", "start-bool", "goal-array", "xmax-overflow", "max-iters-fraction",
        "max-iters-inf", "seed-nan", "clf-string", "clf-null-entry"])
def test_load_wrong_typed_section(tmp_path, capsys, section, value, message):
    path = write_json(tmp_path, dict(MINIMAL, **{section: value}))
    with pytest.raises(ParseError, match=re.escape(message)):
        load_scenario(path)
    assert main(["plan", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}")


def test_load_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"start": }')
    with pytest.raises(ParseError, match="line 1"):
        load_scenario(path)


def test_bundled_scenarios_valid():
    names = bundled_scenario_names()
    assert names == ["scenario1", "scenario2", "scenario3", "scenario4"]
    for name in names:
        s = load_bundled_scenario(name)
        validate_scenario(s)
        assert len(s.obstacles) >= 3


def test_inject_zero_error_identity():
    s = load_bundled_scenario("scenario1")
    out = inject_perception_error(s, 0.0, 0.0, np.random.default_rng(0))
    assert out == s


def test_inject_displaces_centers_exactly():
    s = load_bundled_scenario("scenario1")
    out = inject_perception_error(s, 0.5, 0.0, np.random.default_rng(1))
    for o0, o1 in zip(s.obstacles, out.obstacles):
        assert math.hypot(o1.x - o0.x, o1.y - o0.y) == pytest.approx(0.5)
        assert o1.r == o0.r


def test_inject_clamps_radius_positive():
    s = load_bundled_scenario("scenario1")
    with pytest.warns(UserWarning, match="clamped"):
        out = inject_perception_error(s, 0.0, 10.0, np.random.default_rng(3))
    assert all(o.r > 0.0 for o in out.obstacles)


def test_bench_deterministic_non_timing_fields():
    scenarios = [("scenario1", load_bundled_scenario("scenario1"))]
    report = run_bench(scenarios, ["rrt", "rrt-kbf", "robust-rrt-kbf"], runs=3, seed_base=7,
                       bounds=UncertaintyBounds(0.4, 0.3))
    # every column but the wall times, bit for bit
    assert [(r.planner, r.scenario, r.runs, r.successes, r.mean_len_m, r.mean_clearance_m)
            for r in report.rows] == [
        ("rrt", "scenario1", 3, 3, 5.270543619314561, 0.16450114987690911),
        ("rrt-kbf", "scenario1", 3, 3, 4.394916035428188, 0.28815244029368475),
        ("robust-rrt-kbf", "scenario1", 3, 3, 4.161890364142532, 0.4000155735383371)]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_bench_csv_roundtrip(tmp_path):
    scenarios = [("scenario1", load_bundled_scenario("scenario1"))]
    report = run_bench(scenarios, ["rrt", "rrt-kbf"], runs=2, seed_base=0)
    path = tmp_path / "bench.csv"
    write_bench_csv(report, path)
    assert path.read_text().splitlines()[0] == BENCH_CSV_HEADER
    # floats are written with repr, so every field reads back exactly
    assert read_rows(path) == [{k: str(v) for k, v in dataclasses.asdict(r).items()}
                               for r in report.rows]
    assert "rrt" in format_bench_table(report)


def test_bench_table_notes_the_cbf_qp_baseline_only_when_it_ran():
    row = BenchRow("rrt", "scenario1", 1, 1, 0.1, 0.1, 0.0, 4.0, 0.2)
    for planners, noted in ((["rrt"], False), (["rrt", "rrt-cbf-qp"], True),
                            (["rrt-kbf", "robust-rrt-kbf"], False)):
        report = BenchReport(tuple(dataclasses.replace(row, planner=p) for p in planners), "fp")
        lines = format_bench_table(report).splitlines()
        assert (lines[-1] == CBF_QP_BASELINE_NOTE) is noted
        assert lines.count(CBF_QP_BASELINE_NOTE) == noted


def test_bench_robust_bounds_forwarded():
    scenarios = [("scenario1", load_bundled_scenario("scenario1"))]
    r0 = run_bench(scenarios, ["robust-rrt-kbf"], runs=2, seed_base=0)
    r1 = run_bench(scenarios, ["robust-rrt-kbf"], runs=2, seed_base=0,
                   bounds=UncertaintyBounds(0.4, 0.3))
    assert r0.rows[0].mean_len_m != r1.rows[0].mean_len_m


def test_bench_statistics_cover_only_successful_runs():
    s = load_bundled_scenario("scenario1")
    s = dataclasses.replace(s, planner=dataclasses.replace(s.planner, max_iters=1500))
    ok = []
    for seed in range(6):
        try:
            ok.append(plan("rrt-kbf", s, np.random.default_rng(seed)))
        except NoPath:
            pass
    assert len(ok) == 4  # seeds 2 and 3 run out of iterations
    row, = run_bench([("scenario1", s)], ["rrt-kbf"], runs=6).rows
    assert (row.runs, row.successes) == (6, 4)
    assert row.mean_len_m == statistics.fmean(r.path_length() for r in ok)
    assert row.mean_clearance_m == statistics.fmean(r.min_clearance(s) for r in ok)
    # no success leaves every statistic NaN
    s = dataclasses.replace(s, planner=dataclasses.replace(s.planner, max_iters=100))
    row, = run_bench([("scenario1", s)], ["rrt-kbf"], runs=2).rows
    assert (row.runs, row.successes) == (2, 0)
    assert all(math.isnan(x) for x in dataclasses.astuple(row)[4:])


def circle_count(path):
    tree = ET.parse(path)
    return sum(1 for el in tree.iter() if el.tag.endswith("circle"))


def test_svg_no_obstacles_no_circles(tmp_path):
    doc = dict(MINIMAL)
    s = load_scenario(write_json(tmp_path, doc))
    result = plan_rrt(s, np.random.default_rng(0))
    out = tmp_path / "plan.svg"
    emit_svg(result, s, out)
    assert circle_count(out) == 0


def test_svg_two_circles_per_obstacle(tmp_path):
    s = load_bundled_scenario("scenario1")  # 4 obstacles
    result = plan_rrt(s, np.random.default_rng(0))
    out = tmp_path / "plan.svg"
    emit_svg(result, s, out)
    assert circle_count(out) == 8


def test_svg_wellformed_for_random_runs(tmp_path):
    s = load_bundled_scenario("scenario2")
    for seed in range(20):
        result = plan_rrt(s, np.random.default_rng(seed))
        out = tmp_path / f"run{seed}.svg"
        emit_svg(result, s, out)
        ET.parse(out)  # raises on malformed XML


def test_svg_renders_trajectory(tmp_path):
    s = load_bundled_scenario("scenario1")
    from kbfplan.planners import plan_rrt_kbf
    result = plan_rrt_kbf(s, np.random.default_rng(0))
    traj = follow_path(result, s)
    out = tmp_path / "traj.svg"
    emit_svg(traj, s, out)
    ET.parse(out)
    assert circle_count(out) == 8


# -- command line entry ------------------------------------------------------

def test_main_plan_roundtrip(tmp_path):
    out = tmp_path / "plan.json"
    svg = tmp_path / "plan.svg"
    code = main(["plan", "--scenario", "scenario1", "--planner", "rrt-kbf",
                 "--seed", "0", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["planner"] == "rrt-kbf"
    assert doc["waypoints"][0]["t"] == 0.0
    ET.parse(svg)


def test_main_simulate(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--scenario", "scenario1", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("t,x,y,theta,v,c,a,minB,V,d")


def test_main_simulate_svg(tmp_path):
    # one polyline point per trajectory sample, two circles per obstacle
    out, svg = tmp_path / "traj.csv", tmp_path / "traj.svg"
    assert main(["simulate", "--scenario", "scenario1", "--seed", "1",
                 "--out", str(out), "--svg", str(svg)]) == 0
    samples = len(out.read_text().splitlines()) - 1
    polyline, = (el for el in ET.parse(svg).iter() if el.tag.endswith("polyline"))
    assert samples > 1 and len(polyline.get("points").split()) == samples
    assert circle_count(svg) == 2 * len(load_bundled_scenario("scenario1").obstacles)


def test_main_simulate_fails_closed_on_barrier_violation(tmp_path, capsys):
    # this seed's follower cuts into obstacle 4 of scenario4
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--scenario", "scenario4", "--planner", "rrt-kbf",
                 "--seed", "4072274708", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "min barrier -0.2252" in captured.out
    assert "obstacles[4]" in captured.err and "-0.2252 at t=" in captured.err
    assert out.read_text().startswith("t,x,y,theta,v,c,a,minB,V,d")


def test_main_simulate_reports_a_failed_follow_like_a_finished_one(monkeypatch, tmp_path,
                                                                    capsys):
    # the partial run of a failed follow gets the summary, the CSV and the
    # barrier check; here it also went below the floor against obstacles[1]
    samples = tuple(TrajectorySample(t, State(1.0, t, 0.0, 0.5), Control(0.0, 0.1), (0.3, b),
                                     1.0, 0.0) for t, b in ((0.0, 0.1), (0.02, -0.25)))

    def failing(plan, s, **kwargs):
        raise TimeBudgetExceeded(0.04, Trajectory(samples))

    monkeypatch.setattr(cli, "follow_path", failing)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", "scenario1", "--seed", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "follower failed on scenario1: goal not reached within 0.040s" in captured.err
    assert "follower entered obstacles[1] on scenario1: true barrier -0.2500 at t=0.02 s" \
        in captured.err
    assert "followed 0.02 s, 2 ticks, min barrier -0.2500" in captured.out
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [float(row[0]) for row in rows[1:]] == [0.0, 0.02]


def test_main_simulate_reports_a_failed_follow_with_no_ticks(monkeypatch, capsys):
    def failing(plan, s, **kwargs):
        raise ControllerInfeasible(0.0, Trajectory(()))

    monkeypatch.setattr(cli, "follow_path", failing)
    assert main(["simulate", "--scenario", "scenario1", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "follower failed on scenario1: controller infeasible at t=0.000s" in captured.err
    assert "followed 0.00 s, 0 ticks, min barrier inf" in captured.out


def test_python_m_kbfplan_runs_the_cli():
    import kbfplan

    env = dict(os.environ)
    src = str(Path(kbfplan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("kbfplan", "kbfplan.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "plan", "--scenario",
                               "scenario1", "--seed", "3"], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "rrt-kbf on scenario1: reached goal" in proc.stdout, module


def test_main_bench(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--scenario", "scenario1", "--planner", "rrt",
                 "--runs", "2", "--out", str(out)])
    assert code == 0
    assert read_rows(out)[0]["runs"] == "2"


def test_main_inject(tmp_path):
    out = tmp_path / "perturbed.json"
    code = main(["inject", "--scenario", "scenario1", "--seed", "3",
                 "--pos-err", "0.5", "--radius-err", "0.25", "--out", str(out)])
    assert code == 0
    s0 = load_bundled_scenario("scenario1")
    s1 = load_scenario(out)
    for o0, o1 in zip(s0.obstacles, s1.obstacles):
        assert math.hypot(o1.x - o0.x, o1.y - o0.y) == pytest.approx(0.5)


def test_main_inject_writes_an_invalid_perturbation_with_a_warning(tmp_path, capsys):
    # radii grown by up to 2 m: this seed's obstacles[1] covers the start
    out = tmp_path / "perturbed.json"
    assert main(["inject", "--scenario", "scenario1", "--seed", "1", "--pos-err", "0",
                 "--radius-err", "2", "--out", str(out)]) == 0
    assert "perturbed scenario is invalid" in capsys.readouterr().err
    with pytest.raises(ValueError, match="StartInCollision"):
        load_scenario(out)


def test_main_exit_code_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plan", "--scenario", str(bad)]) == 2
    assert main(["plan", "--scenario", str(tmp_path / "missing.json")]) == 2
    assert main(["plan", "--scenario", str(tmp_path)]) == 2
    assert main(["inject", "--scenario", "scenario1", "--out", str(tmp_path)]) == 2


def test_main_exit_code_non_finite_obstacle(tmp_path, capsys):
    doc = dict(MINIMAL, obstacles=[{"x": 2.0, "y": math.nan, "r": 0.5}])
    assert main(["plan", "--scenario", str(write_json(tmp_path, doc))]) == 2
    assert "NonFiniteParameter: obstacles[0]" in capsys.readouterr().err


def test_main_exit_code_infinite_bound(tmp_path, capsys):
    # JSON's 1e400 reads as inf; planning over it was an OverflowError traceback
    path = write_json(tmp_path, MINIMAL)
    path.write_text(path.read_text().replace('"xmax": 4', '"xmax": 1e400'))
    assert main(["plan", "--planner", "rrt", "--scenario", str(path)]) == 2
    assert "NonFiniteParameter: bounds" in capsys.readouterr().err


def test_main_exit_code_non_finite_gain(tmp_path, capsys):
    # JSON's 1e400 reads as inf; the controller then found no feasible QP at t=0
    q = [[1e300 if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)]
    path = write_json(tmp_path, dict(MINIMAL, clf={"Q": q}))
    path.write_text(path.read_text().replace("1e+300", "1e400"))
    assert main(["simulate", "--planner", "rrt-kbf", "--seed", "1",
                 "--scenario", str(path)]) == 2
    assert "NonFiniteParameter: clf.Q" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_exit_code_infinite_scalar_gain(tmp_path, capsys):
    # a scalar inf gain was inf * eye(2): NaN off the diagonal and a RuntimeWarning
    path = write_json(tmp_path, dict(MINIMAL, clf={"K_D": 1e300}))
    path.write_text(path.read_text().replace("1e+300", "1e400"))
    assert main(["plan", "--planner", "rrt", "--scenario", str(path)]) == 2
    assert ("NonFiniteParameter: clf.K_D=[[inf, 0.0], [0.0, inf]]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt-ctrl", "nan"],
    ["simulate", "--dt-ctrl", "0"],
    ["simulate", "--pos-err", "nan"],
    ["simulate", "--pos-err", "-0.5"],
    ["simulate", "--radius-err", "nan"],
    ["inject", "--pos-err", "nan"],
    ["inject", "--radius-err", "inf"],
    ["bench", "--runs", "0"],
    ["bench", "--runs", "-3"],
])
def test_main_exit_code_bad_magnitude(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv[:1] + ["--scenario", "scenario1", "--out", str(out)] + argv[1:])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_main_simulate_rejects_more_than_max_ticks(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", "scenario1", "--dt-ctrl", "1e-7", "--out", str(out)])
    assert code == 2
    assert "MAX_TICKS" in capsys.readouterr().err
    assert not out.exists()


def test_main_simulate_rejects_a_short_period_before_planning(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plan(*args, **kwargs)

    monkeypatch.setattr(cli, "plan", counted)
    assert main(["simulate", "--scenario", "scenario1", "--dt-ctrl", "1e-7"]) == 2
    err = capsys.readouterr().err
    assert "MAX_TICKS" in err
    # the message names the option and its floor, not a budget the user never set
    assert "--dt-ctrl must be finite and at least BUDGET_MARGIN / MAX_TICKS = 1e-05 s" in err
    assert "got 1e-07" in err and "time_budget" not in err
    assert calls == []


@pytest.mark.parametrize("argv", [["plan"], ["simulate", "--planner", "rrt"]])
@pytest.mark.parametrize("where, theta", [("start", math.nan), ("goal", math.inf)])
def test_main_exit_code_non_finite_heading(tmp_path, capsys, argv, where, theta):
    doc = json.loads(json.dumps(MINIMAL))
    doc[where]["theta"] = theta
    assert main(argv + ["--scenario", str(write_json(tmp_path, doc))]) == 2
    assert f"{where}.theta must be finite" in capsys.readouterr().err


def test_main_simulate_names_the_period_the_budget_needs(capsys):
    # 1.1e-5 s passes the pre-plan floor, but the budget (plan
    # duration + BUDGET_MARGIN) needs more than MAX_TICKS ticks at that period
    assert main(["simulate", "--scenario", "scenario1", "--dt-ctrl", "1.1e-5"]) == 2
    err = capsys.readouterr().err
    m = re.fullmatch(r"error: dt_ctrl 1\.1e-05 is too short for the time budget "
                     r"(\S+) s \(plan duration \+ BUDGET_MARGIN\): "
                     rf"MAX_TICKS = {MAX_TICKS} ticks need dt_ctrl >= (\S+)\n", err)
    assert m, err
    budget, least = float(m[1]), float(m[2])
    assert budget > BUDGET_MARGIN
    assert MAX_TICKS * least >= budget  # the named period fits ...
    assert least <= math.nextafter(budget / MAX_TICKS, math.inf)  # ... and is the least


def test_main_exit_code_no_path(tmp_path):
    doc = {
        "start": {"x": 0.5, "y": 2.0},
        "goal": {"x": 4.5, "y": 2.0},
        "bounds": {"xmin": 0, "xmax": 5, "ymin": 0, "ymax": 4},
        "obstacles": [{"x": 2.5, "y": y, "r": 0.5} for y in
                      (0.0, 0.9, 1.8, 2.7, 3.6)],
        "planner": {"max_iters": 800},
    }
    path = write_json(tmp_path, doc, "walled.json")
    assert main(["plan", "--scenario", str(path), "--planner", "rrt"]) == 1
