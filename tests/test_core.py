import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kbfplan.core import (Bounds, CbfParams, ClfParams, Obstacle, ParseError,
                          PlannerConfig, RobotParams, Scenario,
                          ScenarioValidationError, State, UncertaintyBounds,
                          combined_radius, scenario_from_dict, scenario_to_dict,
                          validate_scenario, wrap_angle)


def basic_scenario(**overrides):
    kwargs = dict(
        start=State(0.0, 0.0, 0.0, 0.0),
        goal=State(4.0, 4.0, 0.0, 0.0),
        obstacles=(),
        bounds=Bounds(-1.0, 6.0, -1.0, 6.0),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_wrap_angle_range():
    for theta in (-10.0, -math.pi, -1.0, 0.0, 1.0, math.pi, 10.0, 123.456):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # same direction modulo 2*pi
        assert abs(math.sin(w) - math.sin(theta)) < 1e-12
        assert abs(math.cos(w) - math.cos(theta)) < 1e-12
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


@given(st.floats(-1e6, 1e6))
@example(math.pi)
@example(-math.pi)
@example(-math.pi + 4.440892098500626e-16)
@example(1e-17)
def test_wrap_angle_idempotent(theta):
    # planners store wrapped headings and rebuild States from them
    w = wrap_angle(theta)
    assert wrap_angle(w) == w


def test_state_normalizes_heading():
    z = State(0.0, 0.0, 3.0 * math.pi, 1.0)
    assert z.theta == pytest.approx(math.pi)


def test_validate_empty_obstacles_valid():
    s = basic_scenario()
    assert validate_scenario(s) is s


def test_validate_boundary_start_is_safe():
    # start exactly at distance r_o + r_r from the center sits on the safe-set
    # boundary and must be accepted
    r = RobotParams()
    o = Obstacle(1.0 + r.r_r, 0.0, 1.0)
    s = basic_scenario(obstacles=(o,))
    assert math.hypot(s.start.x - o.x, s.start.y - o.y) == combined_radius(o, r)
    validate_scenario(s)


def test_validate_negative_radius():
    s = basic_scenario(obstacles=(Obstacle(3.0, 3.0, -1.0),))
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    kinds = {v.kind for v in exc.value.violations}
    assert "NonPositiveParameter" in kinds
    offending = [v for v in exc.value.violations if v.kind == "NonPositiveParameter"]
    assert any(v.value == -1.0 for v in offending)


def test_validate_non_finite_obstacle_center():
    for center, axis in (((3.0, math.nan), "y"), ((math.nan, 3.0), "x"),
                         ((math.inf, 3.0), "x"), ((3.0, -math.inf), "y")):
        s = basic_scenario(obstacles=(Obstacle(*center, 1.0),))
        with pytest.raises(ScenarioValidationError) as exc:
            validate_scenario(s)
        assert [(v.kind, v.field) for v in exc.value.violations] == \
            [("NonFiniteParameter", f"obstacles[0].{axis}")]


def test_validate_broken_obstacle_is_not_also_a_collision():
    # an infinite radius covers the start, but the obstacle is reported once,
    # for the field that broke, not again as StartInCollision
    s = basic_scenario(obstacles=(Obstacle(2.0, 2.0, math.inf),))
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    assert [(v.kind, v.field) for v in exc.value.violations] == \
        [("NonPositiveParameter", "obstacles[0].r")]


@pytest.mark.parametrize("corner", ["xmin", "xmax", "ymin", "ymax"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_validate_non_finite_bounds(corner, value):
    # an infinite bound passes the ordering check, and the planners' uniform
    # draws over it raise OverflowError or never come near the goal
    bounds = {**dict(xmin=-1.0, xmax=6.0, ymin=-1.0, ymax=6.0), corner: value}
    s = basic_scenario(bounds=Bounds(**bounds))
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    assert [(v.kind, v.field) for v in exc.value.violations] == \
        [("NonFiniteParameter", f"bounds.{corner}")]


@pytest.mark.parametrize("where", ["start", "goal"])
def test_validate_non_finite_heading(where):
    # State raises on an infinite heading but keeps a NaN, which a scenario built
    # in Python would carry into the planner's whole iteration budget
    s = basic_scenario(**{where: State(0.5, 0.5, math.nan, 0.0)})
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    assert [(v.kind, v.field) for v in exc.value.violations] == \
        [("NonFiniteParameter", f"{where}.theta")]


def _skewed(size):
    m = np.eye(size)
    m[0, 1] = 0.5
    return m.tolist()


# Every single-field rule and every cross-field rule, written out by hand rather
# than read from the annotations, so dropping one of them fails here: the
# keyword arguments to basic_scenario that break it, and the one violation due.
# A row's test id is <field>-<kind>; a row that shares both with another row
# carries its own fixed tag, so adding a row renames no existing id.
RULES = [
    (dict(robot=RobotParams(L=0.0)), "NonPositiveParameter", "robot.L"),
    (dict(robot=RobotParams(psi_max=-0.1)), "NonPositiveParameter", "robot.psi_max", "0"),
    (dict(robot=RobotParams(psi_max=math.inf)), "NonPositiveParameter", "robot.psi_max",
     "1"),
    (dict(robot=RobotParams(psi_max=math.pi / 2)), "ParameterOutOfRange", "robot.psi_max"),
    (dict(robot=RobotParams(a_max=-1.0)), "NonPositiveParameter", "robot.a_max"),
    (dict(robot=RobotParams(v_max=math.inf)), "NonPositiveParameter", "robot.v_max"),
    (dict(robot=RobotParams(r_r=math.nan)), "NonPositiveParameter", "robot.r_r"),
    (dict(obstacles=(Obstacle(math.nan, 3.0, 0.5),)), "NonFiniteParameter", "obstacles[0].x"),
    (dict(obstacles=(Obstacle(3.0, math.inf, 0.5),)), "NonFiniteParameter", "obstacles[0].y"),
    (dict(obstacles=(Obstacle(3.0, 3.0, 0.0),)), "NonPositiveParameter", "obstacles[0].r"),
    (dict(obstacles=(Obstacle(0.5, 0.0, 0.5),)), "StartInCollision", "obstacles[0]"),
    (dict(cbf=CbfParams(gamma1=0.0)), "NonPositiveParameter", "cbf.gamma1"),
    (dict(cbf=CbfParams(gamma2=-math.inf)), "NonPositiveParameter", "cbf.gamma2"),
    (dict(clf=ClfParams(penalty=math.nan)), "NonPositiveParameter", "clf.penalty"),
    # a non-finite gain left the QP infeasible at t=0, reached numpy's "must not
    # contain infs or NaNs" without naming the field, or read "must be symmetric"
    (dict(clf=ClfParams(K_P=[[1.0, math.inf], [math.inf, 1.0]])), "NonFiniteParameter",
     "clf.K_P"),
    (dict(clf=ClfParams(K_P=_skewed(2))), "ParameterOutOfRange", "clf.K_P", "0"),
    (dict(clf=ClfParams(K_P=-1.0)), "ParameterOutOfRange", "clf.K_P", "1"),
    (dict(clf=ClfParams(K_D=[[math.nan, 0.0], [0.0, 1.0]])), "NonFiniteParameter", "clf.K_D",
     "0"),
    (dict(clf=ClfParams(K_D=math.inf)), "NonFiniteParameter", "clf.K_D", "1"),
    (dict(clf=ClfParams(K_D=_skewed(2))), "ParameterOutOfRange", "clf.K_D", "0"),
    (dict(clf=ClfParams(K_D=0.0)), "ParameterOutOfRange", "clf.K_D", "1"),
    (dict(clf=ClfParams(Q=np.diag([1.0, 1.0, 1.0, math.inf]).tolist())),
     "NonFiniteParameter", "clf.Q", "0"),
    (dict(clf=ClfParams(Q=np.diag([1.0, -math.inf, 1.0, 1.0]).tolist())),
     "NonFiniteParameter", "clf.Q", "1"),
    (dict(clf=ClfParams(Q=_skewed(4))), "ParameterOutOfRange", "clf.Q", "0"),
    (dict(clf=ClfParams(Q=np.diag([1.0, 1.0, 1.0, -1.0]).tolist())),
     "ParameterOutOfRange", "clf.Q", "1"),
    (dict(planner=PlannerConfig(step_size=0.0)), "NonPositiveParameter", "planner.step_size"),
    (dict(planner=PlannerConfig(dt=-0.1)), "NonPositiveParameter", "planner.dt"),
    (dict(planner=PlannerConfig(max_iters=0)), "NonPositiveParameter", "planner.max_iters"),
    (dict(planner=PlannerConfig(goal_tolerance=math.inf)), "NonPositiveParameter",
     "planner.goal_tolerance"),
    (dict(bounds=Bounds(-math.inf, 6.0, -1.0, 6.0)), "NonFiniteParameter", "bounds.xmin"),
    (dict(bounds=Bounds(-1.0, math.nan, -1.0, 6.0)), "NonFiniteParameter", "bounds.xmax"),
    (dict(bounds=Bounds(-1.0, 6.0, math.nan, 6.0)), "NonFiniteParameter", "bounds.ymin"),
    (dict(bounds=Bounds(-1.0, 6.0, -1.0, math.inf)), "NonFiniteParameter", "bounds.ymax"),
    (dict(bounds=Bounds(-1.0, 6.0, 6.0, -1.0)), "ParameterOutOfRange", "bounds"),
    (dict(start=State(-2.0, 0.0)), "StartOutOfBounds", "start"),
    (dict(goal=State(4.0, 7.0)), "GoalOutOfBounds", "goal"),
    (dict(start=State(0.0, 0.0, math.nan)), "NonFiniteParameter", "start.theta"),
    (dict(goal=State(4.0, 4.0, math.nan)), "NonFiniteParameter", "goal.theta"),
    (dict(start=State(0.0, 0.0, 0.0, -0.1)), "ParameterOutOfRange", "start.v", "0"),
    (dict(start=State(0.0, 0.0, 0.0, 1.3)), "ParameterOutOfRange", "start.v", "1"),
]
RULE_IDS = [f"{where}-{kind}{''.join(tag)}" for _, kind, where, *tag in RULES]
assert len(set(RULE_IDS)) == len(RULE_IDS), "tag the new row: pytest numbers equal ids"


@pytest.mark.parametrize("overrides, kind, where", [row[:3] for row in RULES], ids=RULE_IDS)
def test_validate_rule_table(overrides, kind, where):
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(basic_scenario(**overrides))
    assert [(v.kind, v.field) for v in exc.value.violations] == [(kind, where)]


def test_validate_start_in_collision():
    s = basic_scenario(obstacles=(Obstacle(0.1, 0.0, 1.0),))
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    assert any(v.kind == "StartInCollision" for v in exc.value.violations)


def test_validate_broken_robot_radius_reports_no_start_collision():
    # r_o + r_r = inf would put the start inside every obstacle
    s = basic_scenario(robot=RobotParams(r_r=math.inf), obstacles=(Obstacle(3.0, 3.0, 0.5),))
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    assert [(v.kind, v.field) for v in exc.value.violations] == [
        ("NonPositiveParameter", "robot.r_r")]


def test_validate_goal_out_of_bounds():
    s = basic_scenario(goal=State(100.0, 0.0, 0.0, 0.0))
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(s)
    assert any(v.kind == "GoalOutOfBounds" for v in exc.value.violations)


def test_validate_is_idempotent():
    s = basic_scenario(obstacles=(Obstacle(3.0, 1.0, 0.5),))
    assert validate_scenario(validate_scenario(s)) is s


@pytest.mark.parametrize("r_o,r_r,expected", [
    (1.0, 0.0, 1.0),
    (0.5, 0.25, 0.75),
    (2.0, 0.3, 2.3),
])
def test_combined_radius(r_o, r_r, expected):
    assert combined_radius(Obstacle(0.0, 0.0, r_o), RobotParams(r_r=r_r)) == expected


def test_scenario_roundtrip_bit_identical():
    s = Scenario(
        start=State(0.123456789012345, 0.9, 0.7853981633974483, 0.0),
        goal=State(5.1, 5.1, -2.5, 0.3),
        obstacles=(Obstacle(2.2, 3.2, 0.45), Obstacle(3.3, 2.1, 0.5)),
        bounds=Bounds(0.0, 6.0, 0.0, 6.0),
        robot=RobotParams(L=0.21, psi_max=0.51, a_max=1.3, v_max=1.1, r_r=0.27),
        cbf=CbfParams(2.5, 3.5),
        clf=ClfParams(K_P=[[2.0, 0.1], [0.1, 2.0]], K_D=1.5, Q=2.0, penalty=500.0),
        planner=PlannerConfig(step_size=0.4, dt=0.25, max_iters=1234,
                              goal_tolerance=0.55, seed=9),
    )
    doc = json.loads(json.dumps(scenario_to_dict(s)))
    s2 = scenario_from_dict(doc)
    assert s2 == s
    # and a second trip is stable too
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s2)))) == s2


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INT = st.integers(-2 ** 64, 2 ** 64)


def _gain(size):
    return _FINITE | st.lists(st.lists(_FINITE, min_size=size, max_size=size),
                              min_size=size, max_size=size)


_STATES = st.builds(State, _FINITE, _FINITE, _FINITE, _FINITE)
_SCENARIOS = st.builds(
    Scenario, _STATES, _STATES,
    st.lists(st.builds(Obstacle, _FINITE, _FINITE, _FINITE), max_size=5),
    st.builds(Bounds, _FINITE, _FINITE, _FINITE, _FINITE),
    st.builds(RobotParams, _FINITE, _FINITE, _FINITE, _FINITE, _FINITE),
    st.builds(CbfParams, _FINITE, _FINITE),
    st.builds(ClfParams, _gain(2), _gain(2), _gain(4), _FINITE),
    st.builds(PlannerConfig, _FINITE, _FINITE, _INT, _FINITE, _INT))
_SECTIONS = {"start": State, "goal": State, "bounds": Bounds, "robot": RobotParams,
             "cbf": CbfParams, "clf": ClfParams, "planner": PlannerConfig}
# the keys a scenario file must give; every other key may be left to its default
_REQUIRED = {Scenario: {"start", "goal", "bounds"}, State: {"x", "y"},
             Obstacle: {"x", "y", "r"}, Bounds: {"xmin", "xmax", "ymin", "ymax"}}


@given(_SCENARIOS)
def test_scenario_roundtrip_property(s):
    doc = json.loads(json.dumps(scenario_to_dict(s)))
    assert scenario_from_dict(doc) == s
    # a section's keys are its dataclass's fields: all written, no other one read
    sections = [("scenario", Scenario, doc)]
    sections += [(k, cls, doc[k]) for k, cls in _SECTIONS.items()]
    sections += [(f"obstacles[{i}]", Obstacle, o) for i, o in enumerate(doc["obstacles"])]
    for where, cls, section in sections:
        assert list(section) == [f.name for f in fields(cls)]
        section["extra"] = 0
        with pytest.raises(ParseError, match=re.escape(f"unknown key 'extra' in {where}")):
            scenario_from_dict(doc)
        del section["extra"]
        for k in list(section):
            value = section.pop(k)
            if k in _REQUIRED.get(cls, ()):
                with pytest.raises(ParseError, match=re.escape(f"missing key {k!r} in {where}")):
                    scenario_from_dict(doc)
            else:
                scenario_from_dict(doc)
            section[k] = value


def test_minimal_document_gets_defaults():
    s = scenario_from_dict({
        "start": {"x": 0.0, "y": 0.0},
        "goal": {"x": 3.0, "y": 3.0},
        "bounds": {"xmin": -1.0, "xmax": 5.0, "ymin": -1.0, "ymax": 5.0},
    })
    assert s.obstacles == ()
    assert s.robot == RobotParams()
    assert s.planner == PlannerConfig()
    assert s.start.theta == 0.0 and s.start.v == 0.0
    validate_scenario(s)


def test_unknown_key_rejected():
    with pytest.raises(ParseError, match="obstacle_list"):
        scenario_from_dict({
            "start": {"x": 0, "y": 0}, "goal": {"x": 1, "y": 1},
            "bounds": {"xmin": 0, "xmax": 2, "ymin": 0, "ymax": 2},
            "obstacle_list": [],
        })
    with pytest.raises(ParseError, match="heading"):
        scenario_from_dict({
            "start": {"x": 0, "y": 0, "heading": 1.0}, "goal": {"x": 1, "y": 1},
            "bounds": {"xmin": 0, "xmax": 2, "ymin": 0, "ymax": 2},
        })


@pytest.mark.parametrize("where", ["start", "goal"])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_heading_rejected(where, theta):
    doc = {"start": {"x": 0, "y": 0}, "goal": {"x": 1, "y": 1},
           "bounds": {"xmin": 0, "xmax": 2, "ymin": 0, "ymax": 2}}
    doc[where]["theta"] = theta
    with pytest.raises(ParseError, match=rf"{where}\.theta must be finite, got {theta}"):
        scenario_from_dict(doc)


def test_missing_required_key():
    with pytest.raises(ParseError, match="bounds"):
        scenario_from_dict({"start": {"x": 0, "y": 0}, "goal": {"x": 1, "y": 1}})


def test_uncertainty_bounds_validation():
    UncertaintyBounds(0.0, 0.0)
    UncertaintyBounds(3.0, 0.99)
    from kbfplan.core import UnsupportedBound
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(UnsupportedBound, match=r"\.delta1_max must be finite and >= 0"):
            UncertaintyBounds(bad, 0.0)
    for bad in (-0.1, math.nan, math.inf, 1.0, 30.0):
        with pytest.raises(UnsupportedBound, match=r"\.delta2_max must lie in \[0, 1\)"):
            UncertaintyBounds(0.0, bad)


def test_clf_params_scalar_and_matrix_forms():
    p = ClfParams(K_P=2.0, K_D=[[1.0, 0.0], [0.0, 3.0]])
    assert np.array_equal(p.K_P, 2.0 * np.eye(2))
    assert p.K_D[1][1] == 3.0
    assert np.shape(p.Q) == (4, 4)
    with pytest.raises(ValueError):
        ClfParams(K_P=[[1.0, 0.0]])


def test_scenarios_are_hashable_values():
    a = ClfParams(K_P=2.0, Q=np.eye(4))
    b = ClfParams(K_P=[[2.0, 0.0], [0.0, 2.0]], Q=1.0)
    assert a == b and hash(a) == hash(b)
    assert len({basic_scenario(clf=a), basic_scenario(clf=b)}) == 1
