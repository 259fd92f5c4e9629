"""Shared domain types, the scenario model, and validation."""

# No `from __future__ import annotations` here: the scenario reader takes each
# field's type from dataclasses.fields, so annotations must stay evaluated.
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Annotated, Any, Collection

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle to the interval (-pi, pi]."""
    w = math.fmod(theta + math.pi, TWO_PI)
    if w <= 0.0:
        w += TWO_PI
    return w - math.pi


class ParseError(ValueError):
    """A scenario file could not be parsed (bad JSON, unknown or missing key)."""


class UnsupportedBound(ValueError):
    """Uncertainty bounds outside the supported range."""


# Each field's domain, declared on its annotation as the names of rules that validate_scenario
# (or UncertaintyBounds, at construction) checks in order. Names, not functions: typing caches
# each Annotated alias, and a cached function would keep its module alive on re-import.
_RULES = {  # name: (violation kind, rule text, holds)
    "positive": ("NonPositiveParameter", "must be finite and > 0",
                 lambda x: math.isfinite(x) and x > 0.0),
    "finite": ("NonFiniteParameter", "must be finite", math.isfinite),
    "finite matrix": ("NonFiniteParameter", "must be finite", lambda m: np.isfinite(m).all()),
    "symmetric": ("ParameterOutOfRange", "must be symmetric",
                  lambda m: np.allclose(m, np.transpose(m), atol=1e-12, rtol=0.0)),
    "positive definite": ("ParameterOutOfRange", "must be positive definite",
                          lambda m: np.min(np.linalg.eigvalsh(m)) > 0.0),
    "below pi/2": ("ParameterOutOfRange", "must be < pi/2", lambda x: x < math.pi / 2),
    "nonnegative": ("UnsupportedBound", "must be finite and >= 0", lambda x: 0.0 <= x < math.inf),
    # a multiplicative bound >= 1 flips the sign of the worst-case row
    "fraction": ("UnsupportedBound", "must lie in [0, 1)", lambda x: 0.0 <= x < 1.0),
}
Positive = Annotated[float, "positive"]
Finite = Annotated[float, "finite"]
Spd = Annotated[Any, "finite matrix", "symmetric", "positive definite"]


@dataclass(frozen=True)
class State:
    """Vehicle configuration: planar position, heading, forward speed."""

    x: float      # m
    y: float      # m
    theta: Finite = 0.0  # rad, kept in (-pi, pi]
    v: float = 0.0      # m/s

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class Control:
    """Physical input pair applied to the vehicle."""

    c: float  # curvature command tan(steering)/wheelbase, 1/m
    a: float  # longitudinal acceleration, m/s^2


@dataclass(frozen=True)
class RobotParams:
    L: Positive = 0.2                     # wheelbase, m
    psi_max: Annotated[Positive, "below pi/2"] = math.radians(30.0)  # max steering angle, rad
    a_max: Positive = 1.0                 # max acceleration, m/s^2
    v_max: Positive = 1.2                 # max forward speed, m/s
    r_r: Positive = 0.25                  # robot safety-circle radius, m

    @property
    def c_max(self) -> float:
        """Largest curvature command the steering can realize."""
        return math.tan(self.psi_max) / self.L


@dataclass(frozen=True)
class Obstacle:
    x: Finite    # center x, m
    y: Finite    # center y, m
    r: Positive  # radius, m


@dataclass(frozen=True)
class CbfParams:
    """Gains of the order-2 exponential barrier chain."""

    gamma1: Positive = 1.0  # 1/s
    gamma2: Positive = 1.0  # 1/s


def _gain_matrix(value: Any, size: int) -> tuple[tuple[float, ...], ...]:
    """Coerce a scalar (a multiple of the identity) or a nested list to size rows of floats."""
    arr = np.array(value, dtype=float)
    if arr.ndim == 0:
        arr = np.diag(np.full(size, arr))
    if arr.shape != (size, size):
        raise ValueError(f"expected a scalar or {size}x{size} matrix, got shape {arr.shape}")
    return tuple(map(tuple, arr.tolist()))


@dataclass(frozen=True)
class ClfParams:
    """Tracking-controller gains and the QP relaxation penalty.

    K_P and K_D may be given as scalars (interpreted as multiples of the
    2x2 identity) or full 2x2 matrices; Q likewise for the 4x4 case. Each is
    held as a tuple of float rows.
    """

    K_P: Spd = 1.0
    K_D: Spd = 1.0
    Q: Spd = 1.0
    penalty: Positive = 1.0e3

    def __post_init__(self) -> None:
        for name, size in (("K_P", 2), ("K_D", 2), ("Q", 4)):
            object.__setattr__(self, name, _gain_matrix(getattr(self, name), size))


@dataclass(frozen=True)
class UncertaintyBounds:
    """Box bounds on the additive / multiplicative model-mismatch terms."""

    delta1_max: Annotated[float, "nonnegative"] = 0.0  # additive acceleration error bound, m/s^2
    delta2_max: Annotated[float, "fraction"] = 0.0  # multiplicative error bound

    def __post_init__(self) -> None:
        if v := _field_violations(self, "UncertaintyBounds"):
            raise UnsupportedBound("; ".join(f"{x.field} {x.rule}, got {x.value}" for x in v))


@dataclass(frozen=True)
class PlannerConfig:
    step_size: Positive = 0.5       # geometric extension length, m
    dt: Positive = 0.5              # control hold per kinodynamic extension, s
    max_iters: Annotated[int, "positive"] = 50_000
    goal_tolerance: Positive = 0.5  # goal acceptance radius, m
    seed: int = 0


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned workspace rectangle."""

    xmin: Finite
    xmax: Finite
    ymin: Finite
    ymax: Finite

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass(frozen=True)
class Scenario:
    start: State
    goal: State
    obstacles: tuple[Obstacle, ...] = ()
    bounds: Bounds = Bounds(0.0, 10.0, 0.0, 10.0)
    robot: RobotParams = RobotParams()
    cbf: CbfParams = CbfParams()
    clf: ClfParams = field(default_factory=ClfParams)
    planner: PlannerConfig = PlannerConfig()

    def __post_init__(self) -> None:
        object.__setattr__(self, "obstacles", tuple(self.obstacles))


def combined_radius(o: Obstacle, robot: RobotParams) -> float:
    """Safety distance between vehicle center and obstacle center."""
    return o.r + robot.r_r


def gate_obstacles(obstacles, robot: RobotParams) -> list[tuple[float, float, float]]:
    """(xo, yo, r*r) per obstacle, r the combined radius: the form safety.gate_rows takes."""
    radii = [combined_radius(o, robot) for o in obstacles]
    return [(o.x, o.y, r * r) for o, r in zip(obstacles, radii)]


@dataclass(frozen=True)
class Violation:
    kind: str     # e.g. "NonPositiveParameter"
    field: str    # dotted path of the offending field
    value: Any
    rule: str     # human-readable rule that was broken


class ScenarioValidationError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        lines = "; ".join(f"{v.kind}: {v.field}={v.value!r} ({v.rule})" for v in violations)
        super().__init__(f"invalid scenario: {lines}")


def _field_violations(obj: Any, where: str) -> list[Violation]:
    """The first broken annotated rule of each field of the dataclass obj."""
    v = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        for name in getattr(f.type, "__metadata__", ()):
            kind, rule, holds = _RULES[name]
            if not holds(value):
                v.append(Violation(kind, f"{where}.{f.name}", scenario_to_dict(value), rule))
                break
    return v


def validate_scenario(s: Scenario) -> Scenario:
    """Check every scenario invariant; return the scenario unchanged if all hold,
    else raise ScenarioValidationError carrying the full list of violations.

    Each field's own domain is declared on its dataclass annotation (Positive,
    Finite, Spd) and checked by one walk over the fields; only the rules that
    relate fields are written out below. Validation is pure, so re-validating a
    validated scenario yields the same result.
    """
    sections: dict[str, Any] = {}
    for f in fields(s):
        if f.name == "obstacles":
            sections.update((f"obstacles[{i}]", o) for i, o in enumerate(s.obstacles))
        else:
            sections[f.name] = getattr(s, f.name)
    failed = {where: _field_violations(obj, where) for where, obj in sections.items()}
    v = [x for vs in failed.values() for x in vs]

    b = s.bounds
    if failed["bounds"]:
        pass  # the order of a non-finite corner means nothing
    elif not (b.xmin < b.xmax and b.ymin < b.ymax):
        v.append(Violation("ParameterOutOfRange", "bounds", (b.xmin, b.xmax, b.ymin, b.ymax),
                           "must satisfy xmin < xmax and ymin < ymax"))
    else:
        for name, z, kind in (("start", s.start, "StartOutOfBounds"),
                              ("goal", s.goal, "GoalOutOfBounds")):
            if not b.contains(z.x, z.y):
                v.append(Violation(kind, name, (z.x, z.y), f"{name} must lie inside bounds"))

    if not (0.0 <= s.start.v <= s.robot.v_max):
        v.append(Violation("ParameterOutOfRange", "start.v", s.start.v,
                           f"must lie in [0, v_max={s.robot.v_max}]"))

    r_r_ok = not any(x.field == "robot.r_r" for x in failed["robot"])
    for i, o in enumerate(s.obstacles if r_r_ok else ()):  # broken radii are reported above
        r = combined_radius(o, s.robot)
        if not failed[f"obstacles[{i}]"] and math.hypot(s.start.x - o.x, s.start.y - o.y) < r:
            v.append(Violation("StartInCollision", f"obstacles[{i}]", (o.x, o.y, o.r),
                               f"start is closer than r_o + r_r = {r} to the obstacle center"))

    if v:
        raise ScenarioValidationError(v)
    return s


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _check_keys(d: Any, allowed: Collection[str], required: Collection[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ParseError(f"{where} must be a JSON object, not {type(d).__name__}")
    for k in d:
        if k not in allowed:
            raise ParseError(f"unknown key {k!r} in {where}")
    for k in required:
        if k not in d:
            raise ParseError(f"missing key {k!r} in {where}")


def _number(v: Any, where: str, kind: Any) -> Any:
    """The JSON number v as an int if kind is int, else as a float; kind Any also
    takes nested arrays of numbers. Anything else, an int too large for a float,
    and a fractional or non-finite number of kind int, is a ParseError."""
    if kind is Any and isinstance(v, list):
        return [_number(e, where, kind) for e in v]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where} must be a number, got {v!r}")
    if kind is int:
        if isinstance(v, float) and not v.is_integer():  # NaN and infinities included
            raise ParseError(f"{where} must be an integer, got {v!r}")
        return int(v)
    try:
        return float(v)
    except OverflowError:
        raise ParseError(f"{where} is too large for a float") from None


def _section(cls: type, d: Any, where: str) -> Any:
    """The dataclass cls from the JSON object `where`: its keys are the fields of
    cls, those without a default required, each read by _number as annotated."""
    types = {f.name: getattr(f.type, "__origin__", f.type) for f in fields(cls)}
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(d, types, required, where)
    kwargs = {k: _number(v, f"{where}.{k}", types[k]) for k, v in d.items()}
    if cls is State and not math.isfinite(kwargs.get("theta", 0.0)):  # State keeps NaN
        raise ParseError(f"{where}.theta must be finite, got {kwargs['theta']}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a gain of the wrong shape
        raise ParseError(f"{where}: {exc}") from None


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from the JSON object form, applying defaults.

    Unknown keys are rejected at every level so typos fail loudly, and a
    section of the wrong JSON type is a ParseError naming it.
    """
    types = {f.name: f.type for f in fields(Scenario)}
    _check_keys(d, types, ("start", "goal", "bounds"), "scenario")
    obstacles = d.get("obstacles", [])
    if not isinstance(obstacles, list):
        raise ParseError(f"obstacles must be a JSON array, not {type(obstacles).__name__}")
    sections = {k: _section(types[k], v, k) for k, v in d.items() if k != "obstacles"}
    sections["obstacles"] = [_section(Obstacle, o, f"obstacles[{i}]")
                             for i, o in enumerate(obstacles)]
    return Scenario(**sections)


def scenario_to_dict(value: Any) -> Any:
    """Inverse of scenario_from_dict; emits the fully explicit form. Each dataclass
    becomes a JSON object of its fields and a tuple an array."""
    if is_dataclass(value):
        return {f.name: scenario_to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [scenario_to_dict(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# planner output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Waypoint:
    t: float
    state: State
    control: Control | None  # control applied from this waypoint; None on the last


@dataclass(frozen=True)
class PlanResult:
    """Timestamped reference path plus the search tree that produced it."""

    waypoints: tuple[Waypoint, ...]
    nodes: tuple[tuple[float, float, float, float], ...]  # (x, y, theta, v) per tree node
    parents: tuple[int, ...]  # parent index per tree node, -1 at the root
    iterations_used: int

    @property
    def tree_nodes(self) -> tuple[tuple[float, float], ...]:
        """Planar position per tree node."""
        return tuple(n[:2] for n in self.nodes)

    def path_length(self) -> float:
        total = 0.0
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            total += math.hypot(b.state.x - a.state.x, b.state.y - a.state.y)
        return total

    def min_clearance(self, s: Scenario) -> float:
        """Smallest distance from any waypoint to any obstacle's combined radius.

        The combined radius r_o + r_r is subtracted, so a positive value means
        the whole swept disc stays clear.
        """
        best = math.inf
        for w in self.waypoints:
            for o in s.obstacles:
                d = math.hypot(w.state.x - o.x, w.state.y - o.y)
                d -= combined_radius(o, s.robot)
                if d < best:
                    best = d
        return best
