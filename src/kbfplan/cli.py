"""Scenario ingestion, seeded benchmark campaigns, perception-error
injection, and CSV/SVG artifact emission, behind an argparse front end.

Subcommands: plan, simulate, bench, inject. Exit codes: 0 success,
1 planning or control failure (no path, infeasible controller, time budget,
a followed trajectory whose true barrier went negative), 2 input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
import warnings
from dataclasses import astuple, dataclass, fields, replace
from importlib import resources

import numpy as np

from . import __version__
from .core import (Obstacle, ParseError, PlanResult, Scenario,
                   ScenarioValidationError, UncertaintyBounds, combined_radius,
                   scenario_from_dict, scenario_to_dict, validate_scenario)
from .planners import CBF_QP_BASELINE_NOTE, PLANNER_NAMES, NoPath, plan
from .sim import (BUDGET_MARGIN, DT_CTRL_DEFAULT, MAX_TICKS, FollowFailure, Trajectory,
                  follow_path, min_barrier, write_trajectory_csv)

# m^2: a true barrier below this is a safety violation, not round-off at a
# touching boundary
BARRIER_FLOOR = -1e-6


def load_scenario(path) -> Scenario:
    """Parse, default, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    return validate_scenario(scenario_from_dict(doc))


def bundled_scenario_names() -> list[str]:
    files = resources.files("kbfplan").joinpath("scenarios")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> Scenario:
    ref = resources.files("kbfplan").joinpath("scenarios", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_scenario(path)


def _resolve_scenario(token: str) -> tuple[str, Scenario]:
    """A --scenario argument is either a file path or a bundled name."""
    if token in bundled_scenario_names():
        return token, load_bundled_scenario(token)
    name = token.rsplit("/", 1)[-1]
    if name.endswith(".json"):
        name = name[:-5]
    return name, load_scenario(token)


def inject_perception_error(s: Scenario, pos_err: float, radius_err: float,
                            rng: np.random.Generator) -> Scenario:
    """Perturb the obstacle set as a perception model would mis-estimate it.

    Every center moves exactly pos_err meters in a uniformly random
    direction; every radius shifts by a uniform draw in [-radius_err,
    radius_err], clamped to stay positive (with a warning). The caller keeps
    the original scenario as ground truth. Raises ValueError unless both
    magnitudes are finite and >= 0.
    """
    if not (0.0 <= pos_err < math.inf and 0.0 <= radius_err < math.inf):
        raise ValueError("perception error magnitudes must be finite and >= 0")
    perturbed = []
    for o in s.obstacles:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        dr = rng.uniform(-radius_err, radius_err)
        r = o.r + dr
        if r <= 0.0:
            warnings.warn(f"perturbed radius of obstacle at ({o.x}, {o.y}) clamped "
                          f"from {r:.3f} to 0.01")
            r = 0.01
        perturbed.append(Obstacle(o.x + pos_err * math.cos(phi),
                                  o.y + pos_err * math.sin(phi), r))
    return replace(s, obstacles=tuple(perturbed))


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    planner: str
    scenario: str
    runs: int
    successes: int
    mean_s: float
    median_s: float
    std_s: float
    mean_len_m: float
    mean_clearance_m: float


BENCH_CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    fingerprint: str


def _bench_row(planner_name: str, name: str, scenario: Scenario, seeds: range,
               bounds: UncertaintyBounds) -> BenchRow:
    """Plan once per seed, timing the planning call only; the statistics are
    over the successful runs, and failures only show up in the success count."""
    times, lengths, clearances = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tick = time.perf_counter()
        try:
            result = plan(planner_name, scenario, rng, bounds=bounds)
        except NoPath:
            continue
        times.append(time.perf_counter() - tick)
        lengths.append(result.path_length())
        clearances.append(result.min_clearance(scenario))
    if not times:
        return BenchRow(planner_name, name, len(seeds), 0, *[math.nan] * 5)
    return BenchRow(planner_name, name, len(seeds), len(times), statistics.fmean(times),
                    statistics.median(times),
                    statistics.stdev(times) if len(times) > 1 else 0.0,
                    statistics.fmean(lengths), statistics.fmean(clearances))


def run_bench(scenarios, planners, runs: int, seed_base: int = 0,
              bounds: UncertaintyBounds = UncertaintyBounds()) -> BenchReport:
    """Run each (planner, scenario) pair `runs` times with seeds
    seed_base..seed_base+runs-1. `scenarios` is a list of (name, Scenario) pairs."""
    seeds = range(seed_base, seed_base + runs)
    rows = tuple(_bench_row(planner_name, name, scenario, seeds, bounds)
                 for planner_name in planners for name, scenario in scenarios)
    fingerprint = (f"kbfplan {__version__} | python {platform.python_version()} "
                   f"| {platform.machine()} | seed_base {seed_base}")
    return BenchReport(rows, fingerprint)


def write_bench_csv(report: BenchReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for r in report.rows:
            fh.write(",".join(map(str, astuple(r))) + "\n")


def format_bench_table(report: BenchReport) -> str:
    header = f"{'planner':<16} {'scenario':<12} {'ok':>7} {'mean s':>9} " \
             f"{'median s':>9} {'std s':>8} {'len m':>7} {'clear m':>8}"
    lines = [report.fingerprint, header, "-" * len(header)]
    for r in report.rows:
        lines.append(f"{r.planner:<16} {r.scenario:<12} {r.successes:>3}/{r.runs:<3} "
                     f"{r.mean_s:>9.3f} {r.median_s:>9.3f} {r.std_s:>8.3f} "
                     f"{r.mean_len_m:>7.2f} {r.mean_clearance_m:>8.3f}")
    if any(r.planner == "rrt-cbf-qp" for r in report.rows):
        lines.append(CBF_QP_BASELINE_NOTE)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def emit_svg(result, scenario: Scenario, path) -> None:
    """Render the workspace to an SVG file.

    Obstacles appear as two circles each (solid body, dashed inflation by the
    robot radius); tree edges are faint, the final path bold. Start and goal
    markers are a square and a diamond so the circle count stays an obstacle
    count contract.
    """
    b = scenario.bounds
    margin = 0.05 * max(b.xmax - b.xmin, b.ymax - b.ymin)
    x0, x1 = b.xmin - margin, b.xmax + margin
    y0, y1 = b.ymin - margin, b.ymax + margin
    scale = 640 / max(x1 - x0, y1 - y0)  # px on the longer side
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return height - (y - y0) * scale  # flip so +y points up

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect x="{sx(b.xmin):.2f}" y="{sy(b.ymax):.2f}" '
        f'width="{(b.xmax - b.xmin) * scale:.2f}" height="{(b.ymax - b.ymin) * scale:.2f}" '
        f'fill="white" stroke="black" stroke-width="1.5"/>',
    ]
    for o in scenario.obstacles:
        parts.append(f'<circle cx="{sx(o.x):.2f}" cy="{sy(o.y):.2f}" '
                     f'r="{o.r * scale:.2f}" fill="#d66" stroke="#922" stroke-width="1"/>')
        parts.append(f'<circle cx="{sx(o.x):.2f}" cy="{sy(o.y):.2f}" '
                     f'r="{combined_radius(o, scenario.robot) * scale:.2f}" fill="none" '
                     f'stroke="#922" stroke-width="1" stroke-dasharray="4 3"/>')

    if isinstance(result, PlanResult):
        if len(result.nodes) > 1:
            d = []
            nodes = result.nodes
            for parent, (cx, cy, _, _) in zip(result.parents[1:], nodes[1:]):
                px, py = nodes[parent][:2]
                d.append(f"M{sx(px):.1f} {sy(py):.1f}L{sx(cx):.1f} {sy(cy):.1f}")
            parts.append(f'<path d="{"".join(d)}" fill="none" stroke="#ccc" '
                         f'stroke-width="0.6"/>')
        points = [(w.state.x, w.state.y) for w in result.waypoints]
    elif isinstance(result, Trajectory):
        points = [(smp.state.x, smp.state.y) for smp in result.samples]
    else:
        raise TypeError(f"cannot render {type(result).__name__}")

    if points:
        poly = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in points)
        parts.append(f'<polyline points="{poly}" fill="none" stroke="#06c" '
                     f'stroke-width="2.5"/>')

    s_sz = 0.12 * scale
    parts.append(f'<rect x="{sx(scenario.start.x) - s_sz:.2f}" '
                 f'y="{sy(scenario.start.y) - s_sz:.2f}" width="{2 * s_sz:.2f}" '
                 f'height="{2 * s_sz:.2f}" fill="#070"/>')
    gx, gy = sx(scenario.goal.x), sy(scenario.goal.y)
    parts.append(f'<polygon points="{gx:.2f},{gy - s_sz:.2f} {gx + s_sz:.2f},{gy:.2f} '
                 f'{gx:.2f},{gy + s_sz:.2f} {gx - s_sz:.2f},{gy:.2f}" fill="#a0a"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

def _plan_to_json(result: PlanResult, planner_name: str, seed: int, wall_time: float) -> dict:
    return {
        "planner": planner_name,
        "seed": seed,
        "iterations_used": result.iterations_used,
        "wall_time": wall_time,
        "tree_size": len(result.nodes),
        "waypoints": [
            {"t": w.t, "x": w.state.x, "y": w.state.y, "theta": w.state.theta,
             "v": w.state.v,
             "c": None if w.control is None else w.control.c,
             "a": None if w.control is None else w.control.a}
            for w in result.waypoints
        ],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbfplan",
        description="Safety-critical kinodynamic planning and path-following toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled name "
                            f"({', '.join(bundled_scenario_names() or ['none bundled'])})")
        p.add_argument("--planner", default="rrt-kbf", choices=PLANNER_NAMES)
        p.add_argument("--delta1", type=float, default=0.0,
                       help="additive uncertainty bound for robust-rrt-kbf")
        p.add_argument("--delta2", type=float, default=0.0,
                       help="multiplicative uncertainty bound in [0, 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: scenario's planner.seed)")

    p_plan = sub.add_parser("plan", help="run a planner and write the result")
    common(p_plan)
    p_plan.add_argument("--out", help="write the plan as JSON here")
    p_plan.add_argument("--svg", help="render workspace, tree and path here")

    p_sim = sub.add_parser("simulate", help="plan, then follow the plan closed-loop")
    common(p_sim)
    p_sim.add_argument("--dt-ctrl", type=float, default=DT_CTRL_DEFAULT,
                       help="controller period in seconds")
    p_sim.add_argument("--pos-err", type=float, default=0.0,
                       help="perceived-obstacle position error in meters")
    p_sim.add_argument("--radius-err", type=float, default=0.0,
                       help="perceived-obstacle radius error in meters")
    p_sim.add_argument("--out", help="write the trajectory CSV here")
    p_sim.add_argument("--svg", help="render the followed trajectory here")

    p_bench = sub.add_parser("bench", help="seeded benchmark campaign over planners")
    p_bench.add_argument("--scenario", action="append", default=None,
                         help="scenario path or bundled name; repeatable "
                              "(default: all bundled)")
    p_bench.add_argument("--planner", action="append", default=None,
                         choices=PLANNER_NAMES,
                         help="planner to benchmark; repeatable "
                              "(default: rrt, rrt-kbf, rrt-cbf-qp)")
    p_bench.add_argument("--runs", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--delta1", type=float, default=0.0)
    p_bench.add_argument("--delta2", type=float, default=0.0)
    p_bench.add_argument("--out", help="write the report CSV here")

    p_inj = sub.add_parser("inject", help="write a perception-perturbed scenario")
    p_inj.add_argument("--scenario", required=True)
    p_inj.add_argument("--seed", type=int, default=0)
    p_inj.add_argument("--pos-err", type=float, default=0.5)
    p_inj.add_argument("--radius-err", type=float, default=0.25)
    p_inj.add_argument("--out", required=True)
    return parser


def _planned(args, name: str, scenario: Scenario, pos_err=0.0, radius_err=0.0):
    """(seed, perceived scenario, plan, the plan call's wall time in s) of --planner
    from --seed (default: the scenario's), the obstacles first mis-perceived by
    draws from its rng when an error is given. A NoPath is reported, then raised."""
    seed = args.seed if args.seed is not None else scenario.planner.seed
    rng = np.random.default_rng(seed)
    perceived = scenario
    if pos_err != 0.0 or radius_err != 0.0:
        perceived = inject_perception_error(scenario, pos_err, radius_err, rng)
    bounds = UncertaintyBounds(args.delta1, args.delta2)
    started = time.perf_counter()
    try:
        result = plan(args.planner, perceived, rng, bounds=bounds)
    except NoPath as exc:
        print(f"{args.planner} on {name}: no path ({exc})", file=sys.stderr)
        raise
    return seed, perceived, result, time.perf_counter() - started


def _cmd_plan(args) -> int:
    name, scenario = _resolve_scenario(args.scenario)
    seed, _, result, wall_time = _planned(args, name, scenario)
    print(f"{args.planner} on {name}: reached goal in {result.iterations_used} "
          f"iterations, {len(result.waypoints)} waypoints, "
          f"{result.path_length():.2f} m, {wall_time:.3f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_plan_to_json(result, args.planner, seed, wall_time), fh, indent=1)
        print(f"wrote {args.out}")
    if args.svg:
        emit_svg(result, scenario, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_simulate(args) -> int:
    name, scenario = _resolve_scenario(args.scenario)
    if not BUDGET_MARGIN / MAX_TICKS <= args.dt_ctrl < math.inf:  # checked before planning
        raise ValueError(f"--dt-ctrl must be finite and at least BUDGET_MARGIN / MAX_TICKS = "
                         f"{BUDGET_MARGIN / MAX_TICKS:g} s, got {args.dt_ctrl:g}")
    _, perceived, result, _ = _planned(args, name, scenario, args.pos_err, args.radius_err)
    try:
        traj, failed = follow_path(result, scenario, dt_ctrl=args.dt_ctrl,
                                   perceived_obstacles=perceived.obstacles), False
    except FollowFailure as exc:  # reported like a finished follow, on its partial run
        print(f"follower failed on {name}: {exc}", file=sys.stderr)
        traj, failed = exc.trajectory, True
    worst = min_barrier(traj)
    lowest = worst[0] if worst is not None else math.inf
    print(f"{args.planner} on {name}: followed "
          f"{traj.samples[-1].t if traj.samples else 0.0:.2f} s, "
          f"{len(traj.samples)} ticks, min barrier {lowest:.4f}")
    if args.out:
        write_trajectory_csv(traj, args.out)
        print(f"wrote {args.out}")
    if args.svg:
        emit_svg(traj, scenario, args.svg)
        print(f"wrote {args.svg}")
    if not lowest >= BARRIER_FLOOR:
        print(f"follower entered obstacles[{worst[2]}] on {name}: true barrier "
              f"{lowest:.4f} at t={worst[1]:.2f} s", file=sys.stderr)
        return 1
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    names = args.scenario or bundled_scenario_names()
    scenarios = [_resolve_scenario(tok) for tok in names]
    planners = args.planner or ["rrt", "rrt-kbf", "rrt-cbf-qp"]
    bounds = UncertaintyBounds(args.delta1, args.delta2)
    report = run_bench(scenarios, planners, args.runs, seed_base=args.seed,
                       bounds=bounds)
    print(format_bench_table(report))
    if args.out:
        write_bench_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_inject(args) -> int:
    name, scenario = _resolve_scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    perturbed = inject_perception_error(scenario, args.pos_err, args.radius_err, rng)
    try:
        validate_scenario(perturbed)
    except ScenarioValidationError as exc:
        print(f"warning: perturbed scenario is invalid: {exc}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(perturbed), fh, indent=1)
    print(f"wrote {args.out} (pos_err={args.pos_err}, radius_err={args.radius_err}, "
          f"seed={args.seed})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"plan": _cmd_plan, "simulate": _cmd_simulate,
                "bench": _cmd_bench, "inject": _cmd_inject}
    try:
        return handlers[args.command](args)
    except NoPath:  # reported by _planned, which knows the scenario's name
        return 1
    except (ValueError, OSError) as exc:  # input errors: bad values, unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _script()
