"""Safety-critical kinodynamic motion planning with barrier-gated tree search
and a safety-filtered tracking controller, plus a seeded benchmark harness."""

__version__ = "0.1.0"

from .core import (Bounds, CbfParams, ClfParams, Control, Obstacle, ParseError,
                   PlannerConfig, PlanResult, RobotParams, Scenario,
                   ScenarioValidationError, State, UncertaintyBounds, Violation,
                   Waypoint, combined_radius, scenario_from_dict,
                   scenario_to_dict, validate_scenario, wrap_angle)
from .dynamics import integrate_step, io_linearize, tracking_error
from .qp import ActiveSetQp, QpProblem, QpSolution, QpStatus
from .control import (InfeasibleSafety, NotHurwitz, clf_cbf_qp_control, clf_terms,
                      pd_control, safety_qp, solve_lyapunov)
from .safety import barrier_value, kbf_check, robust_worst_value
from .planners import (NoPath, PLANNER_NAMES, Tree, plan, plan_robust_rrt_kbf,
                       plan_rrt, plan_rrt_cbf_qp, plan_rrt_kbf,
                       point_segment_distance, segment_collision)
from .sim import (ControllerInfeasible, FollowFailure, TimeBudgetExceeded, Trajectory,
                  TrajectorySample, follow_path, min_barrier,
                  write_trajectory_csv)
from .cli import (BenchReport, BenchRow, emit_svg, inject_perception_error,
                  load_scenario, run_bench)
