"""Benchmark of kbfplan's planners and its plan-then-follow mission.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kbf-plan --seed 1 --seconds 55 --trace 0

One closed-loop client runs queries back to back in this process: the next
query starts when the previous one returns. Each query is a planning call
(plus `follow_path` on the `mission` workload) through kbfplan's public API,
on one of the four bundled scenarios with a planner seed derived from
`--seed`. Every output is checked; a failed check or a planner/follower
failure counts as a failed query.

With `--trace 0` the run builds a fixed list of the workload's queries from
`--seed` and runs it in passes until `--seconds` have passed (at least one
whole pass). A fixed speed probe (speed.py) runs between queries, and each
query's wall time is scaled to the probe's reference speed, so that the
shared host's drifting speed does not show as a change of the program. It
reports the end-to-end metrics over the distinct queries. With `--trace 1`
it replays the first TRACE_QUERIES queries in alternating untraced and
traced passes, the traced ones with timing wrappers swapped into kbfplan's
module names (see tracer.py), and reports the per-layer metrics.

The second-to-last stdout line is an info object (machine fingerprint, work
digest, query counts); the last line is the result object. See NOTES.md for
the metrics and the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import speed
import tracer

perf_counter = time.perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = ("scenario1", "scenario2", "scenario3", "scenario4")
ROBUST_BOUNDS = (0.3, 0.3)   # (delta1_max, delta2_max) for robust-rrt-kbf
TRACE_QUERIES = 40           # digest prefix, replayed by the traced run
SETUP_REPS = 11
BARRIER_FLOOR = -1e-6        # follower's true barrier may not dip below this

# planners per workload; with two, they alternate per round of four scenarios
WORKLOADS = {
    "kbf-plan": ("rrt-kbf", "robust-rrt-kbf"),
    "cbfqp-plan": ("rrt-cbf-qp",),
    "mission": ("rrt-kbf",),
}
FOLLOW = {"mission"}
# distinct queries in an untraced run: a pass takes about 3/4 of a 55 s run
QUERIES = {"kbf-plan": 600, "cbfqp-plan": 100, "mission": 400}

END_TO_END = {
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "queries_per_s": "1/s",
    "success_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "planners.iterations": "count/query",
    "planners.edges_per_iter": "ratio",
    "planners.nodes_max": "count",
    "planners.path_len_m_mean": "m",
    "planners.us_per_iter": "us",
    "planners.self_us_per_iter": "us",
    "planners.plan_ms_p50": "ms",
    "planners.rng.calls": "count/query",
    "planners.rng.us": "us",
    "planners.tree_add.calls": "count/query",
    "planners.tree_add.us": "us",
    "planners.tree_nearest.calls": "count/query",
    "planners.tree_nearest.us": "us",
    "safety.gate_pass_ratio": "ratio",
    "safety.oob_drops": "count/query",
    "safety.barrier_value.calls": "count/query",
    "safety.barrier_value.us": "us",
    "dynamics.integrate_step.calls": "count/query",
    "dynamics.integrate_step.us": "us",
    "dynamics.io_linearize.calls": "count/query",
    "dynamics.io_linearize.us": "us",
    "dynamics.saturated_ticks": "count/query",
    "control.clf_cbf_qp.calls": "count/query",
    "control.clf_cbf_qp.self_us": "us",
    "control.qp_build.us": "us",
    "control.infeasible": "count/query",
    "control.solve_lyapunov.us": "us",
    "qp.solve.calls": "count/query",
    "qp.solve.us": "us",
    "qp.active_set_changes": "count/query",
    "qp.rows_mean": "count",
    "sim.ticks": "count/query",
    "sim.us_per_tick": "us",
    "sim.self_us_per_tick": "us",
    "sim.follow_ms_p50": "ms",
    "sim.slack_ticks": "count/query",
    "sim.min_true_barrier": "m2",
    "core.load_scenario.us": "us",
    "trace.overhead_x": "ratio",
    "paper.cost_ratio": "ratio",
}


@dataclass(frozen=True)
class Query:
    k: int         # position in the workload's query stream
    scenario: int  # index into SCENARIOS
    planner: str
    seed: int      # planner seed


@dataclass
class Outcome:
    query: Query
    plan_s: float
    follow_s: float
    query_s: float
    error: str | None    # NoPath, ControllerInfeasible or TimeBudgetExceeded
    problem: str | None  # first failed output check
    iterations: int = 0
    nodes: int = 0
    path_len: float = 0.0
    gate_passes: int | None = None  # accepted gate verdicts (traced kbf plans)
    ticks: int = 0
    saturated: int = 0
    slack_ticks: int = 0
    min_barrier: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.problem is None

    def record(self) -> list:
        """The deterministic facts the work digest covers."""
        q = self.query
        return [q.k, q.scenario, q.planner, q.seed, self.error or self.problem or "ok",
                self.iterations, self.nodes, self.path_len, self.ticks]


def make_query(workload: str, seed: int, k: int) -> Query:
    planners = WORKLOADS[workload]
    planner_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    return Query(k, k % len(SCENARIOS), planners[(k // len(SCENARIOS)) % len(planners)],
                 planner_seed)


def digest(outcomes) -> str:
    text = json.dumps([o.record() for o in outcomes], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(reps: int = SETUP_REPS):
    """Import kbfplan from ./src and load the bundled scenarios, reps times.

    Returns (kbf namespace, median set-up seconds scaled to the probe's
    reference speed, median wall microseconds per scenario load). Each
    repetition drops kbfplan from sys.modules first, so it pays the package
    import again; numpy and the standard library stay loaded after the
    first. The garbage the dropped modules leave is collected before the
    clock starts, so one repetition does not pay for the last.
    """
    if not (SRC / "kbfplan" / "__init__.py").is_file():
        raise SystemExit(f"kbfplan sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setups, loads = [], []
    speed.probe()  # warm-up
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "kbfplan" or m.startswith("kbfplan.")]:
            del sys.modules[name]
        gc.collect()
        before = speed.timed_probe()
        t0 = perf_counter()
        pkg = importlib.import_module("kbfplan")
        t1 = perf_counter()
        scenarios = [pkg.cli.load_bundled_scenario(name) for name in SCENARIOS]
        t2 = perf_counter()
        setups.append((t2 - t0) * speed.scale(before, speed.timed_probe()))
        loads.append((t2 - t1) / len(SCENARIOS) * 1e6)
    if Path(pkg.__file__).resolve().parent != SRC / "kbfplan":
        raise SystemExit(f"imported kbfplan from {pkg.__file__}, not from {SRC}")
    kbf = SimpleNamespace(
        planners=pkg.planners, sim=pkg.sim, control=pkg.control, qp=pkg.qp,
        safety=pkg.safety, dynamics=pkg.dynamics, core=pkg.core,
        scenarios=scenarios, bounds=pkg.UncertaintyBounds(*ROBUST_BOUNDS),
        failures=(pkg.planners.NoPath, pkg.sim.ControllerInfeasible,
                  pkg.sim.TimeBudgetExceeded))
    return kbf, statistics.median(setups), statistics.median(loads)


# ---------------------------------------------------------------------------
# one query
# ---------------------------------------------------------------------------

def execute(kbf, workload: str, q: Query, tr: tracer.Tracer | None = None) -> Outcome:
    """Run one query, time it, then check its outputs outside the timing."""
    s = kbf.scenarios[q.scenario]
    rng = np.random.default_rng(q.seed)
    gate = None
    follow_call = kbf.sim.follow_path
    if tr is None:
        plan_call = functools.partial(kbf.planners.plan, q.planner, s, rng, kbf.bounds)
    else:
        # the same planner functions plan() dispatches to, with the gate trace on
        rng = tracer.TimedRng(rng, tr)
        if q.planner == "rrt-kbf":
            gate = []
            plan_call = functools.partial(kbf.planners.plan_rrt_kbf, s, rng, trace=gate)
        elif q.planner == "robust-rrt-kbf":
            gate = []
            plan_call = functools.partial(kbf.planners.plan_robust_rrt_kbf, s,
                                          kbf.bounds, rng, trace=gate)
        else:
            plan_call = functools.partial(kbf.planners.plan, q.planner, s, rng)
        plan_call = tr.wrap("planners.plan", plan_call)
        follow_call = tr.wrap("sim.follow_path", follow_call)

    plan = traj = failure = None
    t0 = perf_counter()
    t1 = None
    try:
        plan = plan_call()
        t1 = perf_counter()
        if workload in FOLLOW:
            traj = follow_call(plan, s)
    except kbf.failures as exc:
        failure = exc
    t2 = perf_counter()
    if t1 is None:
        t1 = t2

    out = Outcome(q, t1 - t0, t2 - t1, t2 - t0,
                  type(failure).__name__ if failure is not None else None, None)
    if plan is not None:
        out.iterations = plan.iterations_used
        out.nodes = len(plan.tree_nodes)
        out.path_len = plan.path_length()
    elif isinstance(failure, kbf.planners.NoPath):
        out.iterations = failure.iterations
    if gate is not None:
        out.gate_passes = sum(1 for entry in gate if entry[3])
    if traj is None and failure is not None and hasattr(failure, "trajectory"):
        traj = failure.trajectory
    if traj is not None:
        _trajectory_stats(kbf, out, traj, s)
    if failure is None:
        out.problem = check(kbf, q, s, plan, traj)
    return out


def _trajectory_stats(kbf, out: Outcome, traj, s) -> None:
    ticks = traj.samples[:-1] if out.error is None else traj.samples  # last: goal sample
    c_max, a_max = s.robot.c_max, s.robot.a_max
    out.ticks = len(ticks)
    out.saturated = sum(1 for smp in ticks
                        if abs(smp.control.c) == c_max or abs(smp.control.a) == a_max)
    out.slack_ticks = sum(1 for smp in ticks if smp.d > 0.0)
    worst = kbf.sim.min_barrier(traj)
    out.min_barrier = worst[0] if worst is not None else None


def check(kbf, q: Query, s, plan, traj) -> str | None:
    """First failed output check, or None. Comparisons fail closed on NaN."""
    safety = kbf.safety
    wps = plan.waypoints
    tol2 = s.planner.goal_tolerance ** 2
    if wps[0].state != s.start:
        return "path does not start at the scenario start"
    end = wps[-1].state
    if not (end.x - s.goal.x) ** 2 + (end.y - s.goal.y) ** 2 <= tol2:
        return "path ends outside the goal region"
    obstacles = [(o, kbf.core.combined_radius(o, s.robot)) for o in s.obstacles]
    if q.planner == "rrt-cbf-qp":
        for w in wps:
            if not all(safety.barrier_value(w.state, o, r) >= 0.0 for o, r in obstacles):
                return "waypoint inside an obstacle"
    else:
        robust = q.planner == "robust-rrt-kbf"
        for a, b in zip(wps, wps[1:]):
            if kbf.dynamics.integrate_step(a.state, a.control, s.planner.dt, s.robot) != b.state:
                return "held-control edge does not replay to the next waypoint"
            for o, r in obstacles:
                if robust:
                    ok = safety.robust_worst_value(a.state, a.control, o, r, s.cbf,
                                                   kbf.bounds) >= 0.0
                else:
                    ok = safety.kbf_check(a.state, a.control, o, r, s.cbf)
                if not ok:
                    return "edge fails the barrier gate"
    if traj is not None:
        worst = kbf.sim.min_barrier(traj)
        if worst is not None and not worst[0] >= BARRIER_FLOOR:
            return "follower entered an obstacle"
        last = traj.samples[-1].state
        if not (last.x - s.goal.x) ** 2 + (last.y - s.goal.y) ** 2 <= tol2:
            return "follower ended outside the goal region"
    return None


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class Measured:
    """An untraced run over a fixed list of distinct queries."""
    outcomes: list        # first execution of each query, in query order
    scaled_s: list        # per query: mean wall seconds at the probe's reference speed
    wall_s: list          # per query: mean wall seconds as measured
    executions: int
    consistent: bool      # every repeat gave the same record as the first execution
    probe_ms_p50: float   # median wall time of the speed probe
    digest: str


def measure(kbf, workload: str, seed: int, seconds: float, n_queries: int,
            digest_queries: int = TRACE_QUERIES) -> Measured:
    """Untraced run: passes over n_queries fixed queries until `seconds` have passed.

    The first pass always completes, so every query runs at least once. The
    speed probe runs before the first query and after every query; a query's
    wall time is scaled by the probe's reference time over the mean of the
    two probes around it.
    """
    queries = [make_query(workload, seed, k) for k in range(n_queries)]
    execute(kbf, workload, queries[0])  # warm-up, not counted
    speed.probe()
    outcomes = [None] * n_queries
    scaled = [[] for _ in queries]
    wall = [[] for _ in queries]
    probes = [speed.timed_probe()]
    consistent = True
    start = perf_counter()
    while True:
        for i, q in enumerate(queries):
            out = execute(kbf, workload, q)
            probes.append(speed.timed_probe())
            wall[i].append(out.query_s)
            scaled[i].append(out.query_s * speed.scale(probes[-2], probes[-1]))
            if outcomes[i] is None:
                outcomes[i] = out
            elif out.record() != outcomes[i].record():
                consistent = False
            if outcomes[-1] is not None and perf_counter() - start >= seconds:
                return Measured(outcomes, [statistics.fmean(x) for x in scaled],
                                [statistics.fmean(x) for x in wall],
                                sum(len(x) for x in wall), consistent,
                                statistics.median(probes) * 1e3,
                                digest(outcomes[:digest_queries]))


def end_to_end_metrics(m: Measured, setup_s: float) -> dict:
    times = m.scaled_s
    ok = sum(1 for o in m.outcomes if o.ok)
    return {
        "query_ms_p50": statistics.median(times) * 1e3,
        "query_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
        "queries_per_s": ok / sum(times),
        "success_share": ok / len(m.outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def cost_ratio(kbf, queries) -> float:
    """Mean rrt-cbf-qp over mean rrt-kbf plan time on the same scenarios and seeds."""
    spent = {"rrt-kbf": 0.0, "rrt-cbf-qp": 0.0}
    for q in queries:
        for planner in spent:
            t0 = perf_counter()
            try:
                kbf.planners.plan(planner, kbf.scenarios[q.scenario],
                                  np.random.default_rng(q.seed))
            except kbf.planners.NoPath:
                pass
            spent[planner] += perf_counter() - t0
    return _ratio(spent["rrt-cbf-qp"], spent["rrt-kbf"])


def traced_run(kbf, workload: str, seed: int, seconds: float,
               n_queries: int = TRACE_QUERIES):
    """Alternate untraced and traced passes over the first n_queries queries.

    The cost ratio is timed first, on the same queries. Passes repeat until
    `seconds` have passed (at least one pair). Every pass must produce the
    same digest. Returns (untraced outcomes, traced outcomes, tracer, digests
    of all passes, cost ratio).
    """
    queries = [make_query(workload, seed, k) for k in range(n_queries)]
    execute(kbf, workload, queries[0])  # warm-up, not counted
    start = perf_counter()
    ratio = cost_ratio(kbf, queries)
    tr = tracer.Tracer()
    untraced, traced, digests = [], [], []
    while True:
        plain = [execute(kbf, workload, q) for q in queries]
        with tr.installed(kbf):
            timed = [execute(kbf, workload, q, tr) for q in queries]
        untraced += plain
        traced += timed
        digests += [digest(plain), digest(timed)]
        if perf_counter() - start >= seconds:
            return untraced, traced, tr, digests, ratio


def layer_metrics(untraced, traced, tr: tracer.Tracer, load_us: float,
                  ratio: float) -> dict:
    n = len(traced)
    iters = sum(o.iterations for o in traced)
    edges = sum(max(o.nodes - 1, 0) for o in traced)
    gated = [o for o in traced if o.gate_passes is not None]
    paths = [o.path_len for o in traced if o.ok]
    ticks = sum(o.ticks for o in traced)
    barriers = [o.min_barrier for o in traced if o.min_barrier is not None]
    followed = [o for o in untraced if o.ticks]

    def calls(name):
        return tr.calls[name] / n

    def us(name, table=tr.total):
        return _ratio(table[name], tr.calls[name]) * 1e6

    m = {
        "planners.iterations": iters / n,
        "planners.edges_per_iter": _ratio(edges, iters),
        "planners.nodes_max": max(o.nodes for o in traced),
        "planners.path_len_m_mean": statistics.fmean(paths) if paths else 0.0,
        "planners.us_per_iter": _ratio(sum(o.plan_s for o in untraced),
                                       sum(o.iterations for o in untraced)) * 1e6,
        "planners.self_us_per_iter": _ratio(tr.self_time["planners.plan"], iters) * 1e6,
        "planners.plan_ms_p50": statistics.median(o.plan_s for o in untraced) * 1e3,
        "safety.gate_pass_ratio": _ratio(sum(o.gate_passes for o in gated),
                                         sum(o.iterations for o in gated)),
        "safety.oob_drops": sum(o.gate_passes - max(o.nodes - 1, 0) for o in gated) / n,
        "dynamics.saturated_ticks": sum(o.saturated for o in traced) / n,
        "control.clf_cbf_qp.calls": calls("control.clf_cbf_qp"),
        "control.clf_cbf_qp.self_us": us("control.clf_cbf_qp", tr.self_time),
        "control.qp_build.us": us("control.qp_build"),
        "control.infeasible": tr.errors["control.clf_cbf_qp"] / n,
        "control.solve_lyapunov.us": us("control.solve_lyapunov"),
        "qp.active_set_changes": tr.qp_changes / n,
        "qp.rows_mean": _ratio(tr.qp_rows, tr.calls["qp.solve"]),
        "sim.ticks": ticks / n,
        "sim.us_per_tick": _ratio(sum(o.follow_s for o in followed),
                                  sum(o.ticks for o in followed)) * 1e6,
        "sim.self_us_per_tick": _ratio(tr.self_time["sim.follow_path"], ticks) * 1e6,
        "sim.follow_ms_p50": (statistics.median(o.follow_s for o in followed) * 1e3
                              if followed else 0.0),
        "sim.slack_ticks": sum(o.slack_ticks for o in traced) / n,
        "sim.min_true_barrier": min(barriers) if barriers else 0.0,
        "core.load_scenario.us": load_us,
        "trace.overhead_x": _ratio(sum(o.query_s for o in traced),
                                   sum(o.query_s for o in untraced)),
        "paper.cost_ratio": ratio,
    }
    for name in ("planners.rng", "planners.tree_add", "planners.tree_nearest",
                 "safety.barrier_value", "dynamics.integrate_step",
                 "dynamics.io_linearize", "qp.solve"):
        m[name + ".calls"] = calls(name)
        m[name + ".us"] = us(name)
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def fingerprint() -> dict:
    """Read-only facts about the machine, so a noisy run can be spotted."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_start": list(os.getloadavg())}


def run(workload: str, seed: int, seconds: float, trace: bool,
        n_queries: int | None = None, trace_queries: int = TRACE_QUERIES
        ) -> tuple[dict, dict]:
    """One benchmark run. Returns (info, result) as printed by main().

    n_queries (distinct queries of an untraced run) defaults to the
    workload's entry in QUERIES and trace_queries to TRACE_QUERIES; tests
    pass small ones. `attempted` and `failed` count distinct queries, so they
    depend only on the seed.
    """
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": fingerprint()}
    kbf, setup_s, load_us = set_up()
    if trace:
        untraced, traced, tr, digests, ratio = traced_run(kbf, workload, seed, seconds,
                                                          trace_queries)
        distinct = untraced[:trace_queries]
        executed = untraced + traced
        consistent = len(set(digests)) == 1
        metrics = layer_metrics(untraced, traced, tr, load_us, ratio)
        info.update(digest=digests[0], digest_consistent=consistent, passes=len(digests))
        units = PER_LAYER
    else:
        m = measure(kbf, workload, seed, seconds,
                    n_queries if n_queries is not None else QUERIES[workload], trace_queries)
        distinct = executed = m.outcomes
        consistent = m.consistent
        metrics = end_to_end_metrics(m, setup_s)
        info.update(digest=m.digest, repeats_consistent=consistent,
                    executions=m.executions, probe_ms_p50=m.probe_ms_p50,
                    wall_query_ms_p50=statistics.median(m.wall_s) * 1e3,
                    wall_queries_per_s=len(m.wall_s) / sum(m.wall_s))
        units = END_TO_END
    failed = [o for o in distinct if not o.ok]
    info.update(digest_queries=trace_queries, queries=len(distinct),
                failed_queries=[[o.query.k, SCENARIOS[o.query.scenario], o.query.planner,
                                 o.query.seed, o.error or o.problem] for o in failed[:10]])
    info["machine"]["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": consistent and not any(o.problem for o in executed),
        "attempted": len(distinct),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
