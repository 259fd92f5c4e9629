"""Timing spans around kbfplan's layer boundaries, installed from outside.

The planners and the follower look up their collaborators (integrate_step,
the QP controller, the barrier monitor, ...) as module globals at call time,
and Tree / ActiveSetQp methods through their classes. Swapping those names
for timing wrappers therefore traces every call without touching the
package. `Tracer.installed` swaps them in and always puts the originals back.

A span's self time is its duration minus the durations of the wrapped spans
that ran inside it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

perf_counter = time.perf_counter


def wrap_points(kbf) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every name the traced run swaps."""
    planners, sim = kbf.planners, kbf.sim
    points = []
    for mod in (planners, sim):
        points += [(mod, "integrate_step", "dynamics.integrate_step"),
                   (mod, "io_linearize", "dynamics.io_linearize"),
                   (mod, "clf_cbf_qp_control", "control.clf_cbf_qp"),
                   (mod, "barrier_value", "safety.barrier_value"),
                   (mod, "solve_lyapunov", "control.solve_lyapunov")]
    points += [(kbf.control, "QpProblem", "control.qp_build"),
               (kbf.qp.ActiveSetQp, "solve", "qp.solve"),
               (planners.Tree, "add", "planners.tree_add"),
               (planners.Tree, "nearest", "planners.tree_nearest")]
    return points


class Tracer:
    """Per-span call counts, inclusive time, self time and raised errors."""

    def __init__(self):
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.qp_rows = 0
        self.qp_changes = 0
        self._child = []  # time covered by wrapped children, one per open span

    def wrap(self, name: str, fn, observe=None):
        """A function that calls fn inside a span called name.

        observe(args, result), when given, sees every successful call.
        """
        calls, total, self_time, errors, child = (
            self.calls, self.total, self.self_time, self.errors, self._child)

        def timed(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - inner
                if child:
                    child[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return timed

    def _observe_qp(self, args, sol) -> None:
        self.qp_rows += args[1].A_ineq.shape[0]
        self.qp_changes += sol.iterations

    @contextlib.contextmanager
    def installed(self, kbf):
        """Swap every wrap point for its timed version until the block exits."""
        saved = []
        try:
            for owner, attr, name in wrap_points(kbf):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                observe = self._observe_qp if name == "qp.solve" else None
                setattr(owner, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class TimedRng:
    """Generator proxy whose scalar draws are spans named planners.rng."""

    def __init__(self, rng, tracer: Tracer):
        self.uniform = tracer.wrap("planners.rng", rng.uniform)
        self.integers = tracer.wrap("planners.rng", rng.integers)
