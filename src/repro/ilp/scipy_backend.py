"""Adapter for ``scipy.optimize.milp`` (HiGHS branch and cut).

Used as an independent oracle in the test suite: every design ILP solved by
our branch and bound is re-solved here and the objectives must agree. It can
also be selected as the production backend (``model.solve(backend="scipy")``)
when raw speed matters more than introspection.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStats, Status, relative_gap
from repro.obs import get_metrics, now, span


def solve_with_scipy(model: Model, time_limit: float | None = None) -> Solution:
    """Solve ``model`` exactly with HiGHS via scipy.

    Statuses map as: 0 -> OPTIMAL, 2 -> INFEASIBLE, 3 -> UNBOUNDED,
    1/4 (iteration or time interrupt) -> NODE_LIMIT.
    """
    form = model.to_matrix_form()
    constraints = []
    if form.a_ub.size:
        constraints.append(LinearConstraint(form.a_ub, -np.inf, form.b_ub))
    if form.a_eq.size:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    start = now()
    with span("bnb_search", backend="scipy"):
        res = milp(
            c=form.c,
            constraints=constraints,
            integrality=form.integer_mask.astype(int),
            bounds=Bounds(form.lb, form.ub),
            options=options,
        )

    sign = 1.0 if model.sense == "min" else -1.0
    stats = SolveStats(
        nodes=int(getattr(res, "mip_node_count", 0) or 0),
        wall_time=now() - start,
    )
    metrics = get_metrics()
    metrics.counter("solve.nodes").inc(stats.nodes)
    metrics.histogram("solve.wall_time").observe(stats.wall_time)
    if res.x is not None:
        dual_bound = getattr(res, "mip_dual_bound", None)
        if dual_bound is not None and np.isfinite(dual_bound):
            stats.best_bound = sign * (float(dual_bound) + form.c0)
            stats.gap = relative_gap(float(res.fun) + form.c0, float(dual_bound) + form.c0)
    if res.status == 0:
        values = {var: float(res.x[var.index]) for var in model.variables}
        objective = sign * (float(res.fun) + form.c0)
        return Solution(Status.OPTIMAL, objective, values, stats, backend="scipy")
    if res.status == 2:
        return Solution(Status.INFEASIBLE, stats=stats, backend="scipy")
    if res.status == 3:
        return Solution(Status.UNBOUNDED, stats=stats, backend="scipy")
    if res.status == 4 and "unbounded or infeasible" in (res.message or ""):
        # HiGHS presolve could not tell the two apart; the LP relaxation can.
        from repro.ilp.lp import solve_matrix_lp

        relaxed = solve_matrix_lp(form)
        if relaxed.status == "unbounded":
            return Solution(Status.UNBOUNDED, stats=stats, backend="scipy")
        if relaxed.status == "infeasible":
            return Solution(Status.INFEASIBLE, stats=stats, backend="scipy")
    if res.x is not None:
        values = {var: float(res.x[var.index]) for var in model.variables}
        objective = sign * (float(res.fun) + form.c0)
        return Solution(Status.FEASIBLE, objective, values, stats, backend="scipy")
    return Solution(Status.NODE_LIMIT, stats=stats, backend="scipy")
