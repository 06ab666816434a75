"""LP relaxation solving, shared by the model front-end and branch & bound.

:func:`solve_matrix_lp` solves the relaxation of a
:class:`~repro.ilp.model.MatrixForm` *cold* with ``scipy.optimize.linprog``
(the HiGHS dual simplex). Inside branch and bound it handles the root LP
when warm starts are off, and any node whose warm re-solve bailed out.
Healthy warm re-solves never come through this module — they run on
:class:`repro.ilp.simplex.RevisedSimplex`, which reoptimizes
dual-simplex-style from the parent node's basis and returns an
:class:`LpResult` carrying that basis for the children (see DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.ilp.model import MatrixForm, Model
from repro.ilp.presolve import PropagationTables
from repro.ilp.solution import Solution, SolveStats, Status


@dataclass
class LpResult:
    """Raw relaxation outcome used by branch and bound.

    ``reduced_costs`` carries the per-column dual values (lower-bound plus
    upper-bound marginals) when the caller asked for them and the engine
    provides them; branch and bound feeds them to reduced-cost fixing.
    ``basis`` is the optimal :class:`~repro.ilp.simplex.Basis` when the
    warm engine produced this result — child nodes reoptimize from it.
    A ``"cutoff"`` status means the warm engine proved the LP bound is
    above the caller's objective cutoff without finishing the solve; the
    node prunes with no ``x``. ``"deadline"`` means the warm engine ran
    past the caller's deadline, also with no ``x``. ``"fallback"`` is the
    warm engine's answer to numerical doubt: the caller re-solves cold.
    """

    # "optimal" | "infeasible" | "unbounded" | "cutoff" | "deadline" | "fallback" | "error"
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    reduced_costs: np.ndarray | None = None
    basis: object | None = None


class LpWorkspace:
    """Precomputed ``linprog`` inputs for repeated solves of one form.

    Branch and bound solves the same constraint matrices thousands of times
    with only the variable bounds changing. The workspace fixes the
    ``A_ub``/``b_ub``/``A_eq``/``b_eq`` handles (with the empty-matrix
    normalization done once), keeps a reusable ``(n, 2)`` bounds buffer so
    no per-node Python list of bound pairs is ever built, and owns the
    :class:`~repro.ilp.presolve.PropagationTables` used by node presolve.
    """

    def __init__(self, form: MatrixForm):
        self.form = form
        self.a_ub = form.a_ub if form.a_ub.size else None
        self.b_ub = form.b_ub if form.a_ub.size else None
        self.a_eq = form.a_eq if form.a_eq.size else None
        self.b_eq = form.b_eq if form.a_eq.size else None
        self._bounds = np.empty((form.num_vars, 2))
        self.propagation = PropagationTables(form)

    def bounds_array(self, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """Fill and return the shared bounds buffer (``linprog`` copies it)."""
        self._bounds[:, 0] = lb
        self._bounds[:, 1] = ub
        return self._bounds


def solve_matrix_lp(
    form: MatrixForm,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
    workspace: LpWorkspace | None = None,
    want_reduced_costs: bool = False,
) -> LpResult:
    """Solve the LP relaxation of ``form`` with optional bound overrides.

    Branch and bound passes tightened ``lb``/``ub`` arrays per node; when
    omitted, the model's own bounds are used. Passing a :class:`LpWorkspace`
    built on the same form skips re-deriving the constraint handles on every
    call; ``want_reduced_costs`` additionally returns the column duals.
    """
    if form.num_vars == 0:
        # Nothing to optimize, and linprog rejects an empty problem.
        if not form.constant_rows_hold():
            return LpResult("infeasible", None, None)
        zeros = np.zeros(0)
        reduced_costs = zeros if want_reduced_costs else None
        return LpResult("optimal", zeros, form.c0, reduced_costs=reduced_costs)
    lb = form.lb if lb is None else lb
    ub = form.ub if ub is None else ub
    if np.any(lb > ub):
        return LpResult("infeasible", None, None)

    if workspace is not None:
        a_ub, b_ub, a_eq, b_eq = workspace.a_ub, workspace.b_ub, workspace.a_eq, workspace.b_eq
        bounds = workspace.bounds_array(lb, ub)
    else:
        a_ub = form.a_ub if form.a_ub.size else None
        b_ub = form.b_ub if form.a_ub.size else None
        a_eq = form.a_eq if form.a_eq.size else None
        b_eq = form.b_eq if form.a_eq.size else None
        bounds = np.column_stack((lb, ub))
    res = linprog(
        form.c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    iterations = int(getattr(res, "nit", 0) or 0)
    if res.status == 0:
        reduced_costs = None
        lower = getattr(res, "lower", None)
        upper = getattr(res, "upper", None)
        if want_reduced_costs and lower is not None and upper is not None:
            reduced_costs = np.asarray(lower.marginals) + np.asarray(upper.marginals)
        return LpResult(
            "optimal",
            np.asarray(res.x),
            float(res.fun) + form.c0,
            iterations,
            reduced_costs=reduced_costs,
        )
    if res.status == 2:
        return LpResult("infeasible", None, None, iterations)
    if res.status == 3:
        return LpResult("unbounded", None, None, iterations)
    return LpResult("error", None, None, iterations)


_STATUS_MAP = {
    "optimal": Status.OPTIMAL,
    "infeasible": Status.INFEASIBLE,
    "unbounded": Status.UNBOUNDED,
    "error": Status.ITERATION_LIMIT,
}


def solve_relaxation(model: Model) -> Solution:
    """Solve ``model`` with integrality dropped and wrap as a Solution."""
    form = model.to_matrix_form()
    result = solve_matrix_lp(form)
    status = _STATUS_MAP[result.status]
    if status is not Status.OPTIMAL:
        return Solution(status, backend="lp-scipy")
    sign = 1.0 if model.sense == "min" else -1.0
    values = {var: float(result.x[var.index]) for var in model.variables}
    return Solution(
        Status.OPTIMAL,
        objective=sign * result.objective,
        values=values,
        stats=SolveStats(lp_solves=1, lp_iterations=result.iterations),
        backend="lp-scipy",
    )
