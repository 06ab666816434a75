"""A small mixed-integer linear programming substrate.

The DAC 2000 paper formulates TAM design as integer linear programs and
solves them with the off-the-shelf ``lpsolve`` package. This subpackage is
our from-scratch replacement:

- :mod:`repro.ilp.expr` — variables, linear expressions, and constraints
  built with Python operators (``2 * x + y <= 3``);
- :mod:`repro.ilp.model` — the :class:`Model` container with validation and
  standard-form export;
- :mod:`repro.ilp.lp` — cold LP relaxations through HiGHS
  (``scipy.optimize.linprog``);
- :mod:`repro.ilp.simplex` — a revised dual simplex
  (:class:`~repro.ilp.simplex.RevisedSimplex`) that reoptimizes node LPs
  warm from a parent :class:`~repro.ilp.simplex.Basis`;
- :mod:`repro.ilp.presolve_root` — root model presolve (dual fixing,
  singleton substitution, coefficient tightening, row cleanup) with exact
  postsolve back to the original variable space;
- :mod:`repro.ilp.branch_and_bound` — best-first branch and bound with a
  diving heuristic for early incumbents;
- :mod:`repro.ilp.scipy_backend` — a thin adapter around
  ``scipy.optimize.milp`` (HiGHS) used to cross-check our solver in tests.

Typical use::

    from repro.ilp import Model, BINARY

    m = Model("assign")
    x = m.add_var("x", vartype=BINARY)
    y = m.add_var("y", vartype=BINARY)
    m.add_constr(x + y <= 1, name="conflict")
    m.maximize(3 * x + 2 * y)
    sol = m.solve()
    assert sol.is_optimal and sol[x] == 1
"""

from repro.ilp.expr import (
    Variable,
    LinExpr,
    Constraint,
    VarType,
    CONTINUOUS,
    INTEGER,
    BINARY,
    LE,
    GE,
    EQ,
    quicksum,
)
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStats, Status
from repro.ilp.presolve_root import Postsolve, PresolveResult, presolve_root
from repro.ilp.simplex import Basis, RevisedSimplex
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.scipy_backend import solve_with_scipy

__all__ = [
    "Variable",
    "LinExpr",
    "Constraint",
    "VarType",
    "CONTINUOUS",
    "INTEGER",
    "BINARY",
    "LE",
    "GE",
    "EQ",
    "quicksum",
    "Model",
    "Solution",
    "SolveStats",
    "Status",
    "Basis",
    "RevisedSimplex",
    "Postsolve",
    "PresolveResult",
    "presolve_root",
    "BranchAndBoundSolver",
    "solve_with_scipy",
]
