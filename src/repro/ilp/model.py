"""The MILP model container.

A :class:`Model` owns variables and constraints, exports the matrix form used
by the LP/B&B machinery, and fronts the solver backends:

- ``model.solve()`` — our branch and bound (default), pure Python + numpy;
- ``model.solve(backend="scipy")`` — ``scipy.optimize.milp`` (HiGHS), used to
  cross-validate results in the test suite;
- ``model.solve_relaxation()`` — the LP relaxation only.

Objectives are always stored internally as *minimization*; ``maximize``
negates on the way in and the solution objective is reported in the caller's
original sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ilp.expr import (
    BINARY,
    EQ,
    GE,
    LE,
    Constraint,
    LinExpr,
    Variable,
    VarType,
)
from repro.ilp.solution import Solution
from repro.obs import SolvePolicy, span
from repro.util.errors import ValidationError

_INF = math.inf

#: Solver backends by name. Each entry is ``fn(model, **options) -> Solution``;
#: :func:`register_backend` adds custom entries (fault-injection harnesses,
#: external solvers) without touching this module.
_BACKENDS: dict[str, Callable[..., Solution]] = {}


def _solve_bnb(model: "Model", **options) -> Solution:
    from repro.ilp.branch_and_bound import BranchAndBoundSolver

    return BranchAndBoundSolver(model, **options).solve()


def _solve_scipy(model: "Model", **options) -> Solution:
    from repro.ilp.scipy_backend import solve_with_scipy

    return solve_with_scipy(model, **options)


_BACKENDS["bnb"] = _solve_bnb
_BACKENDS["scipy"] = _solve_scipy


def register_backend(name: str, solver: Callable[..., Solution]) -> None:
    """Register a custom solver backend under ``name``.

    ``solver`` is called as ``solver(model, **options)`` and must return a
    :class:`~repro.ilp.solution.Solution`. The built-in names ``"bnb"`` and
    ``"scipy"`` cannot be replaced — shadowing the exact backends would
    silently change every experiment's answers.
    """
    if name in ("bnb", "scipy"):
        raise ValueError(f"cannot replace built-in backend {name!r}")
    if not callable(solver):
        raise TypeError(f"solver for backend {name!r} must be callable")
    _BACKENDS[name] = solver


def unregister_backend(name: str) -> None:
    """Remove a custom backend registered via :func:`register_backend`."""
    if name in ("bnb", "scipy"):
        raise ValueError(f"cannot remove built-in backend {name!r}")
    _BACKENDS.pop(name, None)


def _reject_legacy_limits(options: dict) -> None:
    """The PR-3 ``node_limit``/``time_limit`` shims are gone: a
    :class:`SolvePolicy` is the only way to bound a solve's effort. Direct
    kwargs are rejected (not forwarded) so the budget can never bypass the
    policy cache-token in the solve fingerprint."""
    legacy = [name for name in ("node_limit", "time_limit") if name in options]
    if legacy:
        raise TypeError(
            f"{'/'.join(legacy)} kwargs were removed; pass "
            "policy=SolvePolicy(node_budget=..., deadline=...) instead"
        )


@dataclass
class MatrixForm:
    """Dense matrix export of a model, in minimization sense.

    ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``lb <= x <= ub``; ``c`` is the
    objective vector and ``c0`` its constant offset. ``integer_mask`` flags
    integer-constrained columns.
    """

    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer_mask: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    def constant_rows_hold(self, tol: float = 1e-6) -> bool:
        """Whether every row holds at ``x = 0``: the whole feasibility test
        of a form with no columns, whose rows are all constant."""
        return bool(np.all(self.b_ub >= -tol) and np.all(np.abs(self.b_eq) <= tol))


class Model:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._sense = "min"
        self._var_names: set[str] = set()

    # ------------------------------------------------------------------ vars
    def add_var(
        self,
        name: str | None = None,
        lb: float = 0.0,
        ub: float = _INF,
        vartype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a decision variable.

        Binary variables get implied bounds [0, 1]; explicit tighter bounds
        are honoured (e.g. fixing a binary with ``lb=1``).
        """
        index = len(self.variables)
        if name is None:
            name = f"x{index}"
        if name in self._var_names:
            raise ValidationError(f"duplicate variable name {name!r} in model {self.name!r}")
        if vartype is VarType.BINARY:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        if lb > ub:
            raise ValidationError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(name, index, float(lb), float(ub), vartype, id(self))
        self.variables.append(var)
        self._var_names.add(name)
        return var

    def add_vars(self, count: int, prefix: str = "x", **kwargs) -> list[Variable]:
        """Create ``count`` variables named ``prefix0 .. prefix{count-1}``."""
        return [self.add_var(f"{prefix}{i}", **kwargs) for i in range(count)]

    def add_binary(self, name: str | None = None) -> Variable:
        """Shorthand for a 0/1 variable."""
        return self.add_var(name, vartype=BINARY)

    # ----------------------------------------------------------- constraints
    def add_constr(self, constraint: Constraint, name: str | None = None) -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (built from a comparison of "
                f"linear expressions); got {type(constraint).__name__}"
            )
        for var in constraint.terms:
            self._check_ownership(var)
        if name is not None:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constrs(self, constraints, prefix: str | None = None) -> list[Constraint]:
        """Register an iterable of constraints, optionally auto-naming them."""
        added = []
        for i, constr in enumerate(constraints):
            name = f"{prefix}{i}" if prefix else None
            added.append(self.add_constr(constr, name=name))
        return added

    # -------------------------------------------------------------- objective
    def minimize(self, expr: LinExpr | Variable) -> None:
        self._set_objective(expr, "min")

    def maximize(self, expr: LinExpr | Variable) -> None:
        self._set_objective(expr, "max")

    def _set_objective(self, expr: LinExpr | Variable, sense: str) -> None:
        expr = LinExpr._coerce(expr)
        for var in expr.terms:
            self._check_ownership(var)
        self._objective = expr
        self._sense = sense

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def sense(self) -> str:
        return self._sense

    def _check_ownership(self, var: Variable) -> None:
        if var._model_id != id(self):
            raise ValidationError(
                f"variable {var.name!r} belongs to a different model; "
                "expressions cannot mix variables across models"
            )

    # ------------------------------------------------------------------ stats
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integer)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def summary(self) -> str:
        """One-line description used in experiment logs."""
        return (
            f"{self.name}: {self.num_vars} vars "
            f"({self.num_integer_vars} integer), {self.num_constraints} constraints"
        )

    # --------------------------------------------------------------- export
    def to_matrix_form(self) -> MatrixForm:
        """Export dense arrays in minimization sense for the LP machinery."""
        n = self.num_vars
        sign = 1.0 if self._sense == "min" else -1.0
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            c[var.index] = sign * coef
        c0 = sign * self._objective.constant

        ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
        for constr in self.constraints:
            row = np.zeros(n)
            for var, coef in constr.terms.items():
                row[var.index] = coef
            if constr.sense == LE:
                ub_rows.append(row)
                ub_rhs.append(constr.rhs)
            elif constr.sense == GE:
                ub_rows.append(-row)
                ub_rhs.append(-constr.rhs)
            elif constr.sense == EQ:
                eq_rows.append(row)
                eq_rhs.append(constr.rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        integer_mask = np.array([v.is_integer for v in self.variables])
        return MatrixForm(
            c=c,
            c0=c0,
            a_ub=a_ub,
            b_ub=np.array(ub_rhs, dtype=float),
            a_eq=a_eq,
            b_eq=np.array(eq_rhs, dtype=float),
            lb=lb,
            ub=ub,
            integer_mask=integer_mask,
        )

    # ---------------------------------------------------------------- solving
    def lint(self):
        """Run the structural model linter (no solve); returns a LintReport."""
        from repro.analysis.model_lint import lint_model

        return lint_model(self)

    def solve(
        self,
        backend: str = "bnb",
        lint: str = "off",
        cache: "object | bool | None" = None,
        policy: SolvePolicy | None = None,
        **options,
    ) -> Solution:
        """Solve the model, exactly or under a bounded-effort policy.

        ``backend="bnb"`` uses :class:`~repro.ilp.branch_and_bound.
        BranchAndBoundSolver`; ``backend="scipy"`` uses HiGHS via
        ``scipy.optimize.milp``; other names resolve through
        :func:`register_backend`. Options are forwarded to the backend
        (``gap_tol``, ``dive``, ``cut_rounds``, ``presolve_rounds``,
        ``warm_start`` for bnb); the bnb solver separates up to
        ``CUT_ROUNDS`` rounds of root clique cuts and runs up to
        ``PRESOLVE_ROUNDS`` root presolve passes unless told otherwise.

        ``policy`` is a :class:`~repro.obs.SolvePolicy` bounding the solve:
        its deadline / node budget / gap tolerance map onto the backend's
        limits, and its solver block onto the kwargs above. A capped
        solve can return ``Status.FEASIBLE`` (best incumbent) or
        ``Status.NODE_LIMIT`` (no incumbent found); the degradation ladder
        for the latter lives one level up in :func:`repro.core.design`.
        The removed legacy ``node_limit=`` / ``time_limit=`` kwargs raise
        :class:`TypeError` — a policy is the only effort path.

        ``lint`` gates the solve on the static model linter
        (:mod:`repro.analysis.model_lint`): ``"warn"`` prints findings to
        stderr and proceeds, ``"error"`` additionally raises
        :class:`~repro.util.errors.LintError` when any error-severity
        finding exists, ``"off"`` (default) skips the pass entirely.

        ``cache`` routes the solve through the runtime solution cache
        (:mod:`repro.runtime.cache`): a
        :class:`~repro.runtime.cache.SolutionCache` uses that store, ``None``
        (default) consults the process-active cache installed via
        ``use_cache``/``set_solve_cache`` (no caching if none is active), and
        ``False`` bypasses caching even when a cache is active. Cached
        solutions are bit-identical to the original solve and carry
        ``cache_hit=True``. The cache key covers the ad-hoc options and what
        the policy's cached fields imply (:meth:`~repro.obs.SolvePolicy.
        cache_view`): the *effective* budgets, so a truncated solve never
        masquerades as an uncapped one, but not its fallback or checkpoint
        settings, which never change the answer.
        """
        if lint not in ("off", "warn", "error"):
            raise ValueError(f"lint must be 'off', 'warn' or 'error', got {lint!r}")
        if lint != "off":
            report = self.lint()
            if len(report):
                import sys

                print(report.render(f"lint: model {self.name!r}"), file=sys.stderr)
            if lint == "error" and report.has_errors:
                from repro.util.errors import LintError

                raise LintError(
                    f"model {self.name!r} failed lint with "
                    f"{len(report.errors)} error(s); first: "
                    f"{report.errors[0].render()}",
                    report=report,
                )
        _reject_legacy_limits(options)
        effective = dict(options)
        if policy is not None:
            # Policy budgets win over ad-hoc options: the policy is the one
            # authoritative statement of how hard this solve may try.
            effective.update(policy.backend_options(backend))
            effective.update(policy.checkpoint_options(backend))

        from repro.runtime.cache import resolve_cache

        store = resolve_cache(cache)
        key = None
        if store is not None:
            key_options = dict(options)
            if policy is not None:
                key_options.update(policy.cache_view().backend_options(backend))
                if policy.is_capped:
                    key_options["_policy"] = policy.cache_token()
            with span("cache_lookup"):
                key = store.fingerprint(
                    self.to_matrix_form(), backend=backend, options=key_options
                )
                cached = store.get_solution(key, self)
            if cached is not None:
                return cached

        solver = _BACKENDS.get(backend)
        if solver is None:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {sorted(_BACKENDS)}"
            )
        solution = solver(self, **effective)
        if store is not None and key is not None:
            store.put_solution(key, solution, self.num_vars)
        return solution

    def solve_relaxation(self) -> Solution:
        """Solve the LP relaxation (integrality dropped) with HiGHS."""
        from repro.ilp.lp import solve_relaxation

        return solve_relaxation(self)

    def check_solution(self, values: dict[Variable, float], tol: float = 1e-6) -> list[str]:
        """Return a list of violation descriptions (empty = feasible).

        Checks bounds, integrality, and every constraint; used by tests and
        by experiment harnesses to certify solver output independently.
        """
        problems = []
        for var in self.variables:
            val = values.get(var)
            if val is None:
                problems.append(f"variable {var.name} has no value")
                continue
            if val < var.lb - tol or val > var.ub + tol:
                problems.append(f"variable {var.name}={val} outside [{var.lb}, {var.ub}]")
            if var.is_integer and abs(val - round(val)) > tol:
                problems.append(f"variable {var.name}={val} is not integral")
        for i, constr in enumerate(self.constraints):
            if not constr.is_satisfied(values, tol=tol):
                label = constr.name or f"#{i}"
                problems.append(
                    f"constraint {label} violated by {constr.violation(values):g}"
                )
        return problems

    def objective_value(self, values: dict[Variable, float]) -> float:
        """Evaluate the objective (in the model's original sense)."""
        return self._objective.value(values)

    def __repr__(self) -> str:
        return f"Model({self.summary()})"
