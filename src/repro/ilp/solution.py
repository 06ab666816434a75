"""Solver result types shared by every backend."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from repro.ilp.expr import LinExpr, Variable


class Status(enum.Enum):
    """Terminal state of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    ITERATION_LIMIT = "iteration_limit"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven


def _counter() -> Any:
    """An additive work counter, published as the ``solve.<name>`` counter."""
    return field(default=0, metadata={"publish": "counter"})


def _timing() -> Any:
    """Additive wall-clock seconds, observed as the ``solve.<name>``
    histogram (one observation per solve)."""
    return field(default=0.0, metadata={"publish": "histogram", "timing": True})


#: How each published field updates its instrument in a MetricsRegistry.
_PUBLISH_UPDATE = {"counter": "inc", "histogram": "observe", "gauge": "set"}


@dataclass
class SolveCounters:
    """The additive work counters of a solve, each declared once here.

    :class:`SolveStats` (one solve) and
    :class:`~repro.runtime.telemetry.RunTelemetry` (a run's sum) both
    inherit these fields, and the solve cache persists every one of them,
    so a new counter is one line below. Field metadata says how it is
    published: ``"publish"`` names the ``solve.<name>`` instrument kind
    (``None``: not published), and ``"timing"`` marks wall-clock seconds,
    which vary run to run.
    """

    nodes: int = _counter()
    lp_solves: int = _counter()
    lp_iterations: int = _counter()
    wall_time: float = _timing()
    lp_time: float = _timing()
    incumbent_updates: int = _counter()
    cuts: int = _counter()
    cut_rounds: int = _counter()
    presolve_fixings: int = _counter()
    presolve_pruned: int = _counter()
    pseudocost_branches: int = _counter()
    root_presolve_rounds: int = _counter()
    root_cols_removed: int = _counter()
    root_rows_removed: int = _counter()
    root_coeffs_tightened: int = _counter()
    warm_lp_solves: int = _counter()
    warm_lp_fallbacks: int = _counter()


@dataclass
class SolveStats(SolveCounters):
    """Work counters reported by the solver backends.

    ``nodes`` counts B&B nodes actually processed (LP relaxations solved at a
    node), ``lp_iterations`` sums simplex/HiGHS iterations when available, and
    ``wall_time`` is seconds of wall clock inside ``solve``. ``cache_hit``
    marks a solution answered from the runtime solve cache — the remaining
    counters then describe the *original* solve that produced the record,
    not work done in this call.

    The presolve counters describe the node fast path:
    ``presolve_fixings`` is the number of variable bounds tightened by
    propagation or reduced-cost fixing, ``presolve_pruned`` the subtrees
    discarded before any LP was solved (so ``nodes`` keeps its meaning of
    LP-solved nodes and ``lp_solves >= nodes`` stays true), and
    ``pseudocost_branches`` the branchings decided by pseudocost scores
    rather than the most-fractional fallback.

    The cut counters describe root clique-cut separation (see
    ``cut_rounds`` on :class:`~repro.obs.policy.SolverOptions`): ``cuts``
    is the number of
    cutting planes added to the LP, and ``cut_rounds`` counts the
    separation rounds that added them.

    The root-presolve counters describe the model reductions applied once
    before the search (see ``presolve_rounds`` on
    :class:`~repro.obs.policy.SolverOptions`):
    ``root_presolve_rounds`` passes ran, removing
    ``root_cols_removed`` columns and ``root_rows_removed`` rows and
    tightening ``root_coeffs_tightened`` coefficients. The warm-start
    counters split ``lp_solves`` by engine: ``warm_lp_solves`` node LPs
    were answered by the dual simplex reoptimizing from a parent basis
    (including proven ``cutoff`` prunes), and ``warm_lp_fallbacks`` bailed
    to the cold engine on numerical trouble.

    ``best_bound`` is the bound on the optimal objective that the search
    proved, in the model's sense: no feasible solution is better than it
    (it is a lower bound when minimizing, an upper bound when maximizing).
    An exhausted search proves that nothing beats the incumbent by more
    than the solver's ``gap_tol``, so its bound sits ``gap_tol`` past the
    incumbent; a budget-capped search proves the best open node's bound.
    ``None`` means nothing was proven (infeasible, or the backend reports
    no bound). ``gap`` is :func:`relative_gap` between the returned
    objective and ``best_bound``, set whenever both exist.
    """

    best_bound: float | None = field(default=None, metadata={"publish": "gauge"})
    gap: float | None = None
    cache_hit: bool = False

    def as_dict(self) -> dict:
        """JSON-ready view (used by ``repro design --json`` and telemetry)."""
        return asdict(self)

    def publish(self, metrics) -> None:
        """Emit every published field into ``metrics`` as ``solve.<name>``
        (an unset ``best_bound`` is skipped)."""
        for spec in fields(self):
            kind = spec.metadata.get("publish")
            value = getattr(self, spec.name)
            if kind is None or value is None:
                continue
            instrument = getattr(metrics, kind)(f"solve.{spec.name}")
            getattr(instrument, _PUBLISH_UPDATE[kind])(value)


def relative_gap(incumbent: float, bound: float) -> float:
    """``|incumbent − bound| / |incumbent|``; the divisor is at least 1, so
    a zero objective does not divide by zero."""
    return abs(incumbent - bound) / max(abs(incumbent), 1.0)


@dataclass
class Solution:
    """Outcome of solving a model: status, objective, and variable values.

    ``cache_hit`` is True when the solution was served from the runtime
    solve cache instead of running a backend (see :mod:`repro.runtime.cache`).
    """

    status: Status
    objective: float | None = None
    values: dict[Variable, float] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)
    backend: str = "bnb"
    cache_hit: bool = False

    @property
    def is_optimal(self) -> bool:
        return self.status is Status.OPTIMAL

    @property
    def is_feasible(self) -> bool:
        return self.status in (Status.OPTIMAL, Status.FEASIBLE)

    def __getitem__(self, var: Variable) -> float:
        if not self.is_feasible:
            raise KeyError(f"solution has status {self.status.value}; no values available")
        return self.values[var]

    def value(self, expr: LinExpr | Variable) -> float:
        """Evaluate a variable or linear expression under this solution."""
        if isinstance(expr, Variable):
            return self[expr]
        return expr.value(self.values)

    def rounded(self, tol: float = 1e-6) -> dict[Variable, float]:
        """Return values with near-integers snapped to exact integers.

        LP-based solvers return 0.9999999; downstream code indexing
        assignments by integer value wants exactly 1.0.
        """
        snapped = {}
        for var, val in self.values.items():
            nearest = round(val)
            snapped[var] = float(nearest) if abs(val - nearest) <= tol else val
        return snapped

    def __repr__(self) -> str:
        obj = "-" if self.objective is None else f"{self.objective:g}"
        cached = ", cached" if self.cache_hit else ""
        return f"Solution(status={self.status.value}, objective={obj}, backend={self.backend}{cached})"
