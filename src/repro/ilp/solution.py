"""Solver result types shared by every backend."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ilp.expr import LinExpr, Variable


class Status(enum.Enum):
    """Terminal state of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    ITERATION_LIMIT = "iteration_limit"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven


@dataclass
class SolveStats:
    """Work counters reported by the solver backends.

    ``nodes`` counts B&B nodes actually processed (LP relaxations solved at a
    node), ``lp_iterations`` sums simplex/HiGHS iterations when available, and
    ``wall_time`` is seconds of wall clock inside ``solve``. ``cache_hit``
    marks a solution answered from the runtime solve cache — the remaining
    counters then describe the *original* solve that produced the record,
    not work done in this call. ``retries`` counts transient-error re-runs
    the resilient solve path performed before this result came back.

    The presolve counters describe the node fast path:
    ``presolve_fixings`` is the number of variable bounds tightened by
    propagation or reduced-cost fixing, ``presolve_pruned`` the subtrees
    discarded before any LP was solved (so ``nodes`` keeps its meaning of
    LP-solved nodes and ``lp_solves >= nodes`` stays true), and
    ``pseudocost_branches`` the branchings decided by pseudocost scores
    rather than the most-fractional fallback.

    The cut counters describe branch-and-cut separation (see
    :class:`~repro.obs.policy.CutPolicy`): ``cuts`` is the total number
    of cutting planes admitted to the pool, split into ``clique_cuts``
    and ``cover_cuts`` by family; ``cut_rounds`` counts separation
    rounds that changed the LP, and ``cuts_dropped`` the cuts the pool
    aged out for staying slack. :meth:`cut_summary` bundles them.

    The root-presolve counters describe the model reductions applied once
    before the search (see :class:`~repro.obs.policy.PresolvePolicy`):
    ``root_presolve_rounds`` passes ran, removing
    ``root_cols_removed`` columns and ``root_rows_removed`` rows and
    tightening ``root_coeffs_tightened`` coefficients. The warm-start
    counters split ``lp_solves`` by engine: ``warm_lp_solves`` node LPs
    were answered by the dual simplex reoptimizing from a parent basis
    (including proven ``cutoff`` prunes), and ``warm_lp_fallbacks`` bailed
    to the cold engine on numerical trouble. :meth:`presolve_summary`
    bundles all of them.

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

    nodes: int = 0
    lp_solves: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    lp_time: float = 0.0
    incumbent_updates: int = 0
    best_bound: float | None = None
    gap: float | None = None
    cuts: int = 0
    cut_rounds: int = 0
    clique_cuts: int = 0
    cover_cuts: int = 0
    cuts_dropped: int = 0
    cache_hit: bool = False
    retries: int = 0
    presolve_fixings: int = 0
    presolve_pruned: int = 0
    pseudocost_branches: int = 0
    root_presolve_rounds: int = 0
    root_cols_removed: int = 0
    root_rows_removed: int = 0
    root_coeffs_tightened: int = 0
    warm_lp_solves: int = 0
    warm_lp_fallbacks: int = 0

    def as_dict(self) -> dict:
        """JSON-ready view (used by ``repro design --json`` and telemetry)."""
        from dataclasses import asdict

        return asdict(self)

    def cut_summary(self) -> dict:
        """The branch-and-cut counters as one mapping (stable key order)."""
        return {
            "cuts": self.cuts,
            "cut_rounds": self.cut_rounds,
            "clique_cuts": self.clique_cuts,
            "cover_cuts": self.cover_cuts,
            "cuts_dropped": self.cuts_dropped,
        }

    def presolve_summary(self) -> dict:
        """Root-presolve + warm-start counters as one mapping (stable order)."""
        return {
            "root_presolve_rounds": self.root_presolve_rounds,
            "root_cols_removed": self.root_cols_removed,
            "root_rows_removed": self.root_rows_removed,
            "root_coeffs_tightened": self.root_coeffs_tightened,
            "warm_lp_solves": self.warm_lp_solves,
            "warm_lp_fallbacks": self.warm_lp_fallbacks,
        }


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
