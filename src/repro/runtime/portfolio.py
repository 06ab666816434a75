"""Racing solver portfolio: exact B&B vs the heuristic ladder, one budget.

:func:`run_portfolio` races the entrants named by a
:class:`~repro.obs.PortfolioPolicy` on one :class:`DesignProblem` under a
single shared :class:`~repro.obs.SolvePolicy` budget:

1. the heuristic rungs (``"lpt"``, ``"sa"``) run first — concurrently on
   the persistent process pool (:func:`repro.runtime.parallel.run_parallel`)
   when ``policy.jobs > 1``;
2. their best incumbent is *cross-fed* to the exact ``"bnb"`` entrant as
   its starting cutoff (through ``design(incumbent=...)``), with the wall
   time the heuristics already spent subtracted from the shared deadline;
3. the best solution wins. Ties go to the heuristic that produced the
   incumbent — B&B then merely supplied the optimality proof.

The combined answer is a normal :class:`~repro.core.designer.TamDesign`
whose ``portfolio`` field carries a :class:`PortfolioReport`: the winner,
per-entrant wall / nodes / bound, whether an incumbent was cross-fed, and
the final optimality gap. Heuristic-only portfolios (no ``"bnb"`` entrant)
still report a *certified* gap against the instance's combinatorial lower
bound — ``max(max_i min_j t_ij, sum_i min_j t_ij / NB)`` — so their legs
compare honestly with the exact ones.

Pool purity (lint rule D002): the worker submitted to the process pool,
:func:`_run_heuristic_entrant`, is a pure top-level function of its payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs import FallbackReport, PortfolioPolicy, SolvePolicy, now, span
from repro.runtime.parallel import run_parallel
from repro.util.errors import InfeasibleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (designer imports runtime)
    from repro.core.designer import TamDesign
    from repro.core.problem import DesignProblem

__all__ = ["EntrantRecord", "PortfolioReport", "run_portfolio"]

#: Floor on the exact entrant's share of a shared deadline: even when the
#: heuristics ate the whole budget, B&B gets enough wall to install the
#: cross-fed incumbent and try one root bound.
MIN_EXACT_BUDGET = 0.05


@dataclass(frozen=True)
class EntrantRecord:
    """One entrant's run inside a portfolio race."""

    name: str
    status: str
    makespan: float | None
    wall_time: float
    nodes: int = 0
    best_bound: float | None = None
    detail: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "makespan": self.makespan,
            "wall_time": self.wall_time,
            "nodes": self.nodes,
            "best_bound": self.best_bound,
            "detail": self.detail,
        }


@dataclass
class PortfolioReport:
    """Provenance of a portfolio race: who ran, who fed whom, who won.

    ``winner`` is the entrant whose solution the combined design returns —
    on a makespan tie between a heuristic incumbent and the exact search
    the heuristic wins the attribution (B&B provided the proof, not the
    solution). ``cross_fed`` records whether a heuristic incumbent was
    installed as the exact entrant's starting cutoff, and
    ``shared_deadline`` the wall budget the whole race shared (``None``
    when the policy set none). ``gap`` is the relative optimality gap of
    the returned solution against the best known lower bound — exact
    entrant's tree bound when it ran, the certified combinatorial bound
    otherwise.
    """

    winner: str
    gap: float | None
    best_bound: float | None
    cross_fed: bool
    shared_deadline: float | None
    wall_time: float
    entrants: list[EntrantRecord] = field(default_factory=list)

    def entrant(self, name: str) -> EntrantRecord | None:
        for record in self.entrants:
            if record.name == name:
                return record
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "winner": self.winner,
            "gap": self.gap,
            "best_bound": self.best_bound,
            "cross_fed": self.cross_fed,
            "shared_deadline": self.shared_deadline,
            "wall_time": self.wall_time,
            "entrants": [record.as_dict() for record in self.entrants],
        }

    def render(self) -> str:
        parts = []
        for record in self.entrants:
            bits = f"{record.name}={record.status}"
            if record.makespan is not None:
                bits += f"@{record.makespan:g}"
            if record.nodes:
                bits += f",{record.nodes}n"
            parts.append(bits)
        feed = "cross-fed" if self.cross_fed else "cold"
        gap = "?" if self.gap is None else f"{self.gap:.3%}"
        return f"portfolio[{' | '.join(parts)}] -> {self.winner} ({feed}, gap={gap})"


def _run_heuristic_entrant(payload: tuple) -> dict[str, Any]:
    """Run one heuristic rung on one problem (process-pool worker).

    Pure top-level function of its payload (D002): returns a plain dict so
    the result pickles cheaply across the pool boundary.
    """
    problem, rung, seed = payload
    from repro.core.baselines import lpt_assignment, simulated_annealing

    start = now()
    try:
        if rung == "lpt":
            result = lpt_assignment(problem)
        elif rung == "sa":
            result = simulated_annealing(problem, seed=seed)
        else:  # pragma: no cover - PortfolioPolicy validates entrant names
            raise ValueError(f"unknown heuristic entrant {rung!r}")
    except InfeasibleError as exc:
        return {
            "name": rung,
            "status": "infeasible",
            "makespan": None,
            "wall_time": now() - start,
            "bus_of": None,
            "detail": str(exc),
        }
    return {
        "name": rung,
        "status": "feasible",
        "makespan": result.makespan,
        "wall_time": result.wall_time,
        "bus_of": list(result.assignment.bus_of),
        "detail": None,
    }


def _certified_lower_bound(problem: "DesignProblem") -> float:
    """Instance lower bound no assignment can beat (cheap, certified).

    ``max_i min_j t_ij`` — some bus must run each core at least at its best
    time — and ``sum_i min_j t_ij / NB`` — total best-case work spread over
    all buses. The same bounds :func:`design_best_architecture` prunes with.
    """
    import numpy as np

    per_core_best = np.min(problem.times, axis=1)
    singleton = float(np.max(per_core_best))
    spread = float(np.sum(per_core_best)) / problem.arch.num_buses
    return max(singleton, spread)


def run_portfolio(
    problem: "DesignProblem",
    policy: SolvePolicy,
    cache: "object | bool | None" = None,
    wirelength_method: str = "chain",
    **solver_options,
) -> "TamDesign":
    """Race the portfolio entrants on ``problem`` under one shared budget.

    ``policy.solver.portfolio`` must be an enabled
    :class:`~repro.obs.PortfolioPolicy`; :func:`repro.core.designer.design`
    dispatches here automatically when it is. The returned
    :class:`~repro.core.designer.TamDesign` carries a
    :class:`PortfolioReport` in its ``portfolio`` field.

    Budget sharing: heuristic wall time is subtracted from
    ``policy.deadline`` before the exact entrant starts (floored at
    :data:`MIN_EXACT_BUDGET` so a cross-fed incumbent can always be
    installed); ``policy.node_budget`` applies to the exact entrant
    unchanged — heuristics do not expand B&B nodes.
    """
    from repro.core.designer import design
    from repro.ilp.solution import SolveStats, Status, relative_gap
    from repro.layout.routing import tam_wirelength
    from repro.tam.assignment import Assignment

    portfolio = policy.solver.portfolio if policy.solver is not None else None
    if portfolio is None or not portfolio.enabled:
        raise ValueError("run_portfolio needs a SolvePolicy with an enabled portfolio")

    start = now()
    records: list[EntrantRecord] = []

    # ---- leg 1: the heuristic rungs race (concurrently when jobs > 1) ----
    heuristics = portfolio.heuristics
    best_name: str | None = None
    best_makespan: float | None = None
    best_bus_of: list[int] | None = None
    if heuristics:
        payloads = [(problem, rung, portfolio.seed) for rung in heuristics]
        with span("portfolio.heuristics", entrants=list(heuristics)):
            outcomes = run_parallel(
                _run_heuristic_entrant, payloads, max_workers=portfolio.jobs
            )
        for outcome in outcomes:
            records.append(
                EntrantRecord(
                    name=outcome["name"],
                    status=outcome["status"],
                    makespan=outcome["makespan"],
                    wall_time=outcome["wall_time"],
                    detail=outcome["detail"],
                )
            )
            if outcome["status"] != "feasible":
                continue
            if best_makespan is None or outcome["makespan"] < best_makespan - 1e-9:
                best_name = outcome["name"]
                best_makespan = outcome["makespan"]
                best_bus_of = outcome["bus_of"]

    # ---- leg 2: exact B&B, cross-fed the incumbent as its cutoff ----
    if portfolio.exact:
        elapsed = now() - start
        remaining = None
        if policy.deadline is not None:
            remaining = max(policy.deadline - elapsed, MIN_EXACT_BUDGET)
        inner_policy = policy.with_overrides(
            solver=policy.solver.with_overrides(portfolio=None),
            deadline=remaining,
        )
        incumbent = None
        if best_bus_of is not None:
            incumbent = Assignment(problem.soc, problem.arch, tuple(best_bus_of))
        with span("portfolio.exact", cross_fed=incumbent is not None):
            combined = design(
                problem,
                backend="bnb",
                wirelength_method=wirelength_method,
                cache=cache,
                policy=inner_policy,
                incumbent=incumbent,
                **solver_options,
            )
        stats = combined.stats
        records.append(
            EntrantRecord(
                name="bnb",
                status=combined.status.value,
                makespan=combined.makespan,
                wall_time=stats.wall_time,
                nodes=stats.nodes,
                best_bound=stats.best_bound,
            )
        )
        if best_makespan is not None and combined.makespan < best_makespan - 1e-9:
            winner = "bnb"
        elif best_name is not None:
            winner = best_name  # tie: the heuristic found it, B&B proved it
        else:
            winner = "bnb"
        gap = stats.gap
        if gap is None and stats.best_bound is not None:
            # A heuristic rung answered after B&B found no incumbent.
            gap = relative_gap(combined.makespan, stats.best_bound)
        combined.portfolio = PortfolioReport(
            winner=winner,
            gap=gap,
            best_bound=stats.best_bound,
            cross_fed=incumbent is not None,
            shared_deadline=policy.deadline,
            wall_time=now() - start,
            entrants=records,
        )
        return combined

    # ---- heuristic-only portfolio: certify the gap against the LB ----
    if best_bus_of is None or best_name is None or best_makespan is None:
        raise InfeasibleError(
            "no portfolio entrant found a feasible assignment for "
            f"{problem.constraint_summary()}",
            reason="; ".join(
                f"{record.name}: {record.detail or record.status}" for record in records
            ),
        )
    assignment = Assignment(problem.soc, problem.arch, tuple(best_bus_of))
    bus_times = assignment.bus_times(problem.timing)
    makespan = max(bus_times)
    wirelength = None
    if problem.floorplan is not None:
        wirelength = tam_wirelength(problem.floorplan, assignment, method=wirelength_method)
    bound = _certified_lower_bound(problem)
    gap = relative_gap(makespan, bound)
    total_wall = now() - start
    report = FallbackReport(source=best_name, reason="heuristic-only portfolio")
    for record in records:
        report.record_step(record.name, record.status, makespan=record.makespan)
    from repro.core.designer import TamDesign as _TamDesign

    design_result = _TamDesign(
        problem=problem,
        assignment=assignment,
        makespan=makespan,
        bus_times=bus_times,
        status=Status.FEASIBLE,
        stats=SolveStats(wall_time=total_wall, best_bound=bound, gap=gap),
        backend="portfolio",
        wirelength=wirelength,
        fallback=report,
        portfolio=PortfolioReport(
            winner=best_name,
            gap=gap,
            best_bound=bound,
            cross_fed=False,
            shared_deadline=policy.deadline,
            wall_time=total_wall,
            entrants=records,
        ),
    )
    return design_result
