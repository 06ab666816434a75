"""Tradeoff sweeps behind the evaluation's figures.

Each sweep drives the exact designer across one budget axis and returns
plain row records ready for tabulation:

- :func:`width_sweep` — testing time vs total TAM width (figure F1);
- :func:`power_budget_sweep` — testing time vs ``P_max`` (figure F2);
- :func:`distance_budget_sweep` — testing time and TAM wirelength vs the
  layout budget ``delta`` (figure F3), including the Pareto frontier.

Infeasible budget points are kept in the output with ``makespan=None`` so
the harness can report where the feasible region ends.

Every sweep accepts ``jobs``: points are independent instances, so they fan
out across worker processes via :func:`repro.runtime.run_parallel` while
the returned list keeps budget order (``jobs=1``, the default, is the
deterministic serial path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.designer import design, design_best_architecture
from repro.core.problem import DesignProblem
from repro.obs import SolvePolicy
from repro.layout.constraints import distance_sweep_points
from repro.layout.floorplan import Floorplan
from repro.power.model import budget_sweep_points
from repro.runtime.parallel import run_parallel
from repro.runtime.telemetry import RunTelemetry
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.tam.timing import TimingModel
from repro.util.errors import InfeasibleError


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample. ``budget`` is W, P_max, or delta depending on axis.

    ``telemetry`` carries the solver work behind the point (None for points
    rejected before any solve, e.g. ``W < NB``).
    """

    budget: float
    makespan: float | None
    wirelength: float | None = None
    detail: str = ""
    telemetry: RunTelemetry | None = field(default=None, compare=False)

    @property
    def feasible(self) -> bool:
        return self.makespan is not None


def _width_point(payload: tuple) -> SweepPoint:
    """Worker: one width budget of :func:`width_sweep` (module-level for pickling)."""
    soc, width, num_buses, timing, backend, policy, solver_options = payload
    if width < num_buses:
        return SweepPoint(width, None, detail="W < NB")
    sweep = design_best_architecture(
        soc, width, num_buses, timing=timing, backend=backend, policy=policy,
        **solver_options,
    )
    if sweep.best is None:
        return SweepPoint(
            width, None, detail="all distributions infeasible", telemetry=sweep.telemetry
        )
    return SweepPoint(
        width, sweep.best_makespan, detail=str(sweep.best.arch), telemetry=sweep.telemetry
    )


def width_sweep(
    soc: Soc,
    num_buses: int,
    total_widths: list[int],
    timing: TimingModel | str = "serial",
    backend: str = "bnb",
    jobs: int = 1,
    policy: SolvePolicy | None = None,
    **solver_options,
) -> list[SweepPoint]:
    """Best achievable testing time for each total TAM width budget.

    Uses the full width-distribution enumeration per budget, so each point
    is the true optimum for (W, NB). ``jobs > 1`` fans the budgets across
    worker processes; the returned points keep the input width order.
    ``policy`` (a :class:`~repro.obs.SolvePolicy`) caps each point's solve.
    Extra keyword options (``gap_tol``, ``dive``, ...) are forwarded to
    every point's solve — they must be picklable.
    """
    payloads = [
        (soc, width, num_buses, timing, backend, policy, solver_options)
        for width in total_widths
    ]
    return run_parallel(_width_point, payloads, max_workers=jobs)


def _power_point(payload: tuple) -> SweepPoint:
    """Worker: one power budget of :func:`power_budget_sweep`."""
    soc, arch, timing, budget, backend, policy, solver_options = payload
    problem = DesignProblem(soc=soc, arch=arch, timing=timing, power_budget=budget)
    try:
        result = design(problem, backend=backend, policy=policy, **solver_options)
    except InfeasibleError as exc:
        return SweepPoint(budget, None, detail=str(exc.reason or "infeasible"))
    telemetry = RunTelemetry()
    telemetry.record(result.stats)
    telemetry.record_fallback(result.fallback)
    return SweepPoint(
        budget,
        result.makespan,
        detail=f"{len(problem.forced_pairs)} forced pairs",
        telemetry=telemetry,
    )


def power_budget_sweep(
    soc: Soc,
    arch: TamArchitecture,
    timing: TimingModel | str = "fixed",
    budgets: list[float] | None = None,
    backend: str = "bnb",
    jobs: int = 1,
    policy: SolvePolicy | None = None,
    **solver_options,
) -> list[SweepPoint]:
    """Optimal testing time as the power budget tightens.

    Defaults to sweeping exactly the budgets where the conflict-pair set
    changes (plus the unconstrained endpoint), tracing the full staircase.
    ``jobs > 1`` solves the budgets in parallel, preserving sorted order.
    """
    if budgets is None:
        budgets = budget_sweep_points(soc)
        top = budgets[-1] if budgets else 0.0
        budgets = budgets + [top * 1.1 + 1.0]
    payloads = [
        (soc, arch, timing, budget, backend, policy, solver_options)
        for budget in sorted(budgets)
    ]
    return run_parallel(_power_point, payloads, max_workers=jobs)


def _distance_point(payload: tuple) -> SweepPoint:
    """Worker: one layout budget of :func:`distance_budget_sweep`."""
    (soc, arch, floorplan, timing, delta, backend,
     wirelength_method, policy, solver_options) = payload
    problem = DesignProblem(
        soc=soc,
        arch=arch,
        timing=timing,
        floorplan=floorplan,
        max_pair_distance=delta,
    )
    try:
        result = design(
            problem, backend=backend, wirelength_method=wirelength_method, policy=policy,
            **solver_options,
        )
    except InfeasibleError as exc:
        return SweepPoint(delta, None, detail=str(exc.reason or "infeasible"))
    telemetry = RunTelemetry()
    telemetry.record(result.stats)
    telemetry.record_fallback(result.fallback)
    return SweepPoint(
        delta,
        result.makespan,
        wirelength=result.wirelength,
        detail=f"{len(problem.forbidden_pairs)} forbidden pairs",
        telemetry=telemetry,
    )


def distance_budget_sweep(
    soc: Soc,
    arch: TamArchitecture,
    floorplan: Floorplan,
    timing: TimingModel | str = "fixed",
    deltas: list[float] | None = None,
    backend: str = "bnb",
    wirelength_method: str = "chain",
    jobs: int = 1,
    policy: SolvePolicy | None = None,
    **solver_options,
) -> list[SweepPoint]:
    """Testing time and TAM wirelength as the layout budget tightens.

    Defaults to the floorplan's own distance change points (descending).
    Returned wirelength is the width-weighted routing cost of the optimal
    design at each budget. ``jobs > 1`` solves the budgets in parallel,
    preserving delta order.
    """
    if deltas is None:
        sweep = distance_sweep_points(floorplan)
        top = floorplan.spread()
        deltas = [top * 1.01] + sweep
    payloads = [
        (soc, arch, floorplan, timing, delta, backend, wirelength_method, policy,
         solver_options)
        for delta in deltas
    ]
    return run_parallel(_distance_point, payloads, max_workers=jobs)


def pareto_front(points: list[SweepPoint]) -> list[SweepPoint]:
    """Non-dominated (makespan, wirelength) subset of a distance sweep.

    A point dominates another if it is no worse on both axes and strictly
    better on one. Returned sorted by makespan ascending.
    """
    feasible = [p for p in points if p.feasible and p.wirelength is not None]
    front = []
    for p in feasible:
        dominated = any(
            (q.makespan <= p.makespan and q.wirelength <= p.wirelength)
            and (q.makespan < p.makespan or q.wirelength < p.wirelength)
            for q in feasible
        )
        if not dominated:
            front.append(p)
    unique = {}
    for p in sorted(front, key=lambda q: (q.makespan, q.wirelength)):
        unique.setdefault((p.makespan, p.wirelength), p)
    return list(unique.values())
