"""End-to-end architecture design: solve instances, sweep width splits.

:func:`design` solves one :class:`DesignProblem` to optimality and wraps the
result as a :class:`TamDesign` — assignment, certified makespan, wirelength
(when a floorplan is attached), and solver work counters.

:func:`design_best_architecture` reproduces the paper's outer loop: given a
total TAM width budget ``W`` and a bus count ``NB``, enumerate the width
distributions (integer partitions of W into NB parts — buses are symmetric
before assignment), solve each, and keep the best. Infeasible distributions
are recorded, not ignored: the constrained experiments need to report how
much of the design space a tight budget kills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import lpt_assignment, simulated_annealing
from repro.core.formulation import IlpFormulation, build_assignment_ilp
from repro.core.problem import DesignProblem
from repro.ilp.solution import SolveStats, Status
from repro.layout.floorplan import Floorplan
from repro.layout.routing import tam_wirelength
from repro.obs import FallbackReport, SolvePolicy, get_metrics, now, span
from repro.runtime.telemetry import RunTelemetry
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.tam.assignment import Assignment
from repro.tam.timing import TimingModel
from repro.util.errors import InfeasibleError, SolverError


@dataclass
class TamDesign:
    """An optimized test access architecture for one problem instance.

    ``fallback`` records the resilience path that produced this design
    (:class:`~repro.obs.FallbackReport`): ``None``/``"exact"`` for a proven
    optimum, ``"incumbent"`` for a budget-truncated best-so-far, and
    ``"lpt"``/``"sa"`` when the exact search found nothing and a heuristic
    stood in.
    """

    problem: DesignProblem
    assignment: Assignment
    makespan: float
    bus_times: list[float]
    status: Status
    stats: SolveStats
    backend: str
    wirelength: float | None = None
    fallback: FallbackReport | None = None

    @property
    def arch(self) -> TamArchitecture:
        return self.problem.arch

    @property
    def is_proven_optimal(self) -> bool:
        return self.status is Status.OPTIMAL

    @property
    def provenance(self) -> str:
        """Where the answer came from: exact / incumbent / lpt / sa."""
        return self.fallback.source if self.fallback is not None else "exact"

    def describe(self) -> str:
        lines = [
            f"TAM design for {self.problem.soc.name} [{self.problem.constraint_summary()}]",
            self.assignment.describe(self.problem.timing),
        ]
        if self.wirelength is not None:
            lines.append(f"  TAM wirelength: {self.wirelength:.1f} wire-mm")
        cached = ", cached" if self.stats.cache_hit else ""
        lines.append(
            f"  solver: {self.backend}, status={self.status.value}, "
            f"nodes={self.stats.nodes}, LPs={self.stats.lp_solves}, "
            f"{self.stats.wall_time * 1000:.0f} ms{cached}"
        )
        if self.fallback is not None and self.fallback.degraded:
            lines.append(f"  resilience: {self.fallback.render()}")
        return "\n".join(lines)


def design(
    problem: DesignProblem,
    backend: str = "bnb",
    wirelength_method: str = "chain",
    cache: "object | bool | None" = None,
    policy: SolvePolicy | None = None,
    incumbent: Assignment | None = None,
    **solver_options,
) -> TamDesign:
    """Solve ``problem`` — to proven optimality, or as far as a policy allows.

    Any keyword (``gap_tol``, ``dive``, ``cut_rounds``, …) is forwarded to
    the backend as an ad-hoc option and hashed into the cache key; left
    unset, the bnb solver runs its own defaults (:mod:`repro.ilp.
    branch_and_bound`, DESIGN.md §12–§13).

    Without a ``policy`` the solve is exact: :class:`InfeasibleError` when
    the constraints admit no assignment, :class:`SolverError` if the backend
    stops without a proof. With a :class:`~repro.obs.SolvePolicy` the path
    is *anytime*: on budget exhaustion the best incumbent is returned with
    ``Status.FEASIBLE`` provenance, and when no incumbent exists the
    policy's degradation ladder (LPT greedy, then simulated annealing by
    default) stands in — with every step recorded in the design's
    :class:`~repro.obs.FallbackReport` and the process metrics. A policy
    with an empty ladder restores the strict behavior under a budget.

    The bnb backend starts from an incumbent: ``incumbent`` when given (a
    known-good :class:`~repro.tam.assignment.Assignment`, keyed by its
    values), otherwise the LPT greedy assignment
    (:func:`~repro.core.baselines.lpt_assignment`; none when LPT cannot
    place every core), built only when the solve runs and keyed by name,
    since it is a function of the model. The optimum is unchanged, pruning
    just starts earlier (DESIGN.md §14).

    ``cache`` is forwarded to :meth:`Model.solve`: a
    :class:`~repro.runtime.cache.SolutionCache` memoizes this solve, ``None``
    defers to the active context cache, ``False`` bypasses caching.
    """
    contradictions = problem.contradictions()
    if contradictions:
        names = problem.soc.core_names
        listed = ", ".join(f"({names[a]}, {names[b]})" for a, b in contradictions[:4])
        raise InfeasibleError(
            f"power budget forces and layout budget forbids the same pair(s): {listed}",
            reason="forced/forbidden contradiction",
        )

    with span("formulate", soc=problem.soc.name):
        formulation = build_assignment_ilp(problem)
    if backend == "bnb" and "gap_tol" not in solver_options and (
        policy is None or policy.gap_tol is None
    ):
        # Test times are integral cycle counts: stop once the bound is
        # within one cycle of the incumbent.
        solver_options["gap_tol"] = 1.0 - 1e-6
    if backend == "bnb" and "warm_start" not in solver_options:
        if incumbent is None:
            # LPT is the cheapest upper bound there is: the search prunes
            # against it from the first node.
            solver_options["warm_start"] = _LptSeed(formulation)
        else:
            violations = problem.validate(incumbent)
            if violations:
                raise ValueError(
                    "incumbent= must be feasible for the problem; violations: "
                    + "; ".join(violations)
                )
            solver_options["warm_start"] = _warm_start(formulation, incumbent)
    with span("solve", backend=backend):
        solution = formulation.model.solve(
            backend=backend, cache=cache, policy=policy, **solver_options
        )

    if solution.status is Status.INFEASIBLE:
        raise InfeasibleError(
            f"no feasible assignment for {problem.constraint_summary()}",
            reason="ILP infeasible",
        )

    report = FallbackReport()
    if not solution.is_feasible:
        # Budget exhausted with no incumbent: walk the degradation ladder.
        return _degrade(problem, solution, backend, policy, report, wirelength_method)
    if solution.status is Status.FEASIBLE:
        report.source = "incumbent"
        report.reason = f"budget exhausted after {solution.stats.nodes} nodes"
        report.record_step("exact", "incumbent", nodes=solution.stats.nodes)

    with span("decode"):
        assignment = formulation.decode(solution)
        violations = problem.validate(assignment)
        if violations:
            raise SolverError(
                "solver returned an assignment violating the problem constraints: "
                + "; ".join(violations)
            )
        bus_times = assignment.bus_times(problem.timing)
        makespan = max(bus_times)
        wirelength = None
        if problem.floorplan is not None:
            wirelength = tam_wirelength(problem.floorplan, assignment, method=wirelength_method)
    if report.degraded:
        get_metrics().counter("design.fallbacks").inc()
    return TamDesign(
        problem=problem,
        assignment=assignment,
        makespan=makespan,
        bus_times=bus_times,
        status=solution.status,
        stats=solution.stats,
        backend=solution.backend,
        wirelength=wirelength,
        fallback=report,
    )


def _warm_start(formulation: IlpFormulation, incumbent: Assignment) -> dict:
    """``incumbent`` as the bnb warm start: a value for every variable."""
    values = {
        var: 1.0 if incumbent.bus_of[i] == j else 0.0
        for (i, j), var in formulation.x.items()
    }
    values[formulation.makespan_var] = incumbent.makespan(formulation.problem.timing)
    return values


class _LptSeed:
    """The LPT assignment as a deferred warm start.

    :meth:`Model.solve <repro.ilp.model.Model.solve>` calls it only once
    the cache has missed, so a hit never pays for LPT. Its cache token
    names the seed instead of hashing its values: LPT is a function of the
    model, so the name says everything the values would.
    """

    def __init__(self, formulation: IlpFormulation):
        self.formulation = formulation

    def cache_token(self) -> str:
        return "lpt"

    def __call__(self) -> dict | None:
        try:
            incumbent = lpt_assignment(self.formulation.problem).assignment
        except InfeasibleError:
            return None
        return _warm_start(self.formulation, incumbent)


def _degrade(
    problem: DesignProblem,
    solution,
    backend: str,
    policy: SolvePolicy | None,
    report: FallbackReport,
    wirelength_method: str,
) -> TamDesign:
    """Budget exhausted without an incumbent: heuristics stand in.

    Walks ``policy.fallback`` (default LPT greedy, then simulated
    annealing). Each rung's outcome lands in the report; if every rung
    fails — or the policy forbids degradation — the original strict
    :class:`SolverError` is raised.
    """
    ladder = policy.fallback if policy is not None else ()
    report.reason = (
        f"backend {backend!r} stopped with status {solution.status.value} "
        f"after {solution.stats.nodes} nodes"
    )
    report.record_step("exact", "no_incumbent", nodes=solution.stats.nodes)
    assignment = None
    with span("fallback", ladder=list(ladder)):
        for rung in ladder:
            try:
                if rung == "lpt":
                    candidate = lpt_assignment(problem)
                else:  # "sa" — the only other registered rung
                    candidate = simulated_annealing(problem, seed=0)
            except InfeasibleError as exc:
                report.record_step(rung, "infeasible", detail=str(exc.reason or exc))
                continue
            report.record_step(rung, "ok", makespan=candidate.makespan)
            report.source = rung
            assignment = candidate.assignment
            break
    if assignment is None:
        raise SolverError(report.reason)

    get_metrics().counter("design.fallbacks").inc()
    bus_times = assignment.bus_times(problem.timing)
    wirelength = None
    if problem.floorplan is not None:
        wirelength = tam_wirelength(problem.floorplan, assignment, method=wirelength_method)
    return TamDesign(
        problem=problem,
        assignment=assignment,
        makespan=max(bus_times),
        bus_times=bus_times,
        status=Status.FEASIBLE,
        stats=solution.stats,
        backend=solution.backend,
        wirelength=wirelength,
        fallback=report,
    )


@dataclass
class ArchitectureSweepResult:
    """Outcome of sweeping width distributions for one (W, NB) budget.

    ``pruned`` counts distributions skipped because a cheap certified lower
    bound already matched or exceeded the incumbent best — they cannot
    improve the sweep and are not solved. ``telemetry`` aggregates the
    solver work (and cache hits) over every distribution actually solved.
    """

    soc_name: str
    total_width: int
    num_buses: int
    best: TamDesign | None
    per_architecture: list[tuple[TamArchitecture, float | None]] = field(default_factory=list)
    evaluated: int = 0
    infeasible: int = 0
    pruned: int = 0
    wall_time: float = 0.0
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)

    @property
    def best_makespan(self) -> float:
        return self.best.makespan if self.best else math.inf


def design_best_architecture(
    soc: Soc,
    total_width: int,
    num_buses: int,
    timing: TimingModel | str = "fixed",
    power_budget: float | None = None,
    floorplan: Floorplan | None = None,
    max_pair_distance: float | None = None,
    backend: str = "bnb",
    clamp_useless_width: bool = False,
    policy: SolvePolicy | None = None,
    **solver_options,
) -> ArchitectureSweepResult:
    """Optimal width distribution + assignment for a total width budget.

    Enumerates integer partitions of ``total_width`` into ``num_buses``
    positive parts (symmetric permutations deduplicated), solves each to
    optimality, and returns the best design along with the full sweep trace.
    Within one call every formulation input but the time table is fixed, so
    two distributions with equal tables are one ILP (on S1 with serial
    timing at W = 16, [12, 4] and [11, 5] are such twins, as are [10, 6] and
    [9, 7]): the later one is recorded with its twin's makespan (or as
    infeasible) without a second solve, and only real solves reach
    ``telemetry``.

    With ``clamp_useless_width`` the enumeration caps each bus at the timing
    model's :meth:`~repro.tam.timing.TimingModel.max_useful_bus_width` and
    shrinks the budget to ``num_buses x cap`` when it exceeds it — wider
    buses cannot improve any core, so the clamped sweep reaches the same
    optimum over a far smaller space (used by the dual width-minimization
    search, where budgets can be large).
    """
    from repro.tam.timing import make_timing_model

    start = now()
    result = ArchitectureSweepResult(soc.name, total_width, num_buses, best=None)
    # Makespan (None: infeasible) per time table solved so far.
    solved: dict[bytes, float | None] = {}
    max_bus_width = None
    if clamp_useless_width:
        timing_model = make_timing_model(timing) if isinstance(timing, str) else timing
        max_bus_width = timing_model.max_useful_bus_width(soc)
        total_width = min(total_width, num_buses * max_bus_width)
        timing = timing_model
    for arch in TamArchitecture.enumerate_distributions(
        total_width, num_buses, max_bus_width=max_bus_width
    ):
        problem = DesignProblem(
            soc=soc,
            arch=arch,
            timing=timing,
            power_budget=power_budget,
            floorplan=floorplan,
            max_pair_distance=max_pair_distance,
        )
        # Certified lower bounds that hold under any constraint set: the
        # slowest core on its fastest bus, and total work spread perfectly
        # over the buses. An infinite bound means some core fits no bus
        # (provably infeasible, recorded without solving); a finite bound
        # matching the incumbent cannot strictly improve the sweep.
        per_core_best = np.min(problem.times, axis=1)
        if not np.isfinite(per_core_best).all():
            result.evaluated += 1
            result.infeasible += 1
            result.per_architecture.append((arch, None))
            continue
        if result.best is not None:
            singleton_bound = float(np.max(per_core_best))
            work_bound = float(np.sum(per_core_best)) / num_buses
            if max(singleton_bound, work_bound) >= result.best.makespan - 1e-9:
                result.pruned += 1
                continue
        result.evaluated += 1
        table = problem.times.tobytes()
        if table in solved:
            makespan = solved[table]
            if makespan is None:
                result.infeasible += 1
            result.per_architecture.append((arch, makespan))
            continue
        try:
            candidate = design(problem, backend=backend, policy=policy, **solver_options)
        except InfeasibleError:
            solved[table] = None
            result.infeasible += 1
            result.per_architecture.append((arch, None))
            continue
        solved[table] = candidate.makespan
        result.telemetry.record(candidate.stats)
        result.telemetry.record_fallback(candidate.fallback)
        result.per_architecture.append((arch, candidate.makespan))
        if result.best is None or candidate.makespan < result.best.makespan:
            result.best = candidate
    result.wall_time = now() - start
    return result
