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

from repro.core.baselines import lpt_assignment
from repro.core.formulation import IlpFormulation, build_assignment_ilp
from repro.core.problem import DesignProblem
from repro.ilp.solution import SolveStats, Status
from repro.layout.floorplan import Floorplan
from repro.layout.routing import tam_wirelength
from repro.obs import SolvePolicy, get_metrics, now, span
from repro.runtime.telemetry import RunTelemetry
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.tam.assignment import Assignment
from repro.tam.timing import TimingModel
from repro.util.errors import InfeasibleError, SolverError


@dataclass
class TamDesign:
    """An optimized test access architecture for one problem instance.

    ``provenance`` says where the assignment came from: ``"exact"`` when
    the backend finished its search, ``"incumbent"`` for its best-so-far
    when a budget ran out, and ``"lpt"`` when it stopped with no incumbent
    and the LPT greedy assignment stood in.
    """

    problem: DesignProblem
    assignment: Assignment
    makespan: float
    bus_times: list[float]
    status: Status
    stats: SolveStats
    backend: str
    wirelength: float | None = None
    provenance: str = "exact"

    @property
    def arch(self) -> TamArchitecture:
        return self.problem.arch

    @property
    def is_proven_optimal(self) -> bool:
        return self.status is Status.OPTIMAL

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
        if self.provenance != "exact":
            lines.append(f"  provenance: {self.provenance} (not proven optimal)")
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

    Without a ``policy`` the solve is exact; :class:`InfeasibleError` means
    the constraints admit no assignment. A :class:`~repro.obs.SolvePolicy`
    makes it *anytime*: when its budget runs out, the best incumbent comes
    back as ``Status.FEASIBLE`` with provenance ``"incumbent"``. Whenever a
    backend stops with no incumbent at all, the LPT greedy assignment
    (:func:`~repro.core.baselines.lpt_assignment`) stands in, as
    ``Status.FEASIBLE`` with provenance ``"lpt"``; if LPT cannot place
    every core either, :class:`SolverError` says how the backend stopped.
    Every design that is not ``"exact"`` bumps the ``design.fallbacks``
    metric.

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
    if backend == "bnb" and "gap_tol" not in solver_options:
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

    with span("decode"):
        if solution.is_feasible:
            assignment = formulation.decode(solution)
            violations = problem.validate(assignment)
            if violations:
                raise SolverError(
                    "solver returned an assignment violating the problem constraints: "
                    + "; ".join(violations)
                )
            status = solution.status
            provenance = "incumbent" if status is Status.FEASIBLE else "exact"
        else:
            # The backend stopped with no incumbent: LPT stands in.
            try:
                assignment = lpt_assignment(problem).assignment
            except InfeasibleError:
                raise SolverError(
                    f"backend {backend!r} stopped with status {solution.status.value} "
                    f"after {solution.stats.nodes} nodes"
                ) from None
            status, provenance = Status.FEASIBLE, "lpt"
        bus_times = assignment.bus_times(problem.timing)
        makespan = max(bus_times)
        wirelength = None
        if problem.floorplan is not None:
            wirelength = tam_wirelength(problem.floorplan, assignment, method=wirelength_method)
    if provenance != "exact":
        get_metrics().counter("design.fallbacks").inc()
    return TamDesign(
        problem=problem,
        assignment=assignment,
        makespan=makespan,
        bus_times=bus_times,
        status=status,
        stats=solution.stats,
        backend=solution.backend,
        wirelength=wirelength,
        provenance=provenance,
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
        result.telemetry.record_fallback(candidate.provenance)
        result.per_architecture.append((arch, candidate.makespan))
        if result.best is None or candidate.makespan < result.best.makespan:
            result.best = candidate
    result.wall_time = now() - start
    return result
