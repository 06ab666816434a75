"""Heuristic baselines the ILP is compared against.

The paper's case for ILP is optimality at acceptable runtime; the harness
quantifies it against the heuristics a practitioner would otherwise reach
for:

- :func:`lpt_assignment` — longest-processing-time greedy list scheduling,
  extended to respect width feasibility and both pair-constraint families;
- :func:`random_assignment` — best of N random feasible assignments;
- :func:`local_search` — steepest-descent move/swap improvement;
- :func:`simulated_annealing` — SA over assignments with constraint-aware
  moves.

Every baseline returns a :class:`BaselineResult` whose assignment has been
re-validated against the problem; a baseline that cannot find a feasible
assignment raises :class:`InfeasibleError` (they are heuristics — the ILP
may still prove the instance feasible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from repro.core.problem import DesignProblem
from repro.obs import now
from repro.tam.assignment import Assignment, evaluate_makespan
from repro.util.errors import InfeasibleError, ValidationError
from repro.util.rng import RngLike, make_rng


@dataclass
class BaselineResult:
    """A heuristic solution with provenance."""

    name: str
    assignment: Assignment
    makespan: float
    wall_time: float
    evaluations: int = 0


def _pair_maps(problem: DesignProblem) -> tuple[list[set[int]], list[set[int]]]:
    n = len(problem.soc)
    forbid: list[set[int]] = [set() for _ in range(n)]
    for a, b in problem.forbidden_pairs:
        forbid[a].add(b)
        forbid[b].add(a)
    force: list[set[int]] = [set() for _ in range(n)]
    for a, b in problem.forced_pairs:
        force[a].add(b)
        force[b].add(a)
    return forbid, force


def _finish(problem: DesignProblem, name: str, bus_of: list[int], start: float, evaluations: int) -> BaselineResult:
    assignment = Assignment(problem.soc, problem.arch, tuple(bus_of))
    violations = problem.validate(assignment)
    if violations:
        raise InfeasibleError(
            f"{name} produced an invalid assignment", reason="; ".join(violations)
        )
    return BaselineResult(
        name=name,
        assignment=assignment,
        makespan=assignment.makespan(problem.timing),
        wall_time=now() - start,
        evaluations=evaluations,
    )


def lpt_assignment(problem: DesignProblem) -> BaselineResult:
    """Greedy LPT over power-merged groups.

    Groups (forced components) are placed largest-total-time-first onto the
    feasible bus with the smallest resulting load, skipping buses that hold
    a forbidden partner. On the unconstrained uniform-width problem this is
    Graham's LPT with its 4/3 - 1/(3m) guarantee; with constraints it is a
    best-effort heuristic that may fail where the ILP succeeds.
    """
    start = now()
    times = problem.times
    forbid, _ = _pair_maps(problem)
    groups = problem.forced_groups

    def group_time_on(group: list[int], bus: int) -> float:
        return float(sum(times[i][bus] for i in group))

    order = sorted(
        groups,
        key=lambda group: -min(
            (group_time_on(group, j) for j in range(problem.arch.num_buses)),
            default=math.inf,
        ),
    )
    load = [0.0] * problem.arch.num_buses
    bus_of = [-1] * len(problem.soc)
    for group in order:
        best_bus = None
        best_load = math.inf
        for j in range(problem.arch.num_buses):
            group_time = group_time_on(group, j)
            if not math.isfinite(group_time):
                continue
            blocked = any(
                bus_of[partner] == j for member in group for partner in forbid[member]
            )
            if blocked:
                continue
            if load[j] + group_time < best_load:
                best_load = load[j] + group_time
                best_bus = j
        if best_bus is None:
            raise InfeasibleError(
                "LPT could not place a power group", reason="no feasible bus for a group"
            )
        for member in group:
            bus_of[member] = best_bus
        load[best_bus] = best_load
    return _finish(problem, "lpt", bus_of, start, evaluations=len(groups))


def random_assignment(
    problem: DesignProblem, seed: RngLike = 0, attempts: int = 200
) -> BaselineResult:
    """Best feasible assignment out of ``attempts`` uniform draws.

    Groups are kept intact and buses drawn uniformly among width-feasible
    ones; draws violating a forbidden pair are discarded. The asymptotically
    dumb baseline that calibrates how structured the problem is.
    """
    if attempts <= 0:
        raise ValidationError(f"attempts must be positive, got {attempts}")
    start = now()
    rng = make_rng(seed)
    times = problem.times
    groups = problem.forced_groups
    forbid, _ = _pair_maps(problem)
    num_buses = problem.arch.num_buses

    feasible_buses_of_group = []
    for group in groups:
        buses = [
            j
            for j in range(num_buses)
            if all(math.isfinite(times[i][j]) for i in group)
        ]
        if not buses:
            raise InfeasibleError(
                "a power group fits no bus", reason="width-infeasible group"
            )
        feasible_buses_of_group.append(buses)

    best_vector: list[int] | None = None
    best_span = math.inf
    for _ in range(attempts):
        bus_of = [-1] * len(problem.soc)
        ok = True
        for group, buses in zip(groups, feasible_buses_of_group):
            bus = int(buses[int(rng.integers(len(buses)))])
            if any(bus_of[p] == bus for member in group for p in forbid[member]):
                ok = False
                break
            for member in group:
                bus_of[member] = bus
        if not ok:
            continue
        span = evaluate_makespan(times, bus_of, num_buses)
        if span < best_span:
            best_span = span
            best_vector = bus_of
    if best_vector is None:
        raise InfeasibleError(
            f"no feasible random assignment in {attempts} attempts",
            reason="random search exhausted",
        )
    return _finish(problem, "random", best_vector, start, evaluations=attempts)


def _neighbors(problem: DesignProblem, bus_of: list[int], groups, feasible, forbid):
    """Yield (vector, description) move/swap neighbors keeping feasibility."""
    num_groups = len(groups)
    for g, group in enumerate(groups):
        current = bus_of[group[0]]
        for bus in feasible[g]:
            if bus == current:
                continue
            trial = list(bus_of)
            for member in group:
                trial[member] = bus
            if any(trial[p] == bus for member in group for p in forbid[member]):
                continue
            yield trial
    for g1 in range(num_groups):
        for g2 in range(g1 + 1, num_groups):
            b1 = bus_of[groups[g1][0]]
            b2 = bus_of[groups[g2][0]]
            if b1 == b2 or b2 not in feasible[g1] or b1 not in feasible[g2]:
                continue
            trial = list(bus_of)
            for member in groups[g1]:
                trial[member] = b2
            for member in groups[g2]:
                trial[member] = b1
            bad = any(
                trial[p] == trial[member]
                for g in (g1, g2)
                for member in groups[g]
                for p in forbid[member]
            )
            if not bad:
                yield trial


def local_search(
    problem: DesignProblem,
    start_from: Assignment | None = None,
    max_rounds: int = 100,
) -> BaselineResult:
    """Steepest-descent improvement over group moves and swaps.

    Starts from LPT unless given a seed assignment; stops at a local
    optimum or after ``max_rounds`` improvement rounds.
    """
    start = now()
    times = problem.times
    groups = problem.forced_groups
    forbid, _ = _pair_maps(problem)
    num_buses = problem.arch.num_buses
    feasible = [
        [j for j in range(num_buses) if all(math.isfinite(times[i][j]) for i in group)]
        for group in groups
    ]

    if start_from is None:
        bus_of = list(lpt_assignment(problem).assignment.bus_of)
    else:
        bus_of = list(start_from.bus_of)
    span = evaluate_makespan(times, bus_of, num_buses)
    evaluations = 0
    for _ in range(max_rounds):
        best_trial = None
        best_span = span
        for trial in _neighbors(problem, bus_of, groups, feasible, forbid):
            evaluations += 1
            trial_span = evaluate_makespan(times, trial, num_buses)
            if trial_span < best_span:
                best_span = trial_span
                best_trial = trial
        if best_trial is None:
            break
        bus_of = best_trial
        span = best_span
    return _finish(problem, "local_search", bus_of, start, evaluations)


def simulated_annealing(
    problem: DesignProblem,
    seed: RngLike = 0,
    iterations: int = 5000,
    initial_temperature: float | None = None,
) -> BaselineResult:
    """SA over constraint-respecting group moves.

    Random restarts are unnecessary: the move set is connected over the
    feasible region reachable from the LPT start, and annealing escapes the
    local optima the paper's instances produce.
    """
    if iterations < 0:
        raise ValidationError(f"iterations must be non-negative, got {iterations}")
    start = now()
    rng = make_rng(seed)
    times = problem.times
    groups = problem.forced_groups
    forbid, _ = _pair_maps(problem)
    num_buses = problem.arch.num_buses
    feasible = [
        [j for j in range(num_buses) if all(math.isfinite(times[i][j]) for i in group)]
        for group in groups
    ]

    bus_of = list(lpt_assignment(problem).assignment.bus_of)
    span = evaluate_makespan(times, bus_of, num_buses)
    best_vector = list(bus_of)
    best_span = span
    temperature = initial_temperature if initial_temperature is not None else max(span * 0.05, 1.0)
    evaluations = 0

    for _ in range(iterations):
        g = int(rng.integers(len(groups)))
        options = feasible[g]
        if len(options) <= 1:
            continue
        bus = int(options[int(rng.integers(len(options)))])
        group = groups[g]
        if bus == bus_of[group[0]]:
            continue
        if any(bus_of[p] == bus for member in group for p in forbid[member]):
            continue
        trial = list(bus_of)
        for member in group:
            trial[member] = bus
        evaluations += 1
        trial_span = evaluate_makespan(times, trial, num_buses)
        delta = trial_span - span
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            bus_of = trial
            span = trial_span
            if span < best_span:
                best_span = span
                best_vector = list(bus_of)
        temperature *= 0.999
    return _finish(problem, "sa", best_vector, start, evaluations)


def run_all_baselines(problem: DesignProblem, seed: RngLike = 0) -> list[BaselineResult]:
    """Run every baseline that succeeds on ``problem`` (failures are skipped)."""
    results = []
    for runner in (
        lambda: lpt_assignment(problem),
        lambda: random_assignment(problem, seed=seed),
        lambda: local_search(problem),
        lambda: simulated_annealing(problem, seed=seed),
    ):
        try:
            results.append(runner())
        except InfeasibleError:
            continue
    return results
