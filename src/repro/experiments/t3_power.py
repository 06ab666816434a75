"""T3 — power-constrained design.

Sweeps the power budget ``P_max`` over exactly the budgets where the
conflict-pair set changes and reports the optimal testing time, the number
of forced pairs/merged groups, and — via the concrete schedule — the *true*
instantaneous peak power, quantifying the pairwise model's conservatism.

Shape claims: testing time is non-increasing in the budget; at/above the
largest pairwise power sum the unconstrained optimum is recovered; every
schedule's pairwise-concurrent power respects the budget it was designed
for.
"""

from __future__ import annotations

import itertools
import math

from repro.core import DesignProblem, build_schedule, design
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.power import budget_sweep_points, max_clique_power, power_groups
from repro.soc import build_s1, build_s2
from repro.tam import TamArchitecture
from repro.util.errors import InfeasibleError
from repro.util.tables import Table, format_objective

DEFAULT_ARCHS = {"S1": TamArchitecture([16, 16, 16]), "S2": TamArchitecture([32, 16, 16])}


def _max_pairwise_concurrent(schedule, budget) -> float:
    """Largest concurrent *pair* power in the schedule (the modeled quantity)."""
    worst = 0.0
    for a, b in itertools.combinations(schedule.sessions, 2):
        if a.bus != b.bus and a.start < b.end and b.start < a.end:
            worst = max(worst, a.power + b.power)
    return worst


def run(socs=None, archs=None, timing: str = "serial", backend: str = "bnb",
        config: ExperimentConfig | None = None) -> ExperimentResult:
    config = ExperimentConfig.coerce(config)
    backend = config.resolve_backend(backend)
    result = ExperimentResult("T3", "Power-constrained design: testing time vs P_max")
    result.telemetry.jobs = config.jobs
    archs = archs or DEFAULT_ARCHS
    with config.activate():
        for soc in socs or (build_s1(), build_s2()):
            arch = archs.get(soc.name) or TamArchitecture.even_split(48, 3)
            table = result.add_table(
                Table(
                    [
                        "P_max (mW)",
                        "T* (cycles)",
                        "forced pairs",
                        "merged groups",
                        "sched peak (mW)",
                        "pairwise peak",
                        "clique power",
                    ],
                    title=f"{soc.name} on {arch}: power budget sweep ({timing} timing)",
                )
            )
            budgets = budget_sweep_points(soc)
            budgets = budgets + [budgets[-1] * 1.1]
            baseline = design(
                DesignProblem(soc=soc, arch=arch, timing=timing),
                backend=backend,
                **config.design_options(),
            )
            result.telemetry.record(baseline.stats)
            result.telemetry.record_fallback(baseline.provenance)
            unconstrained = baseline.makespan
            previous = math.inf
            for budget in sorted(budgets):
                problem = DesignProblem(soc=soc, arch=arch, timing=timing, power_budget=budget)
                try:
                    designed = design(problem, backend=backend, **config.design_options())
                except InfeasibleError:
                    table.add_row([round(budget, 1), None, len(problem.forced_pairs),
                                   len(power_groups(soc, budget)), None, None, None])
                    continue
                result.telemetry.record(designed.stats)
                result.telemetry.record_fallback(designed.provenance)
                schedule = build_schedule(problem, designed.assignment, policy="power_stagger")
                pairwise_peak = _max_pairwise_concurrent(schedule, budget)
                result.check(
                    pairwise_peak <= budget + 1e-6,
                    f"{soc.name} P_max={budget:.1f}: concurrent pair power within budget",
                )
                result.check(
                    designed.makespan <= previous + 1e-6,
                    f"{soc.name} P_max={budget:.1f}: time non-increasing in budget",
                )
                previous = designed.makespan
                table.add_row(
                    [
                        round(budget, 1),
                        format_objective(designed.makespan),
                        len(problem.forced_pairs),
                        len(power_groups(soc, budget)),
                        round(schedule.peak_power, 1),
                        round(pairwise_peak, 1),
                        round(max_clique_power(soc, budget), 1),
                    ]
                )
            result.check(
                abs(previous - unconstrained) < 1e-6,
                f"{soc.name}: loosest budget recovers the unconstrained optimum "
                f"({unconstrained:.0f} cycles)",
            )
            result.note(
                f"{soc.name}: 'sched peak' above 'P_max' rows expose the pairwise "
                "encoding's known conservatism gap (3+ compatible cores may overlap)."
            )
    return result


if __name__ == "__main__":
    print(run().render())
