"""E1 (extension) — the price of hard peak-power compliance.

The paper's pairwise encoding leaves a conservatism gap: 3+ mutually
compatible cores may overlap and jointly exceed ``P_max`` (measured in T3).
This extension keeps the ILP-optimal assignment but re-schedules with a
hard instantaneous cap at ``P_max`` and reports the slowdown — quantifying
what true peak compliance costs on top of the paper's model.

Shape claims: every capped schedule's true peak respects the cap; the
capped makespan is never below the assignment's makespan; a cap at the
SOC's total power is free (zero slowdown).
"""

from __future__ import annotations

from repro.core import DesignProblem, build_schedule, design
from repro.core.power_schedule import schedule_with_power_cap
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.power import budget_sweep_points
from repro.soc import build_d695, build_s1
from repro.tam import TamArchitecture
from repro.util.errors import InfeasibleError
from repro.util.tables import Table, format_objective

DEFAULT_ARCHS = {"S1": TamArchitecture([16, 16, 16]), "d695": TamArchitecture([32, 16, 16])}


def run(socs=None, archs=None, timing: str = "serial", backend: str = "bnb",
        config: ExperimentConfig | None = None) -> ExperimentResult:
    config = ExperimentConfig.coerce(config)
    backend = config.resolve_backend(backend)
    result = ExperimentResult(
        "E1", "Extension: hard peak-power cap vs the paper's pairwise model"
    )
    result.telemetry.jobs = config.jobs
    archs = archs or DEFAULT_ARCHS
    with config.activate():
        for soc in socs or (build_s1(), build_d695()):
            arch = archs.get(soc.name) or TamArchitecture.even_split(48, 3)
            table = result.add_table(
                Table(
                    [
                        "P_max (mW)",
                        "T* pairwise (cycles)",
                        "true peak (mW)",
                        "T capped (cycles)",
                        "slowdown (%)",
                    ],
                    title=f"{soc.name} on {arch}: pairwise ILP vs hard-capped schedule",
                )
            )
            budgets = budget_sweep_points(soc)
            picks = [budgets[0], budgets[len(budgets) // 2], budgets[-1], budgets[-1] * 1.2]
            for budget in picks:
                problem = DesignProblem(soc=soc, arch=arch, timing=timing, power_budget=budget)
                try:
                    designed = design(problem, backend=backend, **config.design_options())
                except InfeasibleError:
                    table.add_row([round(budget, 1), None, None, None, None])
                    continue
                result.telemetry.record(designed.stats)
                result.telemetry.record_fallback(designed.provenance)
                plain = build_schedule(problem, designed.assignment)
                capped = schedule_with_power_cap(problem, designed.assignment, budget)
                profile = capped.schedule.power_profile()
                result.check(
                    profile.respects(budget),
                    f"{soc.name} P={budget:.1f}: capped schedule peak within cap",
                )
                result.check(
                    capped.makespan >= designed.makespan - 1e-9,
                    f"{soc.name} P={budget:.1f}: cap never speeds the schedule up",
                )
                table.add_row(
                    [
                        round(budget, 1),
                        format_objective(designed.makespan),
                        round(plain.peak_power, 1),
                        format_objective(capped.makespan),
                        round(capped.slowdown * 100, 1),
                    ]
                )
            # A cap at total power changes nothing.
            problem = DesignProblem(soc=soc, arch=arch, timing=timing)
            designed = design(problem, backend=backend, **config.design_options())
            result.telemetry.record(designed.stats)
            result.telemetry.record_fallback(designed.provenance)
            free = schedule_with_power_cap(problem, designed.assignment, soc.total_test_power)
            result.check(
                abs(free.slowdown) < 1e-9,
                f"{soc.name}: cap at total SOC power costs nothing",
            )
    result.note(
        "slowdown > 0 rows are exactly where T3's 'sched peak' exceeded P_max: "
        "the pairwise model allowed a 3+-core overlap the hard cap must break."
    )
    return result


if __name__ == "__main__":
    print(run().render())
