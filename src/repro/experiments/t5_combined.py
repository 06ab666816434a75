"""T5 — combined power + layout constraints.

A budget grid per SOC: three power budgets x three distance budgets, the
optimal testing time in each cell (or INFEASIBLE). Shape claims:

- each cell is at least as slow as both of its single-constraint projections
  (combined constraints only shrink the feasible set);
- the loosest cell equals the unconstrained optimum;
- contradiction cells (a pair both forced and forbidden) are detected and
  reported as infeasible before any solving.
"""

from __future__ import annotations

from repro.core import DesignProblem, design
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.layout import grid_place
from repro.power import budget_sweep_points
from repro.soc import build_s1, build_s2
from repro.tam import TamArchitecture
from repro.util.errors import InfeasibleError
from repro.util.tables import Table, format_objective

DEFAULT_ARCHS = {"S1": TamArchitecture([16, 16, 16]), "S2": TamArchitecture([32, 16, 16])}


def _solve(result, soc, arch, timing, backend, power_budget=None, floorplan=None, delta=None,
           policy=None):
    problem = DesignProblem(
        soc=soc,
        arch=arch,
        timing=timing,
        power_budget=power_budget,
        floorplan=floorplan,
        max_pair_distance=delta,
    )
    try:
        designed = design(problem, backend=backend, policy=policy)
    except InfeasibleError:
        return None
    result.telemetry.record(designed.stats)
    result.telemetry.record_fallback(designed.provenance)
    return designed.makespan


def run(socs=None, archs=None, timing: str = "serial", backend: str = "bnb",
        config: ExperimentConfig | None = None) -> ExperimentResult:
    config = ExperimentConfig.coerce(config)
    backend = config.resolve_backend(backend)
    result = ExperimentResult("T5", "Combined power + layout constraints: budget grid")
    result.telemetry.jobs = config.jobs
    archs = archs or DEFAULT_ARCHS
    with config.activate():
        for soc in socs or (build_s1(), build_s2()):
            arch = archs.get(soc.name) or TamArchitecture.even_split(48, 3)
            floorplan = grid_place(soc)

            power_points = budget_sweep_points(soc)
            # loose / middle / tight power budgets across the meaningful range
            p_choices = [power_points[-1] * 1.1, power_points[len(power_points) // 2], power_points[0] * 1.02]
            spread = floorplan.spread()
            d_choices = [spread * 1.01, spread * 0.66, spread * 0.45]

            table = result.add_table(
                Table(
                    ["P_max (mW)"] + [f"delta={d:.2f}mm" for d in d_choices],
                    title=f"{soc.name} on {arch}: T* per (P_max, delta) cell ({timing} timing)",
                )
            )
            unconstrained = _solve(result, soc, arch, timing, backend, policy=config.policy)
            result.check(unconstrained is not None, f"{soc.name}: unconstrained instance feasible")

            for p_max in p_choices:
                power_only = _solve(
                    result, soc, arch, timing, backend, power_budget=p_max, policy=config.policy
                )
                row = [round(p_max, 1)]
                for delta in d_choices:
                    layout_only = _solve(
                        result, soc, arch, timing, backend, floorplan=floorplan, delta=delta,
                        policy=config.policy,
                    )
                    combined = _solve(
                        result, soc, arch, timing, backend,
                        power_budget=p_max, floorplan=floorplan, delta=delta,
                        policy=config.policy,
                    )
                    if combined is not None:
                        for reference, label in ((power_only, "power-only"), (layout_only, "layout-only")):
                            result.check(
                                reference is not None and combined >= reference - 1e-6,
                                f"{soc.name} (P={p_max:.0f}, d={delta:.2f}): combined >= {label}",
                            )
                    row.append(format_objective(combined) if combined is not None else "INF")
                table.add_row(row)
            loosest = _solve(
                result, soc, arch, timing, backend,
                power_budget=p_choices[0], floorplan=floorplan, delta=d_choices[0],
                policy=config.policy,
            )
            result.check(
                loosest is not None and abs(loosest - unconstrained) < 1e-6,
                f"{soc.name}: loosest cell recovers the unconstrained optimum",
            )
    return result


if __name__ == "__main__":
    print(run().render())
