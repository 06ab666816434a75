"""T4 — place-and-route-constrained design.

Places each SOC with the deterministic grid placer, then tightens the
distance budget ``delta`` through the floorplan's pairwise-distance change
points. Reports the optimal testing time, forbidden-pair count, and the
TAM wirelength of the optimal design under both the daisy-chain and MST
estimators.

Shape claims: tightening ``delta`` weakly increases the optimal testing
time; every returned design keeps forbidden pairs on distinct buses; a
sufficiently tight budget becomes infeasible (reported, not hidden).
"""

from __future__ import annotations

import math

from repro.core import DesignProblem, design
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.layout import grid_place, tam_wirelength
from repro.layout.constraints import distance_sweep_points
from repro.soc import build_s1, build_s2
from repro.tam import TamArchitecture
from repro.util.errors import InfeasibleError
from repro.util.tables import Table, format_objective

DEFAULT_ARCHS = {"S1": TamArchitecture([16, 16, 16]), "S2": TamArchitecture([32, 16, 16])}


def run(socs=None, archs=None, timing: str = "serial", backend: str = "bnb",
        config: ExperimentConfig | None = None) -> ExperimentResult:
    config = ExperimentConfig.coerce(config)
    backend = config.resolve_backend(backend)
    result = ExperimentResult("T4", "Layout-constrained design: testing time vs distance budget")
    result.telemetry.jobs = config.jobs
    archs = archs or DEFAULT_ARCHS
    with config.activate():
        for soc in socs or (build_s1(), build_s2()):
            arch = archs.get(soc.name) or TamArchitecture.even_split(48, 3)
            floorplan = grid_place(soc)
            result.check(floorplan.is_legal(), f"{soc.name}: grid floorplan is legal")
            table = result.add_table(
                Table(
                    [
                        "delta (mm)",
                        "T* (cycles)",
                        "forbidden pairs",
                        "chain WL (wire-mm)",
                        "mst WL (wire-mm)",
                    ],
                    title=f"{soc.name} on {arch}: distance budget sweep ({timing} timing)",
                )
            )
            deltas = [floorplan.spread() * 1.01] + distance_sweep_points(floorplan)
            previous = 0.0
            went_infeasible = False
            for delta in deltas:
                problem = DesignProblem(
                    soc=soc,
                    arch=arch,
                    timing=timing,
                    floorplan=floorplan,
                    max_pair_distance=delta,
                )
                try:
                    designed = design(problem, backend=backend, **config.design_options())
                except InfeasibleError:
                    table.add_row(
                        [round(delta, 2), None, len(problem.forbidden_pairs), None, None]
                    )
                    went_infeasible = True
                    continue
                result.telemetry.record(designed.stats)
                result.telemetry.record_fallback(designed.provenance)
                result.check(
                    not went_infeasible,
                    f"{soc.name} delta={delta:.2f}: feasibility is monotone in delta",
                )
                result.check(
                    designed.makespan >= previous - 1e-6,
                    f"{soc.name} delta={delta:.2f}: time weakly increases as delta tightens",
                )
                previous = designed.makespan
                table.add_row(
                    [
                        round(delta, 2),
                        format_objective(designed.makespan),
                        len(problem.forbidden_pairs),
                        round(tam_wirelength(floorplan, designed.assignment, "chain"), 1),
                        round(tam_wirelength(floorplan, designed.assignment, "mst"), 1),
                    ]
                )
            result.check(went_infeasible or math.isfinite(previous),
                         f"{soc.name}: sweep covered the feasible range")
            result.note(
                f"{soc.name}: the loosest row is the unconstrained design; rows below "
                "trade testing time for shorter, more local TAM routes."
            )
    return result


if __name__ == "__main__":
    print(run().render())
