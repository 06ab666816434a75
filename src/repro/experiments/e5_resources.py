"""E5 (extension) — test resource accounting of the optimal designs.

The successor literature judges TAM designs on tester resources, not just
makespan. For each SOC's optimal design this experiment reports test data
volume, ATE channel memory, TAM wire-cycle utilization (split into schedule
slack and width slack), and wrapper hardware overhead.

Shape claims: utilization lies in (0, 1]; ATE memory always covers the
active wire-cycles; the flexible model wastes no width (width slack 0);
wrapper overhead stays a small fraction of each SOC.
"""

from __future__ import annotations

from repro.core import DesignProblem, design
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.soc import build_d695, build_s1, build_s2
from repro.tam import (
    TamArchitecture,
    ate_vector_memory,
    soc_test_data_volume,
    tam_utilization,
)
from repro.util.tables import Table, format_objective
from repro.wrapper.overhead import soc_wrapper_overhead

DEFAULT_ARCHS = {
    "S1": TamArchitecture([16, 16, 16]),
    "S2": TamArchitecture([32, 16, 16]),
    "d695": TamArchitecture([32, 16, 16]),
}


def run(socs=None, archs=None, backend: str = "bnb",
        config: ExperimentConfig | None = None) -> ExperimentResult:
    config = ExperimentConfig.coerce(config)
    backend = config.resolve_backend(backend)
    result = ExperimentResult("E5", "Extension: test resource accounting of optimal designs")
    result.telemetry.jobs = config.jobs
    archs = archs or DEFAULT_ARCHS
    table = result.add_table(
        Table(
            [
                "SOC",
                "timing",
                "T* (cycles)",
                "data volume (bits)",
                "ATE memory (bits)",
                "utilization (%)",
                "schedule slack",
                "width slack",
                "wrapper GE",
                "overhead (%)",
            ],
            title="Resource accounting per optimal design",
        )
    )
    fractions = {}
    with config.activate():
        for soc in socs or (build_s1(), build_s2(), build_d695()):
            arch = archs.get(soc.name) or TamArchitecture.even_split(48, 3)
            volume = soc_test_data_volume(soc)
            overhead = soc_wrapper_overhead(soc)
            fractions[soc.name] = overhead.area_fraction
            result.check(
                overhead.total_ge > 0,
                f"{soc.name}: wrapper overhead accounted ({overhead.area_fraction:.1%})",
            )
            for timing in ("serial", "flexible"):
                problem = DesignProblem(soc=soc, arch=arch, timing=timing)
                designed = design(problem, backend=backend, **config.design_options())
                result.telemetry.record(designed.stats)
                result.telemetry.record_fallback(designed.provenance)
                utilization = tam_utilization(soc, designed.assignment, problem.timing)
                memory = ate_vector_memory(designed.assignment, problem.timing)
                result.check(
                    0.0 < utilization.utilization <= 1.0 + 1e-9,
                    f"{soc.name}/{timing}: utilization within (0, 1]",
                )
                result.check(
                    memory >= utilization.active_wire_cycles - 1e-6,
                    f"{soc.name}/{timing}: ATE memory covers active wire-cycles",
                )
                if timing == "flexible":
                    result.check(
                        utilization.width_slack == 0.0,
                        f"{soc.name}: flexible wrappers waste no bus width",
                    )
                table.add_row(
                    [
                        soc.name,
                        timing,
                        format_objective(designed.makespan),
                        volume,
                        round(memory),
                        round(utilization.utilization * 100, 1),
                        round(utilization.schedule_slack),
                        round(utilization.width_slack),
                        overhead.total_ge,
                        round(overhead.area_fraction * 100, 1),
                    ]
                )
    result.note(
        "width slack (serial rows) is wire-cycles paid to cores narrower than "
        "their bus — the inefficiency the flexible wrapper model removes."
    )
    if {"S1", "S2"} <= fractions.keys():
        result.check(
            fractions["S2"] < fractions["S1"],
            "wrapper overhead fraction shrinks as cores grow (wrapping tiny "
            "ISCAS cores costs more than the cores themselves)",
        )
    return result


if __name__ == "__main__":
    print(run().render())
