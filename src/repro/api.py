"""repro.api — the stable, single-import surface of this library.

Everything a script, notebook, example, or the CLI needs lives here; the
submodule layout underneath (``repro.core``, ``repro.ilp``, ``repro.tam``,
…) is an implementation detail free to move between releases. Downstream
code should import from ``repro.api`` only — the repo's own examples are
held to that rule by lint rule C005.

The surface groups into:

- **data model** — :func:`load_soc`/:func:`save_soc`, the builtin systems
  (:func:`build_s1` …), :class:`Soc`, :class:`Core`,
  :class:`TamArchitecture`, :class:`DesignProblem`;
- **exact design flow** — :func:`design`, :func:`design_best_architecture`,
  the sweeps (:func:`sweep_widths`, :func:`power_budget_sweep`,
  :func:`distance_budget_sweep`), the duals (:func:`min_width`,
  :func:`bus_count_curve`), baselines and schedules;
- **runtime** — :func:`solve_cached`, :class:`SolutionCache`,
  :func:`use_cache`, :func:`run_parallel`, :class:`RunTelemetry`;
- **observability & resilience** — :func:`trace_solve` (span tracing with
  a text flame summary), :class:`MetricsRegistry` with :func:`get_metrics`
  / :func:`use_metrics`, and the anytime-solve controls
  :class:`SolvePolicy` / :class:`FallbackReport` with
  :func:`register_backend` for pluggable (or fault-injected) solvers;
- **experiments** — :func:`run_experiment`/:func:`run_all` with
  :class:`ExperimentConfig`;
- **reporting** — :func:`design_report`, :class:`Table`,
  :func:`format_table`, :func:`format_objective`;
- **static analysis** — :func:`lint_model`, :func:`lint_paths`;
- **errors** — :class:`ReproError` and its subclasses.

``sweep_widths``, ``min_width``, and ``bus_count_curve`` are the blessed
names for :func:`repro.core.width_sweep`,
:func:`repro.core.minimize_width`, and
:func:`repro.core.explore_bus_counts` respectively; the full alias map is
:data:`BLESSED_ALIASES`. The whole surface is enumerated by
:func:`facade_table` (export → defining module → since-PR → alias target),
rendered into the checked-in ``API.md`` manifest by
``python -m repro.api``, and pinned against drift by
``tests/test_api_facade.py``.
"""

from __future__ import annotations

from repro.analysis import (
    lint_model,
    lint_paths,
    lint_project,
    load_baseline,
    report_to_sarif,
)
from repro.core import (
    REQUEST_KINDS,
    DesignProblem,
    SolveRequest,
    TamDesign,
    resolve_soc,
    build_assignment_ilp,
    build_schedule,
    design,
    design_best_architecture,
    design_report,
    distance_budget_sweep,
    explore_bus_counts,
    lpt_assignment,
    local_search,
    minimize_width,
    pareto_front,
    power_budget_sweep,
    random_assignment,
    run_all_baselines,
    schedule_with_power_cap,
    simulated_annealing,
    width_sweep,
)
from repro.core.designer import ArchitectureSweepResult
from repro.core.dual import BusCountPoint, WidthMinimization
from repro.core.pareto import SweepPoint
from repro.experiments import (
    REGISTRY as EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    run_all,
    run_experiment,
)
from repro.ilp import BranchAndBoundSolver, Model, quicksum
from repro.ilp.model import register_backend, unregister_backend
from repro.ilp.solution import Solution, SolveStats, Status
from repro.layout import Floorplan, anneal_place, bus_wirelength, grid_place, tam_wirelength
from repro.obs import (
    CheckpointStore,
    FallbackReport,
    MetricsRegistry,
    SolvePolicy,
    SolverOptions,
    Span,
    Tracer,
    get_metrics,
    trace_solve,
    use_metrics,
)
from repro.power import budget_sweep_points, max_clique_power, power_groups
from repro.runtime import (
    DEFAULT_CACHE_DIR,
    RunTelemetry,
    SolutionCache,
    run_parallel,
    solve_cached,
    use_cache,
)
from repro.soc import (
    Core,
    Soc,
    build_d695,
    build_p93791,
    build_s1,
    build_s2,
    build_s3,
    build_soc,
    build_t512505,
    corpus_names,
    corpus_soc,
    generate_synthetic_soc,
    load_soc,
    save_soc,
)
from repro.tam import (
    Assignment,
    TamArchitecture,
    ate_vector_memory,
    compare_architectures,
    distribution_allocation,
    exhaustive_optimal,
    make_timing_model,
    soc_test_data_volume,
    tam_utilization,
)
from repro.util.errors import (
    InfeasibleError,
    ReproError,
    SolverError,
    ValidationError,
)
from repro.util.tables import Table, format_objective, format_table
from repro.wrapper import pareto_widths
from repro.wrapper.overhead import soc_wrapper_overhead

#: Blessed aliases: the API names the facade documents for the three
#: sweep/dual drivers (the originals stay exported for continuity). This
#: map is the single source of truth — the assignments below, the manifest
#: rows, and the facade tests all derive from it.
BLESSED_ALIASES: dict[str, str] = {
    "sweep_widths": "width_sweep",
    "min_width": "minimize_width",
    "bus_count_curve": "explore_bus_counts",
}

sweep_widths = width_sweep
min_width = minimize_width
bus_count_curve = explore_bus_counts

__all__ = [
    # data model
    "Core",
    "Soc",
    "DesignProblem",
    "TamArchitecture",
    "Assignment",
    "Floorplan",
    "build_s1",
    "build_s2",
    "build_s3",
    "build_d695",
    "build_p93791",
    "build_t512505",
    "build_soc",
    "corpus_names",
    "corpus_soc",
    "generate_synthetic_soc",
    "load_soc",
    "save_soc",
    # unified request surface
    "SolveRequest",
    "REQUEST_KINDS",
    "resolve_soc",
    # facade manifest
    "BLESSED_ALIASES",
    "facade_table",
    "render_facade_manifest",
    # exact design flow + typed results
    "design",
    "design_best_architecture",
    "TamDesign",
    "ArchitectureSweepResult",
    "sweep_widths",
    "width_sweep",
    "SweepPoint",
    "power_budget_sweep",
    "distance_budget_sweep",
    "pareto_front",
    "min_width",
    "minimize_width",
    "WidthMinimization",
    "bus_count_curve",
    "explore_bus_counts",
    "BusCountPoint",
    "build_assignment_ilp",
    "build_schedule",
    "schedule_with_power_cap",
    "exhaustive_optimal",
    "make_timing_model",
    "lpt_assignment",
    "local_search",
    "random_assignment",
    "simulated_annealing",
    "run_all_baselines",
    # accounting / comparisons
    "ate_vector_memory",
    "compare_architectures",
    "distribution_allocation",
    "soc_test_data_volume",
    "tam_utilization",
    "soc_wrapper_overhead",
    "pareto_widths",
    "budget_sweep_points",
    "max_clique_power",
    "power_groups",
    "grid_place",
    "anneal_place",
    "tam_wirelength",
    "bus_wirelength",
    # MILP substrate
    "BranchAndBoundSolver",
    "Model",
    "quicksum",
    "Solution",
    "SolveStats",
    "Status",
    # runtime: caching, parallelism, telemetry
    "solve_cached",
    "SolutionCache",
    "use_cache",
    "run_parallel",
    "RunTelemetry",
    "DEFAULT_CACHE_DIR",
    # observability & resilience
    "trace_solve",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "get_metrics",
    "use_metrics",
    "SolvePolicy",
    "SolverOptions",
    "FallbackReport",
    "CheckpointStore",
    "register_backend",
    "unregister_backend",
    # experiments
    "run_experiment",
    "run_all",
    "ExperimentConfig",
    "ExperimentResult",
    "EXPERIMENTS",
    # reporting
    "design_report",
    "Table",
    "format_table",
    "format_objective",
    # static analysis
    "lint_model",
    "lint_paths",
    "lint_project",
    "load_baseline",
    "report_to_sarif",
    # errors
    "ReproError",
    "InfeasibleError",
    "SolverError",
    "ValidationError",
]

#: PR that introduced each export into the facade. The facade itself
#: shipped in PR 2, so that is the default; only later additions are
#: listed (see CHANGES.md for what each PR did).
_SINCE_PR: dict[str, int] = {
    # PR 3: observability & resilience
    "trace_solve": 3,
    "Tracer": 3,
    "Span": 3,
    "MetricsRegistry": 3,
    "get_metrics": 3,
    "use_metrics": 3,
    "SolvePolicy": 3,
    "FallbackReport": 3,
    "CheckpointStore": 3,
    "register_backend": 3,
    "unregister_backend": 3,
    # PR 4: solver-core fast path
    "BranchAndBoundSolver": 4,
    # PR 6: flow-aware lint engine
    "lint_project": 6,
    "report_to_sarif": 6,
    # PR 7: unified request surface + facade manifest
    "SolveRequest": 7,
    "REQUEST_KINDS": 7,
    "resolve_soc": 7,
    "BLESSED_ALIASES": 7,
    "facade_table": 7,
    "render_facade_manifest": 7,
    # PR 8: branch-and-cut + structured solver options
    "SolverOptions": 8,
    # the stress corpus
    "build_p93791": 10,
    "build_t512505": 10,
    "corpus_names": 10,
    "corpus_soc": 10,
}

#: Defining module for exports that are plain values (no ``__module__``).
_CONSTANT_MODULES: dict[str, str] = {
    "DEFAULT_CACHE_DIR": "repro.runtime.cache",
    "EXPERIMENTS": "repro.experiments",
    "REQUEST_KINDS": "repro.core.request",
    "BLESSED_ALIASES": "repro.api",
}


def facade_table() -> list[dict[str, object]]:
    """One row per facade export: name, defining module, since-PR, alias.

    ``module`` is where the object is actually defined (an alias therefore
    reports its target's home); ``alias_of`` names the canonical export for
    the blessed aliases and is ``None`` everywhere else. Rows are sorted by
    export name so the rendering is deterministic.
    """
    import sys

    this = sys.modules[__name__]
    rows: list[dict[str, object]] = []
    for name in sorted(__all__):
        obj = getattr(this, name)
        home = _CONSTANT_MODULES.get(name) or getattr(
            obj, "__module__", type(obj).__module__
        )
        if home == "__main__":  # running as `python -m repro.api`
            home = "repro.api"
        rows.append(
            {
                "name": name,
                "module": home,
                "since": _SINCE_PR.get(name, 2),
                "alias_of": BLESSED_ALIASES.get(name),
            }
        )
    return rows


def render_facade_manifest() -> str:
    """The checked-in ``API.md`` content, generated from :func:`facade_table`."""
    lines = [
        "# `repro.api` export manifest",
        "",
        "Every public name, where it is defined, and the PR that added it.",
        "Generated — regenerate with `PYTHONPATH=src python -m repro.api > API.md`;",
        "`tests/test_api_facade.py` fails when this file drifts from the live facade.",
        "",
        "| Export | Defined in | Since PR | Alias of |",
        "| --- | --- | --- | --- |",
    ]
    for row in facade_table():
        alias = f"`{row['alias_of']}`" if row["alias_of"] else ""
        lines.append(
            f"| `{row['name']}` | `{row['module']}` | {row['since']} | {alias} |"
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":  # pragma: no cover - exercised via API.md check
    print(render_facade_manifest(), end="")
