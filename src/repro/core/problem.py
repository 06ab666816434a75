"""The constrained design problem specification.

A :class:`DesignProblem` bundles everything the DAC 2000 formulation needs
and resolves the two constraint families into explicit core-pair sets:

- **forced pairs** (must share a bus) from the power budget: every pair with
  ``p_i + p_k > P_max``;
- **forbidden pairs** (must not share a bus) from the floorplan: every pair
  with Manhattan distance above the layout budget ``delta``.

Callers may add further pairs of either kind directly (e.g. a hard IP whose
test bus is predetermined). ``validate(assignment)`` independently checks a
candidate solution against every rule — the experiment harness certifies all
solver output through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.layout.constraints import forbidden_pairs_by_distance
from repro.layout.floorplan import Floorplan
from repro.power.model import conflict_pairs
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.tam.assignment import Assignment
from repro.tam.timing import TimingModel, make_timing_model
from repro.util.errors import ValidationError

Pair = tuple[int, int]


def _normalize_pairs(pairs, num_cores: int, label: str) -> tuple[Pair, ...]:
    seen = set()
    for a, b in pairs:
        if not (0 <= a < num_cores and 0 <= b < num_cores):
            raise ValidationError(f"{label} pair ({a}, {b}) references a core outside 0..{num_cores - 1}")
        if a == b:
            raise ValidationError(f"{label} pair ({a}, {b}) relates a core to itself")
        seen.add((min(a, b), max(a, b)))
    return tuple(sorted(seen))


@dataclass
class DesignProblem:
    """One instance of the constrained TAM design problem.

    Parameters
    ----------
    soc / arch / timing:
        The system, the candidate bus architecture, and the ``t_ij`` model
        (a :class:`TimingModel` or its short name).
    power_budget:
        ``P_max`` in mW, or None for no power constraints.
    floorplan / max_pair_distance:
        Physical placement and the layout budget ``delta`` (mm). Both must
        be given for layout constraints to apply; a floorplan alone is used
        only for wirelength reporting.
    extra_forbidden / extra_forced:
        Additional explicit pair constraints (core indices).
    """

    soc: Soc
    arch: TamArchitecture
    timing: TimingModel | str = "fixed"
    power_budget: float | None = None
    floorplan: Floorplan | None = None
    max_pair_distance: float | None = None
    extra_forbidden: tuple[Pair, ...] = field(default_factory=tuple)
    extra_forced: tuple[Pair, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if isinstance(self.timing, str):
            self.timing = make_timing_model(self.timing)
        if self.power_budget is not None and self.power_budget <= 0:
            raise ValidationError(f"power budget must be positive, got {self.power_budget}")
        if self.max_pair_distance is not None:
            if self.max_pair_distance < 0:
                raise ValidationError(
                    f"distance budget must be non-negative, got {self.max_pair_distance}"
                )
            if self.floorplan is None:
                raise ValidationError("max_pair_distance requires a floorplan")
        if self.floorplan is not None and self.floorplan.soc is not self.soc:
            if self.floorplan.soc.core_names != self.soc.core_names:
                raise ValidationError("floorplan belongs to a different SOC")
        n = len(self.soc)
        self.extra_forbidden = _normalize_pairs(self.extra_forbidden, n, "forbidden")
        self.extra_forced = _normalize_pairs(self.extra_forced, n, "forced")

    # ------------------------------------------------------------- resolved
    @cached_property
    def times(self) -> np.ndarray:
        """The dense ``t_ij`` matrix (inf where a core cannot use a bus)."""
        return self.timing.matrix(self.soc, self.arch)

    @cached_property
    def forbidden_pairs(self) -> tuple[Pair, ...]:
        """Must-not-share pairs: layout-derived plus explicit extras."""
        pairs = list(self.extra_forbidden)
        if self.floorplan is not None and self.max_pair_distance is not None:
            pairs.extend(forbidden_pairs_by_distance(self.floorplan, self.max_pair_distance))
        return _normalize_pairs(pairs, len(self.soc), "forbidden")

    @cached_property
    def forced_pairs(self) -> tuple[Pair, ...]:
        """Must-share pairs: power-derived plus explicit extras."""
        pairs = list(self.extra_forced)
        if self.power_budget is not None:
            pairs.extend(conflict_pairs(self.soc, self.power_budget))
        return _normalize_pairs(pairs, len(self.soc), "forced")

    @cached_property
    def forced_groups(self) -> tuple[tuple[int, ...], ...]:
        """Cores that must share one bus: the connected components of the
        forced pairs, singletons included, each sorted, in order of their
        lowest core (sharing a bus is transitive)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(len(self.soc)))
        graph.add_edges_from(self.forced_pairs)
        return tuple(tuple(sorted(c)) for c in nx.connected_components(graph))

    def contradictions(self) -> list[Pair]:
        """Pairs that are simultaneously forced and forbidden.

        Any such pair makes the instance infeasible outright: the power
        budget demands the cores serialize on one bus while the layout
        budget forbids them from sharing one. Forced pairs count through
        :attr:`forced_groups`, since sharing is transitive.
        """
        group_of = {core: g for g, group in enumerate(self.forced_groups) for core in group}
        return [(a, b) for a, b in self.forbidden_pairs if group_of[a] == group_of[b]]

    def lint(self):
        """Static pre-formulation checks (rules ``P0xx``); returns a
        :class:`~repro.analysis.diagnostics.LintReport`.

        Catches instance pathologies — contradictory pair budgets, cores
        that fit no bus, single cores hotter than the power budget — in
        core/bus vocabulary before an ILP row is ever built.
        """
        from repro.analysis.problem_lint import check_problem

        return check_problem(self)

    # ------------------------------------------------------------ validation
    def validate(self, assignment: Assignment) -> list[str]:
        """Return human-readable violations of ``assignment`` (empty = valid)."""
        problems = []
        if assignment.soc is not self.soc and assignment.soc.core_names != self.soc.core_names:
            problems.append("assignment covers a different SOC")
            return problems
        if assignment.arch != self.arch:
            problems.append(f"assignment uses {assignment.arch}, problem uses {self.arch}")
            return problems
        names = self.soc.core_names
        for i, core in enumerate(self.soc):
            bus = assignment.bus_of[i]
            if not np.isfinite(self.times[i][bus]):
                problems.append(
                    f"core {core.name} on bus {bus} (w={self.arch.width_of(bus)}) "
                    f"is width-infeasible under the {self.timing.name} model"
                )
        for a, b in self.forbidden_pairs:
            if assignment.shares_bus(a, b):
                problems.append(f"forbidden pair ({names[a]}, {names[b]}) shares bus {assignment.bus_of[a]}")
        for a, b in self.forced_pairs:
            if not assignment.shares_bus(a, b):
                problems.append(
                    f"forced pair ({names[a]}, {names[b]}) split across buses "
                    f"{assignment.bus_of[a]} and {assignment.bus_of[b]}"
                )
        return problems

    def is_feasible_assignment(self, assignment: Assignment) -> bool:
        return not self.validate(assignment)

    # -------------------------------------------------------------- reporting
    def constraint_summary(self) -> str:
        parts = [f"{len(self.soc)} cores on {self.arch}", f"timing={self.timing.name}"]
        if self.power_budget is not None:
            parts.append(f"P_max={self.power_budget:g}mW ({len(self.forced_pairs)} forced pairs)")
        if self.max_pair_distance is not None:
            parts.append(
                f"delta={self.max_pair_distance:g}mm ({len(self.forbidden_pairs)} forbidden pairs)"
            )
        return ", ".join(parts)

    def makespan_lower_bound(self) -> float:
        """Simple certified bound: max over cores of their fastest bus time."""
        per_core_best = np.min(self.times, axis=1)
        return float(np.max(per_core_best))
