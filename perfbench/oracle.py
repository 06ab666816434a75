"""Answer oracle: every op's result is re-checked outside the timed region.

For each answer the oracle

- re-validates the returned assignment with ``DesignProblem.validate``;
- recomputes the bus times from the assignment and the makespan from them;
- compares the optimum against an independent solver: the pruned
  exhaustive search (``exhaustive_optimal``) on systems of at most
  ``EXHAUSTIVE_MAX_CORES`` cores, scipy HiGHS (``backend="scipy"``) above;
- requires infeasible answers to be infeasible for the oracle too.

Any disagreement is a mismatch, and a mismatched op counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Assignment, InfeasibleError, design, exhaustive_optimal

#: Largest system the exhaustive search checks: 10 cores on 3 buses take at
#: most ~15 ms; the 16-18-core deep_tree systems would take minutes.
EXHAUSTIVE_MAX_CORES = 10

#: Makespans are whole cycle counts; anything closer than this is equal.
_TOL = 0.5


@dataclass(frozen=True)
class Answer:
    """What one op returned: a status and, when solved, the design."""

    status: str
    makespan: float | None = None
    bus_of: tuple[int, ...] | None = None
    bus_times: tuple[float, ...] | None = None


INFEASIBLE = Answer("infeasible")


def answer_from_design(result) -> Answer:
    return Answer(
        result.status.value,
        float(result.makespan),
        tuple(int(b) for b in result.assignment.bus_of),
        tuple(float(t) for t in result.bus_times),
    )


def answer_from_payload(payload: dict, soc) -> Answer:
    """The service's ``design`` result payload, in core order of ``soc``."""
    assignment = payload["assignment"]
    return Answer(
        payload["status"],
        float(payload["makespan"]),
        tuple(int(assignment[core.name]) for core in soc.cores),
        tuple(float(t) for t in payload["bus_times"]),
    )


class Oracle:
    """Independent optima, memoized per op key for the life of one run."""

    def __init__(self) -> None:
        self._optima: dict = {}

    def optimum(self, key, problem) -> tuple[float | None, float]:
        """``(optimal makespan or None when infeasible, relative gap)``."""
        if key not in self._optima:
            self._optima[key] = self._solve(problem)
        return self._optima[key]

    @staticmethod
    def _solve(problem) -> tuple[float | None, float]:
        try:
            if len(problem.soc) <= EXHAUSTIVE_MAX_CORES:
                result = exhaustive_optimal(
                    problem.soc,
                    problem.arch,
                    problem.timing,
                    forbidden_pairs=problem.forbidden_pairs,
                    forced_pairs=problem.forced_pairs,
                )
                return float(result.makespan), 0.0
            highs = design(problem, backend="scipy", cache=False)
        except InfeasibleError:
            return None, 0.0
        return float(highs.makespan), float(highs.stats.gap or 0.0)

    def check(self, key, problem, answer: Answer) -> list[str]:
        """Mismatches between ``answer`` and the oracle (empty = correct)."""
        best, gap = self.optimum(key, problem)
        if answer.status == "infeasible" or best is None:
            if answer.status == "infeasible" and best is None:
                return []
            if best is None:
                return [f"returned {answer.status} but the oracle finds it infeasible"]
            return [f"returned infeasible but the oracle finds makespan {best:g}"]
        problems = []
        if answer.status != "optimal":
            problems.append(f"status {answer.status}, not optimal")
        assignment = Assignment(problem.soc, problem.arch, answer.bus_of)
        problems.extend(problem.validate(assignment))
        recomputed = assignment.bus_times(problem.timing)
        if len(recomputed) != len(answer.bus_times) or any(
            abs(a - b) > _TOL for a, b in zip(recomputed, answer.bus_times)
        ):
            problems.append(f"bus times {list(answer.bus_times)} != recomputed {recomputed}")
        if abs(max(recomputed) - answer.makespan) > _TOL:
            problems.append(f"makespan {answer.makespan:g} != max bus time {max(recomputed):g}")
        # The oracle proves the optimum lies in [best * (1 - gap), best].
        if answer.makespan > best + _TOL or answer.makespan < best * (1.0 - gap) - _TOL:
            problems.append(f"makespan {answer.makespan:g}, oracle optimum {best:g} (gap {gap:g})")
        return problems
