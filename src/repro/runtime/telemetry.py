"""Aggregated solver telemetry for experiment runs and reports.

Every backend returns a per-solve :class:`~repro.ilp.solution.SolveStats`;
:class:`RunTelemetry` folds those into run-level counters — how many solves
a harness issued, how many were answered from the cache, and how much
branch-and-bound / LP work the fresh ones cost. Experiment results carry one
instance, rendered as a one-line footer and exported through the CLI's
``--json`` output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.ilp.solution import SolveCounters, SolveStats


@dataclass
class RunTelemetry(SolveCounters):
    """Run-level roll-up of solver work.

    Every :class:`~repro.ilp.solution.SolveCounters` field (nodes, LP
    solves, cuts, wall time, …) is inherited and counts only *fresh*
    solves — a cache hit re-reports the original solve's counters on its
    own :class:`SolveStats`, but folding them in again would double-count
    work that never re-ran. The run's own fields below count solves, cache
    traffic, degradations and portfolio races; ``jobs`` records the
    worker count and is never summed.
    """

    solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = field(default=1, metadata={"sum": False})
    fallbacks: int = 0
    portfolio_runs: int = 0
    portfolio_heuristic_wins: int = 0
    portfolio_cross_fed: int = 0

    def record(self, stats: SolveStats) -> None:
        """Fold one solve's stats into the run counters."""
        self.solves += 1
        if stats.cache_hit:
            self.cache_hits += 1
            return
        self.cache_misses += 1
        for spec in fields(SolveCounters):
            setattr(self, spec.name, getattr(self, spec.name) + getattr(stats, spec.name))

    def record_fallback(self, report) -> None:
        """Count one degraded design (see :class:`repro.obs.FallbackReport`).

        ``retries`` on the report are already folded in via the solve's
        :class:`SolveStats`; only the degradation itself is new signal.
        """
        if report is not None and getattr(report, "degraded", False):
            self.fallbacks += 1

    def record_portfolio(self, report) -> None:
        """Count one portfolio race (see
        :class:`repro.runtime.portfolio.PortfolioReport`): the race itself,
        whether a heuristic entrant won the attribution, and whether an
        incumbent was cross-fed to the exact search."""
        if report is None:
            return
        self.portfolio_runs += 1
        if getattr(report, "winner", "bnb") != "bnb":
            self.portfolio_heuristic_wins += 1
        if getattr(report, "cross_fed", False):
            self.portfolio_cross_fed += 1

    def merge(self, other: "RunTelemetry | None") -> None:
        """Fold another run's counters into this one (``jobs`` keeps ours)."""
        if other is None:
            return
        for spec in fields(self):
            if spec.metadata.get("sum", True):
                setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))

    def as_dict(self) -> dict:
        return asdict(self)

    def counts(self) -> dict:
        """The deterministic, worker-count-invariant counters only.

        Timing fields (metadata ``timing``) vary run to run and ``jobs`` is
        the worker count, so parallel-equivalence checks compare this view.
        """
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.metadata.get("sum", True) and not spec.metadata.get("timing")
        }

    def render(self) -> str:
        """One-line summary for report footers."""
        line = (
            f"{self.solves} solves ({self.cache_hits} cached), "
            f"{self.nodes} B&B nodes, {self.lp_solves} LPs, "
            f"{self.wall_time:.2f}s solver wall, jobs={self.jobs}"
        )
        if self.retries:
            line += f", {self.retries} retries"
        if self.fallbacks:
            line += f", {self.fallbacks} fallbacks"
        if self.portfolio_runs:
            line += f", {self.portfolio_runs} portfolio races"
        return line
