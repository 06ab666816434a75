"""Shared result and configuration types for experiment harnesses."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs import SolvePolicy
from repro.runtime.cache import SolutionCache, use_cache
from repro.runtime.telemetry import RunTelemetry
from repro.util.tables import Table


@dataclass
class ExperimentConfig:
    """One configuration surface shared by every experiment harness.

    The T1–T5 / E1–E5 / F1–F4 ``run()`` functions all accept a ``config``;
    it carries the runtime knobs that used to be ad-hoc kwargs or
    module-level constants:

    ``jobs``
        Worker processes for the sweep fan-out (1 = deterministic serial).
    ``cache`` / ``cache_dir``
        The solve cache. Pass a ready :class:`SolutionCache`, or just a
        directory and one is built on it. None (default) disables caching.
    ``seed``
        Seed for the stochastic baselines/heuristics inside experiments.
    ``backend``
        Overrides the experiment's default exact backend when set.
    ``grid``
        Per-experiment grid overrides by parameter name (e.g.
        ``{"total_widths": [8, 16]}``); each harness consults the keys it
        understands via :meth:`override`.
    ``policy``
        A :class:`~repro.obs.SolvePolicy` capping every solve the harness
        issues (deadline / node budget). None (default) keeps the exact,
        uncapped path.
    """

    jobs: int = 1
    cache: SolutionCache | None = None
    cache_dir: str | None = None
    seed: int = 7
    backend: str | None = None
    grid: Mapping[str, Any] = field(default_factory=dict)
    policy: SolvePolicy | None = None

    @classmethod
    def coerce(cls, config: "ExperimentConfig | None") -> "ExperimentConfig":
        """Normalize an optional config argument (None -> defaults)."""
        if config is None:
            return cls()
        if not isinstance(config, cls):
            raise TypeError(f"config must be an ExperimentConfig, got {type(config).__name__}")
        return config

    def resolve_backend(self, default: str) -> str:
        return self.backend or default

    def resolve_cache(self) -> SolutionCache | None:
        """The configured cache, building one on ``cache_dir`` if needed."""
        if self.cache is None and self.cache_dir is not None:
            self.cache = SolutionCache(directory=self.cache_dir)
        return self.cache

    def activate(self):
        """Context manager installing the configured cache for a run body."""
        cache = self.resolve_cache()
        if cache is None:
            return contextlib.nullcontext()
        return use_cache(cache)

    def override(self, name: str, value):
        """Grid override for ``name``; falls back to ``value`` when unset."""
        return self.grid.get(name, value)

    def design_options(self) -> dict:
        """Solve-shaping kwargs to splat into ``design()``/sweep calls.

        Empty when no policy is configured, so harnesses can thread
        ``**config.design_options()`` unconditionally.
        """
        return {"policy": self.policy} if self.policy is not None else {}


@dataclass
class ExperimentResult:
    """Tables plus free-form notes for one table/figure reproduction.

    ``checks`` records the shape assertions that were verified while the
    experiment ran (they raise on failure, so their presence in a result
    certifies they passed). ``telemetry`` aggregates the solver work behind
    the result — solves issued, cache hits, B&B nodes, LP count, solver
    wall time.
    """

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)

    def add_table(self, table: Table) -> Table:
        self.tables.append(table)
        return table

    def add_chart(self, chart: str) -> None:
        """Attach an ASCII chart (rendered after the tables)."""
        self.charts.append(chart)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, condition: bool, description: str) -> None:
        """Assert a qualitative claim of the paper; record it when it holds."""
        if not condition:
            raise AssertionError(
                f"[{self.experiment_id}] shape assertion failed: {description}"
            )
        self.checks.append(description)

    def render(self) -> str:
        lines = [f"=== {self.experiment_id}: {self.title} ==="]
        for table in self.tables:
            lines.append("")
            lines.append(table.render())
        for chart in self.charts:
            lines.append("")
            lines.append(chart)
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        if self.checks:
            lines.append("")
            lines.extend(f"check passed: {check}" for check in self.checks)
        if self.telemetry.solves:
            lines.append("")
            lines.append(f"telemetry: {self.telemetry.render()}")
        return "\n".join(lines)
