"""Dual formulations of the design problem.

The DAC 2000 paper minimizes testing time under a fixed TAM width budget;
its companion ILP paper also poses the dual: the tester interface is the
scarce resource, so **minimize the TAM pin count subject to a testing-time
budget**. Two search drivers:

- :func:`minimize_width` — smallest total width W (and its best architecture)
  whose optimal testing time meets the budget, for a fixed bus count;
- :func:`explore_bus_counts` — the NB axis: optimal testing time for every
  bus count at a fixed total width, exposing the knee where extra buses stop
  helping (the largest core's test pins the makespan).

Both reuse the exact designer, so every reported point is a certified
optimum, and both honor the full constraint set (power / layout).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.designer import ArchitectureSweepResult, TamDesign, design_best_architecture
from repro.layout.floorplan import Floorplan
from repro.obs import SolvePolicy
from repro.runtime.parallel import run_parallel
from repro.runtime.telemetry import RunTelemetry
from repro.soc.system import Soc
from repro.tam.timing import TimingModel
from repro.util.errors import InfeasibleError, ValidationError


@dataclass
class WidthMinimization:
    """Result of :func:`minimize_width`."""

    time_budget: float
    num_buses: int
    min_width: int
    design: TamDesign
    evaluated_widths: list[tuple[int, float | None]]

    def describe(self) -> str:
        return (
            f"min TAM width for T <= {self.time_budget:g} cycles with "
            f"{self.num_buses} buses: W = {self.min_width} on {self.design.arch} "
            f"(T* = {self.design.makespan:.0f})"
        )


def minimize_width(
    soc: Soc,
    num_buses: int,
    time_budget: float,
    timing: TimingModel | str = "serial",
    power_budget: float | None = None,
    floorplan: Floorplan | None = None,
    max_pair_distance: float | None = None,
    max_width: int = 128,
    backend: str = "bnb",
    policy: SolvePolicy | None = None,
    **solver_options,
) -> WidthMinimization:
    """Smallest total TAM width meeting a testing-time budget.

    The optimal testing time is non-increasing in total width (any W-wire
    design embeds in W+1 wires), so a binary search over W is sound. Each
    probe runs the full width-distribution enumeration at that W. Raises
    :class:`InfeasibleError` if even ``max_width`` wires cannot meet the
    budget. Extra keyword options (``gap_tol``, ``dive``, ...) are
    forwarded to every probe's solves.
    """
    if time_budget <= 0:
        raise ValidationError(f"time budget must be positive, got {time_budget}")
    if max_width < num_buses:
        raise ValidationError(
            f"max_width {max_width} cannot host {num_buses} one-wire buses"
        )

    trace: list[tuple[int, float | None]] = []

    def probe(width: int) -> ArchitectureSweepResult:
        sweep = design_best_architecture(
            soc,
            width,
            num_buses,
            timing=timing,
            power_budget=power_budget,
            floorplan=floorplan,
            max_pair_distance=max_pair_distance,
            backend=backend,
            clamp_useless_width=True,
            policy=policy,
            **solver_options,
        )
        trace.append((width, sweep.best.makespan if sweep.best else None))
        return sweep

    # Establish a feasible ceiling first.
    ceiling = probe(max_width)
    if ceiling.best is None or ceiling.best.makespan > time_budget:
        achieved = "infeasible" if ceiling.best is None else f"{ceiling.best.makespan:.0f}"
        raise InfeasibleError(
            f"time budget {time_budget:g} unreachable with {num_buses} buses "
            f"and up to {max_width} wires (best: {achieved})",
            reason="time budget too tight",
        )

    low, high = num_buses, max_width
    best_sweep = ceiling
    while low < high:
        mid = (low + high) // 2
        sweep = probe(mid)
        if sweep.best is not None and sweep.best.makespan <= time_budget:
            best_sweep = sweep
            high = mid
        else:
            low = mid + 1
    assert best_sweep.best is not None
    trace.sort()
    return WidthMinimization(
        time_budget=time_budget,
        num_buses=num_buses,
        min_width=high,
        design=best_sweep.best,
        evaluated_widths=trace,
    )


@dataclass
class BusCountPoint:
    """One row of :func:`explore_bus_counts`.

    ``telemetry`` carries the solver work behind the point (None when the
    point was rejected before any solve, e.g. ``W < NB``).
    """

    num_buses: int
    makespan: float | None
    arch_widths: tuple[int, ...] | None
    telemetry: "RunTelemetry | None" = None


def _bus_count_point(payload: tuple) -> BusCountPoint:
    """Worker: one bus count of :func:`explore_bus_counts`."""
    (soc, total_width, num_buses, timing, power_budget, floorplan,
     max_pair_distance, backend, policy, solver_options) = payload
    if total_width < num_buses:
        return BusCountPoint(num_buses, None, None)
    sweep = design_best_architecture(
        soc,
        total_width,
        num_buses,
        timing=timing,
        power_budget=power_budget,
        floorplan=floorplan,
        max_pair_distance=max_pair_distance,
        backend=backend,
        policy=policy,
        **solver_options,
    )
    if sweep.best is None:
        return BusCountPoint(num_buses, None, None, telemetry=sweep.telemetry)
    return BusCountPoint(
        num_buses, sweep.best.makespan, sweep.best.arch.widths, telemetry=sweep.telemetry
    )


def explore_bus_counts(
    soc: Soc,
    total_width: int,
    max_buses: int,
    timing: TimingModel | str = "serial",
    power_budget: float | None = None,
    floorplan: Floorplan | None = None,
    max_pair_distance: float | None = None,
    backend: str = "bnb",
    jobs: int = 1,
    policy: SolvePolicy | None = None,
    **solver_options,
) -> list[BusCountPoint]:
    """Optimal testing time for every bus count 1..max_buses at fixed W.

    More buses add concurrency but thin each bus's wires — under the
    serialization model the optimum is not monotone in NB, which is exactly
    why the paper treats NB as a design parameter. ``jobs > 1`` sweeps the
    bus counts in parallel, preserving NB order. Extra keyword options
    (``gap_tol``, ``dive``, ...) are forwarded to every point's solves —
    they must be picklable.
    """
    if max_buses <= 0:
        raise ValidationError(f"max_buses must be positive, got {max_buses}")
    payloads = [
        (soc, total_width, num_buses, timing, power_budget, floorplan,
         max_pair_distance, backend, policy, solver_options)
        for num_buses in range(1, max_buses + 1)
    ]
    return run_parallel(_bus_count_point, payloads, max_workers=jobs)
