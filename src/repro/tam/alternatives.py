"""Alternative test access architectures.

The paper's *test bus* architecture is one of several access styles the
core-test literature (Aerts & Marinissen, ITC'98) compares. This module
implements the other three over the same wrapper substrate so the library
can reproduce that comparison (extension experiment E4):

- **multiplexed** — all ``W`` TAM wires connect to every core through a
  multiplexer; cores are tested one at a time at full width:
  ``T = sum_i T_i(W)``;
- **daisy-chain** — every core sits on one W-wide chain threading the whole
  SOC; with bypass registers, each pattern's shift depth is the *active*
  core's depth plus one bypass bit per other core. We use the standard
  approximation ``T = sum_i T_i(W) + (NC - 1) * p_total_extra`` reduced to
  per-pattern bypass overhead;
- **distribution** — the ``W`` wires are *partitioned* over the cores, one
  private slice each, and all cores test in parallel:
  ``T = max_i T_i(w_i)`` minimized over the partition.

Distribution-width allocation is solved *exactly*: the optimal target time
is one of the O(NC x W) distinct curve values, and feasibility of a target
``T`` is checkable in linear time (give each core the narrowest width
meeting ``T``); binary search over the candidate set yields the optimum.

All formulas use the flexible wrapper model (``T_i(w)`` from
:mod:`repro.wrapper`) — the alternatives redesign each core's wrapper for
the width it actually receives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.system import Soc
from repro.util.errors import InfeasibleError, ValidationError
from repro.wrapper import application_time, application_time_curve


def multiplexed_time(soc: Soc, total_width: int) -> int:
    """Testing time of the multiplexed architecture at ``total_width`` wires."""
    if total_width <= 0:
        raise ValidationError(f"total_width must be positive, got {total_width}")
    return sum(application_time(core, total_width) for core in soc)


def daisychain_time(soc: Soc, total_width: int) -> int:
    """Testing time of the daisy-chain (bypass) architecture.

    Every pattern of core *i* shifts through its own wrapper depth plus one
    bypass flip-flop for each of the other ``NC - 1`` cores on the chain, so
    each core's test pays ``(NC - 1)`` extra cycles per pattern on top of
    its full-width time.
    """
    if total_width <= 0:
        raise ValidationError(f"total_width must be positive, got {total_width}")
    bypass = len(soc) - 1
    return sum(
        application_time(core, total_width) + bypass * core.num_patterns for core in soc
    )


@dataclass(frozen=True)
class DistributionResult:
    """Optimal private-slice allocation for the distribution architecture."""

    widths: tuple[int, ...]  # per core, in SOC order
    makespan: int

    @property
    def total_width(self) -> int:
        return sum(self.widths)


def distribution_allocation(soc: Soc, total_width: int) -> DistributionResult:
    """Exact optimal width partition for the distribution architecture.

    Raises :class:`InfeasibleError` when ``total_width < NC`` (every core
    needs at least one private wire).
    """
    num_cores = len(soc)
    if total_width < num_cores:
        raise InfeasibleError(
            f"distribution needs >= 1 wire per core: W={total_width} < NC={num_cores}",
            reason="width below core count",
        )
    max_slice = total_width - (num_cores - 1)
    curves = [application_time_curve(core, max_slice) for core in soc]

    def wires_needed(target: int) -> list[int] | None:
        """Narrowest per-core widths meeting ``target``, or None."""
        widths = []
        for curve in curves:
            # curve is non-increasing; find the first width with T <= target.
            # bisect on the reversed curve: positions of values <= target.
            lo, hi = 0, len(curve)
            while lo < hi:
                mid = (lo + hi) // 2
                if curve[mid] <= target:
                    hi = mid
                else:
                    lo = mid + 1
            if lo == len(curve):
                return None
            widths.append(lo + 1)
        return widths if sum(widths) <= total_width else None

    candidates = sorted({t for curve in curves for t in curve})
    lo, hi = 0, len(candidates) - 1
    best: list[int] | None = wires_needed(candidates[-1])
    if best is None:
        raise InfeasibleError(
            f"no distribution of {total_width} wires achieves any finite time",
            reason="curves do not fit",
        )
    best_target = candidates[-1]
    while lo <= hi:
        mid = (lo + hi) // 2
        target = candidates[mid]
        widths = wires_needed(target)
        if widths is not None:
            best = widths
            best_target = target
            hi = mid - 1
        else:
            lo = mid + 1

    # Hand out leftover wires to the bottleneck cores (free improvements).
    leftovers = total_width - sum(best)
    widths = list(best)
    while leftovers > 0:
        times = [curves[i][min(widths[i], len(curves[i])) - 1] for i in range(num_cores)]
        bottleneck = max(range(num_cores), key=lambda i: times[i])
        if widths[bottleneck] >= max_slice:
            break
        widths[bottleneck] += 1
        leftovers -= 1
    makespan = max(
        curves[i][min(widths[i], len(curves[i])) - 1] for i in range(num_cores)
    )
    assert makespan <= best_target
    return DistributionResult(tuple(widths), int(makespan))


@dataclass(frozen=True)
class ArchitectureComparison:
    """Testing times of all four access styles at one pin budget."""

    total_width: int
    multiplexed: int
    daisychain: int
    distribution: int | None  # None when W < NC
    test_bus: float

    def best_style(self) -> str:
        entries = {
            "multiplexed": self.multiplexed,
            "daisychain": self.daisychain,
            "test_bus": self.test_bus,
        }
        if self.distribution is not None:
            entries["distribution"] = self.distribution
        return min(entries, key=lambda k: entries[k])


def compare_architectures(
    soc: Soc,
    total_width: int,
    num_buses: int = 3,
    backend: str = "scipy",
) -> ArchitectureComparison:
    """Testing time of every architecture style at the same pin budget.

    The test-bus entry is the paper's exact optimum (best width
    distribution over ``num_buses`` buses, flexible timing, so all four
    styles share the same wrapper model).
    """
    from repro.core.designer import design_best_architecture

    try:
        distribution = distribution_allocation(soc, total_width).makespan
    except InfeasibleError:
        distribution = None
    sweep = design_best_architecture(
        soc,
        total_width,
        min(num_buses, total_width),
        timing="flexible",
        backend=backend,
        clamp_useless_width=True,
    )
    if sweep.best is None:
        raise InfeasibleError(
            f"no feasible test-bus architecture at W={total_width}",
            reason="test bus sweep empty",
        )
    return ArchitectureComparison(
        total_width=total_width,
        multiplexed=multiplexed_time(soc, total_width),
        daisychain=daisychain_time(soc, total_width),
        distribution=distribution,
        test_bus=sweep.best.makespan,
    )
