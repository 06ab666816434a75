"""Wrapper chain construction and test application time.

Model (standard in the modular-test literature, e.g. Aerts & Marinissen,
ITC'98): a core tested at TAM width ``w`` gets ``w`` *wrapper chains*. Each
wrapper chain concatenates some of the core's internal scan chains plus some
functional input/output cells. Per test pattern the TAM shifts in the longest
input-side chain (``si`` cycles) while shifting out the previous response
(``so`` cycles), so the test application time for ``p`` patterns is::

    T(w) = (1 + max(si, so)) * p + min(si, so)

Internal scan chains are *fixed* once the core is delivered, so wrapper
design is a bin-packing of chain lengths over ``w`` bins — solved here with
the LPT (longest processing time first) heuristic the literature uses,
followed by greedy balancing of the 1-bit functional cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.soc.core import Core
from repro.util.errors import ValidationError

#: Default maximum internal scan chain length when a core doesn't specify
#: its chain structure. Cores are delivered with chains of roughly this
#: length (a typical DFT tool default of the era).
DEFAULT_CHAIN_LENGTH = 50


def internal_scan_chains(core: Core, max_length: int = DEFAULT_CHAIN_LENGTH) -> list[int]:
    """Return the core's internal scan chain lengths.

    A core delivered with an explicit chain structure (``core.scan_chains``,
    the ITC'02 style) uses it verbatim. Otherwise the flip-flops are split
    into ``ceil(FF / max_length)`` chains of nearly equal length (the
    balanced structure DFT insertion produces). Returns an empty list for
    combinational cores.
    """
    if core.scan_chains is not None:
        return list(core.scan_chains)
    if max_length <= 0:
        raise ValidationError(f"max_length must be positive, got {max_length}")
    total = core.num_flipflops
    if total == 0:
        return []
    count = math.ceil(total / max_length)
    base, extra = divmod(total, count)
    return [base + 1] * extra + [base] * (count - extra)


@dataclass(frozen=True)
class WrapperDesign:
    """A wrapper configuration for one core at one TAM width.

    ``in_chains``/``out_chains`` hold the total bit-length of each wrapper
    chain on the input (scan-in + stimulus) and output (scan-out + response)
    sides. ``si``/``so`` are the respective maxima — the per-pattern shift
    cycle counts.
    """

    core_name: str
    width: int
    in_chains: tuple[int, ...]
    out_chains: tuple[int, ...]

    @property
    def si(self) -> int:
        return max(self.in_chains) if self.in_chains else 0

    @property
    def so(self) -> int:
        return max(self.out_chains) if self.out_chains else 0

    def application_time(self, num_patterns: int) -> int:
        """Cycles to apply ``num_patterns`` patterns through this wrapper."""
        if num_patterns <= 0:
            raise ValidationError(f"num_patterns must be positive, got {num_patterns}")
        return (1 + max(self.si, self.so)) * num_patterns + min(self.si, self.so)


def _pack_lpt(items: list[int], bins: int) -> list[int]:
    """LPT bin packing: return per-bin totals after placing items descending."""
    totals = [0] * bins
    for item in sorted(items, reverse=True):
        totals[totals.index(min(totals))] += item
    return totals


def _spread_cells(totals: list[int], cells: int) -> list[int]:
    """Distribute ``cells`` 1-bit wrapper cells, always filling the shortest bin."""
    totals = list(totals)
    for _ in range(cells):
        totals[totals.index(min(totals))] += 1
    return totals


#: Structural-signature -> WrapperDesign memo. The packing costs O(width^2)
#: passes and the designer re-derives identical wrappers across every sweep
#: point; the key covers every core field the packing reads (plus the name,
#: which the returned record carries), so distinct cores cannot collide.
#: WrapperDesign is frozen, making the shared instances safe.
_WRAPPER_CACHE: dict[tuple, WrapperDesign] = {}


def design_wrapper(core: Core, width: int, chain_length: int = DEFAULT_CHAIN_LENGTH) -> WrapperDesign:
    """Build the wrapper for ``core`` at TAM width ``width``.

    Internal scan chains are packed over wrapper chains with LPT; functional
    input (output) cells are then spread one bit at a time onto the currently
    shortest input-side (output-side) chain. Because LPT is a heuristic, the
    design is built for every chain count up to ``width`` and the fastest is
    kept — a wrapper may always leave TAM wires unused, which also makes
    ``T(w)`` monotone non-increasing in ``w`` by construction.

    Results are memoized per structural signature: repeated calls for the
    same core shape and width return the same frozen design instantly.
    """
    if width <= 0:
        raise ValidationError(f"wrapper width must be positive, got {width}")
    key = (
        core.name,
        core.num_inputs,
        core.num_outputs,
        core.num_flipflops,
        core.num_patterns,
        core.scan_chains,
        width,
        chain_length,
    )
    cached = _WRAPPER_CACHE.get(key)
    if cached is not None:
        return cached
    chains = internal_scan_chains(core, max_length=chain_length)
    best: WrapperDesign | None = None
    best_time = math.inf
    for bins in range(1, width + 1):
        scan_totals = _pack_lpt(chains, bins)
        in_chains = _spread_cells(scan_totals, core.num_inputs)
        out_chains = _spread_cells(scan_totals, core.num_outputs)
        # Pad to the full width so the record reflects the physical interface.
        pad = (0,) * (width - bins)
        candidate = WrapperDesign(
            core.name, width, tuple(in_chains) + pad, tuple(out_chains) + pad
        )
        time = candidate.application_time(core.num_patterns)
        if time < best_time:
            best = candidate
            best_time = time
    assert best is not None
    _WRAPPER_CACHE[key] = best
    return best


def application_time(core: Core, width: int, chain_length: int = DEFAULT_CHAIN_LENGTH) -> int:
    """Test application time (cycles) of ``core`` at TAM width ``width``."""
    return design_wrapper(core, width, chain_length).application_time(core.num_patterns)


def application_time_curve(
    core: Core, max_width: int, chain_length: int = DEFAULT_CHAIN_LENGTH
) -> list[int]:
    """Return ``[T(1), T(2), ..., T(max_width)]`` for the core.

    One pass over chain counts with a running minimum: ``T(w)`` is the best
    of the packings into 1..w chains, exactly as :func:`design_wrapper`
    picks it, so the curve costs ``max_width`` packings instead of one full
    re-pack per width.
    """
    if max_width <= 0:
        raise ValidationError(f"max_width must be positive, got {max_width}")
    chains = internal_scan_chains(core, max_length=chain_length)
    curve: list[int] = []
    for bins in range(1, max_width + 1):
        scan_totals = _pack_lpt(chains, bins)
        candidate = WrapperDesign(
            core.name,
            bins,
            tuple(_spread_cells(scan_totals, core.num_inputs)),
            tuple(_spread_cells(scan_totals, core.num_outputs)),
        )
        time = candidate.application_time(core.num_patterns)
        curve.append(min(time, curve[-1]) if curve else time)
    return curve


def pareto_widths(core: Core, max_width: int, chain_length: int = DEFAULT_CHAIN_LENGTH) -> list[int]:
    """Widths in [1, max_width] where T(w) strictly improves on all narrower widths.

    Wrapper time is a staircase in width: beyond some width the longest
    internal chain dominates and extra wires are wasted. Assigning a core to
    a bus wider than its last Pareto width buys nothing — the classic
    motivation for heterogeneous bus widths.
    """
    curve = application_time_curve(core, max_width, chain_length)
    best = math.inf
    points = []
    for w, t in enumerate(curve, start=1):
        if t < best:
            best = t
            points.append(w)
    return points
