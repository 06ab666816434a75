"""ISCAS-85/89 core catalog.

Structural statistics (I/O, flip-flop, and gate counts) are the published
ISCAS benchmark figures [Brglez et al., ISCAS'85; Brglez/Bryan/Kozminski,
ISCAS'89]. Pattern counts are representative compacted-ATPG test-set sizes
from the stuck-at literature of the paper's era (MinTest-family results);
they set the relative test lengths, which is what the makespan optimization
consumes.

Test width is the TAM interface width each core's test set is prepared for —
the paper's `w_i`. We derive it from the core's data volume per pattern
(larger cores get wider interfaces, capped at 32), matching the paper's setup
where cores have heterogeneous fixed interface widths.

Test power is derived as ``gates * activity * POWER_SCALE`` — a standard
scan-test power proxy (power tracks switched capacitance, which tracks gate
count times toggle rate). Absolute milliwatt values are synthetic; only the
*relative* pairwise sums matter to the power constraints, and the experiment
sweeps pick budgets that make the constraints bind, as in the paper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.soc.core import Core
from repro.util.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.soc.system import Soc

#: mW per (gate x activity) at the nominal scan-shift frequency.
POWER_SCALE = 0.05

#: Catalog rows: name -> (inputs, outputs, flipflops, gates, patterns, activity)
_RAW: dict[str, tuple[int, int, int, int, int, float]] = {
    # ISCAS-85 combinational benchmarks
    "c432": (36, 7, 0, 160, 56, 0.60),
    "c499": (41, 32, 0, 202, 53, 0.58),
    "c880": (60, 26, 0, 383, 51, 0.55),
    "c1355": (41, 32, 0, 546, 85, 0.57),
    "c1908": (33, 25, 0, 880, 118, 0.56),
    "c2670": (233, 140, 0, 1193, 107, 0.52),
    "c3540": (50, 22, 0, 1669, 151, 0.55),
    "c5315": (178, 123, 0, 2307, 109, 0.53),
    "c6288": (32, 32, 0, 2416, 34, 0.70),
    "c7552": (207, 108, 0, 3512, 211, 0.54),
    # ISCAS-89 full-scan sequential benchmarks
    "s953": (16, 23, 29, 395, 93, 0.62),
    "s1196": (14, 14, 18, 529, 122, 0.60),
    "s1238": (14, 14, 18, 508, 136, 0.60),
    "s5378": (35, 49, 179, 2779, 111, 0.58),
    "s9234": (36, 39, 211, 5597, 139, 0.55),
    "s13207": (62, 152, 638, 7951, 235, 0.50),
    "s15850": (77, 150, 534, 9772, 126, 0.52),
    "s35932": (35, 320, 1728, 16065, 16, 0.65),
    "s38417": (28, 106, 1636, 22179, 91, 0.55),
    "s38584": (38, 304, 1426, 19253, 136, 0.53),
}


def _derive_test_width(inputs: int, outputs: int, flipflops: int) -> int:
    """Assign the core's native TAM interface width.

    Heuristic: one TAM wire per ~16 bits of per-pattern scan data, clamped to
    [4, 32] and rounded up to a multiple of 4 — producing the heterogeneous
    4/8/16/24/32-bit interfaces typical of the paper's examples.
    """
    bits = max(flipflops + inputs, flipflops + outputs)
    width = max(4, min(32, math.ceil(bits / 16)))
    return int(math.ceil(width / 4) * 4)


def _build_catalog() -> dict[str, Core]:
    catalog = {}
    for name, (inputs, outputs, flipflops, gates, patterns, activity) in _RAW.items():
        catalog[name] = Core(
            name=name,
            num_inputs=inputs,
            num_outputs=outputs,
            num_flipflops=flipflops,
            num_gates=gates,
            num_patterns=patterns,
            test_width=_derive_test_width(inputs, outputs, flipflops),
            test_power=round(gates * activity * POWER_SCALE, 1),
            activity=activity,
        )
    return catalog


#: Immutable-by-convention mapping of benchmark name -> Core.
CATALOG: dict[str, Core] = _build_catalog()


def catalog_names() -> list[str]:
    """All benchmark names, ISCAS-85 first, each group by size."""
    return sorted(CATALOG, key=lambda n: (n[0] != "c", CATALOG[n].num_gates))


def catalog_core(name: str, rename: str | None = None) -> Core:
    """Fetch a catalog core, optionally renamed for multi-instance SOCs."""
    try:
        core = CATALOG[name]
    except KeyError:
        raise ValidationError(
            f"unknown benchmark core {name!r}; known: {', '.join(catalog_names())}"
        ) from None
    return core.renamed(rename) if rename else core


# --------------------------------------------------------------------------
# Stress-corpus registry
#
# The scale experiments need named, reproducible systems well beyond the
# ten-core academic SOCs.
# Builders register themselves here — :mod:`repro.soc.itc02` contributes
# the ITC'02-class analogues (d695, p93791, t512505) and
# :mod:`repro.soc.generator` the seeded synthetic scale points — and
# :func:`repro.core.request.resolve_soc` resolves corpus names so a spec
# string like ``"p93791"`` works everywhere an SOC is accepted.

_CORPUS: dict[str, Callable[[], "Soc"]] = {}


def register_corpus(name: str, builder: Callable[[], "Soc"]) -> None:
    """Register a named corpus system (lower-case name -> zero-arg builder).

    Re-registering a name replaces the builder — the corpus modules run
    their registrations at import time, which may happen more than once
    under test re-imports.
    """
    _CORPUS[name.lower()] = builder


def corpus_names() -> list[str]:
    """All registered stress-corpus system names, sorted."""
    return sorted(_CORPUS)


def corpus_soc(name: str) -> "Soc":
    """Build a corpus system by name (case-insensitive)."""
    try:
        builder = _CORPUS[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown corpus system {name!r}; known: {', '.join(corpus_names())}"
        ) from None
    return builder()
