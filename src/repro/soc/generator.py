"""Seeded synthetic SOC generation for scalability sweeps.

The ILP-scaling experiment (F4) needs a family of SOCs of increasing core
count with controlled statistics. Three generation modes:

- ``mode="catalog"`` — sample (with replacement) from the ISCAS catalog and
  jitter the pattern counts, so cores keep realistic structure;
- ``mode="parametric"`` — draw core structure from log-normal gate-count and
  pattern distributions, producing arbitrary-size systems independent of the
  catalog;
- ``mode="itc02"`` — the stress-corpus mode: heavy-tailed log-normal draws
  calibrated to the ITC'02-class analogues
  (:mod:`repro.soc.itc02`) — mostly sequential cores with explicit
  balanced scan chains, pattern counts spanning two orders of magnitude,
  and the occasional scan monster — for 200+-core stress systems.

Generation is a pure function of ``(num_cores, seed, mode)``: the RNG is a
seeded PCG64 stream and nothing reads ambient state, so the same call is
byte-identical across repeated runs and across worker processes (the
solve cache and the service's fingerprint/dedupe path depend on this —
see ``tests/test_generator_determinism.py``). Canonical scale points are
registered in the stress corpus as ``scale32`` … ``scale256``
(:func:`repro.soc.catalog.corpus_soc`).
"""

from __future__ import annotations

import math

from repro.soc.catalog import CATALOG, POWER_SCALE, catalog_names, register_corpus
from repro.soc.core import Core
from repro.soc.itc02 import _balanced_chains
from repro.soc.system import Soc
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, make_rng


def _jittered_patterns(base: int, rng) -> int:
    """Scale a pattern count by a uniform +/-30% factor, at least one."""
    return max(1, int(round(base * rng.uniform(0.7, 1.3))))


def _parametric_core(index: int, rng) -> Core:
    """Draw one synthetic core from log-normal size distributions."""
    gates = int(rng.lognormal(mean=7.8, sigma=0.9)) + 100  # median ~2.5k gates
    sequential = rng.random() < 0.6
    flipflops = int(gates * rng.uniform(0.05, 0.12)) if sequential else 0
    inputs = max(4, int(gates ** 0.45 * rng.uniform(0.5, 1.5)))
    outputs = max(4, int(gates ** 0.45 * rng.uniform(0.4, 1.2)))
    patterns = max(8, int(rng.lognormal(mean=4.5, sigma=0.6)))
    activity = float(rng.uniform(0.45, 0.7))
    bits = max(flipflops + inputs, flipflops + outputs)
    width = max(4, min(32, math.ceil(bits / 16)))
    width = int(math.ceil(width / 4) * 4)
    return Core(
        name=f"syn{index}",
        num_inputs=inputs,
        num_outputs=outputs,
        num_flipflops=flipflops,
        num_gates=gates,
        num_patterns=patterns,
        test_width=width,
        test_power=round(gates * activity * POWER_SCALE, 1),
        activity=round(activity, 3),
    )


def _itc02_core(index: int, rng) -> Core:
    """Draw one ITC'02-class core: heavy-tailed, scan-chained, mostly sequential.

    Calibrated against the p93791/t512505 analogue tables: ~80% sequential
    cores, flip-flop counts with a fat log-normal tail (a few thousand-FF
    scan monsters per couple hundred cores), pattern counts spanning two
    orders of magnitude, and explicit balanced scan chains sized one chain
    per ~256 flip-flops (capped at 46, the largest published chain count).
    """
    gates = int(rng.lognormal(mean=8.6, sigma=1.2)) + 300
    sequential = rng.random() < 0.8
    flipflops = int(gates * rng.uniform(0.06, 0.16)) if sequential else 0
    inputs = max(4, int(gates ** 0.42 * rng.uniform(0.6, 1.6)))
    outputs = max(4, int(gates ** 0.42 * rng.uniform(0.5, 1.4)))
    patterns = max(8, int(rng.lognormal(mean=4.8, sigma=1.0)))
    activity = float(rng.uniform(0.48, 0.64))
    chain_count = 0
    if flipflops:
        chain_count = max(1, min(46, flipflops // 256, flipflops))
    chains = _balanced_chains(flipflops, chain_count)
    io_wires = max(1, max(inputs, outputs) // 64)
    width = max(4, min(32, max(chain_count, io_wires)))
    return Core(
        name=f"p{index}",
        num_inputs=inputs,
        num_outputs=outputs,
        num_flipflops=flipflops,
        num_gates=gates,
        num_patterns=patterns,
        test_width=width,
        test_power=round(gates * activity * POWER_SCALE, 1),
        activity=round(activity, 3),
        scan_chains=chains,
    )


def generate_synthetic_soc(
    num_cores: int,
    seed: RngLike = 0,
    mode: str = "catalog",
    name: str | None = None,
) -> Soc:
    """Generate a deterministic synthetic SOC with ``num_cores`` cores.

    The die is sized so the cores cover about half the area, keeping layout
    experiments meaningful at every scale. The result is a pure function of
    the arguments — identical across repeated calls and across processes.
    """
    if num_cores <= 0:
        raise ValidationError(f"num_cores must be positive, got {num_cores}")
    if mode not in ("catalog", "parametric", "itc02"):
        raise ValidationError(f"unknown generation mode {mode!r}")
    rng = make_rng(seed)
    cores: list[Core] = []
    if mode == "itc02":
        cores = [_itc02_core(i, rng) for i in range(num_cores)]
    elif mode == "catalog":
        pool = catalog_names()
        counts: dict[str, int] = {}
        for _ in range(num_cores):
            base = pool[int(rng.integers(len(pool)))]
            counts[base] = counts.get(base, 0) + 1
            template = CATALOG[base]
            rename = base if counts[base] == 1 else f"{base}_{counts[base]}"
            cores.append(
                template.renamed(rename).with_patterns(
                    _jittered_patterns(template.num_patterns, rng)
                )
            )
    else:
        cores = [_parametric_core(i, rng) for i in range(num_cores)]

    total_area = sum(core.area_mm2 for core in cores)
    side = max(4.0, round(math.sqrt(total_area * 2.0) + 2.0, 1))
    default = ("ITC" if mode == "itc02" else "SYN") + str(num_cores)
    return Soc(
        name or default,
        cores,
        die_width=side,
        die_height=side,
    )


def _scale_point(num_cores: int):
    """A corpus builder for one canonical ITC'02-mode scale point."""
    def build() -> Soc:
        return generate_synthetic_soc(
            num_cores, seed=num_cores, mode="itc02", name=f"scale{num_cores}"
        )
    return build


#: Canonical generated scale points for the stress corpus: seed == core
#: count, so every name is fully reproducible.
SCALE_POINTS = (32, 64, 96, 128, 200, 256)

for _n in SCALE_POINTS:
    register_corpus(f"scale{_n}", _scale_point(_n))
del _n
