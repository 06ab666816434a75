"""Seeded op lists for the three workloads.

Every list is a pure function of ``(workload, seed, seconds)``: the same
arguments give the same ops in the same order, so exact counters repeat and
two runs of one seed time identical work. Sizes scale with ``seconds``; for
15 s a run times about 24 s of sweep ops, 30 s of deep_tree ops or 16 s of
service traffic on a 2-vCPU x86 container, because fewer ops would not hold
the percentiles steady. A run always executes its whole list (no deadline
ever truncates an op), so the work per run is fixed and only the machine's
speed moves the timings.

See NOTES.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import (
    DesignProblem,
    TamArchitecture,
    build_s1,
    build_s2,
    build_s3,
    generate_synthetic_soc,
    grid_place,
)
from repro.util.rng import make_rng

WORKLOADS = ("sweep", "deep_tree", "service")

#: Outer-loop grid of the paper: total TAM width and bus count.
SWEEP_WIDTHS = (8, 16, 24, 32, 40, 48)
SWEEP_BUSES = (2, 3)
#: Synthetic systems per size class on seeds other than 0 (6 and 10 cores).
#: Generated systems differ several-fold in difficulty; 64 per class keep a
#: run's totals from hinging on a few of them.
SWEEP_SOCS_PER_SIZE = 64
#: Requested seconds per full cycle of the distribution grid (568 width
#: distributions x 4 variants). A run covers whole cycles, so every seed
#: times every distribution equally often.
SWEEP_PASS_SECONDS = 15.0

#: deep_tree systems: S3 plus catalog-mode systems with fixed generator
#: seeds. The set does not move with the workload seed: per-system tree
#: sizes vary ~10x, so seed-drawn systems would swing a 140-op run's median
#: by far more than any regression worth catching (see NOTES.md).
DEEP_SYNTHETIC = ((16, 1), (17, 2), (18, 3), (16, 4), (17, 5), (18, 6))
#: Banded bus splits: each bus sits in its own serialization band, so no two
#: buses have the same time column and no tree is a symmetric blow-up.
DEEP_SPLITS = tuple(
    (a, b, c) for a in (32, 24) for b in (14, 11, 8) for c in (6, 5, 4)
) + ((32, 16, 8, 4), (32, 14, 7, 4))
#: Requested seconds per pass over every system x split. A pass takes ~18 s
#: on the reference host, but 140 ops leave the percentiles at the mercy of
#: per-op jitter (~12% for one op repeated), so a 15 s run times two passes.
DEEP_PASS_SECONDS = 7.5

#: Service traffic: closed loop, one client thread per CPU.
SERVICE_CLIENTS = 2
SERVICE_OPS_PER_S = 150.0
SERVICE_HOT_SHARE = 0.8
#: Hot-set size, spread evenly over the systems and solved during warm-up
#: so that timed resubmissions take the tenant-cache hit path.
SERVICE_HOT_SET = 32
SERVICE_SOCS_PER_SIZE = 8
#: Client poll interval; the client's 50 ms default would set the latency.
SERVICE_POLL_S = 0.002

VARIANTS = ("serial", "power", "layout", "fixed_power")


def power_budget(soc) -> float:
    """Just below the two hungriest cores' sum: forces exactly that pair."""
    powers = sorted(core.test_power for core in soc.cores)
    return powers[-1] + powers[-2] - 0.05


def layout_budget(floorplan, n: int) -> float:
    """The 80th-percentile pair distance: a fifth of the pairs may not share."""
    dists = sorted(
        floorplan.distance(a, b) for a in range(n) for b in range(a + 1, n)
    )
    return dists[int(len(dists) * 0.8)]


@dataclass
class System:
    """One SOC with the constraint settings its variants use."""

    spec: str
    soc: object
    floorplan: object = None
    power: float = 0.0
    delta: float = 0.0

    @classmethod
    def build(cls, spec: str, soc, with_layout: bool = True) -> "System":
        floorplan = grid_place(soc) if with_layout else None
        delta = layout_budget(floorplan, len(soc)) if with_layout else 0.0
        return cls(spec, soc, floorplan, power_budget(soc), delta)

    def problem_kwargs(self, variant: str) -> dict:
        if variant == "serial":
            return {"timing": "serial"}
        if variant == "power":
            return {"timing": "serial", "power_budget": self.power}
        if variant == "layout":
            return {
                "timing": "serial",
                "floorplan": self.floorplan,
                "max_pair_distance": self.delta,
            }
        return {"timing": "fixed", "power_budget": self.power}


@dataclass(frozen=True)
class DesignOp:
    """One cold ``design()``: system index, bus widths, constraint variant."""

    system: int
    widths: tuple[int, ...]
    variant: str

    def problem(self, systems: list[System]) -> DesignProblem:
        system = systems[self.system]
        return DesignProblem(
            soc=system.soc,
            arch=TamArchitecture(list(self.widths)),
            **system.problem_kwargs(self.variant),
        )


@dataclass
class Plan:
    """A workload's systems, its timed op list, and its warm-up ops."""

    workload: str
    systems: list[System]
    ops: list = field(default_factory=list)
    warmup: list = field(default_factory=list)


def _balanced(rng, size: int, count: int) -> list[int]:
    """``count`` indices below ``size`` in shuffled full cycles.

    Every index appears ``count // size`` or one more times, so a run's op
    mix does not hinge on multinomial luck in which items it drew.
    """
    picks: list[int] = []
    while len(picks) < count:
        picks.extend(int(i) for i in rng.permutation(size))
    return picks[:count]


def _generator_seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.choice(1_000_000, size=count, replace=False)]


def _distributions() -> list[tuple[int, ...]]:
    return [
        tuple(arch.widths)
        for width in SWEEP_WIDTHS
        for buses in SWEEP_BUSES
        for arch in TamArchitecture.enumerate_distributions(width, buses)
    ]


def sweep_plan(seed: int, seconds: float) -> Plan:
    """Width distributions of the outer loop, each under four variants."""
    rng = make_rng(seed)
    if seed == 0:
        systems = [System.build("S1", build_s1()), System.build("S2", build_s2())]
    else:
        systems = []
        for cores in (6, 10):
            for gen in _generator_seeds(rng, SWEEP_SOCS_PER_SIZE):
                spec = f"SYN{cores}:{gen}"
                soc = generate_synthetic_soc(cores, seed=gen, mode="catalog", name=spec)
                systems.append(System.build(spec, soc))
    dists = _distributions()
    units = max(1, round(len(dists) * seconds / SWEEP_PASS_SECONDS))
    ops = []
    for unit, dist in enumerate(_balanced(rng, len(dists), units)):
        system = unit % len(systems)
        ops.extend(DesignOp(system, dists[dist], variant) for variant in VARIANTS)
    order = rng.permutation(len(ops))
    warmup = [DesignOp(0, (16, 8), variant) for variant in VARIANTS]
    return Plan("sweep", systems, [ops[i] for i in order], warmup)


def distinct_columns(problem: DesignProblem) -> bool:
    """True when no two buses have identical test-time columns."""
    times = problem.times
    columns = {tuple(times[:, j]) for j in range(times.shape[1])}
    return len(columns) == times.shape[1]


def deep_tree_plan(seed: int, seconds: float) -> Plan:
    """Exact designs of 16-18-core systems whose trees take 10-4000 nodes."""
    systems = [System.build("S3", build_s3(), with_layout=False)]
    for cores, gen in DEEP_SYNTHETIC:
        spec = f"SYN{cores}:{gen}"
        soc = generate_synthetic_soc(cores, seed=gen, mode="catalog", name=spec)
        systems.append(System.build(spec, soc, with_layout=False))
    universe = [
        DesignOp(index, widths, "serial")
        for index in range(len(systems))
        for widths in DEEP_SPLITS
    ]
    universe = [op for op in universe if distinct_columns(op.problem(systems))]
    rng = make_rng(seed)
    count = max(1, round(len(universe) * seconds / DEEP_PASS_SECONDS))
    ops = []
    while len(ops) < count:
        ops.extend(universe[i] for i in rng.permutation(len(universe)))
    warmup = [DesignOp(0, (32, 8, 4), "serial")]
    return Plan("deep_tree", systems, ops[:count], warmup)


@dataclass(frozen=True)
class ServiceOp:
    """One ``design`` request as the service receives it."""

    system: int
    widths: tuple[int, ...]
    variant: str

    def payload(self, systems: list[System]) -> dict:
        system = systems[self.system]
        request = {
            "kind": "design",
            "soc": system.spec,
            "widths": list(self.widths),
            "timing": "serial",
        }
        if self.variant == "power":
            request["power_budget"] = system.power
        return request


def service_plan(seed: int, seconds: float) -> Plan:
    """~80% requests from a warm hot set, ~20% never-seen 6/10-core designs."""
    rng = make_rng(seed)
    # Synthetic systems on every seed: with S1 and S2 alone, S1 has too few
    # distinct ILPs and the fresh requests would be mostly S2.
    systems = []
    for cores in (6, 10):
        for gen in _generator_seeds(rng, SERVICE_SOCS_PER_SIZE):
            spec = f"SYN{cores}:{gen}"
            soc = generate_synthetic_soc(cores, seed=gen, mode="catalog", name=spec)
            systems.append(System.build(spec, soc, with_layout=False))
    dists = _distributions()
    total = max(2, round(SERVICE_OPS_PER_S * seconds))
    fresh_count = total - round(total * SERVICE_HOT_SHARE)
    hot_per_soc = max(1, SERVICE_HOT_SET // len(systems))
    pools = [_distinct_requests(rng, index, system, dists) for index, system in enumerate(systems)]
    hot = [op for pool in pools for op in pool[:hot_per_soc]]
    fresh: list[ServiceOp] = []
    cursor = [hot_per_soc] * len(pools)
    while len(fresh) < fresh_count:
        before = len(fresh)
        for index, pool in enumerate(pools):
            if cursor[index] < len(pool) and len(fresh) < fresh_count:
                fresh.append(pool[cursor[index]])
                cursor[index] += 1
        if len(fresh) == before:
            raise ValueError(f"only {len(fresh)} distinct fresh requests; {fresh_count} needed")
    ops = fresh + [hot[i] for i in _balanced(rng, len(hot), total - fresh_count)]
    order = rng.permutation(len(ops))
    return Plan("service", systems, [ops[i] for i in order], hot)


def _distinct_requests(rng, index: int, system: System, dists) -> list[ServiceOp]:
    """The system's requests with pairwise different ILPs, shuffled.

    Distinct requests can share one ILP (e.g. [40, 8] and [32, 16] when no
    core is wider than 32) and so one cache entry; keeping one request per
    ILP makes every fresh request a genuine cache miss.
    """
    columns: dict[int, bytes] = {}

    def column(width: int) -> bytes:
        if width not in columns:
            problem = DesignProblem(
                soc=system.soc, arch=TamArchitecture([width]), timing="serial"
            )
            columns[width] = problem.times.tobytes()
        return columns[width]

    unique: dict[tuple, ServiceOp] = {}
    for widths in dists:
        for variant in ("serial", "power"):
            identity = (variant, *(column(w) for w in widths))
            unique.setdefault(identity, ServiceOp(index, widths, variant))
    pool = list(unique.values())
    return [pool[i] for i in rng.permutation(len(pool))]


def build_plan(workload: str, seed: int, seconds: float) -> Plan:
    if workload == "sweep":
        return sweep_plan(seed, seconds)
    if workload == "deep_tree":
        return deep_tree_plan(seed, seconds)
    if workload == "service":
        return service_plan(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
