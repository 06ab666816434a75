"""Machine-independent search-effort gates on the paper's sweeps.

Every assertion reads a counter or a makespan: B&B node counts, the share
of node LPs answered warm, root presolve reductions, the node reduction
cuts buy, the stress-corpus proofs, and that ``design()`` seeds the search
with the LPT assignment. No wall clock is read, so the gates hold on any host;
timing lives in ``perfbench/``, which repeats runs and attributes them to
layers.

Each leg runs with no solve cache active, so every solve searches its own
tree: a cache installed around the session would answer an earlier test's
identical solve from memory and lower the node counts these gates read.
Within one leg the sweep solves each distinct ILP once whether or not a
cache is active (distributions with equal time tables are twins, see
``design_best_architecture``), so the baselines count distinct ILPs.
"""

from __future__ import annotations

import pytest

from repro.api import (
    DesignProblem,
    MetricsRegistry,
    RunTelemetry,
    SolvePolicy,
    SolverOptions,
    TamArchitecture,
    design,
    build_s3,
    design_best_architecture,
    grid_place,
    lpt_assignment,
    resolve_soc,
    use_cache,
    use_metrics,
    width_sweep,
)
from repro.ilp.branch_and_bound import CUT_ROUNDS

#: A node count may exceed its recorded baseline by at most this share.
NODE_TOLERANCE = 0.20

# --- S1 F1 width sweep: NB=2, W in {8, 16, 24}, serial timing, defaults.
SWEEP_WIDTHS = [8, 16, 24]
SWEEP_BASELINE_NODES = 32
#: Share of node LPs the warm dual simplex must answer (the rest re-solve cold).
WARM_MIN_LP_SHARE = 0.90

# --- The same sweep under a tight layout budget, cuts off vs on.
LAYOUT_WIDTHS = [16, 24]
#: Tight enough that the pairwise exclusion rows give the clique separator
#: real conflict structure on the S1 grid floorplan.
LAYOUT_MAX_PAIR_DISTANCE = 3.0
CUTS_ON_BASELINE_NODES = 13
CUTS_MIN_NODE_REDUCTION = 1.5

# --- Fixed timing and a tight power budget: the root reducer has work.
PRESOLVE_ARCHS = ((16, 8, 4), (32, 16, 8), (32, 16, 4))
PRESOLVE_POWER_BUDGET = 100.0

# --- Stress corpus, power-capped at the sum of the two largest core powers.
SCALE_WIDTHS = (32, 16, 16, 8)
D695_BASELINE_NODES = 78
D695_NODE_BUDGET = 3000
P93791_OPTIMUM = 818552.0
#: 1.2x the 3,233 nodes the default tree needs to prove p93791-pw optimal.
PROOF_NODE_BUDGET = 3880

# --- An S3 split whose tree the LPT incumbent shrinks (244 -> 206 nodes).
SEED_SPLIT = (16, 16)


@pytest.fixture(scope="module")
def sweep_telemetry(s1) -> RunTelemetry:
    telemetry = RunTelemetry()
    with use_cache(None):
        for point in width_sweep(s1, 2, SWEEP_WIDTHS, timing="serial", jobs=1):
            telemetry.merge(point.telemetry)
    return telemetry


def _layout_counts(soc, cut_rounds: int) -> dict[str, int]:
    """Solve counters of the layout-constrained sweep.

    They come from a metrics registry, not sweep telemetry: the tight
    layout budget makes many candidate architectures infeasible, and the
    nodes spent proving that (where cuts help most) are only visible to
    the per-solve metrics.
    """
    floorplan = grid_place(soc)
    policy = SolvePolicy(solver=SolverOptions(cut_rounds=cut_rounds))
    registry = MetricsRegistry()
    with use_cache(None), use_metrics(registry):
        for width in LAYOUT_WIDTHS:
            design_best_architecture(
                soc, width, 2, timing="serial", floorplan=floorplan,
                max_pair_distance=LAYOUT_MAX_PAIR_DISTANCE, policy=policy,
            )
    return registry.counts()


@pytest.fixture(scope="module")
def cuts_off(s1) -> dict[str, int]:
    return _layout_counts(s1, 0)


@pytest.fixture(scope="module")
def cuts_on(s1) -> dict[str, int]:
    return _layout_counts(s1, CUT_ROUNDS)


def _top2_power(soc) -> float:
    """The sum of the two largest core powers: binding, never infeasible."""
    powers = sorted(core.test_power for core in soc.cores)
    return round(powers[-1] + powers[-2], 1)


def _scale_problem(spec: str) -> DesignProblem:
    soc = resolve_soc(spec)
    return DesignProblem(
        soc, TamArchitecture(SCALE_WIDTHS), timing="serial", power_budget=_top2_power(soc)
    )


def _solve(problem: DesignProblem, node_budget: int):
    with use_cache(None):
        return design(problem, policy=SolvePolicy(node_budget=node_budget))


class TestWidthSweep:
    def test_nodes_within_baseline(self, sweep_telemetry):
        limit = SWEEP_BASELINE_NODES * (1.0 + NODE_TOLERANCE)
        assert sweep_telemetry.nodes <= limit

    def test_node_lps_answered_warm(self, sweep_telemetry):
        assert sweep_telemetry.lp_solves > 0
        share = sweep_telemetry.warm_lp_solves / sweep_telemetry.lp_solves
        assert share >= WARM_MIN_LP_SHARE


class TestLayoutCuts:
    def test_cuts_off_adds_no_cuts(self, cuts_off):
        assert cuts_off.get("solve.cuts", 0) == 0

    def test_cuts_shrink_the_tree(self, cuts_off, cuts_on):
        reduction = cuts_off["solve.nodes"] / max(cuts_on["solve.nodes"], 1)
        assert reduction >= CUTS_MIN_NODE_REDUCTION

    def test_cuts_on_nodes_within_baseline(self, cuts_on):
        limit = CUTS_ON_BASELINE_NODES * (1.0 + NODE_TOLERANCE)
        assert cuts_on["solve.nodes"] <= limit

    def test_cut_rounds_counted_when_cuts_added(self, cuts_on):
        # A round counts once its cuts are in the LP, including a round
        # whose cuts prove the root infeasible.
        assert cuts_on["solve.cuts"] > 0
        assert cuts_on["solve.cut_rounds"] >= 1


def test_root_presolve_removes_rows_or_columns(s1):
    removed = 0
    with use_cache(None):
        for widths in PRESOLVE_ARCHS:
            problem = DesignProblem(
                s1, TamArchitecture(widths), timing="fixed",
                power_budget=PRESOLVE_POWER_BUDGET,
            )
            stats = design(problem).stats
            removed += stats.root_cols_removed + stats.root_rows_removed
    assert removed > 0


class TestScaleCorpus:
    def test_p93791_proven_optimal_within_budget(self):
        result = _solve(_scale_problem("p93791"), PROOF_NODE_BUDGET)
        assert result.is_proven_optimal
        assert result.makespan == pytest.approx(P93791_OPTIMUM)

    def test_d695_nodes_within_baseline(self):
        result = _solve(_scale_problem("d695"), D695_NODE_BUDGET)
        assert result.is_proven_optimal
        assert result.stats.nodes <= D695_BASELINE_NODES * (1.0 + NODE_TOLERANCE)


def test_design_seeds_the_search_with_lpt():
    # With no incumbent= the bnb backend starts from LPT's assignment, so
    # passing that assignment explicitly changes nothing.
    problem = DesignProblem(build_s3(), TamArchitecture(SEED_SPLIT), timing="serial")
    with use_cache(None):
        plain = design(problem)
        seeded = design(problem, incumbent=lpt_assignment(problem).assignment)
    assert plain.is_proven_optimal
    assert plain.assignment.bus_of == seeded.assignment.bus_of
    assert plain.stats.nodes == seeded.stats.nodes
