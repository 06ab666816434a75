"""Tests for the end-to-end designer, cross-checked against the oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DesignProblem, design, design_best_architecture
from repro.ilp import Status
from repro.layout import grid_place
from repro.obs import MetricsRegistry, SolvePolicy, use_metrics
from repro.runtime import use_cache
from repro.soc import generate_synthetic_soc
from repro.tam import TamArchitecture, exhaustive_optimal
from repro.util.errors import InfeasibleError, SolverError


class TestDesignUnconstrained:
    @pytest.mark.parametrize("timing", ["fixed", "serial", "flexible"])
    def test_matches_exhaustive_on_s1(self, s1, timing):
        arch = TamArchitecture([32, 16, 16])
        problem = DesignProblem(soc=s1, arch=arch, timing=timing)
        result = design(problem)
        oracle = exhaustive_optimal(s1, arch, problem.timing)
        assert result.makespan == pytest.approx(oracle.makespan)
        assert result.is_proven_optimal
        assert result.status is Status.OPTIMAL

    def test_backends_agree(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        ours = design(problem, backend="bnb")
        ref = design(problem, backend="scipy")
        assert ours.makespan == pytest.approx(ref.makespan)

    def test_bus_times_consistent(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(problem)
        assert max(result.bus_times) == pytest.approx(result.makespan)
        assert result.bus_times == result.assignment.bus_times(problem.timing)

    def test_wirelength_reported_with_floorplan(self, s1, arch3, s1_floorplan):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial", floorplan=s1_floorplan)
        result = design(problem)
        assert result.wirelength is not None and result.wirelength > 0

    def test_wirelength_absent_without_floorplan(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        assert design(problem).wirelength is None

    def test_describe_includes_solver_info(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        text = design(problem).describe()
        assert "status=optimal" in text and "makespan" in text


class TestDesignConstrained:
    def test_power_constraint_respected_and_optimal(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial", power_budget=110.0)
        result = design(problem)
        oracle = exhaustive_optimal(
            s1, arch3, problem.timing, forced_pairs=problem.forced_pairs
        )
        assert result.makespan == pytest.approx(oracle.makespan)
        for a, b in problem.forced_pairs:
            assert result.assignment.shares_bus(a, b)

    def test_layout_constraint_respected_and_optimal(self, s1, arch3, s1_floorplan):
        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial",
            floorplan=s1_floorplan, max_pair_distance=5.0,
        )
        result = design(problem)
        oracle = exhaustive_optimal(
            s1, arch3, problem.timing, forbidden_pairs=problem.forbidden_pairs
        )
        assert result.makespan == pytest.approx(oracle.makespan)
        for a, b in problem.forbidden_pairs:
            assert not result.assignment.shares_bus(a, b)

    def test_contradiction_raises_before_solving(self, s1, arch3):
        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial",
            extra_forced=[(0, 1)], extra_forbidden=[(0, 1)],
        )
        with pytest.raises(InfeasibleError) as excinfo:
            design(problem)
        assert "contradiction" in str(excinfo.value)

    def test_overconstrained_layout_infeasible(self, s1, s1_floorplan):
        arch = TamArchitecture([16, 16])
        problem = DesignProblem(
            soc=s1, arch=arch, timing="serial",
            floorplan=s1_floorplan, max_pair_distance=1.0,
        )
        with pytest.raises(InfeasibleError):
            design(problem)

    def test_constraints_never_improve_time(self, s1, arch3, s1_floorplan):
        base = design(DesignProblem(soc=s1, arch=arch3, timing="serial")).makespan
        constrained = design(
            DesignProblem(
                soc=s1, arch=arch3, timing="serial", power_budget=110.0,
                floorplan=s1_floorplan, max_pair_distance=7.0,
            )
        ).makespan
        assert constrained >= base - 1e-9

    def test_exhausted_strict_policy_raises_solver_error(self, lpt_unplaceable):
        with pytest.raises(SolverError):
            design(
                lpt_unplaceable,
                policy=SolvePolicy(node_budget=1, fallback=()),
                dive=False,
                cache=False,
            )

    def test_legacy_limit_kwargs_are_rejected(self, s2):
        arch = TamArchitecture([32, 16, 16])
        problem = DesignProblem(soc=s2, arch=arch, timing="serial")
        with pytest.raises(TypeError, match="SolvePolicy"):
            design(problem, node_limit=1)


class TestBestArchitecture:
    def test_beats_or_matches_even_split(self, s1):
        sweep = design_best_architecture(s1, 32, 2, timing="serial")
        even = design(
            DesignProblem(soc=s1, arch=TamArchitecture.even_split(32, 2), timing="serial")
        )
        assert sweep.best_makespan <= even.makespan + 1e-9
        assert sweep.evaluated == 16  # partitions of 32 into exactly 2 parts

    def test_per_architecture_trace_complete(self, s1):
        sweep = design_best_architecture(s1, 12, 3, timing="serial")
        assert len(sweep.per_architecture) == sweep.evaluated
        feasible = [m for _, m in sweep.per_architecture if m is not None]
        assert min(feasible) == pytest.approx(sweep.best_makespan)

    def test_infeasible_distributions_counted(self, s1):
        # Fixed-width S1 needs a 16-wide bus; splitting 18 over 3 buses
        # leaves some partitions with no 16-wide bus.
        sweep = design_best_architecture(s1, 18, 3, timing="fixed")
        assert sweep.infeasible > 0
        assert sweep.best is not None

    def test_pruning_is_sound(self, s1):
        # The serial sweep at W=16 prunes several distributions via the
        # certified lower bounds; verify the pruned sweep still finds the
        # true best by solving every distribution manually.
        sweep = design_best_architecture(s1, 16, 3, timing="serial", backend="scipy")
        assert sweep.pruned > 0
        best = math.inf
        for arch in TamArchitecture.enumerate_distributions(16, 3):
            problem = DesignProblem(soc=s1, arch=arch, timing="serial")
            try:
                best = min(best, design(problem, backend="scipy").makespan)
            except InfeasibleError:
                continue
        assert sweep.best_makespan == pytest.approx(best)

    def test_width_infeasible_archs_counted_not_pruned(self, s1):
        # Fixed timing at W=18: distributions lacking a 16-wide bus are
        # provably infeasible and must land in `infeasible`, never `pruned`.
        sweep = design_best_architecture(s1, 18, 3, timing="fixed")
        assert sweep.infeasible > 0
        assert sweep.evaluated == sweep.infeasible + len(
            [m for _, m in sweep.per_architecture if m is not None]
        )

    def test_all_infeasible_returns_none(self, s1):
        sweep = design_best_architecture(s1, 8, 2, timing="fixed")
        assert sweep.best is None
        assert sweep.best_makespan == math.inf
        assert sweep.infeasible == sweep.evaluated


class TestSweepTwins:
    """Distributions with equal time tables are one ILP, solved once."""

    @pytest.mark.parametrize("layout", [False, True])
    def test_each_distinct_ilp_solved_once(self, s1, layout):
        # With the tight layout budget most S1 splits are infeasible, so
        # twins of an infeasible ILP are recorded too.
        extra = {"floorplan": grid_place(s1), "max_pair_distance": 3.0} if layout else {}
        registry = MetricsRegistry()
        with use_cache(None), use_metrics(registry):
            sweep = design_best_architecture(s1, 16, 2, timing="serial", **extra)
        solved_tables = []
        alone = []
        for arch, _ in sweep.per_architecture:
            problem = DesignProblem(soc=s1, arch=arch, timing="serial", **extra)
            solved_tables.append(problem.times.tobytes())
            try:
                alone.append((arch, design(problem, cache=False).makespan))
            except InfeasibleError:
                alone.append((arch, None))
        assert len(set(solved_tables)) < len(solved_tables)  # twins exist
        assert registry.histogram("solve.wall_time").count == len(set(solved_tables))
        assert sweep.per_architecture == alone
        assert sweep.evaluated == len(alone)
        assert sweep.infeasible == sum(m is None for _, m in alone)
        # Telemetry counts real solves that returned a design.
        feasible_tables = {t for t, (_, m) in zip(solved_tables, alone) if m is not None}
        assert sweep.telemetry.solves == len(feasible_tables)


class TestRandomizedOracle:
    @given(st.integers(0, 60))
    @settings(max_examples=15)
    def test_random_instances_match_exhaustive(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        soc = generate_synthetic_soc(int(rng.integers(3, 7)), seed=seed)
        widths = [int(w) for w in rng.choice([4, 8, 16, 32], size=int(rng.integers(2, 4)))]
        arch = TamArchitecture(widths)
        problem = DesignProblem(soc=soc, arch=arch, timing="serial")
        result = design(problem)
        oracle = exhaustive_optimal(soc, arch, problem.timing)
        assert result.makespan == pytest.approx(oracle.makespan)

    @given(st.integers(0, 60))
    @settings(max_examples=10)
    def test_random_constrained_instances_match_exhaustive(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed + 1000)
        soc = generate_synthetic_soc(5, seed=seed)
        arch = TamArchitecture([16, 16, 8])
        floorplan = grid_place(soc)
        powers = sorted(c.test_power for c in soc)
        budget = powers[-1] + powers[-2] * float(rng.uniform(0.3, 1.2))
        delta = floorplan.spread() * float(rng.uniform(0.5, 1.0))
        problem = DesignProblem(
            soc=soc, arch=arch, timing="serial", power_budget=budget,
            floorplan=floorplan, max_pair_distance=delta,
        )
        try:
            result = design(problem)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                exhaustive_optimal(
                    soc, arch, problem.timing,
                    forbidden_pairs=problem.forbidden_pairs,
                    forced_pairs=problem.forced_pairs,
                )
            return
        oracle = exhaustive_optimal(
            soc, arch, problem.timing,
            forbidden_pairs=problem.forbidden_pairs,
            forced_pairs=problem.forced_pairs,
        )
        assert result.makespan == pytest.approx(oracle.makespan)
        assert problem.validate(result.assignment) == []


class TestBoundAndGap:
    """``best_bound`` is what the search proved and ``gap`` is relative to
    the returned makespan, on the exact exit and the budget exits alike."""

    def _s3(self):
        from repro.soc import build_s3

        return DesignProblem(
            soc=build_s3(), arch=TamArchitecture([32, 14, 6]), timing="serial"
        )

    def test_exact_design_gap_is_under_one_cycle(self):
        result = design(self._s3(), cache=False)
        assert result.status is Status.OPTIMAL
        assert result.stats.best_bound <= result.makespan
        assert 0.0 <= result.stats.gap
        assert result.stats.gap * result.makespan < 1.0
        # The search proved everything within gap_tol (just under a cycle).
        assert result.makespan - result.stats.best_bound < 1.0

    @pytest.mark.parametrize("budget", [1, 5, 20])
    def test_node_budget_design_reports_relative_gap(self, budget):
        result = design(self._s3(), cache=False, policy=SolvePolicy(node_budget=budget))
        assert result.status is Status.FEASIBLE
        stats = result.stats
        assert stats.best_bound is not None and stats.gap is not None
        assert stats.best_bound <= result.makespan
        assert 0.0 <= stats.gap < 1.0
        assert stats.gap == pytest.approx(
            (result.makespan - stats.best_bound) / result.makespan
        )

    def test_scipy_backend_reports_bound_and_gap_the_same_way(self):
        result = design(self._s3(), backend="scipy", cache=False)
        stats = result.stats
        assert result.status is Status.OPTIMAL
        assert stats.best_bound is not None and stats.best_bound <= result.makespan + 1e-6
        # HiGHS stops at its default relative MIP gap of 1e-4.
        assert 0.0 <= stats.gap <= 1e-4
        assert stats.gap == pytest.approx(
            (result.makespan - stats.best_bound) / result.makespan, abs=1e-12
        )

    def test_maximization_bound_is_an_upper_bound(self):
        from repro.ilp import Model, quicksum

        weights = [12, 7, 11, 8, 9, 14, 6, 10]
        profits = [24, 13, 23, 15, 16, 30, 11, 19]
        m = Model("knapsack")
        xs = [m.add_binary(f"k{i}") for i in range(len(weights))]
        m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 40)
        m.maximize(quicksum(p * x for p, x in zip(profits, xs)))
        for budget in (1, None):
            policy = SolvePolicy(node_budget=budget) if budget else None
            sol = m.solve(cache=False, policy=policy)
            assert sol.stats.best_bound >= sol.objective - 1e-9
            assert sol.stats.gap == pytest.approx(
                (sol.stats.best_bound - sol.objective) / abs(sol.objective)
            )
