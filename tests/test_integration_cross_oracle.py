"""Cross-oracle property tests: every path to the optimum must agree.

For randomized instances these tests chain together independent machinery —
our branch & bound, HiGHS, the exhaustive search, the LP-format round-trip,
the schedule builder, and the validators — and require full agreement.
A bug in any one layer breaks a chain somewhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DesignProblem,
    build_assignment_ilp,
    build_schedule,
    design,
    schedule_with_power_cap,
)
from repro.ilp import Status
from repro.ilp.lpformat import parse_lp, write_lp
from repro.layout import grid_place
from repro.obs import CutPolicy, PresolvePolicy
from repro.soc import generate_synthetic_soc
from repro.tam import TamArchitecture, ate_vector_memory, exhaustive_optimal, tam_utilization
from repro.util.errors import InfeasibleError


def _random_problem(seed: int, constrained: bool) -> DesignProblem:
    rng = np.random.default_rng(seed)
    soc = generate_synthetic_soc(int(rng.integers(4, 7)), seed=seed)
    widths = [int(w) for w in rng.choice([8, 16, 32], size=int(rng.integers(2, 4)))]
    kwargs = {}
    if constrained:
        floorplan = grid_place(soc)
        powers = sorted(c.test_power for c in soc)
        kwargs = dict(
            power_budget=powers[-1] + powers[-2] * float(rng.uniform(0.4, 1.1)),
            floorplan=floorplan,
            max_pair_distance=floorplan.spread() * float(rng.uniform(0.55, 1.0)),
        )
    return DesignProblem(soc=soc, arch=TamArchitecture(widths), timing="serial", **kwargs)


class TestFiveWayAgreement:
    @given(st.integers(0, 80))
    @settings(max_examples=10)
    def test_unconstrained_chain(self, seed):
        problem = _random_problem(seed, constrained=False)

        ours = design(problem, backend="bnb")
        highs = design(problem, backend="scipy")
        oracle = exhaustive_optimal(problem.soc, problem.arch, problem.timing)
        assert ours.makespan == pytest.approx(highs.makespan)
        assert ours.makespan == pytest.approx(oracle.makespan)

        # LP round-trip of the same formulation re-solves to the optimum.
        model = build_assignment_ilp(problem).model
        reparsed = parse_lp(write_lp(model))
        assert reparsed.solve(backend="scipy").objective == pytest.approx(ours.makespan)

        # The schedule realizes exactly the ILP's objective.
        schedule = build_schedule(problem, ours.assignment)
        assert schedule.makespan == pytest.approx(ours.makespan)

        # Resource accounting is internally consistent.
        utilization = tam_utilization(problem.soc, ours.assignment, problem.timing)
        memory = ate_vector_memory(ours.assignment, problem.timing)
        assert utilization.active_wire_cycles <= memory + 1e-6
        assert memory <= utilization.total_wire_cycles + 1e-6

    @given(st.integers(0, 80))
    @settings(max_examples=8)
    def test_constrained_chain(self, seed):
        problem = _random_problem(seed, constrained=True)
        try:
            ours = design(problem, backend="bnb")
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                design(problem, backend="scipy")
            return
        highs = design(problem, backend="scipy")
        assert ours.makespan == pytest.approx(highs.makespan)
        assert problem.validate(ours.assignment) == []
        assert problem.validate(highs.assignment) == []

        # Warm-started solve agrees too.
        warm = design(problem, backend="bnb", warm_start_heuristic=True)
        assert warm.makespan == pytest.approx(ours.makespan)

        # Power-capped rescheduling of the design stays cap-compliant.
        if problem.power_budget is not None:
            hungriest = max(c.test_power for c in problem.soc)
            cap = max(problem.power_budget, hungriest + 1.0)
            capped = schedule_with_power_cap(problem, ours.assignment, cap)
            assert capped.schedule.power_profile().respects(cap)

    @given(st.integers(0, 50))
    @settings(max_examples=8)
    def test_adding_any_constraint_never_helps(self, seed):
        rng = np.random.default_rng(seed + 7)
        base = _random_problem(seed, constrained=False)
        base_makespan = design(base, backend="scipy").makespan

        n = len(base.soc)
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        for kind in ("forced", "forbidden"):
            kwargs = {"extra_forced": [(a, b)]} if kind == "forced" else {
                "extra_forbidden": [(a, b)]
            }
            tightened = DesignProblem(
                soc=base.soc, arch=base.arch, timing=base.timing, **kwargs
            )
            try:
                constrained = design(tightened, backend="scipy")
            except InfeasibleError:
                continue
            assert constrained.makespan >= base_makespan - 1e-9


#: Every on/off combination of the branch-and-bound layers that have a switch.
SWITCHES = [
    {"cut_policy": cuts, "root_presolve": presolve}
    for cuts in (CutPolicy(), CutPolicy.disabled())
    for presolve in (PresolvePolicy(), PresolvePolicy.disabled())
]

#: Bus splits, most with identical buses (interchangeable in the ILP).
SPLITS = ([16, 16], [8, 8], [32, 16], [8, 8, 16], [16, 16, 16], [8, 16, 8])

MODES = ("catalog", "parametric", "itc02")
VARIANTS = ("serial", "power", "layout", "fixed+power")


def _switch_problem(mode: str, variant: str, seed: int) -> DesignProblem:
    rng = np.random.default_rng([seed, MODES.index(mode), VARIANTS.index(variant)])
    soc = generate_synthetic_soc(int(rng.integers(3, 9)), seed=seed, mode=mode)
    arch = TamArchitecture(SPLITS[int(rng.integers(len(SPLITS)))])
    kwargs = {}
    if variant in ("power", "fixed+power"):
        powers = sorted(c.test_power for c in soc)
        kwargs["power_budget"] = powers[-1] + powers[-2] * float(rng.uniform(0.4, 1.1))
    if variant == "layout":
        floorplan = grid_place(soc)
        kwargs["floorplan"] = floorplan
        kwargs["max_pair_distance"] = floorplan.spread() * float(rng.uniform(0.45, 1.0))
    timing = "fixed" if variant == "fixed+power" else "serial"
    return DesignProblem(soc=soc, arch=arch, timing=timing, **kwargs)


class TestSwitchMatrix:
    """B&B under every combination of its switches agrees with HiGHS and the
    exhaustive search, on optima and on infeasibility alike."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("mode", MODES)
    def test_every_switch_combination_agrees(self, mode, variant):
        for seed in range(8):
            problem = _switch_problem(mode, variant, seed)
            try:
                oracle = exhaustive_optimal(
                    problem.soc, problem.arch, problem.timing,
                    forbidden_pairs=problem.forbidden_pairs,
                    forced_pairs=problem.forced_pairs,
                ).makespan
            except InfeasibleError:
                oracle = None
            try:
                model = build_assignment_ilp(problem).model
            except InfeasibleError:
                assert oracle is None, (mode, variant, seed)
                continue
            highs = model.solve(backend="scipy", cache=False)
            if oracle is None:
                assert highs.status is Status.INFEASIBLE, (mode, variant, seed)
            else:
                assert highs.objective == pytest.approx(oracle), (mode, variant, seed)
            for switches in SWITCHES:
                label = (mode, variant, seed, switches)
                ours = model.solve(cache=False, **switches)
                assert ours.status is highs.status, label
                if oracle is None:
                    continue
                assert ours.objective == pytest.approx(oracle), label
                assert ours.stats.best_bound <= ours.objective + 1e-6, label
                assert model.check_solution(ours.rounded()) == [], label
