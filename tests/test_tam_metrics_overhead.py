"""Tests for resource metrics, wrapper overhead, and B&B warm starts."""

import pytest

from repro.core import DesignProblem, design, lpt_assignment
from repro.soc import build_s1
from repro.tam import (
    Assignment,
    TamArchitecture,
    ate_vector_memory,
    core_test_data_volume,
    make_timing_model,
    soc_test_data_volume,
    tam_utilization,
)
from repro.util.errors import ValidationError
from repro.wrapper.overhead import (
    GE_CONTROL,
    GE_PER_BOUNDARY_CELL,
    GE_PER_BYPASS_BIT,
    soc_wrapper_overhead,
    wrapper_overhead,
)


class TestDataVolume:
    def test_core_volume_formula(self, s1):
        core = s1["s5378"]
        expected = core.num_patterns * (core.scan_in_bits + core.scan_out_bits)
        assert core_test_data_volume(core) == expected

    def test_soc_volume_is_sum(self, s1):
        assert soc_test_data_volume(s1) == sum(
            core_test_data_volume(c) for c in s1
        )

    def test_volume_independent_of_architecture(self, s1):
        # data volume is a property of the test sets, not the TAM
        assert soc_test_data_volume(s1) == 176653


class TestUtilization:
    @pytest.fixture(scope="class")
    def designed(self):
        soc = build_s1()
        problem = DesignProblem(soc=soc, arch=TamArchitecture([16, 16, 16]), timing="serial")
        return soc, problem, design(problem).assignment

    def test_accounting_balances(self, designed):
        soc, problem, assignment = designed
        u = tam_utilization(soc, assignment, problem.timing)
        assert u.active_wire_cycles + u.schedule_slack + u.width_slack == pytest.approx(
            u.total_wire_cycles
        )

    def test_utilization_in_range(self, designed):
        soc, problem, assignment = designed
        u = tam_utilization(soc, assignment, problem.timing)
        assert 0 < u.utilization <= 1

    def test_flexible_has_no_width_slack(self, designed):
        soc, _, _ = designed
        timing = make_timing_model("flexible")
        problem = DesignProblem(soc=soc, arch=TamArchitecture([16, 16, 16]), timing=timing)
        assignment = design(problem).assignment
        u = tam_utilization(soc, assignment, timing)
        assert u.width_slack == 0.0

    def test_single_bus_fully_scheduled(self, designed):
        soc, _, _ = designed
        timing = make_timing_model("flexible")
        arch = TamArchitecture([16])
        assignment = Assignment(soc, arch, (0,) * len(soc))
        u = tam_utilization(soc, assignment, timing)
        assert u.schedule_slack == 0.0
        assert u.utilization == pytest.approx(1.0)

    def test_ate_memory_bounds(self, designed):
        soc, problem, assignment = designed
        memory = ate_vector_memory(assignment, problem.timing)
        u = tam_utilization(soc, assignment, problem.timing)
        assert u.active_wire_cycles - 1e-6 <= memory <= u.total_wire_cycles + 1e-6

    def test_str_mentions_slacks(self, designed):
        soc, problem, assignment = designed
        text = str(tam_utilization(soc, assignment, problem.timing))
        assert "schedule slack" in text and "width slack" in text


class TestWrapperOverhead:
    def test_formula(self, s1):
        core = s1["c880"]
        estimate = wrapper_overhead(core, width=8)
        assert estimate.boundary_cells == core.num_inputs + core.num_outputs
        assert estimate.total_ge == (
            estimate.boundary_cells * GE_PER_BOUNDARY_CELL
            + 8 * GE_PER_BYPASS_BIT
            + GE_CONTROL
        )

    def test_default_width_is_native(self, s1):
        core = s1["s5378"]
        assert wrapper_overhead(core).width == core.test_width

    def test_bad_width_rejected(self, s1):
        with pytest.raises(ValidationError):
            wrapper_overhead(s1["c880"], width=0)

    def test_soc_aggregate(self, s1):
        aggregate = soc_wrapper_overhead(s1)
        assert aggregate.total_ge == sum(e.total_ge for e in aggregate.per_core)
        assert aggregate.area_fraction == pytest.approx(
            aggregate.total_ge / s1.total_gates
        )

    def test_custom_widths_honored(self, s1):
        custom = soc_wrapper_overhead(s1, widths={"c880": 32})
        default = soc_wrapper_overhead(s1)
        assert custom.total_ge > default.total_ge  # 32 > c880's native 4


class TestWarmStart:
    def test_same_optimum_and_incumbent_installed(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cold = design(problem)
        warm = design(problem, incumbent=lpt_assignment(problem).assignment)
        assert warm.makespan == pytest.approx(cold.makespan)
        assert warm.stats.incumbent_updates >= 1

    def test_infeasible_warm_start_rejected(self, s1, arch3):
        from repro.core import build_assignment_ilp

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        formulation = build_assignment_ilp(problem)
        bad = {var: 1.0 for var in formulation.model.variables}
        with pytest.raises(ValidationError):
            formulation.model.solve(warm_start=bad)

    def test_warm_start_from_lpt_is_feasible(self, s1, arch3):
        from repro.core import build_assignment_ilp

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial", power_budget=150.0)
        baseline = lpt_assignment(problem)
        formulation = build_assignment_ilp(problem)
        values = {
            var: 1.0 if baseline.assignment.bus_of[i] == j else 0.0
            for (i, j), var in formulation.x.items()
        }
        values[formulation.makespan_var] = baseline.makespan
        solution = formulation.model.solve(warm_start=values)
        assert solution.is_optimal
