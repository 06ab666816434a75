"""Tests for DesignProblem resolution and the ILP formulation."""

import numpy as np
import pytest

from repro.core import DesignProblem, build_assignment_ilp
from repro.ilp import Status
from repro.tam import Assignment, TamArchitecture
from repro.util.errors import InfeasibleError, ValidationError


class TestProblemResolution:
    def test_pairs_normalized_and_deduped(self, s1, arch3):
        problem = DesignProblem(
            soc=s1, arch=arch3, extra_forbidden=[(3, 1), (1, 3)], extra_forced=[(5, 0)]
        )
        assert problem.forbidden_pairs == ((1, 3),)
        assert problem.forced_pairs == ((0, 5),)

    def test_self_pair_rejected(self, s1, arch3):
        with pytest.raises(ValidationError):
            DesignProblem(soc=s1, arch=arch3, extra_forced=[(2, 2)])

    def test_out_of_range_pair_rejected(self, s1, arch3):
        with pytest.raises(ValidationError):
            DesignProblem(soc=s1, arch=arch3, extra_forbidden=[(0, 9)])

    def test_distance_requires_floorplan(self, s1, arch3):
        with pytest.raises(ValidationError):
            DesignProblem(soc=s1, arch=arch3, max_pair_distance=3.0)

    def test_bad_budgets_rejected(self, s1, arch3):
        with pytest.raises(ValidationError):
            DesignProblem(soc=s1, arch=arch3, power_budget=0)

    def test_power_budget_resolves_pairs(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, power_budget=150.0)
        assert problem.forced_pairs == ((2, 4),)  # c7552 + s5378 > 150

    def test_layout_budget_resolves_pairs(self, s1, arch3, s1_floorplan):
        problem = DesignProblem(
            soc=s1, arch=arch3, floorplan=s1_floorplan, max_pair_distance=5.0
        )
        assert len(problem.forbidden_pairs) == 8

    def test_contradictions_found_transitively(self, s1, arch3):
        problem = DesignProblem(
            soc=s1,
            arch=arch3,
            extra_forced=[(0, 1), (1, 2)],
            extra_forbidden=[(0, 2)],
        )
        assert problem.contradictions() == [(0, 2)]

    def test_forced_groups_are_the_components(self, s1, arch3):
        problem = DesignProblem(
            soc=s1, arch=arch3, extra_forced=[(4, 1), (1, 2), (3, 5)]
        )
        assert problem.forced_groups == ((0,), (1, 2, 4), (3, 5))
        assert DesignProblem(soc=s1, arch=arch3).forced_groups == tuple(
            (i,) for i in range(len(s1))
        )

    def test_timing_accepts_name_or_instance(self, s1, arch3, serial_timing):
        by_name = DesignProblem(soc=s1, arch=arch3, timing="serial")
        by_instance = DesignProblem(soc=s1, arch=arch3, timing=serial_timing)
        assert np.allclose(by_name.times, by_instance.times)

    def test_lower_bound_is_sound(self, s1, arch3, serial_timing):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        from repro.tam import exhaustive_optimal

        optimum = exhaustive_optimal(s1, arch3, serial_timing).makespan
        assert problem.makespan_lower_bound() <= optimum + 1e-9

    def test_constraint_summary_mentions_budgets(self, s1, arch3, s1_floorplan):
        problem = DesignProblem(
            soc=s1, arch=arch3, power_budget=100.0,
            floorplan=s1_floorplan, max_pair_distance=4.0,
        )
        text = problem.constraint_summary()
        assert "P_max" in text and "delta" in text


class TestValidate:
    def test_clean_assignment(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        assignment = Assignment(s1, arch3, (0, 1, 2, 0, 1, 2))
        assert problem.validate(assignment) == []

    def test_width_violation_reported(self, s1):
        narrow = TamArchitecture([4, 4])
        problem = DesignProblem(soc=s1, arch=narrow, timing="fixed")
        assignment = Assignment(s1, narrow, (0, 0, 0, 1, 1, 1))
        violations = problem.validate(assignment)
        assert any("width-infeasible" in v for v in violations)

    def test_forbidden_violation_reported(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, extra_forbidden=[(0, 1)])
        assignment = Assignment(s1, arch3, (0, 0, 1, 1, 2, 2))
        assert any("forbidden pair" in v for v in problem.validate(assignment))

    def test_forced_violation_reported(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, extra_forced=[(0, 1)])
        assignment = Assignment(s1, arch3, (0, 1, 1, 1, 2, 2))
        assert any("forced pair" in v for v in problem.validate(assignment))

    def test_arch_mismatch_reported(self, s1, arch3, arch2):
        problem = DesignProblem(soc=s1, arch=arch3)
        assignment = Assignment(s1, arch2, (0, 1, 0, 1, 0, 1))
        assert problem.validate(assignment) != []


class TestFormulation:
    def test_model_dimensions_unconstrained(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        formulation = build_assignment_ilp(problem)
        # 6 cores x 3 buses binaries + makespan
        assert formulation.model.num_vars == 19
        assert formulation.model.num_integer_vars == 18
        # 6 assignment rows + 3 bus rows
        assert formulation.model.num_constraints == 9

    def test_fixed_model_skips_narrow_buses(self, s1):
        arch = TamArchitecture([16, 4])
        problem = DesignProblem(soc=s1, arch=arch, timing="fixed")
        formulation = build_assignment_ilp(problem)
        # width-16 cores (c2670, c7552, s5378) only get the wide bus
        wide_only = [i for i, c in enumerate(s1) if c.test_width == 16]
        for i in wide_only:
            assert (i, 0) in formulation.x and (i, 1) not in formulation.x

    def test_core_fitting_no_bus_raises(self, s1):
        arch = TamArchitecture([4, 4])
        problem = DesignProblem(soc=s1, arch=arch, timing="fixed")
        with pytest.raises(InfeasibleError):
            build_assignment_ilp(problem)

    def test_constraint_counts_with_pairs(self, s1, arch3):
        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial",
            extra_forbidden=[(0, 1)], extra_forced=[(2, 3)],
        )
        formulation = build_assignment_ilp(problem)
        # + 3 forbidden rows + 3 forced rows
        assert formulation.model.num_constraints == 9 + 3 + 3

    @pytest.mark.parametrize("widths", [(16, 8, 4), (32, 16, 8), (32, 16, 4)])
    def test_power_groups_need_no_zero_rows(self, s1, widths):
        # At P_max = 100 mW every S1 core is in one forced group, and under
        # fixed timing the 16-wide cores fit only the widest bus: the whole
        # group gets variables on the buses they can all use, and no
        # single-variable `x == 0` row pins the rest. The optimum is the
        # one the zero rows gave.
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture(list(widths)), timing="fixed", power_budget=100.0
        )
        assert problem.forced_groups == (tuple(range(len(s1))),)
        formulation = build_assignment_ilp(problem)
        usable = {j for (_, j) in formulation.x}
        assert set(formulation.x) == {(i, j) for i in range(len(s1)) for j in usable}
        form = formulation.model.to_matrix_form()
        single = np.count_nonzero(form.a_eq, axis=1) == 1
        assert not np.any(single & (form.b_eq == 0.0))
        if len(usable) > 1:
            assert not np.any(single)
        from repro.core import design

        result = design(problem, cache=False)
        assert result.makespan == pytest.approx(15811.0)
        assert result.makespan == pytest.approx(
            design(problem, backend="scipy", cache=False).makespan
        )

    def test_power_group_shares_only_common_buses(self, s1):
        # Under fixed timing c2670 (width 16) fits only the 16-wide bus, so
        # c880 (width 4), forced onto its bus, gets no variable on the other.
        arch = TamArchitecture([16, 4])
        problem = DesignProblem(soc=s1, arch=arch, timing="fixed", extra_forced=[(0, 1)])
        formulation = build_assignment_ilp(problem)
        assert (0, 0) in formulation.x and (0, 1) not in formulation.x
        assert (5, 0) in formulation.x and (5, 1) in formulation.x
        # With no bus c2670 fits, its partner has none left either.
        narrow = DesignProblem(
            soc=s1, arch=TamArchitecture([8, 4]), timing="fixed", extra_forced=[(0, 1)]
        )
        with pytest.raises(InfeasibleError) as exc:
            build_assignment_ilp(narrow)
        assert exc.value.reason == "width-infeasible power group"

    def test_decode_roundtrip(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        formulation = build_assignment_ilp(problem)
        solution = formulation.model.solve()
        assert solution.status is Status.OPTIMAL
        assignment = formulation.decode(solution)
        assert problem.validate(assignment) == []
        assert assignment.makespan(problem.timing) == pytest.approx(solution.objective)

    def test_decode_rejects_infeasible_solution(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        formulation = build_assignment_ilp(problem)
        from repro.ilp.solution import Solution

        with pytest.raises(InfeasibleError):
            formulation.decode(Solution(Status.INFEASIBLE))
