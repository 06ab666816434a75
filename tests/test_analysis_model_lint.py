"""Unit tests for the model-lint rules (M001-M008) and their plumbing."""

import math

import pytest

from repro.analysis import Severity, lint_model
from repro.analysis.model_lint import (
    DEFAULT_COEFF_SPREAD,
    ModelView,
    CoefficientSpread,
)
from repro.core.formulation import build_assignment_ilp
from repro.core.problem import DesignProblem
from repro.ilp import BINARY, INTEGER, Model
from repro.soc import build_s1
from repro.tam import TamArchitecture
from repro.util.errors import LintError


def rules_of(report):
    return sorted({d.rule for d in report})


def findings(report, rule):
    return [d for d in report if d.rule == rule]


class TestM001UnboundedInteger:
    def test_flags_infinite_upper_bound(self):
        m = Model()
        v = m.add_var("n", vartype=INTEGER)  # default ub = inf
        m.add_constr(v >= 1)
        m.minimize(v)
        found = findings(lint_model(m), "M001")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "upper" in found[0].message

    def test_bounded_integer_clean(self):
        m = Model()
        v = m.add_var("n", lb=0, ub=7, vartype=INTEGER)
        m.add_constr(v >= 1)
        m.minimize(v)
        assert not findings(lint_model(m), "M001")

    def test_unbounded_continuous_not_flagged(self):
        m = Model()
        v = m.add_var("t")  # continuous with ub = inf is routine (makespan)
        m.add_constr(v >= 1)
        m.minimize(v)
        assert not findings(lint_model(m), "M001")


class TestM002UnusedVariable:
    def test_flags_orphan(self):
        m = Model()
        x = m.add_binary("x")
        m.add_binary("ghost")
        m.add_constr(x <= 1)
        m.minimize(x)
        found = findings(lint_model(m), "M002")
        assert [d.location for d in found] == ["variable ghost"]

    def test_objective_only_variable_is_used(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        assert not findings(lint_model(m), "M002")


class TestM003ConstantConstraint:
    def test_trivially_true_is_warning(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x - x <= 1, name="cancelled")
        m.minimize(x)
        found = findings(lint_model(m), "M003")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_trivially_false_is_error(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x - x >= 2, name="impossible")
        m.minimize(x)
        found = findings(lint_model(m), "M003")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR


class TestM004DuplicateConstraint:
    def test_flags_identical_rows(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + y <= 1, name="first")
        m.add_constr(x + y <= 1, name="second")
        m.minimize(x)
        found = findings(lint_model(m), "M004")
        assert len(found) == 1
        assert "first" in found[0].message
        assert found[0].location == "constraint second"

    def test_different_rhs_not_duplicate(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + y <= 1)
        m.add_constr(x + y <= 2)  # redundant but not duplicate
        m.minimize(x)
        assert not findings(lint_model(m), "M004")


class TestM005InfeasibleByPropagation:
    def test_sum_of_binaries_cannot_reach_rhs(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + y >= 3, name="dead")
        m.minimize(x)
        found = findings(lint_model(m), "M005")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_equality_outside_interval(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=4)
        m.add_constr(x == 9, name="off")
        m.minimize(x)
        assert findings(lint_model(m), "M005")

    def test_satisfiable_row_clean(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + y >= 1)
        m.minimize(x)
        assert not findings(lint_model(m), "M005")


class TestM006RedundantByPropagation:
    def test_never_binding_row(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + y <= 5, name="loose")
        m.add_constr(x + y >= 1)
        m.minimize(x)
        found = findings(lint_model(m), "M006")
        assert [d.location for d in found] == ["constraint loose"]
        assert found[0].severity is Severity.INFO

    def test_unbounded_variable_row_not_redundant(self):
        m = Model()
        t = m.add_var("t")
        x = m.add_binary("x")
        m.add_constr(3 * x <= t)
        m.minimize(t)
        assert not findings(lint_model(m), "M006")


class TestM007PairContradiction:
    def build_contradictory_model(self):
        """Two cores, two buses: forced equal on every bus, forbidden on
        every bus — the paper's power and place-and-route encodings
        colliding head-on."""
        m = Model("collision")
        a = [m.add_var(f"x_a_b{j}", vartype=BINARY) for j in range(2)]
        b = [m.add_var(f"x_b_b{j}", vartype=BINARY) for j in range(2)]
        m.add_constr(a[0] + a[1] == 1, name="assign_a")
        m.add_constr(b[0] + b[1] == 1, name="assign_b")
        for j in range(2):
            m.add_constr(a[j] == b[j], name=f"pow_b{j}")
            m.add_constr(a[j] + b[j] <= 1, name=f"far_b{j}")
        m.minimize(a[0])
        return m

    def test_collision_and_dead_partition_reported(self):
        report = lint_model(self.build_contradictory_model())
        found = findings(report, "M007")
        assert all(d.severity is Severity.ERROR for d in found)
        locations = {d.location for d in found}
        # Both at-most-one rows collide, and both assignment rows die.
        assert {"constraint far_b0", "constraint far_b1"} <= locations
        assert {"constraint assign_a", "constraint assign_b"} <= locations

    def test_seeded_buggy_model_acceptance(self):
        """The acceptance scenario: unused variable + contradictory pair
        constraints, each with the right rule id."""
        m = self.build_contradictory_model()
        m.add_binary("ghost")
        report = lint_model(m)
        assert "M002" in rules_of(report)
        assert "M007" in rules_of(report)
        assert report.has_errors

    def test_forced_without_forbidden_clean(self):
        m = Model()
        a = [m.add_var(f"x_a_b{j}", vartype=BINARY) for j in range(2)]
        b = [m.add_var(f"x_b_b{j}", vartype=BINARY) for j in range(2)]
        m.add_constr(a[0] + a[1] == 1, name="assign_a")
        m.add_constr(b[0] + b[1] == 1, name="assign_b")
        for j in range(2):
            m.add_constr(a[j] == b[j], name=f"pow_b{j}")
        m.minimize(a[0])
        assert not findings(lint_model(m), "M007")

    def test_real_contradictory_problem_is_flagged(self, s1):
        problem = DesignProblem(
            soc=s1,
            arch=TamArchitecture([16, 16, 16]),
            timing="serial",
            extra_forced=((0, 1),),
            extra_forbidden=((0, 1),),
        )
        formulation = build_assignment_ilp(problem)
        assert "M007" in rules_of(lint_model(formulation.model))


class TestM008CoefficientSpread:
    def test_flags_wide_spread(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(1e-6 * x + 1e6 * y <= 1e6)
        m.minimize(x)
        found = findings(lint_model(m), "M008")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_threshold_is_configurable(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + 100 * y <= 100)
        m.minimize(x)
        assert not findings(lint_model(m), "M008")
        strict = lint_model(m, rules=[CoefficientSpread(threshold=10)])
        assert findings(strict, "M008")
        assert DEFAULT_COEFF_SPREAD > 10


class TestViews:
    def test_matrix_form_matches_model_verdict(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_binary("ghost")
        m.add_constr(x + y >= 3, name="dead")
        m.minimize(x)
        from_model = lint_model(m)
        from_matrix = lint_model(m.to_matrix_form())
        assert "M005" in rules_of(from_model)
        assert "M005" in rules_of(from_matrix)
        assert "M002" in rules_of(from_matrix)

    def test_ge_rows_survive_matrix_negation(self):
        # to_matrix_form stores GE rows as negated LE rows; propagation must
        # reach the same infeasibility verdict on both representations.
        m = Model()
        x = m.add_var("x", lb=0, ub=1)
        m.add_constr(x >= 2, name="dead")
        m.minimize(x)
        assert findings(lint_model(m.to_matrix_form()), "M005")

    def test_view_accepts_prebuilt(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        view = ModelView.from_model(m)
        assert not lint_model(view).has_errors


class TestSolveGate:
    def test_error_gate_raises_with_report(self):
        m = Model("gated")
        x = m.add_binary("x")
        m.add_constr(x >= 2, name="dead")
        m.minimize(x)
        with pytest.raises(LintError) as excinfo:
            m.solve(lint="error")
        assert excinfo.value.report.has_errors
        assert "M005" in rules_of(excinfo.value.report)

    def test_warn_gate_prints_and_solves(self, capsys):
        m = Model("warned")
        x = m.add_binary("x")
        m.add_binary("ghost")
        m.add_constr(x <= 1)
        m.minimize(x)
        solution = m.solve(lint="warn")
        assert solution.is_optimal
        assert "M002" in capsys.readouterr().err

    def test_clean_model_passes_error_gate(self):
        m = Model()
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add_constr(x + y >= 1)
        m.minimize(x + 2 * y)
        solution = m.solve(lint="error")
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1.0)

    def test_bad_lint_mode_rejected(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        with pytest.raises(ValueError):
            m.solve(lint="loud")


class TestProblemLint:
    def test_clean_instance(self, s1):
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture([16, 16, 16]), timing="serial",
            power_budget=150.0,
        )
        report = problem.lint()
        assert not report.has_errors
        assert not report.warnings

    def test_p001_contradiction(self, s1):
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture([16, 16, 16]), timing="serial",
            extra_forced=((2, 3),), extra_forbidden=((2, 3),),
        )
        report = problem.lint()
        assert [d.rule for d in report.errors] == ["P001"]

    def test_p002_width_infeasible_core(self, s1):
        widest = max(core.test_width for core in s1)
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture([widest - 1, widest - 1]), timing="fixed",
        )
        rules = {d.rule for d in problem.lint().errors}
        assert "P002" in rules

    def test_p003_single_hot_core(self, s1):
        hottest = max(core.test_power for core in s1)
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture([16, 16, 16]), timing="serial",
            power_budget=hottest - 1.0,
        )
        report = problem.lint()
        assert any(d.rule == "P003" for d in report.warnings)

    def test_p004_forced_pair_without_common_bus(self, s1):
        # The only bus fits the narrow core but not the wide one; the forced
        # pair therefore has no common width-feasible home. (Under the
        # built-in timing models feasibility is upward-closed in bus width,
        # so P004 always co-occurs with the wide core's P002 — but it names
        # the *pair*, which is the actionable finding.)
        widths = sorted({core.test_width for core in s1})
        assert len(widths) > 1
        narrow = next(i for i, c in enumerate(s1) if c.test_width == widths[0])
        wide = next(i for i, c in enumerate(s1) if c.test_width == widths[-1])
        problem = DesignProblem(
            soc=s1,
            arch=TamArchitecture([widths[0]]),
            timing="fixed",
            extra_forced=((narrow, wide),),
        )
        rules = {d.rule for d in problem.lint().errors}
        assert "P004" in rules
        assert "P002" in rules


class TestShippedFormulationIsClean:
    def test_s1_power_instance(self, s1):
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture([16, 16, 16]), timing="serial",
            power_budget=150.0,
        )
        formulation = build_assignment_ilp(problem)
        report = lint_model(formulation.model)
        assert not report.has_errors and not report.warnings

    def test_shared_core_zero_fixes_deduplicated(self, s1):
        # Two forced pairs sharing a core once emitted duplicate x == 0 rows
        # (caught by M004); the formulation now writes no x == 0 row at all:
        # a forced group only gets variables on the buses it can share.
        problem = DesignProblem(
            soc=s1,
            arch=TamArchitecture([max(c.test_width for c in s1), 4]),
            timing="fixed",
            extra_forced=((0, 1), (0, 2)),
        )
        formulation = build_assignment_ilp(problem)
        assert not [d for d in lint_model(formulation.model) if d.rule == "M004"]
        assert set(formulation.x) >= {(0, 0), (1, 0), (2, 0)}
        assert not {(0, 1), (1, 1), (2, 1)} & set(formulation.x)


def test_report_rendering_and_json():
    m = Model("demo")
    x = m.add_binary("x")
    m.add_binary("ghost")
    m.add_constr(x >= 2, name="dead")
    m.minimize(x)
    report = lint_model(m)
    text = report.render("demo title")
    assert text.startswith("demo title")
    assert "M005" in text and "M002" in text
    import json

    payload = json.loads(report.to_json(target="model"))
    assert payload["target"] == "model"
    assert payload["clean"] is False
    assert payload["counts"]["error"] == 1
    assert {d["rule"] for d in payload["diagnostics"]} == {"M002", "M005"}
    assert math.isfinite(len(report))
