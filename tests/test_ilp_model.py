"""Tests for the Model container and matrix export."""

import math

import numpy as np
import pytest

from repro.ilp import INTEGER, Model, quicksum
from repro.util.errors import ValidationError


class TestVariables:
    def test_auto_names_are_sequential(self):
        m = Model()
        names = [m.add_var().name for _ in range(3)]
        assert names == ["x0", "x1", "x2"]

    def test_duplicate_names_rejected(self):
        m = Model()
        m.add_var("v")
        with pytest.raises(ValidationError):
            m.add_var("v")

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Model().add_var("v", lb=2, ub=1)

    def test_add_vars_prefix(self):
        m = Model()
        xs = m.add_vars(3, prefix="y")
        assert [v.name for v in xs] == ["y0", "y1", "y2"]

    def test_counting_properties(self):
        m = Model()
        m.add_var("a")
        m.add_binary("b")
        m.add_var("c", vartype=INTEGER)
        m.add_constr(quicksum(m.variables) <= 3)
        assert m.num_vars == 3
        assert m.num_integer_vars == 2
        assert m.num_constraints == 1
        assert "3 vars" in m.summary()


class TestConstraints:
    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        with pytest.raises(ValidationError):
            m2.add_constr(x <= 1)

    def test_non_constraint_rejected(self):
        with pytest.raises(TypeError):
            Model().add_constr(42)

    def test_named_constraints(self):
        m = Model()
        x = m.add_var("x")
        constr = m.add_constr(x <= 1, name="cap")
        assert constr.name == "cap"

    def test_add_constrs_prefix(self):
        m = Model()
        x = m.add_var("x")
        added = m.add_constrs([x <= 1, x >= 0], prefix="c")
        assert [c.name for c in added] == ["c0", "c1"]


class TestMatrixForm:
    def test_le_ge_eq_routing(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        m.add_constr(x + y <= 4)
        m.add_constr(x - y >= 1)
        m.add_constr(x + 2 * y == 3)
        m.minimize(x + y)
        form = m.to_matrix_form()
        assert form.a_ub.shape == (2, 2)  # GE flipped into UB
        assert form.a_eq.shape == (1, 2)
        np.testing.assert_allclose(form.a_ub[1], [-1.0, 1.0])
        assert form.b_ub[1] == -1.0

    def test_max_sense_negates_objective(self):
        m = Model()
        x = m.add_var("x", ub=5)
        m.maximize(2 * x + 7)
        form = m.to_matrix_form()
        assert form.c[0] == -2.0
        assert form.c0 == -7.0

    def test_integer_mask(self):
        m = Model()
        m.add_var("a")
        m.add_binary("b")
        mask = m.to_matrix_form().integer_mask
        assert list(mask) == [False, True]

    def test_default_bounds(self):
        m = Model()
        m.add_var("free", lb=-math.inf)
        m.add_var("std")
        form = m.to_matrix_form()
        assert form.lb[0] == -math.inf and form.lb[1] == 0.0
        assert form.ub[0] == math.inf


class TestCheckSolution:
    def test_reports_all_violation_kinds(self):
        m = Model()
        b = m.add_binary("b")
        x = m.add_var("x", ub=2)
        m.add_constr(b + x <= 1, name="cap")
        problems = m.check_solution({b: 0.5, x: 3.0})
        text = " ".join(problems)
        assert "not integral" in text
        assert "outside" in text
        assert "cap" in text

    def test_clean_solution_passes(self):
        m = Model()
        b = m.add_binary("b")
        m.add_constr(b <= 1)
        assert m.check_solution({b: 1.0}) == []

    def test_missing_value_reported(self):
        m = Model()
        b = m.add_binary("b")
        assert "no value" in m.check_solution({})[0]

    def test_objective_value_in_original_sense(self):
        m = Model()
        x = m.add_var("x")
        m.maximize(3 * x)
        assert m.objective_value({x: 2.0}) == pytest.approx(6.0)


class TestSolveDispatch:
    def test_unknown_backend_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.solve(backend="gurobi")

