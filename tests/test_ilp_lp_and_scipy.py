"""Tests for the LP relaxation front-end and the scipy MILP backend."""

import pytest

from repro.ilp import Model, Status, quicksum, solve_with_scipy
from repro.ilp.lp import solve_matrix_lp


def _lp_model():
    m = Model("lp")
    x = m.add_var("x", ub=4)
    y = m.add_var("y", ub=4)
    m.add_constr(x + 2 * y <= 6)
    m.maximize(3 * x + 2 * y)
    return m, x, y


class TestRelaxation:
    def test_scipy_relaxation_objective(self):
        m, _, _ = _lp_model()
        sol = m.solve_relaxation()
        assert sol.objective == pytest.approx(14.0)
        assert sol.backend == "lp-scipy"

    def test_relaxation_of_binary_model_is_fractional(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(a + b <= 1.5)
        m.maximize(a + b)
        sol = m.solve_relaxation()
        assert sol.objective == pytest.approx(1.5)

    def test_value_of_expression(self):
        m, x, y = _lp_model()
        sol = m.solve_relaxation()
        assert sol.value(x + y) == pytest.approx(sol[x] + sol[y])

    def test_infeasible_relaxation_status(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constr(x >= 2)
        m.minimize(x)
        assert m.solve_relaxation().status is Status.INFEASIBLE

    def test_matrix_lp_bound_override_infeasible(self):
        m, _, _ = _lp_model()
        form = m.to_matrix_form()
        import numpy as np

        res = solve_matrix_lp(form, lb=np.array([5.0, 0.0]), ub=np.array([4.0, 4.0]))
        assert res.status == "infeasible"


class TestScipyBackend:
    def test_optimal(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(4)]
        m.add_constr(quicksum(xs) <= 2)
        m.maximize(quicksum((i + 1) * x for i, x in enumerate(xs)))
        sol = solve_with_scipy(m)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(7.0)
        assert sol.backend == "scipy"

    def test_infeasible(self):
        m = Model()
        a = m.add_binary("a")
        m.add_constr(a >= 2)
        m.minimize(a)
        assert solve_with_scipy(m).status is Status.INFEASIBLE

    def test_unbounded(self):
        from repro.ilp import INTEGER

        m = Model()
        x = m.add_var("x", vartype=INTEGER)
        m.maximize(x)
        assert solve_with_scipy(m).status is Status.UNBOUNDED

    def test_objective_constant_preserved(self):
        m = Model()
        x = m.add_binary("x")
        m.maximize(x + 10)
        assert solve_with_scipy(m).objective == pytest.approx(11.0)

    def test_rounded_snaps_near_integers(self):
        m = Model()
        x = m.add_binary("x")
        m.maximize(x)
        sol = solve_with_scipy(m)
        values = sol.rounded()
        assert values[x] in (0.0, 1.0)


def _column_free_model(rhs: float | None) -> Model:
    """No variables; with ``rhs``, the constant rows ``5 <= rhs`` and ``2 == 2``."""
    from repro.ilp.expr import LinExpr

    m = Model("empty")
    if rhs is not None:
        m.add_constr(LinExpr() + 5 <= rhs)
        m.add_constr(LinExpr() + 2 == 2)
        m.maximize(LinExpr() + 4)
    return m


class TestModelsWithoutColumns:
    """A form with no columns is answered from its constant rows: every
    solve path agrees, and none hands scipy an empty problem."""

    @pytest.mark.parametrize(
        "rhs, status, objective",
        [(None, Status.OPTIMAL, 0.0), (9.0, Status.OPTIMAL, 4.0), (3.0, Status.INFEASIBLE, None)],
        ids=["no-rows", "rows-hold", "row-broken"],
    )
    def test_every_solve_path_agrees(self, rhs, status, objective):
        m = _column_free_model(rhs)
        lp = solve_matrix_lp(m.to_matrix_form())
        assert lp.status == status.value
        solutions = [
            m.solve_relaxation(),
            m.solve(backend="scipy", cache=False),
            m.solve(cache=False),
        ]
        for sol in solutions:
            assert sol.status is status, sol
            if objective is None:
                assert sol.objective is None
            else:
                assert sol.objective == pytest.approx(objective)
                assert sol.values == {}


def test_solution_repr_mentions_status():
    m = Model()
    x = m.add_binary("x")
    m.maximize(x)
    text = repr(m.solve())
    assert "optimal" in text
