"""Tests for the root presolve engine and its postsolve mapping.

The load-bearing property is *exactness in the original space*: every
reduction must preserve the set of optimal solutions of the integer
program, and ``Postsolve.restore`` must map any reduced-space point to an
original-space point with the same objective. The randomized classes pin
``presolve_root`` against brute-force enumeration on small pure-integer
programs and against the scipy/HiGHS oracle on layout- and
power-constrained TAM designs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import INTEGER, Model, Status, quicksum
from repro.ilp.presolve_root import Postsolve, _Reducer, presolve_root
from repro.obs import PresolvePolicy, SolvePolicy, SolverOptions

_TOL = 1e-6


def _enumerate_integer_points(form):
    """All integer points of a (small!) pure-integer MatrixForm."""
    ranges = [
        range(int(np.ceil(form.lb[j] - _TOL)), int(np.floor(form.ub[j] + _TOL)) + 1)
        for j in range(form.num_vars)
    ]
    for point in itertools.product(*ranges):
        yield np.asarray(point, dtype=float)


def _feasible(form, x):
    # Row-count guards, not .size: a fully-reduced model can keep an
    # all-zero row over zero columns whose rhs still decides feasibility.
    if form.a_ub.shape[0] and np.any(form.a_ub @ x > form.b_ub + _TOL):
        return False
    if form.a_eq.shape[0] and np.any(np.abs(form.a_eq @ x - form.b_eq) > _TOL):
        return False
    return True


def _brute_force(form):
    """(best objective, best point) by enumeration; (None, None) if infeasible."""
    best, best_x = None, None
    for x in _enumerate_integer_points(form):
        if not _feasible(form, x):
            continue
        obj = float(form.c @ x) + form.c0
        if best is None or obj < best - 1e-12:
            best, best_x = obj, x
    return best, best_x


class TestPostsolveUnits:
    def test_identity(self):
        ps = Postsolve(num_vars=3, kept=np.arange(3))
        assert ps.identity
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(ps.restore(x), x)
        np.testing.assert_allclose(ps.reduce(x), x)

    def test_fix_record_restores_constant(self):
        ps = Postsolve(
            num_vars=3, kept=np.array([0, 2]), records=[(1, 5.0)]
        )
        assert not ps.identity
        restored = ps.restore(np.array([1.0, 2.0]))
        np.testing.assert_allclose(restored, [1.0, 5.0, 2.0])

    def test_unfilled_column_raises(self):
        ps = Postsolve(num_vars=2, kept=np.array([0]), records=[])
        with pytest.raises(RuntimeError, match="postsolve"):
            ps.restore(np.array([1.0]))


class TestReductionsOnHandBuiltModels:
    def test_dual_fixing_removes_free_profit_column(self):
        # Maximizing a column with no constraints fixes it at its ub.
        m = Model()
        x = m.add_var("x", ub=4, vartype=INTEGER)
        m.maximize(x)
        result = presolve_root(m.to_matrix_form(), PresolvePolicy())
        assert result.status == "reduced"
        assert result.form.num_vars == 0
        assert result.stats["cols_removed"] == 1
        restored = result.postsolve.restore(np.zeros(0))
        np.testing.assert_allclose(restored, [4.0])

    def test_bound_tightening_to_fixed_point_keeps_infeasibility(self):
        # 3x + 3y == 4 over integer [0,2]^2: propagation forces x = y = 1
        # (1/3 <= x <= 4/3 rounds to [1,1]), which violates the row. Once
        # both columns are fixed the row is empty over zero columns — the
        # residual 0 == -2 must still be declared infeasible, not dropped.
        m = Model()
        x = m.add_var("x", ub=2, vartype=INTEGER)
        y = m.add_var("y", ub=2, vartype=INTEGER)
        m.add_constr(3 * x + 3 * y == 4)
        result = presolve_root(m.to_matrix_form(), PresolvePolicy())
        assert result.status == "infeasible"

    def test_infeasible_row_detected(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(a + b >= 3)
        m.minimize(a + b)
        result = presolve_root(m.to_matrix_form(), PresolvePolicy())
        assert result.status == "infeasible"

    def test_disabled_policy_is_identity(self):
        m = Model()
        x = m.add_var("x", ub=4, vartype=INTEGER)
        m.maximize(x)
        form = m.to_matrix_form()
        result = presolve_root(form, PresolvePolicy.disabled())
        assert result.form is form
        assert result.postsolve.identity
        assert result.stats["rounds"] == 0

    def test_coefficient_tightening_keeps_integer_optimum(self):
        # 3a + 3b <= 5 tightens to a + b <= 1 over binaries; optima agree.
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(3 * a + 3 * b <= 5)
        m.maximize(2 * a + b)
        form = m.to_matrix_form()
        result = presolve_root(form, PresolvePolicy())
        assert result.stats["coeffs_tightened"] >= 1
        best, _ = _brute_force(form)
        best_reduced, x_reduced = _brute_force(result.form)
        assert best_reduced == pytest.approx(best)
        restored = result.postsolve.restore(x_reduced)
        assert _feasible(form, restored)


@st.composite
def random_integer_program(draw):
    """Small bounded pure-integer programs exercising every reduction."""
    n = draw(st.integers(2, 5))
    coef = st.integers(-4, 6)
    c = [draw(st.integers(-5, 5)) for _ in range(n)]
    ub_rows = draw(st.integers(0, 3))
    a_ub = [[draw(coef) for _ in range(n)] for _ in range(ub_rows)]
    b_ub = [draw(st.integers(-2, 12)) for _ in range(ub_rows)]
    eq_rows = draw(st.integers(0, 1))
    a_eq = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(eq_rows)]
    b_eq = [draw(st.integers(0, 6)) for _ in range(eq_rows)]
    ubs = [draw(st.integers(1, 2)) for _ in range(n)]
    return c, a_ub, b_ub, a_eq, b_eq, ubs


def _build(instance):
    c, a_ub, b_ub, a_eq, b_eq, ubs = instance
    m = Model("rand")
    xs = [m.add_var(f"x{j}", ub=ubs[j], vartype=INTEGER) for j in range(len(c))]
    for row, rhs in zip(a_ub, b_ub):
        m.add_constr(quicksum(a * x for a, x in zip(row, xs)) <= rhs)
    for row, rhs in zip(a_eq, b_eq):
        m.add_constr(quicksum(a * x for a, x in zip(row, xs)) == rhs)
    m.minimize(quicksum(p * x for p, x in zip(c, xs)))
    return m


class TestExactnessAgainstBruteForce:
    @given(random_integer_program())
    @settings(max_examples=60, deadline=None)
    def test_presolve_preserves_optimum_and_postsolve_restores(self, instance):
        form = _build(instance).to_matrix_form()
        result = presolve_root(form, PresolvePolicy())
        best, _ = _brute_force(form)
        if result.status == "infeasible":
            assert best is None, "presolve declared a feasible model infeasible"
            return
        best_reduced, x_reduced = _brute_force(result.form)
        if best is None:
            assert best_reduced is None
            return
        assert best_reduced is not None, "presolve lost all feasible points"
        assert best_reduced == pytest.approx(best, abs=1e-6)
        restored = result.postsolve.restore(x_reduced)
        assert _feasible(form, restored)
        assert float(form.c @ restored) + form.c0 == pytest.approx(best, abs=1e-6)

    @given(random_integer_program(), st.sampled_from(_Reducer.REDUCTIONS))
    @settings(max_examples=30, deadline=None)
    def test_single_reduction_policies_are_each_exact(self, instance, reduction):
        form = _build(instance).to_matrix_form()
        reducer = _Reducer(form)
        getattr(reducer, reduction)()
        best, _ = _brute_force(form)
        if reducer.infeasible:
            assert best is None
            return
        postsolve = Postsolve(form.num_vars, kept=reducer.orig, records=reducer.records)
        best_reduced, x_reduced = _brute_force(reducer.snapshot())
        if best is None:
            assert best_reduced is None
            return
        assert best_reduced == pytest.approx(best, abs=1e-6)
        assert _feasible(form, postsolve.restore(x_reduced))


class TestEndToEndOnDesigns:
    """Presolved solves agree with no-presolve solves and the scipy oracle
    on layout- and power-constrained TAM designs (the paper's instances)."""

    def _makespans(self, problem):
        from repro.core import design

        presolved = design(problem, cache=False)
        plain = design(
            problem,
            policy=SolvePolicy(
                solver=SolverOptions(root_presolve=PresolvePolicy.disabled())
            ),
            cache=False,
        )
        oracle = design(problem, backend="scipy", cache=False)
        return presolved, plain, oracle

    def test_power_constrained_design(self, s1, arch3):
        from repro.core import DesignProblem

        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial", power_budget=3500.0
        )
        presolved, plain, oracle = self._makespans(problem)
        assert presolved.makespan == pytest.approx(plain.makespan)
        assert presolved.makespan == pytest.approx(oracle.makespan)
        assert not problem.validate(presolved.assignment)

    def test_layout_constrained_design(self, s1, arch3, s1_floorplan):
        from repro.core import DesignProblem

        problem = DesignProblem(
            soc=s1,
            arch=arch3,
            timing="serial",
            floorplan=s1_floorplan,
            max_pair_distance=28.0,
        )
        presolved, plain, oracle = self._makespans(problem)
        assert presolved.makespan == pytest.approx(plain.makespan)
        assert presolved.makespan == pytest.approx(oracle.makespan)
        assert not problem.validate(presolved.assignment)

    def test_stats_surface_the_reduction_counters(self):
        m = Model()
        x = m.add_var("x", ub=4, vartype=INTEGER)  # in no row: dual-fixed at ub
        y = m.add_var("y", ub=4, vartype=INTEGER)
        m.add_constr(y <= 3)
        m.maximize(x + 2 * y)
        sol = m.solve(cache=False)
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(10.0)
        assert sol.stats.root_presolve_rounds >= 1
        assert sol.stats.root_cols_removed >= 1
