"""Tests for clique cut separation and the branch-and-cut CutPolicy surface."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CutPolicy
from repro.ilp import Model, Status, quicksum
from repro.ilp.conflict import ConflictGraph
from repro.ilp.cuts import append_cuts, generate_cuts
from repro.ilp.lp import solve_matrix_lp


def fractional_knapsack_model():
    """A knapsack whose LP relaxation is fractional, with no pairwise conflict."""
    m = Model("frac-ks")
    weights = [5, 5, 5, 5]
    xs = [m.add_binary(f"x{i}") for i in range(4)]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 12)
    m.maximize(quicksum((10 + i) * x for i, x in enumerate(xs)))
    return m, xs


def fractional_triangle_model():
    """Three pairwise-exclusive binaries: the LP sets each to 1/2, and the
    clique cut ``x0 + x1 + x2 <= 1`` closes the gap."""
    m = Model("triangle")
    xs = [m.add_binary(f"x{i}") for i in range(3)]
    for a, b in itertools.combinations(xs, 2):
        m.add_constr(a + b <= 1)
    m.maximize(quicksum((3 + i) * x for i, x in enumerate(xs)))
    return m, xs


def _cuts_at_relaxation(m):
    form = m.to_matrix_form()
    relaxed = solve_matrix_lp(form)
    return form, relaxed, generate_cuts(ConflictGraph.from_matrix_form(form), relaxed.x)


class TestSeparation:
    def test_generates_violated_cut(self):
        form, relaxed, cuts = _cuts_at_relaxation(fractional_triangle_model()[0])
        assert cuts, "the fractional point must be separable"
        for cut in cuts:
            row, rhs = cut.as_pair(form.num_vars)
            assert row @ relaxed.x > rhs + 1e-6  # violated by x*
            assert rhs == 1.0 and set(cut.coefs) == {1.0}
        assert cuts[0].cols == (0, 1, 2)

    def test_no_cut_at_integral_point(self):
        m, _ = fractional_triangle_model()
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert generate_cuts(graph, np.array([0.0, 0.0, 1.0])) == []

    def test_rows_with_negative_coeffs_skipped(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(2 * a - b <= 1)
        m.maximize(a + b)
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert generate_cuts(graph, np.array([0.9, 0.9])) == []

    def test_non_binary_rows_skipped(self):
        from repro.ilp import INTEGER

        m = Model()
        a = m.add_var("a", ub=3, vartype=INTEGER)
        b = m.add_binary("b")
        m.add_constr(2 * a + 2 * b <= 3)
        m.maximize(a + b)
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert generate_cuts(graph, np.array([0.9, 0.6])) == []

    def test_append_cuts_grows_system(self):
        form, relaxed, cuts = _cuts_at_relaxation(fractional_triangle_model()[0])
        pairs = [cut.as_pair(form.num_vars) for cut in cuts]
        bigger = append_cuts(form, pairs)
        assert bigger.a_ub.shape[0] == form.a_ub.shape[0] + len(cuts)
        # Cut bound is tighter (cuts remove the fractional vertex).
        recut = solve_matrix_lp(bigger)
        assert recut.objective > relaxed.objective + 1e-6  # min-sense bound improves

    def test_append_empty_is_identity(self):
        m, _ = fractional_knapsack_model()
        form = m.to_matrix_form()
        assert append_cuts(form, []) is form


class TestCutsInBnb:
    def test_same_optimum_with_cuts(self):
        m, _ = fractional_triangle_model()
        plain = m.solve(cache=False, cut_policy=CutPolicy.disabled())
        with_cuts = m.solve(cache=False, cut_policy=CutPolicy())
        assert with_cuts.status is Status.OPTIMAL
        assert with_cuts.objective == pytest.approx(plain.objective)
        assert with_cuts.stats.cuts > 0
        assert with_cuts.stats.cut_rounds >= 1

    def test_cuts_close_this_instance_at_root(self):
        # The triangle's one clique cut makes the root relaxation integral.
        m, _ = fractional_triangle_model()
        sol = m.solve(cache=False, cut_policy=CutPolicy(rounds=3), dive=False)
        assert sol.stats.nodes == 1 and sol.stats.cut_rounds == 1
        off = m.solve(cache=False, cut_policy=CutPolicy.disabled(), dive=False)
        assert off.stats.nodes > 1
        assert sol.objective == pytest.approx(off.objective)

    def test_root_cuts_kwarg_is_rejected(self):
        # The retired root_cuts=N spelling is an unknown solver kwarg now;
        # root rounds are a CutPolicy like any other.
        m, _ = fractional_knapsack_model()
        with pytest.raises(TypeError, match="root_cuts"):
            m.solve(root_cuts=3, cache=False)

    @given(st.integers(0, 200))
    @settings(max_examples=25)
    def test_random_knapsacks_match_scipy_with_cuts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        weights = rng.integers(3, 20, size=n)
        profits = rng.integers(1, 25, size=n)
        cap = int(weights.sum() * 0.55)
        m = Model("rks")
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        m.add_constr(quicksum(int(w) * x for w, x in zip(weights, xs)) <= cap)
        m.maximize(quicksum(int(p) * x for p, x in zip(profits, xs)))
        ours = m.solve(cut_policy=CutPolicy(rounds=5))
        ref = m.solve(backend="scipy")
        assert ours.objective == pytest.approx(ref.objective)
        assert m.check_solution(ours.rounded()) == []

    def test_tam_instances_unaffected(self, s1, arch3):
        # The unconstrained TAM ILP has equality + mixed-sign rows and no
        # pairwise conflict; cuts must not change its optimum.
        from repro.core import DesignProblem, build_assignment_ilp

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        model = build_assignment_ilp(problem).model
        plain = model.solve()
        cut = model.solve(cut_policy=CutPolicy())
        assert cut.objective == pytest.approx(plain.objective)
