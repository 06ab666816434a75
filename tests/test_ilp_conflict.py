"""Conflict graph, clique separation, and branch-and-cut exactness.

Units build graphs by hand (adjacency dicts and tiny models with known
pairwise-exclusion rows) and pin the greedy clique separation; the
property tests brute-force every integer point of small random models to
show that no generated cut ever removes an integer-feasible solution, and
the design-level tests assert cuts-on / cuts-off / scipy all agree on the
layout- and power-constrained formulations the cuts actually target.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CutPolicy, SolvePolicy, SolverOptions, design
from repro.core import DesignProblem
from repro.ilp import INTEGER, Model, quicksum
from repro.ilp.conflict import ConflictGraph
from repro.ilp.cuts import generate_cuts


def packing_model(num_items: int = 4, num_slots: int = 2) -> Model:
    """Items x slots assignment with per-slot pairwise exclusions."""
    m = Model("packing")
    x = {
        (i, s): m.add_binary(f"x_{i}_{s}")
        for i in range(num_items)
        for s in range(num_slots)
    }
    for i in range(num_items):
        m.add_constr(quicksum(x[i, s] for s in range(num_slots)) <= 1)
    # slot 0 admits at most one of items {0, 1, 2} — pairwise exclusions
    for i, j in itertools.combinations(range(3), 2):
        m.add_constr(x[i, 0] + x[j, 0] <= 1)
    m.maximize(quicksum((i + 1) * v for (i, _), v in x.items()))
    return m


class TestConflictGraphConstruction:
    def test_pairwise_rows_become_edges(self):
        m = Model("pair")
        a, b, c = (m.add_binary(n) for n in "abc")
        m.add_constr(a + b <= 1)
        m.add_constr(b + c <= 1)
        m.maximize(a + b + c)
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert graph.num_edges == 2
        assert graph.are_adjacent(0, 1) and graph.are_adjacent(1, 2)
        assert not graph.are_adjacent(0, 2)

    def test_knapsack_row_yields_heavy_pair_conflicts(self):
        m = Model("ks")
        a, b, c = (m.add_binary(n) for n in "abc")
        m.add_constr(6 * a + 5 * b + 2 * c <= 8)  # a+b conflict; c fits with either
        m.maximize(a + b + c)
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert graph.are_adjacent(0, 1)
        assert graph.num_edges == 1

    def test_non_binary_and_negative_rows_skipped(self):
        m = Model("mixed")
        a = m.add_var("a", ub=3, vartype=INTEGER)
        b, c = m.add_binary("b"), m.add_binary("c")
        m.add_constr(a + b <= 1)  # integer (non-binary) support
        m.add_constr(2 * b - c <= 0)  # negative coefficient
        m.maximize(a + b + c)
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert graph.num_edges == 0

    def test_equality_rows_participate(self):
        m = Model("eq")
        a, b, c = (m.add_binary(n) for n in "abc")
        m.add_constr(2 * a + 2 * b + c == 2)  # a and b cannot both be 1
        m.maximize(a + b + c)
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        assert graph.are_adjacent(0, 1)


class TestMaximalCliques:
    #: Violates both maximal cliques of :meth:`triangle_plus_pendant`.
    BOTH_VIOLATED = np.array([0.5, 0.5, 0.5, 0.6])

    def triangle_plus_pendant(self) -> ConflictGraph:
        # 0-1-2 triangle, 3 attached to 2 only.
        return ConflictGraph(
            4, {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}}
        )

    def test_enumeration_finds_both_maximal_cliques(self):
        found = self.triangle_plus_pendant().separate(self.BOTH_VIOLATED)
        # Seeds go by descending x*: the pendant edge first.
        assert found == [((2, 3), pytest.approx(0.1)), ((0, 1, 2), pytest.approx(0.5))]

    def test_max_cliques_cap(self):
        graph = self.triangle_plus_pendant()
        assert len(graph.separate(self.BOTH_VIOLATED, max_cliques=1)) == 1

    def test_every_reported_clique_is_maximal(self):
        graph = self.triangle_plus_pendant()
        for clique, _ in graph.separate(self.BOTH_VIOLATED):
            members = set(clique)
            for p, q in itertools.combinations(clique, 2):
                assert graph.are_adjacent(p, q)
            outside = set(graph.adjacency) - members
            for u in outside:
                assert not all(graph.are_adjacent(u, w) for w in members)

    def test_separation_on_fractional_point(self):
        graph = self.triangle_plus_pendant()
        x = np.array([0.5, 0.5, 0.5, 0.0])
        [(cols, violation)] = graph.separate(x)
        assert cols == (0, 1, 2)
        assert violation == pytest.approx(0.5)

    def test_no_separation_at_integral_point(self):
        graph = self.triangle_plus_pendant()
        assert graph.separate(np.array([1.0, 0.0, 0.0, 1.0])) == []


def _integer_feasible_points(m: Model):
    form = m.to_matrix_form()
    n = form.num_vars
    for bits in range(2**n):
        x = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
        ok = True
        if form.a_ub is not None and form.a_ub.size:
            ok = ok and bool(np.all(form.a_ub @ x <= form.b_ub + 1e-9))
        if form.a_eq is not None and form.a_eq.size:
            ok = ok and bool(np.all(np.abs(form.a_eq @ x - form.b_eq) <= 1e-9))
        if ok:
            yield x


class TestCutsNeverCutFeasiblePoints:
    @given(st.integers(0, 150))
    @settings(max_examples=25, deadline=None)
    def test_random_binary_models(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        m = Model("rand")
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        weights = rng.integers(2, 9, size=n)
        cap = int(weights.sum() * float(rng.uniform(0.3, 0.7)))
        m.add_constr(quicksum(int(w) * x for w, x in zip(weights, xs)) <= max(cap, 2))
        for _ in range(int(rng.integers(1, 4))):  # a few exclusion pairs
            i, j = rng.choice(n, size=2, replace=False)
            m.add_constr(xs[int(i)] + xs[int(j)] <= 1)
        m.maximize(quicksum(int(p) * x for p, x in zip(rng.integers(1, 20, n), xs)))

        form = m.to_matrix_form()
        graph = ConflictGraph.from_matrix_form(form)
        x_frac = rng.uniform(0.0, 1.0, size=form.num_vars)
        cuts = generate_cuts(graph, x_frac)
        feasible = list(_integer_feasible_points(m))
        assert feasible, "capacity floor keeps at least the origin feasible"
        for cut in cuts:
            row, rhs = cut.as_pair(form.num_vars)
            for point in feasible:
                assert row @ point <= rhs + 1e-9, (
                    f"clique cut {cut.cols} removed integer-feasible point {point}"
                )

    def test_packing_model_cliques_are_valid(self):
        m = packing_model()
        graph = ConflictGraph.from_matrix_form(m.to_matrix_form())
        # Columns alternate slot 0 / slot 1 per item; lean on slot 0.
        x = np.array([0.5, 0.2] * 3 + [0.0, 0.0])
        cliques = [cols for cols, _ in graph.separate(x)]
        assert any(len(c) >= 3 for c in cliques)  # the slot-0 triangle merges
        for point in _integer_feasible_points(m):
            for clique in cliques:
                assert sum(point[j] for j in clique) <= 1 + 1e-9


def _design_makespan(problem, cuts=None, backend="bnb"):
    policy = None if cuts is None else SolvePolicy(solver=SolverOptions(cuts=cuts))
    return design(problem, backend=backend, policy=policy).makespan


class TestDesignExactnessWithCuts:
    """Cuts-on, cuts-off, and the scipy oracle agree on constrained designs."""

    def test_layout_constrained_design(self, s1, arch3, s1_floorplan):
        problem = DesignProblem(
            soc=s1,
            arch=arch3,
            timing="serial",
            floorplan=s1_floorplan,
            max_pair_distance=4.0,
        )
        on = _design_makespan(problem, cuts=CutPolicy())
        off = _design_makespan(problem, cuts=CutPolicy.disabled())
        oracle = _design_makespan(problem, backend="scipy")
        assert on == pytest.approx(off)
        assert on == pytest.approx(oracle)

    def test_infeasible_layout_budget_detected_with_cuts(self, s1, arch2, s1_floorplan):
        # Cut-strengthened root LPs can go empty on integer-infeasible
        # instances; that must surface as InfeasibleError, not a solver bug.
        from repro.util.errors import InfeasibleError

        problem = DesignProblem(
            soc=s1,
            arch=arch2,
            timing="serial",
            floorplan=s1_floorplan,
            max_pair_distance=3.0,
        )
        for cuts in (CutPolicy(), CutPolicy.disabled()):
            with pytest.raises(InfeasibleError):
                _design_makespan(problem, cuts=cuts)

    def test_power_constrained_design(self, s1, arch3):
        budget = max(core.test_power for core in s1.cores) * 1.5
        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial", power_budget=budget
        )
        on = _design_makespan(problem, cuts=CutPolicy())
        off = _design_makespan(problem, cuts=CutPolicy.disabled())
        oracle = _design_makespan(problem, backend="scipy")
        assert on == pytest.approx(off)
        assert on == pytest.approx(oracle)

    def test_unconstrained_design_unaffected(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        on = design(
            problem, policy=SolvePolicy(solver=SolverOptions(cuts=CutPolicy()))
        )
        off = design(
            problem,
            policy=SolvePolicy(solver=SolverOptions(cuts=CutPolicy.disabled())),
        )
        assert on.makespan == pytest.approx(off.makespan)
        # no conflict structure: nothing to separate
        assert on.stats.cuts == 0
