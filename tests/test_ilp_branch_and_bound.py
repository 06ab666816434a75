"""Tests for branch and bound, including randomized cross-checks vs HiGHS MILP."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DesignProblem, build_assignment_ilp, design, lpt_assignment
from repro.ilp import INTEGER, BranchAndBoundSolver, Model, Status, branch_and_bound, quicksum
from repro.ilp import simplex
from repro.layout import grid_place
from repro.obs import SolvePolicy
from repro.soc import build_s1, build_s3
from repro.tam import TamArchitecture


def knapsack_model(weights, profits, capacity):
    m = Model("knapsack")
    xs = [m.add_binary(f"k{i}") for i in range(len(weights))]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.maximize(quicksum(p * x for p, x in zip(profits, xs)))
    return m, xs


class TestExactness:
    def test_knapsack_optimum(self):
        m, xs = knapsack_model([4, 3, 2, 5, 1], [5, 4, 3, 6, 1], 9)
        sol = m.solve()
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(12.0)
        assert m.check_solution(sol.rounded()) == []

    def test_makespan_two_machines(self):
        times = [10, 7, 5, 4, 3]
        m = Model("makespan")
        x = {(i, j): m.add_binary(f"x{i}_{j}") for i in range(5) for j in range(2)}
        T = m.add_var("T")
        for i in range(5):
            m.add_constr(quicksum(x[i, j] for j in range(2)) == 1)
        for j in range(2):
            m.add_constr(quicksum(times[i] * x[i, j] for i in range(5)) <= T)
        m.minimize(T)
        assert m.solve().objective == pytest.approx(15.0)

    def test_integer_variable_general_bounds(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10, vartype=INTEGER)
        m.add_constr(2 * x <= 7)
        m.maximize(x)
        assert m.solve().objective == pytest.approx(3.0)

    def test_already_integral_relaxation_skips_branching(self):
        m = Model()
        x = m.add_var("x", ub=4, vartype=INTEGER)
        m.maximize(x)
        sol = m.solve()
        assert sol.objective == pytest.approx(4.0)
        # The root relaxation is integral, so the root is the only node.
        assert sol.stats.nodes <= 1

    def test_continuous_only_model(self):
        m = Model()
        x = m.add_var("x", ub=2.5)
        m.maximize(x)
        sol = m.solve()
        assert sol.objective == pytest.approx(2.5)

    def test_empty_model_is_answered_by_root_presolve(self):
        # A model without columns is settled before any LP is solved.
        model = Model("empty")
        sol = BranchAndBoundSolver(model).solve()
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(0.0)
        assert sol.stats.lp_solves == 0

    def test_unknown_branching_rejected(self):
        # Pseudocost branching is the only rule: a branching kwarg is an
        # unknown solver option, rejected rather than silently ignored.
        m, _ = knapsack_model([1], [1], 1)
        with pytest.raises(TypeError, match="branching"):
            BranchAndBoundSolver(m, branching="pseudo")
        with pytest.raises(TypeError, match="branching"):
            m.solve(branching="first", cache=False)


class TestStatuses:
    def test_infeasible(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(a + b >= 3)
        m.minimize(a + b)
        assert m.solve().status is Status.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x", vartype=INTEGER)
        m.maximize(x)
        assert m.solve().status is Status.UNBOUNDED

    def test_node_budget_reported(self):
        # A knapsack big enough to need more than 1 node.
        rng = np.random.default_rng(0)
        weights = rng.integers(5, 40, size=18).tolist()
        profits = rng.integers(5, 40, size=18).tolist()
        m, _ = knapsack_model(weights, profits, int(sum(weights) * 0.4))
        sol = m.solve(policy=SolvePolicy(node_budget=2), dive=False)
        assert sol.status in (Status.NODE_LIMIT, Status.FEASIBLE)

    def test_legacy_limit_kwargs_are_rejected(self):
        m, _ = knapsack_model([4, 3, 2], [5, 4, 3], 6)
        with pytest.raises(TypeError, match="SolvePolicy"):
            m.solve(node_limit=2)
        with pytest.raises(TypeError, match="SolvePolicy"):
            m.solve(time_limit=1.0)

    def test_reading_values_of_infeasible_raises(self):
        m = Model()
        a = m.add_binary("a")
        m.add_constr(a >= 2)
        m.minimize(a)
        sol = m.solve()
        with pytest.raises(KeyError):
            sol[a]


class TestDeadline:
    @staticmethod
    def _problem(case):
        soc = build_s3() if case == "S3" else build_s1()
        widths, extra = (16, 8, 4), {}
        if case == "S3":
            widths = (32, 14, 6)
        elif case == "S1-layout":
            # Tight enough that two root cut rounds run without a deadline.
            extra = {"floorplan": grid_place(soc), "max_pair_distance": 3.0}
        return DesignProblem(soc, TamArchitecture(widths), timing="serial", **extra)

    @classmethod
    def _model(cls, case):
        return build_assignment_ilp(cls._problem(case)).model

    @staticmethod
    def _pivot_clock(monkeypatch):
        """Stop the solver's clock and move the LP engine's one second per
        pivot, so a deadline of N seconds lands after the Nth pivot of the
        solve, whatever the machine's speed."""
        ticks = itertools.count(1)
        monkeypatch.setattr(branch_and_bound, "now", lambda: 0.0)
        monkeypatch.setattr(simplex, "now", lambda: float(next(ticks)))

    @pytest.mark.parametrize("case", ["S1", "S3", "S1-layout"])
    def test_expired_deadline_stops_root_work(self, case):
        # The root LP stops before its first pivot; the cut rounds and the
        # dive behind it never start.
        model = self._model(case)
        unlimited = BranchAndBoundSolver(model).solve()
        assert unlimited.stats.lp_solves > 1
        solution = BranchAndBoundSolver(model, time_limit=0.0).solve()
        assert solution.stats.lp_solves == 1
        assert solution.stats.cut_rounds == 0
        assert solution.status is Status.NODE_LIMIT

    @pytest.mark.parametrize("stage", ["root LP", "cut round"])
    def test_deadline_stops_an_lp_before_the_tree(self, stage, monkeypatch):
        # The root LP and its cut-round re-solves read the deadline pivot by
        # pivot, so a deadline inside one stops the solve two pivots in.
        model = self._model("S1-layout")
        root = BranchAndBoundSolver(model, cut_rounds=0, node_limit=1, dive=False).solve()
        before = 0 if stage == "root LP" else root.stats.lp_iterations
        self._pivot_clock(monkeypatch)
        solution = BranchAndBoundSolver(model, time_limit=before + 2.0).solve()
        stats = solution.stats
        assert solution.status is Status.NODE_LIMIT
        assert stats.best_bound is None
        assert stats.lp_iterations == before + 2
        # A stopped LP is a warm-engine solve, as perfbench's span check
        # (root and node LP spans = warm solves + cold fallbacks) expects.
        lps = 1 if stage == "root LP" else 2
        assert stats.lp_solves == stats.warm_lp_solves == lps
        assert stats.cut_rounds == lps - 1

    def test_design_keeps_the_lpt_seed_when_the_root_lp_stops(self, monkeypatch):
        problem = self._problem("S3")
        self._pivot_clock(monkeypatch)
        result = design(problem, policy=SolvePolicy(deadline=2.0), cache=False)
        assert result.status is Status.FEASIBLE
        assert result.provenance == "incumbent"
        assert result.stats.best_bound is None and result.stats.lp_iterations == 2
        assert result.makespan == lpt_assignment(problem).makespan


class TestStats:
    def test_counters_populated(self):
        m, _ = knapsack_model([4, 3, 2, 5, 6], [5, 4, 3, 7, 8], 11)
        sol = m.solve()
        assert sol.stats.nodes >= 1
        assert sol.stats.lp_solves >= sol.stats.nodes
        assert sol.stats.wall_time > 0
        assert sol.backend == "bnb"

    def test_dive_produces_incumbent_early(self):
        m, _ = knapsack_model([4, 3, 2, 5, 6, 7], [5, 4, 3, 7, 8, 9], 13)
        sol = m.solve(dive=True)
        assert sol.stats.incumbent_updates >= 1


@st.composite
def random_milp(draw):
    """Random bounded binary MILPs (maximization knapsack-like with extras)."""
    n = draw(st.integers(2, 7))
    m_rows = draw(st.integers(1, 4))
    coef = st.integers(0, 9)
    obj = [draw(st.integers(-5, 9)) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m_rows)]
    rhs = [draw(st.integers(1, 18)) for _ in range(m_rows)]
    return obj, rows, rhs


class TestAgainstHighs:
    @given(random_milp())
    @settings(max_examples=40)
    def test_matches_scipy_milp(self, instance):
        obj, rows, rhs = instance
        n = len(obj)
        m = Model("rand")
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        for row, cap in zip(rows, rhs):
            m.add_constr(quicksum(a * x for a, x in zip(row, xs)) <= cap)
        m.maximize(quicksum(p * x for p, x in zip(obj, xs)))
        ours = m.solve()
        ref = m.solve(backend="scipy")
        assert ours.status is Status.OPTIMAL and ref.status is Status.OPTIMAL
        assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
        assert m.check_solution(ours.rounded()) == []

    @given(st.integers(0, 500))
    @settings(max_examples=25)
    def test_assignment_instances_match(self, seed):
        rng = np.random.default_rng(seed)
        jobs, machines = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        times = rng.integers(1, 30, size=(jobs, machines))
        m = Model("assign")
        x = {
            (i, j): m.add_binary(f"x{i}_{j}") for i in range(jobs) for j in range(machines)
        }
        T = m.add_var("T")
        for i in range(jobs):
            m.add_constr(quicksum(x[i, j] for j in range(machines)) == 1)
        for j in range(machines):
            m.add_constr(
                quicksum(int(times[i, j]) * x[i, j] for i in range(jobs)) <= T
            )
        m.minimize(T)
        ours = m.solve()
        ref = m.solve(backend="scipy")
        assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
