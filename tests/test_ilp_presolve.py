"""Tests for the solver fast path: node presolve, pseudocost branching,
delta-bound nodes, and the precomputed LP workspace.

The load-bearing property is *exactness*: none of the fast-path machinery
may ever change an optimum, only the work needed to prove it. The randomized
classes pin branch and bound — with root presolve on and off — against the
scipy/HiGHS MILP oracle on TAM-shaped assignment instances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import CONTINUOUS, INTEGER, BranchAndBoundSolver, Model, Status, quicksum
from repro.ilp import branch_and_bound
from repro.ilp.lp import LpWorkspace, solve_matrix_lp
from repro.ilp.presolve import (
    LB_TIGHTENED,
    UB_TIGHTENED,
    PropagationTables,
    propagate_bounds,
    reduced_cost_tighten,
)
from repro.obs import PresolvePolicy

_INT_TOL = 1e-6
_BIG = 1e15


def dense_propagate_bounds(
    form, lb, ub, integer_mask, cutoff=None, max_rounds=4, tol=1e-6
):
    """Reference propagation: the dense rows x columns arithmetic that
    :func:`propagate_bounds` replaced. Same contract — tightens ``lb``/``ub``
    in place and returns ``(feasible, tightenings)``."""
    n = form.num_vars
    blocks, rhs_blocks = [], []
    if form.a_ub.size:
        blocks.append(form.a_ub)
        rhs_blocks.append(form.b_ub)
    if form.a_eq.size:
        blocks += [form.a_eq, -form.a_eq]
        rhs_blocks += [form.b_eq, -form.b_eq]
    if np.any(form.c):
        blocks.append(form.c.reshape(1, n))
        rhs_blocks.append(np.array([math.inf if cutoff is None else cutoff - form.c0]))
    if not blocks:
        return True, []
    rows = np.vstack(blocks)
    rhs = np.concatenate(rhs_blocks)
    pos, neg = np.maximum(rows, 0.0), np.minimum(rows, 0.0)
    pos_mask, neg_mask = rows > 0.0, rows < 0.0
    with np.errstate(divide="ignore"):
        inv = np.where(rows != 0.0, 1.0 / np.where(rows != 0.0, rows, 1.0), 0.0)
    changes = []
    clb = np.clip(lb, -_BIG, _BIG)
    cub = np.clip(ub, -_BIG, _BIG)
    for _ in range(max_rounds):
        min_activity = pos @ clb + neg @ cub
        slack = rhs - min_activity
        if np.any(slack < -tol * (1.0 + np.abs(rhs))):
            return False, changes
        with np.errstate(invalid="ignore"):
            ratio = slack[:, None] * inv
            ub_cand = np.where(pos_mask, clb[None, :] + ratio, math.inf)
            lb_cand = np.where(neg_mask, cub[None, :] + ratio, -math.inf)
        new_ub = np.min(ub_cand, axis=0) if ub_cand.size else cub
        new_lb = np.max(lb_cand, axis=0) if lb_cand.size else clb
        new_ub = np.where(integer_mask, np.floor(new_ub + tol), new_ub)
        new_lb = np.where(integer_mask, np.ceil(new_lb - tol), new_lb)
        improved_ub = np.flatnonzero(new_ub < cub - tol)
        improved_lb = np.flatnonzero(new_lb > clb + tol)
        if improved_ub.size == 0 and improved_lb.size == 0:
            break
        for j in improved_ub:
            value = float(new_ub[j])
            cub[j] = value
            ub[j] = value
            changes.append((int(j), UB_TIGHTENED, value))
        for j in improved_lb:
            value = float(new_lb[j])
            clb[j] = value
            lb[j] = value
            changes.append((int(j), LB_TIGHTENED, value))
        if np.any(clb > cub + tol):
            return False, changes
    return True, changes


def assert_matches_dense(form, lb, ub, cutoff=None, max_rounds=4, tol=1e-6):
    """Sparse and dense propagation agree exactly from the same bounds."""
    tables = PropagationTables(form, tol=tol)
    lb_s, ub_s = lb.copy(), ub.copy()
    lb_d, ub_d = lb.copy(), ub.copy()
    ours = propagate_bounds(tables, lb_s, ub_s, cutoff=cutoff, max_rounds=max_rounds)
    ref = dense_propagate_bounds(
        form, lb_d, ub_d, form.integer_mask, cutoff=cutoff, max_rounds=max_rounds, tol=tol
    )
    assert ours == ref
    assert np.array_equal(lb_s, lb_d) and np.array_equal(ub_s, ub_d)
    return ours


def knapsack_model(weights, profits, capacity):
    m = Model("knapsack")
    xs = [m.add_binary(f"k{i}") for i in range(len(weights))]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.maximize(quicksum(p * x for p, x in zip(profits, xs)))
    return m, xs


def assignment_model(times):
    """Makespan-minimization assignment ILP — the paper's core formulation."""
    jobs, machines = times.shape
    m = Model("assign")
    x = {(i, j): m.add_binary(f"x{i}_{j}") for i in range(jobs) for j in range(machines)}
    T = m.add_var("T")
    for i in range(jobs):
        m.add_constr(quicksum(x[i, j] for j in range(machines)) == 1)
    for j in range(machines):
        m.add_constr(quicksum(int(times[i, j]) * x[i, j] for i in range(jobs)) <= T)
    m.minimize(T)
    return m


class TestPropagation:
    def _tables(self, model):
        form = model.to_matrix_form()
        return form, PropagationTables(form)

    def test_knapsack_row_fixes_oversized_item(self):
        # 5x0 + x1 <= 3 forces the binary x0 to 0.
        m = Model()
        x0, x1 = m.add_binary("a"), m.add_binary("b")
        m.add_constr(5 * x0 + x1 <= 3)
        m.maximize(x0 + x1)
        form, tables = self._tables(m)
        lb, ub = form.lb.copy(), form.ub.copy()
        feasible, changes = propagate_bounds(tables, lb, ub)
        assert feasible
        assert ub[x0.index] == 0.0
        assert (x0.index, UB_TIGHTENED, 0.0) in changes

    def test_ge_row_raises_lower_bound(self):
        # 3x >= 7 with x integer in [0, 9] forces x >= 3.
        m = Model()
        x = m.add_var("x", lb=0, ub=9, vartype=INTEGER)
        m.add_constr(3 * x >= 7)
        m.minimize(x)
        form, tables = self._tables(m)
        lb, ub = form.lb.copy(), form.ub.copy()
        feasible, changes = propagate_bounds(tables, lb, ub)
        assert feasible
        assert lb[x.index] == 3.0
        assert any(j == x.index and kind == LB_TIGHTENED for j, kind, _ in changes)

    def test_detects_infeasibility_without_lp(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(a + b >= 3)
        m.minimize(a + b)
        form, tables = self._tables(m)
        lb, ub = form.lb.copy(), form.ub.copy()
        feasible, _ = propagate_bounds(tables, lb, ub)
        assert not feasible

    def test_objective_cutoff_row_prunes(self):
        # min a + b with both binary: any solution has objective >= 0, so a
        # cutoff of 0.5 forces both to 0; a cutoff of -1 proves infeasible.
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.minimize(a + b)
        form, tables = self._tables(m)
        lb, ub = form.lb.copy(), form.ub.copy()
        feasible, _ = propagate_bounds(tables, lb, ub, cutoff=0.5)
        assert feasible
        assert ub[a.index] == 0.0 and ub[b.index] == 0.0
        lb, ub = form.lb.copy(), form.ub.copy()
        lb[a.index] = 1.0  # branch a=1: no solution beats a cutoff of 0.5
        feasible, _ = propagate_bounds(tables, lb, ub, cutoff=0.5)
        assert not feasible

    def test_no_cutoff_means_objective_row_inert(self):
        m = Model()
        a = m.add_binary("a")
        m.minimize(a)
        form, tables = self._tables(m)
        lb, ub = form.lb.copy(), form.ub.copy()
        feasible, changes = propagate_bounds(tables, lb, ub, cutoff=None)
        assert feasible and changes == []

    def test_propagation_never_cuts_integer_points(self):
        # Every integer-feasible point of a random model stays inside the
        # propagated box (validity of the tightenings).
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            weights = rng.integers(1, 9, size=n)
            cap = int(rng.integers(4, int(weights.sum()) + 1))
            m, xs = knapsack_model(weights.tolist(), rng.integers(1, 9, size=n).tolist(), cap)
            form = m.to_matrix_form()
            tables = PropagationTables(form)
            lb, ub = form.lb.copy(), form.ub.copy()
            feasible, _ = propagate_bounds(tables, lb, ub)
            assert feasible
            for bits in range(2**n):
                point = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
                if weights @ point <= cap:
                    assert np.all(point >= lb[: n] - 1e-9)
                    assert np.all(point <= ub[: n] + 1e-9)


def _random_form(rng, fractional):
    """Integer-coefficient rows with an objective row, and a node box.

    Without ``fractional`` every column but one is integer with a small
    finite box, and that one (like the TAM makespan ``T``) has unit
    coefficients, a finite lower bound and maybe no upper bound: with
    integer cutoffs every bound propagation computes stays integral and
    below 2**53, so all of its arithmetic is exact. With ``fractional``,
    continuous columns take any coefficient and the cutoff any value, so
    tightened bounds become fractions and rounding enters the row sums.
    """
    n = int(rng.integers(1, 9))
    m = Model("prop")
    xs, unit = [], []
    for j in range(n):
        lb, ub = float(rng.integers(-3, 2)), float(rng.integers(2, 9))
        if fractional:
            continuous = rng.random() < 0.5
        else:
            continuous = not any(unit) and rng.random() < 0.3
            if continuous and rng.random() < 0.5:
                ub = math.inf
        unit.append(continuous and not fractional)
        vartype = CONTINUOUS if continuous else INTEGER
        xs.append(m.add_var(f"x{j}", lb=lb, ub=ub, vartype=vartype))

    def coefficients(low, high):
        coefs = rng.integers(low, high, size=n) * (rng.random(n) < 0.6)
        return np.where(unit, np.sign(coefs), coefs)

    for _ in range(int(rng.integers(0, 6))):
        expr = quicksum(int(a) * x for a, x in zip(coefficients(-6, 7), xs))
        rhs = float(rng.integers(-5, 25))
        kind = rng.random()
        if kind < 0.6:
            m.add_constr(expr <= rhs)
        elif kind < 0.8:
            m.add_constr(expr >= rhs)
        else:
            m.add_constr(expr == rhs)
    objective = coefficients(-4, 9)
    m.minimize(quicksum(int(p) * x for p, x in zip(objective, xs)) + int(rng.integers(-3, 4)))
    form = m.to_matrix_form()
    lb, ub = form.lb.copy(), form.ub.copy()
    # A branch-like start: a few finite bounds pulled inward.
    for j in rng.choice(form.num_vars, size=min(2, form.num_vars), replace=False):
        if np.isfinite(ub[j]) and lb[j] < ub[j]:
            if rng.random() < 0.5:
                lb[j] = min(lb[j] + 1.0, ub[j])
            else:
                ub[j] = max(ub[j] - 1.0, lb[j])
    cutoff = None if rng.random() < 0.3 else float(rng.integers(-10, 30))
    if fractional and cutoff is not None:
        cutoff -= float(rng.random())
    return form, lb, ub, cutoff


class TestSparseMatchesDense:
    """The O(nonzeros) propagation against the dense reference: identical
    results wherever the arithmetic is exact (integer data, as in every TAM
    formulation), the same tightenings up to rounding elsewhere."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_generated_integer_forms(self, seed):
        form, lb, ub, cutoff = _random_form(np.random.default_rng(seed), fractional=False)
        assert_matches_dense(form, lb, ub, cutoff=cutoff)
        assert_matches_dense(form, lb, ub, cutoff=cutoff, max_rounds=2, tol=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_generated_fractional_forms(self, seed):
        # Row sums now add in nonzero order where the dense matmul added in
        # BLAS order, so fractional bounds may differ in the last bits.
        form, lb, ub, cutoff = _random_form(np.random.default_rng(seed), fractional=True)
        tables = PropagationTables(form)
        lb_s, ub_s = lb.copy(), ub.copy()
        feasible, changes = propagate_bounds(tables, lb_s, ub_s, cutoff=cutoff)
        lb_d, ub_d = lb.copy(), ub.copy()
        ref_feasible, ref_changes = dense_propagate_bounds(
            form, lb_d, ub_d, form.integer_mask, cutoff=cutoff
        )
        assert feasible == ref_feasible
        assert [c[:2] for c in changes] == [c[:2] for c in ref_changes]
        close = dict(rtol=1e-9, atol=1e-9)
        assert np.allclose([c[2] for c in changes], [c[2] for c in ref_changes], **close)
        assert np.allclose(lb_s, lb_d, **close) and np.allclose(ub_s, ub_d, **close)

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("variant", ["serial", "power", "layout"])
    def test_tam_formulations(self, name, variant):
        from repro.core import DesignProblem, build_assignment_ilp
        from repro.layout import grid_place
        from repro.soc import build_s1, build_s2, build_s3
        from repro.tam import TamArchitecture

        soc = {"S1": build_s1, "S2": build_s2, "S3": build_s3}[name]()
        extra = {}
        if variant == "power":
            powers = sorted(core.test_power for core in soc.cores)
            extra["power_budget"] = powers[-1] + powers[-2] - 0.05
        elif variant == "layout":
            floorplan = grid_place(soc)
            distances = sorted(
                floorplan.distance(a, b)
                for a in range(len(soc))
                for b in range(a + 1, len(soc))
            )
            extra["floorplan"] = floorplan
            extra["max_pair_distance"] = distances[int(0.8 * (len(distances) - 1))]
        problem = DesignProblem(
            soc=soc, arch=TamArchitecture([32, 16, 8]), timing="serial", **extra
        )
        form = build_assignment_ilp(problem).model.to_matrix_form()
        # Cutoffs around the optimum: the perfectly balanced load, give or take.
        times = problem.times
        balanced = float(np.where(np.isfinite(times), times, np.inf).min(axis=1).sum())
        balanced /= problem.arch.num_buses
        cutoffs = [None, 1.5 * balanced, balanced, 0.7 * balanced]
        rng = np.random.default_rng(len(name) + len(variant))
        binaries = np.flatnonzero(form.integer_mask)
        outcomes = set()
        for trial in range(40):
            lb, ub = form.lb.copy(), form.ub.copy()
            for j in rng.choice(binaries, size=trial % 6, replace=False):
                if rng.random() < 0.5:
                    lb[j] = 1.0
                else:
                    ub[j] = 0.0
            for cutoff in cutoffs:
                feasible, changes = assert_matches_dense(form, lb, ub, cutoff=cutoff)
                outcomes.add((feasible, bool(changes)))
        # The sample reaches tightenings and prunes, not just no-op rounds.
        assert (True, True) in outcomes
        assert any(not feasible for feasible, _ in outcomes)


class TestReducedCostFixing:
    def test_positive_reduced_cost_caps_upper_bound(self):
        # Root optimum 0 with rc_j = 4 and cutoff 3: x_j can move up by at
        # most floor(3/4) = 0, fixing the variable at its root lower bound.
        rc = np.array([4.0, 0.0])
        root_lb = np.zeros(2)
        root_ub = np.ones(2)
        lb, ub = root_lb.copy(), root_ub.copy()
        fixed = reduced_cost_tighten(
            rc, root_lb, root_ub, 0.0, 3.0, lb, ub, np.array([True, True])
        )
        assert fixed == 1
        assert ub[0] == 0.0 and ub[1] == 1.0

    def test_negative_reduced_cost_raises_lower_bound(self):
        rc = np.array([-4.0])
        root_lb = np.zeros(1)
        root_ub = np.ones(1)
        lb, ub = root_lb.copy(), root_ub.copy()
        fixed = reduced_cost_tighten(
            rc, root_lb, root_ub, 0.0, 3.0, lb, ub, np.array([True])
        )
        assert fixed == 1
        assert lb[0] == 1.0

    def test_wide_gap_fixes_nothing(self):
        rc = np.array([4.0])
        lb, ub = np.zeros(1), np.ones(1)
        fixed = reduced_cost_tighten(
            rc, lb.copy(), ub.copy(), 0.0, 100.0, lb, ub, np.array([True])
        )
        assert fixed == 0

    def test_never_cuts_improving_solutions_randomized(self):
        # Any integer point strictly better than the cutoff must survive the
        # fixing — checked by brute force on random binary knapsacks.
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            weights = rng.integers(1, 9, size=n)
            profits = rng.integers(1, 9, size=n)
            cap = int(rng.integers(4, int(weights.sum()) + 1))
            m, _ = knapsack_model(weights.tolist(), profits.tolist(), cap)
            form = m.to_matrix_form()
            root = solve_matrix_lp(form, want_reduced_costs=True)
            assert root.status == "optimal" and root.reduced_costs is not None
            best = -math.inf
            points = []
            for bits in range(2**n):
                point = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
                if weights @ point <= cap:
                    value = float(form.c @ point)  # minimization sense
                    points.append((point, value))
                    best = max(best, -value)
            cutoff = -best + 0.5  # keep only the optimum
            lb, ub = form.lb.copy(), form.ub.copy()
            reduced_cost_tighten(
                root.reduced_costs, form.lb, form.ub, root.objective,
                cutoff, lb, ub, form.integer_mask,
            )
            for point, value in points:
                if value < cutoff:
                    assert np.all(point >= lb - 1e-9) and np.all(point <= ub + 1e-9)


class TestLpWorkspace:
    def test_workspace_path_matches_plain_path(self):
        rng = np.random.default_rng(3)
        m = assignment_model(rng.integers(1, 30, size=(5, 3)))
        form = m.to_matrix_form()
        ws = LpWorkspace(form)
        for _ in range(5):
            lb, ub = form.lb.copy(), form.ub.copy()
            j = int(rng.integers(0, form.num_vars - 1))
            ub[j] = 0.0
            plain = solve_matrix_lp(form, lb=lb, ub=ub)
            fast = solve_matrix_lp(form, lb=lb, ub=ub, workspace=ws)
            assert plain.status == fast.status
            if plain.status == "optimal":
                assert fast.objective == pytest.approx(plain.objective, abs=1e-9)
                assert np.allclose(fast.x, plain.x, atol=1e-9)

    def test_bounds_buffer_is_reused(self):
        m, _ = knapsack_model([2, 3], [1, 1], 4)
        ws = LpWorkspace(m.to_matrix_form())
        first = ws.bounds_array(np.zeros(2), np.ones(2))
        second = ws.bounds_array(np.ones(2), np.ones(2))
        assert first is second


def _scalar_fractional_index(int_indices, x):
    """The historical Python-loop rule, kept as the tie-breaking reference."""
    best, best_score = None, -1.0
    for j in int_indices:
        frac = abs(x[j] - round(x[j]))
        if frac <= _INT_TOL:
            continue
        score = min(frac, 1.0 - frac)
        if score > best_score:
            best, best_score = int(j), score
    return best


class TestFractionalIndex:
    @given(st.integers(0, 1000))
    @settings(max_examples=60)
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        m = Model("frac")
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        m.add_constr(quicksum(xs) <= n)
        m.maximize(quicksum(xs))
        solver = BranchAndBoundSolver(m)
        # Quantized values make exact ties common — the interesting case.
        x = rng.integers(0, 8, size=n) / 8.0
        expected = _scalar_fractional_index(solver._int_indices, x)
        assert solver._fractional_index(x) == expected

    def test_all_integral_returns_none(self):
        m, _ = knapsack_model([1, 2], [1, 1], 3)
        solver = BranchAndBoundSolver(m)
        assert solver._fractional_index(np.array([1.0, 0.0])) is None

    def test_pseudocost_rule_dives_like_most_fractional(self):
        # _fractional_index is also the dive's rule: it scores by
        # fractionality alone, never by the lowest fractional index.
        m, _ = knapsack_model([1, 2, 3], [1, 1, 1], 3)
        solver = BranchAndBoundSolver(m)
        x = np.array([0.9, 0.5, 0.0])
        assert solver._fractional_index(x) == 1


def _most_fractional_solve(m: Model):
    """B&B with the pseudocost rule swapped for most-fractional branching."""
    solver = BranchAndBoundSolver(m)
    solver._select_branch = solver._fractional_index
    return solver.solve()


def _without_node_presolve(monkeypatch):
    """Make node propagation and reduced-cost fixing no-ops in B&B."""
    monkeypatch.setattr(
        branch_and_bound, "propagate_bounds", lambda tables, lb, ub, **kw: (True, [])
    )
    monkeypatch.setattr(branch_and_bound, "reduced_cost_tighten", lambda *args: 0)


class TestExactnessWithFastPath:
    """Presolve and pseudocost must never change an optimum."""

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_assignment_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        jobs, machines = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        m = assignment_model(rng.integers(1, 30, size=(jobs, machines)))
        ref = m.solve(backend="scipy")
        for options in ({}, {"root_presolve": PresolvePolicy.disabled()}):
            ours = m.solve(cache=False, **options)
            assert ours.status is Status.OPTIMAL
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6), options

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_knapsack_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        weights = rng.integers(1, 20, size=n).tolist()
        profits = rng.integers(1, 20, size=n).tolist()
        m, _ = knapsack_model(weights, profits, int(sum(weights) * 0.5) + 1)
        ref = m.solve(backend="scipy")
        fast = m.solve(cache=False)
        assert fast.objective == pytest.approx(ref.objective, abs=1e-6)
        assert m.check_solution(fast.rounded()) == []

    def test_presolve_stats_populated(self):
        rng = np.random.default_rng(0)
        m = assignment_model(rng.integers(1, 30, size=(8, 3)))
        sol = m.solve(cache=False)
        assert sol.stats.lp_solves >= sol.stats.nodes
        assert sol.stats.presolve_fixings > 0
        assert sol.stats.presolve_pruned > 0

    def test_infeasible_still_infeasible_with_presolve(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(a + b >= 3)
        m.minimize(a + b)
        assert m.solve(cache=False).status is Status.INFEASIBLE
        assert m.solve(backend="scipy").status is Status.INFEASIBLE


class TestPseudocostRegression:
    def test_pseudocost_not_worse_on_fixed_instance(self):
        # Fixed-seed hard-ish assignment instance: the learned rule must not
        # expand more nodes than most-fractional. This pins the perf win the
        # fast path was built for; a regression here means the pseudocost
        # scores stopped steering the search.
        rng = np.random.default_rng(42)
        m = assignment_model(rng.integers(1, 50, size=(10, 3)))
        pc = m.solve(cache=False)
        mf = _most_fractional_solve(m)
        assert pc.objective == pytest.approx(mf.objective)
        assert pc.stats.nodes <= mf.stats.nodes

    def test_presolve_reduces_nodes_on_fixed_instance(self, monkeypatch):
        rng = np.random.default_rng(42)
        m = assignment_model(rng.integers(1, 50, size=(10, 3)))
        fast = m.solve(cache=False)
        _without_node_presolve(monkeypatch)
        slow = _most_fractional_solve(m)
        assert fast.objective == pytest.approx(slow.objective)
        assert fast.stats.nodes < slow.stats.nodes
