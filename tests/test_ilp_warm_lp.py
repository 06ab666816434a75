"""Tests for the revised dual simplex and warm-started node LPs.

Three layers: the LP engine itself is pinned against ``scipy.linprog``
(cold and warm-after-bound-change solves must agree on status and
objective) and, pivot for pivot, against :func:`reference_solve`, the
engine as it stood before its per-call NumPy work was cut; the
branch-and-bound integration is pinned by solving the same models warm and
cold with HiGHS — identical optima, with the warm counters proving the dual
simplex actually answered the node LPs.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core import DesignProblem, design, width_sweep
from repro.ilp import INTEGER, BranchAndBoundSolver, Model, Status, quicksum
from repro.ilp import branch_and_bound
from repro.ilp.cuts import Cut
from repro.ilp.lp import LpResult
from repro.ilp.simplex import IN_BASIS, NB_FREE, NB_LOWER, NB_UPPER, Basis, RevisedSimplex
from repro.obs import CutPolicy
from repro.soc import build_s3
from repro.tam import TamArchitecture

_RNG_CASES = 40

#: The reference engine's tolerances (dual feasibility / pivot eligibility,
#: primal feasibility).
_DTOL = 1e-9
_PTOL = 1e-7


def reference_solve(engine, lb, ub, basis=None, cutoff=None):
    """Reference dual simplex: ``RevisedSimplex.solve`` as it stood
    before the engine moved to one entering-direction array, engine-owned
    bound buffers and ``W^T`` rows. Same contract, run on ``engine``, an
    engine whose matrices, bases and factorizations it only reads. The
    engine must stay pivot-for-pivot identical to it."""
    n, m = engine.n, engine.m
    if (lb > ub).any():
        return LpResult("infeasible", None, None)
    if m == 0:
        return engine._solve_unconstrained(lb, ub)
    if basis is None or basis.generation != engine.generation:
        basis = engine.initial_basis(lb, ub)
        if basis is None:
            return LpResult("fallback", None, None)
    bas = basis.basic.copy()
    status = basis.status.copy()
    status[bas] = IN_BASIS
    big_l = np.concatenate([lb, engine.slack_lb])
    big_u = np.concatenate([ub, engine.slack_ub])
    if basis.inverse is not None and basis.reduced_costs is not None:
        binv = basis.inverse.copy()
        d = basis.reduced_costs.copy()
        since_refactor = basis.since_refactor
    else:
        factor = engine._factorize(bas)
        if factor is None:
            return LpResult("fallback", None, None)
        binv, d = factor
        since_refactor = 0

    # Repair dual feasibility by bound flips; unfixable columns bail.
    # ``at_lower``/``at_upper`` say which nonbasic columns may enter the
    # basis (fixed columns never do); they track ``status`` pivot by
    # pivot.
    movable = big_u - big_l > _DTOL
    at_lower = (status == NB_LOWER) & movable
    at_upper = (status == NB_UPPER) & movable
    to_upper = at_lower & (d < -_DTOL * 10)
    to_lower = at_upper & (d > _DTOL * 10)
    if to_upper.any() or to_lower.any():
        if not (np.isfinite(big_u[to_upper]).all() and np.isfinite(big_l[to_lower]).all()):
            return LpResult("fallback", None, None)
        status[to_upper] = NB_UPPER
        status[to_lower] = NB_LOWER
        at_lower, at_upper = (at_lower & ~to_upper) | to_lower, (at_upper & ~to_lower) | to_upper
    free = status == NB_FREE
    any_free = bool(free.any())
    if any_free:
        if (np.abs(d[free]) > _DTOL * 10).any():
            return LpResult("fallback", None, None)
        free &= movable

    nb_value = np.where(status == NB_LOWER, big_l, np.where(status == NB_UPPER, big_u, 0.0))
    if not np.isfinite(nb_value).all():
        return LpResult("fallback", None, None)
    xb = binv @ (engine.b - engine.w @ nb_value)
    l_bas = big_l[bas]
    u_bas = big_u[bas]
    c_bas = engine.c[bas]

    iterations = 0
    while iterations < engine.max_iter:
        objective = float(c_bas @ xb + engine.c @ nb_value) + engine.c0
        if cutoff is not None and objective > cutoff + 1e-9:
            return LpResult("cutoff", None, objective, iterations)

        below = l_bas - xb
        above = xb - u_bas
        viol = np.maximum(below, above)
        r = int(viol.argmax())
        if viol[r] <= _PTOL * (1.0 + abs(xb[r])):
            x = nb_value[:n].copy()
            structural = bas < n
            x[bas[structural]] = xb[structural]
            return LpResult(
                "optimal",
                x,
                objective,
                iterations,
                reduced_costs=d[:n].copy(),
                basis=Basis(
                    basic=bas,
                    status=status,
                    generation=engine.generation,
                    inverse=binv,
                    reduced_costs=d,
                    since_refactor=since_refactor,
                ),
            )

        # Dual ratio test over row r of B^-1 W. Leaving below its lower
        # bound (sigma = +1), a column at its lower bound may enter on a
        # negative entry and one at its upper bound on a positive entry;
        # leaving above its upper bound mirrors both signs.
        leaving_low = bool(below[r] >= above[r])
        alpha = binv[r] @ engine.w
        neg = alpha < -_DTOL
        pos = alpha > _DTOL
        if leaving_low:
            eligible = (at_lower & neg) | (at_upper & pos)
        else:
            eligible = (at_lower & pos) | (at_upper & neg)
        if any_free:
            eligible |= free & (neg | pos)
        cand = eligible.nonzero()[0]
        if cand.size == 0:
            return LpResult("infeasible", None, None, iterations)
        ratios = np.abs(d[cand]) / np.abs(alpha[cand])
        q = int(cand[ratios.argmin()])
        pivot = alpha[q]
        if abs(pivot) < 1e-11:
            return LpResult("fallback", None, None, iterations)

        # Rank-one updates: reduced costs along row r, basic values
        # along column q (the leaving column lands on its violated
        # bound), and the inverse by one product-form pivot.
        leaving = int(bas[r])
        bound = big_l[leaving] if leaving_low else big_u[leaving]
        d -= (d[q] / pivot) * alpha
        d[q] = 0.0
        col = binv @ engine.w[:, q]
        step = (xb[r] - bound) / pivot
        xb -= step * col
        xb[r] = nb_value[q] + step
        row = binv[r] / pivot
        binv -= col[:, None] * row
        binv[r] = row

        status[leaving] = NB_LOWER if leaving_low else NB_UPPER
        nb_value[leaving] = bound
        if movable[leaving]:
            (at_lower if leaving_low else at_upper)[leaving] = True
        status[q] = IN_BASIS
        nb_value[q] = 0.0
        at_lower[q] = at_upper[q] = free[q] = False
        bas[r] = q
        l_bas[r] = big_l[q]
        u_bas[r] = big_u[q]
        c_bas[r] = engine.c[q]
        iterations += 1
        since_refactor += 1
        if since_refactor >= engine.refactor_every:
            factor = engine._factorize(bas)
            if factor is None:
                return LpResult("fallback", None, None, iterations)
            binv, d = factor
            xb = binv @ (engine.b - engine.w @ nb_value)
            since_refactor = 0
    return LpResult("fallback", None, None, iterations)




def _random_form(rng):
    """A random bounded LP as a MatrixForm (ub rows + optional eq row)."""
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    model = Model("rand")
    xs = [
        model.add_var(f"x{j}", lb=0, ub=float(rng.integers(1, 6)))
        for j in range(n)
    ]
    for _ in range(m_ub):
        coefs = rng.integers(-3, 6, size=n)
        rhs = float(rng.integers(1, 15))
        model.add_constr(quicksum(int(a) * x for a, x in zip(coefs, xs)) <= rhs)
    if rng.random() < 0.4:
        coefs = rng.integers(0, 3, size=n)
        if coefs.sum() > 0:
            rhs = float(rng.integers(0, 5))
            model.add_constr(
                quicksum(int(a) * x for a, x in zip(coefs, xs)) == rhs
            )
    obj = rng.integers(-5, 6, size=n)
    model.minimize(quicksum(int(p) * x for p, x in zip(obj, xs)))
    return model.to_matrix_form()


def _knapsack():
    rng = np.random.default_rng(5)
    weights = rng.integers(5, 40, size=14).tolist()
    profits = rng.integers(5, 40, size=14).tolist()
    m = Model("knapsack")
    xs = [m.add_binary(f"k{i}") for i in range(len(weights))]
    m.add_constr(
        quicksum(w * x for w, x in zip(weights, xs)) <= int(sum(weights) * 0.4)
    )
    m.maximize(quicksum(p * x for p, x in zip(profits, xs)))
    return m


def _scipy_solve(form, lb, ub):
    return linprog(
        form.c,
        A_ub=form.a_ub if form.a_ub.size else None,
        b_ub=form.b_ub if form.a_ub.size else None,
        A_eq=form.a_eq if form.a_eq.size else None,
        b_eq=form.b_eq if form.a_eq.size else None,
        bounds=np.column_stack((lb, ub)),
        method="highs",
    )


class TestRevisedSimplexVsScipy:
    def test_cold_solves_match_scipy(self):
        rng = np.random.default_rng(7)
        mismatches = 0
        for _ in range(_RNG_CASES):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            ours = engine.solve(form.lb, form.ub)
            ref = _scipy_solve(form, form.lb, form.ub)
            if ref.status == 0:
                if ours.status != "optimal" or abs(
                    ours.objective - (ref.fun + form.c0)
                ) > 1e-6:
                    mismatches += 1
            elif ref.status == 2 and ours.status != "infeasible":
                mismatches += 1
        assert mismatches == 0

    def test_warm_resolve_after_bound_change_matches_scipy(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(_RNG_CASES):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            root = engine.solve(form.lb, form.ub)
            if root.status != "optimal":
                continue
            # Branch-like bound change: floor/ceil a random column.
            j = int(rng.integers(0, form.num_vars))
            lb, ub = form.lb.copy(), form.ub.copy()
            if rng.random() < 0.5:
                ub[j] = np.floor(root.x[j])
            else:
                lb[j] = np.ceil(root.x[j] + 1e-9)
            if lb[j] > ub[j]:
                continue
            warm = engine.solve(lb, ub, basis=root.basis)
            ref = _scipy_solve(form, lb, ub)
            if warm.status == "fallback":
                continue  # numerically allowed, the solver re-solves cold
            if ref.status == 0:
                assert warm.status == "optimal"
                assert warm.objective == pytest.approx(
                    ref.fun + form.c0, abs=1e-6
                )
            elif ref.status == 2:
                assert warm.status == "infeasible"
            checked += 1
        assert checked >= _RNG_CASES // 2

    def test_optimal_point_respects_bounds_and_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            form = _random_form(rng)
            res = RevisedSimplex(form).solve(form.lb, form.ub)
            if res.status != "optimal":
                continue
            assert np.all(res.x >= form.lb - 1e-7)
            assert np.all(res.x <= form.ub + 1e-7)
            if form.a_ub.size:
                assert np.all(form.a_ub @ res.x <= form.b_ub + 1e-6)
            if form.a_eq.size:
                assert np.allclose(form.a_eq @ res.x, form.b_eq, atol=1e-6)

    def test_cutoff_prunes_only_provably_worse_nodes(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            exact = engine.solve(form.lb, form.ub)
            if exact.status != "optimal":
                continue
            above = engine.solve(form.lb, form.ub, cutoff=exact.objective + 1.0)
            assert above.status == "optimal"
            assert above.objective == pytest.approx(exact.objective, abs=1e-6)
            below = engine.solve(form.lb, form.ub, cutoff=exact.objective - 1.0)
            # Either the dual bound crossed the cutoff (proven prune) or the
            # solve finished and the caller compares objectives itself.
            if below.status == "cutoff":
                continue
            assert below.status == "optimal"
            assert below.objective >= exact.objective - 1e-6

    def test_stale_generation_basis_restarts_cleanly(self):
        rng = np.random.default_rng(23)
        form = _random_form(rng)
        engine = RevisedSimplex(form, generation=5)
        root = engine.solve(form.lb, form.ub)
        assert root.status == "optimal"
        assert root.basis is not None and root.basis.generation == 5
        stale = Basis(
            basic=root.basis.basic.copy(),
            status=root.basis.status.copy(),
            generation=4,
        )
        res = engine.solve(form.lb, form.ub, basis=stale)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(root.objective, abs=1e-9)


class TestCarriedFactorization:
    """A warm solve starts from the factorization its parent returned and
    updates it pivot by pivot; chains longer than ``refactor_every`` pivots
    must keep every answer and every inverse exact."""

    @staticmethod
    def _inverse_error(engine, basis):
        product = basis.inverse @ engine.w[:, basis.basic]
        return float(np.max(np.abs(product - np.eye(engine.m))))

    @staticmethod
    def _packing_form(rng):
        """Multi-row packing LP whose optima have many basic structurals,
        so each branch-like bound change costs dual pivots."""
        n = int(rng.integers(10, 15))
        model = Model("packing")
        xs = [model.add_var(f"x{j}", lb=0, ub=float(rng.integers(1, 4))) for j in range(n)]
        for _ in range(int(rng.integers(6, 10))):
            coefs = rng.integers(0, 10, size=n)
            model.add_constr(
                quicksum(int(a) * x for a, x in zip(coefs, xs)) <= float(coefs.sum() // 3)
            )
        coefs = rng.integers(0, 2, size=n)
        model.add_constr(quicksum(int(a) * x for a, x in zip(coefs, xs)) == 2)
        profits = rng.integers(1, 10, size=n)
        model.maximize(quicksum(int(p) * x for p, x in zip(profits, xs)))
        return model.to_matrix_form()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_chained_warm_resolves_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        form = self._packing_form(rng)
        while RevisedSimplex(form).solve(form.lb, form.ub).status != "optimal":
            form = self._packing_form(rng)
        engine = RevisedSimplex(form)
        current = engine.solve(form.lb, form.ub)
        _assert_same_solve(current, reference_solve(engine, form.lb, form.ub))
        lb, ub = form.lb.copy(), form.ub.copy()
        pivots = 0
        solves = 0
        refactored = False
        while solves < 3 * engine.refactor_every or not refactored:
            assert solves < 40 * engine.refactor_every
            # Branch-like change: move one column's bound past its value,
            # a fractional column when there is one.
            frac = np.flatnonzero(np.abs(current.x - np.round(current.x)) > 1e-6)
            j = int(rng.choice(frac)) if frac.size else int(rng.integers(0, form.num_vars))
            child_lb, child_ub = lb.copy(), ub.copy()
            value = current.x[j]
            if rng.random() < 0.5:
                child_ub[j] = np.ceil(value - 1e-9) - 1.0
            else:
                child_lb[j] = np.floor(value + 1e-9) + 1.0
            if child_lb[j] > child_ub[j]:
                continue
            result = engine.solve(child_lb, child_ub, basis=current.basis)
            _assert_same_solve(
                result, reference_solve(engine, child_lb, child_ub, basis=current.basis)
            )
            solves += 1
            pivots += result.iterations
            ref = _scipy_solve(form, child_lb, child_ub)
            if ref.status == 0:
                assert result.status == "optimal"
                assert result.objective == pytest.approx(ref.fun + form.c0, abs=1e-6)
                basis = result.basis
                assert basis.since_refactor < engine.refactor_every
                assert self._inverse_error(engine, basis) <= 1e-8
                refactored |= basis.since_refactor < current.basis.since_refactor
                current = result
                lb, ub = child_lb, child_ub
            else:
                assert ref.status == 2 and result.status == "infeasible"
            if rng.random() < 0.1 or np.all(ub - lb < 1.0):
                # Back to the root box: a loosening keeps the basis usable
                # and lets the chain run on.
                lb, ub = form.lb.copy(), form.ub.copy()
        assert pivots >= engine.refactor_every

    def test_basis_without_factorization_gives_same_answer(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            root = engine.solve(form.lb, form.ub)
            if root.status != "optimal":
                continue
            j = int(rng.integers(0, form.num_vars))
            ub = form.ub.copy()
            ub[j] = np.ceil(root.x[j] - 1e-9) - 1.0
            if ub[j] < form.lb[j]:
                continue
            carried = engine.solve(form.lb, ub, basis=root.basis)
            bare = engine.solve(form.lb, ub, basis=root.basis.without_factorization())
            assert root.basis.without_factorization().factor_bytes == 0
            assert carried.status == bare.status
            if carried.status == "optimal":
                assert carried.objective == pytest.approx(bare.objective, abs=1e-9)
                assert bare.basis.since_refactor == bare.iterations

    @staticmethod
    def _count_bare_starts(monkeypatch):
        """Spy on warm solves: one entry per call, True when the start basis
        came without a factorization."""
        bare = []
        original = RevisedSimplex.solve

        def spying(self, lb, ub, basis=None, cutoff=None):
            if basis is not None:
                bare.append(basis.inverse is None)
            return original(self, lb, ub, basis=basis, cutoff=cutoff)

        monkeypatch.setattr(RevisedSimplex, "solve", spying)
        return bare

    def test_zero_byte_cap_refactorizes_every_child(self, monkeypatch, s1):
        problem = DesignProblem(
            soc=s1, arch=TamArchitecture([16, 12, 4]), timing="serial"
        )
        bare = self._count_bare_starts(monkeypatch)
        knapsack = _knapsack().solve(cache=False)
        s1_design = design(problem, cache=False)
        assert bare and not any(bare)

        monkeypatch.setattr(branch_and_bound, "_FACTOR_BYTES_CAP", 0)
        bare.clear()
        knapsack_capped = _knapsack().solve(cache=False)
        s1_capped = design(problem, cache=False)

        assert knapsack_capped.objective == pytest.approx(knapsack.objective)
        assert s1_capped.makespan == pytest.approx(s1_design.makespan)
        # Every node solved off the heap (all but the root LP) started from
        # a bare basis and refactorized.
        heap_nodes = knapsack_capped.stats.nodes + s1_capped.stats.nodes - 2
        assert sum(bare) == heap_nodes > 0


def _assert_same_solve(ours, ref):
    """Pivot-for-pivot agreement: status, pivots, objective, point, basis."""
    assert ours.status == ref.status
    assert ours.iterations == ref.iterations
    if ref.objective is None:
        assert ours.objective is None
    else:
        assert ours.objective == pytest.approx(ref.objective, rel=1e-12, abs=1e-12)
    if ref.x is None:
        assert ours.x is None
    else:
        np.testing.assert_allclose(ours.x, ref.x, rtol=0.0, atol=1e-12)
    if ref.basis is not None:
        assert np.array_equal(ours.basis.basic, ref.basis.basic)
        assert np.array_equal(ours.basis.status, ref.basis.status)
        # Queued bases store one byte of status per column.
        assert ours.basis.status.dtype == np.int8
        assert ours.basis.since_refactor == ref.basis.since_refactor


class TestPivotIdentity:
    """The engine against :func:`reference_solve` on the same inputs (the
    warm-solve chains of :class:`TestCarriedFactorization` check it too)."""

    def test_s3_node_lps(self, monkeypatch):
        """Every LP of one S3 design, recorded and replayed on both."""
        calls = []
        original = RevisedSimplex.solve

        def recording(self, lb, ub, basis=None, cutoff=None):
            calls.append((self, lb.copy(), ub.copy(), basis, cutoff))
            return original(self, lb, ub, basis=basis, cutoff=cutoff)

        monkeypatch.setattr(RevisedSimplex, "solve", recording)
        problem = DesignProblem(
            soc=build_s3(), arch=TamArchitecture([24, 11, 6]), timing="serial"
        )
        design(problem, cache=False)
        monkeypatch.undo()
        assert len(calls) > 100
        assert sum(basis is not None for _, _, _, basis, _ in calls) > 100
        pivots = 0
        statuses = set()
        for engine, lb, ub, basis, cutoff in calls:
            ours = engine.solve(lb, ub, basis=basis, cutoff=cutoff)
            _assert_same_solve(ours, reference_solve(engine, lb, ub, basis=basis, cutoff=cutoff))
            pivots += ours.iterations
            statuses.add(ours.status)
        assert pivots > len(calls)
        assert statuses >= {"optimal", "cutoff"}


class TestResidualCheck:
    """The warm engine's safety net reads every working row, cuts included.

    Rows: ``x0 + x1 <= 4``, ``x1 + x2 = 3`` and the cut ``x2 - x0 <= 0.5``;
    each point below breaks exactly one bound or row by ``eps``.
    """

    POINTS = {
        "lower bound": lambda eps: (-eps, 2.6, 0.4),
        "upper bound": lambda eps: (1.6, 1.0 - eps, 2.0 + eps),
        "<= row": lambda eps: (1.5 + eps, 2.5, 0.5),
        "= row, above": lambda eps: (1.0, 2.0, 1.0 + eps),
        "= row, below": lambda eps: (1.0, 2.0, 1.0 - eps),
        "cut row": lambda eps: (1.0, 1.5 - eps, 1.5 + eps),
    }

    @staticmethod
    def _solver(with_cut: bool) -> BranchAndBoundSolver:
        m = Model("residual")
        x0 = m.add_var("x0", lb=0, ub=10)
        x1 = m.add_var("x1", lb=0, ub=10)
        x2 = m.add_var("x2", lb=0, ub=2)
        m.add_constr(x0 + x1 <= 4)
        m.add_constr(x1 + x2 == 3)
        m.minimize(x0 + x1 + x2)
        solver = BranchAndBoundSolver(m, cut_policy=CutPolicy())
        solver._bind_form(solver._orig_form)
        if with_cut:
            solver._cuts.append(Cut(cols=(0, 2), coefs=(-1.0, 1.0), rhs=0.5))
            solver._rebuild_with_cuts()
        return solver

    def _ok(self, solver, point) -> bool:
        form = solver._form
        return solver._warm_point_ok(np.array(point), form.lb, form.ub)

    @pytest.mark.parametrize("where", sorted(POINTS))
    def test_violation_by_2e6_is_rejected(self, where):
        solver = self._solver(with_cut=True)
        assert self._ok(solver, (1.0, 2.0, 1.0))
        assert not self._ok(solver, self.POINTS[where](2e-6))

    @pytest.mark.parametrize("where", sorted(POINTS))
    def test_violation_within_1e7_is_accepted(self, where):
        assert self._ok(self._solver(with_cut=True), self.POINTS[where](1e-7))

    def test_cut_rows_join_after_rebuild(self):
        cut_point = self.POINTS["cut row"](2e-6)
        assert self._ok(self._solver(with_cut=False), cut_point)
        assert not self._ok(self._solver(with_cut=True), cut_point)


def _warm_and_cold(model_factory):
    """The same model solved by warm B&B and cold by HiGHS."""
    warm = model_factory().solve(cache=False)
    cold = model_factory().solve(cache=False, backend="scipy")
    return warm, cold


class TestWarmStartedBranchAndBound:
    def test_warm_matches_cold_on_knapsack(self):
        warm, cold = _warm_and_cold(_knapsack)
        assert warm.status is Status.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats.warm_lp_solves > 0
        assert warm.stats.warm_lp_fallbacks == 0

    def test_warm_matches_cold_on_integer_bounds(self):
        def factory():
            m = Model()
            x = m.add_var("x", lb=1, ub=9, vartype=INTEGER)
            y = m.add_var("y", lb=0, ub=9, vartype=INTEGER)
            m.add_constr(3 * x + 5 * y <= 34)
            m.add_constr(2 * x - y >= 1)
            m.maximize(4 * x + 7 * y)
            return m

        warm, cold = _warm_and_cold(factory)
        assert warm.objective == pytest.approx(cold.objective)

    def test_seeded_s1_sweep_matches_cold_resolves(self, s1):
        """The acceptance sweep: warm-started node LPs reach the same
        optima as cold HiGHS solves across an S1 width sweep."""
        warm_points = width_sweep(s1, 2, [8, 12, 16], timing="serial")
        cold_points = width_sweep(s1, 2, [8, 12, 16], timing="serial", backend="scipy")
        assert len(warm_points) == len(cold_points)
        for wp, cp in zip(warm_points, cold_points):
            assert wp.makespan == pytest.approx(cp.makespan)
        warm_total = sum(p.telemetry.warm_lp_solves for p in warm_points)
        fallbacks = sum(p.telemetry.warm_lp_fallbacks for p in warm_points)
        assert warm_total > 0
        # Fallbacks are allowed but must stay the exception.
        assert fallbacks <= warm_total // 10

    def test_power_constrained_design_warm_equals_cold(self, s1, arch3):
        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial", power_budget=3500.0
        )
        warm = design(problem, cache=False)
        cold = design(problem, backend="scipy", cache=False)
        assert warm.makespan == pytest.approx(cold.makespan)
        assert warm.stats.warm_lp_solves > 0
