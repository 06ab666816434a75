"""From-scratch LP engine: a bounded-variable revised dual simplex.

:class:`RevisedSimplex` exposes and accepts a :class:`Basis`. Branch and
bound re-solves a child node's LP warm from the parent basis: a child
differs from its parent by bound tightenings only, which leave the parent's
reduced costs (and therefore dual feasibility) intact, so reoptimization
typically takes a handful of dual pivots instead of a cold solve. An
objective ``cutoff`` turns the monotone dual bound into an early node
prune, and an absolute ``deadline`` stops a long solve between two pivots.
Anything numerically doubtful — singular basis, dual infeasibility
that status flips cannot repair, tiny pivots, iteration cap — returns a
``fallback`` result and the caller re-solves cold with HiGHS (see
DESIGN.md §13).

The engine accepts the general bounded form

    min c'x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ilp.lp import LpResult
from repro.ilp.model import MatrixForm
from repro.obs import now

#: Nonbasic-at-lower / nonbasic-at-upper / nonbasic-free / basic.
NB_LOWER, NB_UPPER, NB_FREE, IN_BASIS = 0, 1, 2, 3

#: Entering direction per status: +1 off the lower bound, -1 off the upper
#: bound, 0 for free and basic columns (free columns are handled apart).
_DIRECTION = np.array([1.0, -1.0, 0.0, 0.0])

#: Dual-feasibility / pivot-eligibility tolerance.
_DTOL = 1e-9
#: Reduced-cost slack before a nonbasic column counts as mispriced.
_PRICE_TOL = _DTOL * 10
#: Primal feasibility tolerance for basic values.
_PTOL = 1e-7


@dataclass
class Basis:
    """A simplex basis snapshot, shareable between parent and child nodes.

    ``basic[r]`` is the column (structural then slack) basic in row ``r``;
    ``status`` tags every column. ``generation`` identifies the constraint
    matrix the basis was factorized against — cut rounds rebuild the matrix
    and bump the engine's generation, which invalidates stale bases.

    A basis returned by :meth:`RevisedSimplex.solve` also carries its
    factorization: the dense ``inverse`` of the basis matrix, the
    ``reduced_costs`` of every column, and ``since_refactor``, the pivots
    made since that inverse was last computed from scratch (counted along
    the whole chain of warm solves that produced it). A child solve starts
    from a copy of these instead of re-inverting and re-pricing. They are
    optional: a basis without them (see :meth:`without_factorization`)
    names the same vertex and the solve simply refactorizes.
    """

    basic: np.ndarray
    status: np.ndarray
    generation: int = 0
    inverse: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    since_refactor: int = 0

    @property
    def factor_bytes(self) -> int:
        """Bytes held by the carried factorization (0 without one)."""
        if self.inverse is None or self.reduced_costs is None:
            return 0
        return self.inverse.nbytes + self.reduced_costs.nbytes

    def without_factorization(self) -> Basis:
        """The same basis, minus the inverse and reduced costs."""
        return Basis(basic=self.basic, status=self.status, generation=self.generation)


class RevisedSimplex:
    """Bounded-variable revised dual simplex over one constraint matrix.

    Built once per ``MatrixForm``: the working matrix is ``W = [A | I]``
    with one slack per row (``<=`` rows get a ``[0, inf)`` slack, equality
    rows a ``[0, 0]`` one), so only the variable bounds change between
    solves. ``solve`` accepts per-node ``lb``/``ub`` overrides plus an
    optional parent :class:`Basis`. The basis inverse is kept dense and
    explicit; each pivot updates it, the reduced costs and the basic values
    by rank-one formulas, and every ``refactor_every`` pivots (counted
    across warm solves, see :attr:`Basis.since_refactor`) all three are
    recomputed from scratch so rounding drift stays bounded.

    The models it serves are small (tens of rows, under a hundred columns),
    so a solve costs what its NumPy calls cost, not the arithmetic inside
    them; the engine keeps their number down: nonbasic columns carry one
    entering-direction array, the bounds live in a buffer the engine owns,
    and column q of ``W`` is read as a contiguous row of ``W^T``.
    """

    def __init__(
        self,
        form: MatrixForm,
        generation: int = 0,
        max_iter: int = 5000,
        refactor_every: int = 40,
    ):
        n = form.num_vars
        m_ub = form.a_ub.shape[0] if form.a_ub.size else 0
        m_eq = form.a_eq.shape[0] if form.a_eq.size else 0
        m = m_ub + m_eq
        blocks = []
        rhs = []
        if m_ub:
            blocks.append(form.a_ub)
            rhs.append(form.b_ub)
        if m_eq:
            blocks.append(form.a_eq)
            rhs.append(form.b_eq)
        a = np.vstack(blocks) if blocks else np.zeros((0, n))
        self.w = np.hstack([a, np.eye(m)]) if m else np.zeros((0, n))
        #: ``W`` transposed and contiguous: row q is column q of ``W``.
        self.wt = np.ascontiguousarray(self.w.T)
        self.b = np.concatenate(rhs) if rhs else np.zeros(0)
        self.c = np.concatenate([form.c.astype(float), np.zeros(m)])
        self.c0 = float(form.c0)
        self.n = n
        self.m = m
        self.slack_lb = np.zeros(m)
        self.slack_ub = np.concatenate([np.full(m_ub, math.inf), np.zeros(m_eq)])
        # Bounds of every column, one row per status: the ``NB_LOWER`` and
        # ``NB_UPPER`` rows hold the lower and upper bounds, the ``NB_FREE``
        # and ``IN_BASIS`` rows zeros, so ``_bounds[status, column]`` is each
        # nonbasic column's value. Slack bounds are written once; ``solve``
        # writes the structural ones, so one engine serves one solve at a time.
        self._bounds = np.zeros((4, n + m))
        self._bounds[NB_LOWER, n:] = self.slack_lb
        self._bounds[NB_UPPER, n:] = self.slack_ub
        self._columns = np.arange(n + m)
        self.generation = generation
        self.max_iter = max_iter
        self.refactor_every = refactor_every

    # ------------------------------------------------------------------ basis
    def initial_basis(self, lb: np.ndarray, ub: np.ndarray) -> Basis | None:
        """The all-slack basis with dual-feasible nonbasic statuses.

        With every slack basic the dual prices are zero and each structural
        reduced cost equals its objective coefficient, so dual feasibility
        is a matter of parking each column at the right bound: positive
        cost at the lower bound, negative at the upper. A column that needs
        an infinite bound for that cannot be made dual feasible here —
        returns ``None`` and the caller solves cold. The basis matrix is the
        identity, so the factorization comes for free.
        """
        n, m = self.n, self.m
        status = np.empty(n + m, dtype=np.int8)
        c = self.c[:n]
        lo_ok = np.isfinite(lb)
        up_ok = np.isfinite(ub)
        status[:n] = np.where(
            c > _DTOL,
            NB_LOWER,
            np.where(
                c < -_DTOL,
                NB_UPPER,
                np.where(lo_ok, NB_LOWER, np.where(up_ok, NB_UPPER, NB_FREE)),
            ),
        )
        bad = ((status[:n] == NB_LOWER) & ~lo_ok) | ((status[:n] == NB_UPPER) & ~up_ok)
        if bad.any():
            return None
        status[n:] = IN_BASIS
        return Basis(
            basic=np.arange(n, n + m),
            status=status,
            generation=self.generation,
            inverse=np.eye(m),
            reduced_costs=self.c.copy(),
        )

    def _factorize(self, bas: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Basis inverse and reduced costs from scratch; None if singular."""
        try:
            binv = np.linalg.inv(self.w[:, bas])
        except np.linalg.LinAlgError:
            return None
        return binv, self.c - (self.c[bas] @ binv) @ self.w

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Basis | None = None,
        cutoff: float | None = None,
        deadline: float | None = None,
    ) -> LpResult:
        """Reoptimize under new bounds, warm from ``basis`` when possible.

        A stale-generation (or absent) basis falls back to the all-slack
        start; a basis without a factorization is refactorized. ``cutoff``
        is an objective value (including the constant offset): the dual
        objective is a monotone lower bound, so the solve stops with
        ``"cutoff"`` as soon as it crosses — the caller prunes the node
        without finishing the LP. ``deadline`` is a :func:`repro.obs.now`
        reading: a solve that still needs a pivot past it stops with
        ``"deadline"`` and no point. ``"fallback"`` means numerical
        trouble: re-solve cold.
        """
        n, m = self.n, self.m
        if np.count_nonzero(lb > ub):
            return LpResult("infeasible", None, None)
        if m == 0:
            return self._solve_unconstrained(lb, ub)
        if basis is None or basis.generation != self.generation:
            basis = self.initial_basis(lb, ub)
            if basis is None:
                return LpResult("fallback", None, None)
        bounds = self._bounds
        bounds[NB_LOWER, :n] = lb
        bounds[NB_UPPER, :n] = ub
        big_l, big_u = bounds[NB_LOWER], bounds[NB_UPPER]
        bas = basis.basic.copy()
        status = basis.status.astype(np.intp)
        status[bas] = IN_BASIS
        if basis.inverse is not None and basis.reduced_costs is not None:
            binv = basis.inverse.copy()
            d = basis.reduced_costs.copy()
            since_refactor = basis.since_refactor
        else:
            factor = self._factorize(bas)
            if factor is None:
                return LpResult("fallback", None, None)
            binv, d = factor
            since_refactor = 0

        # ``dirn`` says which nonbasic columns may enter the basis and in
        # which direction: +1 off the lower bound, -1 off the upper, 0 for
        # basic and fixed columns; it tracks ``status`` pivot by pivot. A
        # column whose reduced cost prices it out of its bound
        # (``dirn * d < 0``) flips to the other one; unfixable columns bail.
        movable = big_u - big_l > _DTOL
        dirn = _DIRECTION.take(status)
        dirn *= movable
        flip = dirn * d < -_PRICE_TOL
        if np.count_nonzero(flip):
            to_upper = flip & (dirn > 0.0)
            to_lower = flip & (dirn < 0.0)
            if not (np.isfinite(big_u[to_upper]).all() and np.isfinite(big_l[to_lower]).all()):
                return LpResult("fallback", None, None)
            status[to_upper] = NB_UPPER
            status[to_lower] = NB_LOWER
            np.negative(dirn, out=dirn, where=flip)
        free = status == NB_FREE
        any_free = bool(np.count_nonzero(free))
        if any_free:
            if (np.abs(d[free]) > _PRICE_TOL).any():
                return LpResult("fallback", None, None)
            free &= movable

        # One gather: the bound rows for columns at a bound, 0 otherwise.
        nb_value = bounds[status, self._columns]
        if np.count_nonzero(np.isfinite(nb_value)) != n + m:
            return LpResult("fallback", None, None)
        c, w, wt = self.c, self.w, self.wt
        xb = binv.dot(self.b - w.dot(nb_value))
        l_bas = big_l[bas]
        u_bas = big_u[bas]
        c_bas = c[bas]

        iterations = 0
        while iterations < self.max_iter:
            if cutoff is not None:
                objective = float(c_bas.dot(xb) + c.dot(nb_value)) + self.c0
                if objective > cutoff + 1e-9:
                    return LpResult("cutoff", None, objective, iterations)

            below = l_bas - xb
            above = xb - u_bas
            viol = np.maximum(below, above)
            r = int(viol.argmax())
            if viol[r] <= _PTOL * (1.0 + abs(xb[r])):
                if cutoff is None:
                    objective = float(c_bas.dot(xb) + c.dot(nb_value)) + self.c0
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
                        status=status.astype(np.int8),
                        generation=self.generation,
                        inverse=binv,
                        reduced_costs=d,
                        since_refactor=since_refactor,
                    ),
                )
            if deadline is not None and now() > deadline:
                return LpResult("deadline", None, None, iterations)

            # Dual ratio test over row r of B^-1 W. Leaving below its lower
            # bound, a column may enter when moving it off its bound lowers
            # row r (``dirn * alpha < 0``); leaving above its upper bound,
            # when it raises it. Free columns may enter either way.
            leaving_low = bool(below[r] >= above[r])
            alpha = binv[r].dot(w)
            slope = alpha * dirn
            eligible = slope < -_DTOL if leaving_low else slope > _DTOL
            if any_free:
                eligible |= free & (np.abs(alpha) > _DTOL)
            cand = eligible.nonzero()[0]
            if cand.size == 0:
                return LpResult("infeasible", None, None, iterations)
            q = int(cand[np.abs(d[cand] / alpha[cand]).argmin()])
            pivot = alpha[q]
            if abs(pivot) < 1e-11:
                return LpResult("fallback", None, None, iterations)

            # Rank-one updates: reduced costs along row r, basic values
            # along column q (the leaving column lands on its violated
            # bound), and the inverse by one product-form pivot, whose
            # outer product is a k=1 matrix product (same bits, one call).
            leaving = int(bas[r])
            bound = big_l[leaving] if leaving_low else big_u[leaving]
            d -= (d[q] / pivot) * alpha
            d[q] = 0.0
            col = binv.dot(wt[q])
            step = (xb[r] - bound) / pivot
            xb -= step * col
            xb[r] = nb_value[q] + step
            row = binv[r] / pivot
            binv -= col[:, None].dot(row[None])
            binv[r] = row

            status[leaving] = NB_LOWER if leaving_low else NB_UPPER
            nb_value[leaving] = bound
            if movable[leaving]:
                dirn[leaving] = 1.0 if leaving_low else -1.0
            status[q] = IN_BASIS
            nb_value[q] = 0.0
            dirn[q] = 0.0
            if any_free:
                free[q] = False
            bas[r] = q
            l_bas[r] = big_l[q]
            u_bas[r] = big_u[q]
            c_bas[r] = c[q]
            iterations += 1
            since_refactor += 1
            if since_refactor >= self.refactor_every:
                factor = self._factorize(bas)
                if factor is None:
                    return LpResult("fallback", None, None, iterations)
                binv, d = factor
                xb = binv.dot(self.b - w.dot(nb_value))
                since_refactor = 0
        return LpResult("fallback", None, None, iterations)

    def _solve_unconstrained(self, lb: np.ndarray, ub: np.ndarray) -> LpResult:
        """No rows: each column sits at whichever bound its cost prefers."""
        c = self.c[: self.n]
        x = np.where(c > 0.0, lb, np.where(c < 0.0, ub, np.where(np.isfinite(lb), lb, 0.0)))
        if not np.all(np.isfinite(x)):
            return LpResult("unbounded" if np.any(c != 0.0) else "fallback", None, None)
        status = np.where(x == lb, NB_LOWER, NB_UPPER).astype(np.int8)
        return LpResult(
            "optimal",
            x.astype(float),
            float(c @ x) + self.c0,
            0,
            reduced_costs=c.copy(),
            basis=Basis(basic=np.zeros(0, dtype=int), status=status, generation=self.generation),
        )
