"""Node presolve for branch and bound: bound propagation + reduced-cost fixing.

Two families of tightenings run before (or instead of) a node's LP solve:

- **Integer bound propagation** (:func:`propagate_bounds`): classic activity
  reasoning over every row. For a row ``sum a_j x_j <= b`` with minimum
  activity ``m`` (each term at its cheapest bound), any variable with
  ``a_j > 0`` must satisfy ``x_j <= lb_j + (b - m) / a_j`` — and integer
  columns round that down. Equality rows participate as two inequalities,
  and when an incumbent exists the objective itself joins as the cutoff row
  ``c x <= z_inc - gap_tol - c0``, which is where most of the pruning power
  comes from on the TAM models (a core whose per-bus test time exceeds the
  incumbent can no longer ride that bus). A negative row slack proves the
  node infeasible with no LP solve at all.

- **Reduced-cost fixing** (:func:`reduced_cost_tighten`): with the root LP's
  reduced costs ``d`` and an incumbent cutoff ``z``, LP duality gives
  ``obj(x) >= z_root + d_j (x_j - root_lb_j)`` for any ``x`` feasible in the
  root relaxation, so a nonbasic-at-lower column with ``d_j > 0`` can move
  up by at most ``(z - z_root) / d_j`` before it cannot beat the incumbent
  (symmetrically for columns at their upper bound). The bounds are valid for
  the whole tree, so the solver applies them globally and re-applies them
  every time the incumbent improves.

Everything is vectorized: the per-:class:`~repro.ilp.model.MatrixForm` row
tables are precomputed once (:class:`PropagationTables`, owned by the LP
workspace) as a sparse layout of the nonzeros, and a propagation round
costs O(nonzeros + columns) numpy work with no Python loop over rows or
columns.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ilp.model import MatrixForm

#: Clamp for infinite bounds inside activity arithmetic: big enough that no
#: real tightening is ever produced from a clamped bound, small enough that
#: products with row coefficients stay exact in float64.
_BIG = 1e15

#: Kind tags for recorded tightenings (shared with the delta-bound nodes).
LB_TIGHTENED = 0
UB_TIGHTENED = 1


class PropagationTables:
    """Sparse row tables for bound propagation over one ``MatrixForm``.

    The propagation matrix stacks ``A_ub``, both directions of ``A_eq``, and
    (when the objective has support) the objective row, whose right-hand
    side is the incumbent cutoff supplied per call. Only its nonzeros are
    kept, in the layout one propagation round wants.

    Every nonzero ``a`` in row ``i``, column ``j`` tightens one bound of
    ``x_j``: the upper bound when ``a > 0`` (from ``lb_j``), the lower bound
    when ``a < 0`` (from ``ub_j``). A round keeps the bounds in one array
    ``box = [lb, -ub]`` so that both kinds read the same way — the bound a
    nonzero starts from is ``box[own]``, its activity term is
    ``|a| * box[own]`` and its candidate ``box[own] + slack_i / |a|``,
    where a lower-bound candidate comes out negated. Nonzeros are grouped
    by the bound they tighten (upper bounds by column, then lower bounds
    by column), so each bound's best candidate is one segment minimum.

    What depends on the form alone is computed here once: the per-segment
    integer flag under the form's integer mask, and the infeasibility limit
    ``-tol * (1 + |rhs|)`` of every row but the objective row (whose
    right-hand side is the per-call cutoff). ``tol`` is the propagation
    tolerance every call on these tables uses.
    """

    def __init__(self, form: MatrixForm, tol: float = 1e-6):
        n = form.num_vars
        blocks: list[np.ndarray] = []
        rhs_blocks: list[np.ndarray] = []
        if form.a_ub.size:
            blocks.append(form.a_ub)
            rhs_blocks.append(form.b_ub)
        if form.a_eq.size:
            blocks.append(form.a_eq)
            rhs_blocks.append(form.b_eq)
            blocks.append(-form.a_eq)
            rhs_blocks.append(-form.b_eq)
        self.has_objective_row = bool(np.any(form.c))
        if self.has_objective_row:
            blocks.append(form.c.reshape(1, n))
            rhs_blocks.append(np.array([math.inf]))
        self.c0 = form.c0
        self.num_vars = n
        rows = np.vstack(blocks) if blocks else np.zeros((0, n))
        self.rhs = np.concatenate(rhs_blocks) if rhs_blocks else np.zeros(0)

        row, col = np.nonzero(rows)
        value = rows[row, col]
        # ``own``: the ``box`` index of the bound a nonzero starts from,
        # ``lb_j`` (j) when a > 0 and ``-ub_j`` (n + j) when a < 0, which
        # is also the bound it tightens on the other side. The stable sort
        # groups nonzeros by it and keeps rows ascending within a group.
        own = col + (value < 0.0) * n
        order = np.argsort(own, kind="stable")
        self.row = row[order]
        self.own = own[order]
        self.magnitude = np.abs(value[order])
        self.inv = 1.0 / self.magnitude
        self.starts = np.flatnonzero(np.diff(self.own, prepend=-1))
        # Per segment: its column, and the ``box`` index of the bound it
        # tightens (``-ub_j`` at n + j for a > 0, ``lb_j`` at j for a < 0).
        seg_own = self.own[self.starts]
        upper = seg_own < n
        self.seg_col = np.where(upper, seg_own, seg_own - n)
        self.seg_target = np.where(upper, seg_own + n, seg_own - n)
        #: ``(column, tightens ub)`` per segment, for the change records.
        self.seg_records = list(zip(self.seg_col.tolist(), upper.tolist()))
        #: Per segment, whether its column is integer.
        self.seg_integer = form.integer_mask[self.seg_col]
        self.tol = tol
        #: A row slack below its limit proves the node infeasible. The
        #: objective row's entry is a placeholder; each call sets its own.
        self.limit = -tol * (1.0 + np.abs(self.rhs))

    @property
    def num_rows(self) -> int:
        return self.rhs.shape[0]


def propagate_bounds(
    tables: PropagationTables,
    lb: np.ndarray,
    ub: np.ndarray,
    cutoff: float | None = None,
    max_rounds: int = 4,
) -> tuple[bool, list[tuple[int, int, float]]]:
    """Tighten ``lb``/``ub`` in place; returns ``(feasible, tightenings)``.

    ``cutoff`` is an objective-value cutoff (incumbent minus gap tolerance,
    in the solved minimization sense *including* the constant offset); when
    given and the form has an objective row, solutions at least that bad are
    propagated away. Each recorded tightening is ``(column, kind, value)``
    with ``kind`` one of :data:`LB_TIGHTENED` / :data:`UB_TIGHTENED` — the
    exact delta layout the branch-and-bound node chains store. Upper-bound
    tightenings of a round come first, each kind in column order. Integer
    columns of the tables' form round their bounds, within the tables'
    ``tol``. A round costs O(nonzeros + columns).
    """
    if tables.num_rows == 0:
        return True, []
    rhs, limit, tol = tables.rhs, tables.limit, tables.tol
    if tables.has_objective_row:
        bound = math.inf if cutoff is None else cutoff - tables.c0
        rhs = rhs.copy()
        rhs[-1] = bound
        limit = limit.copy()
        limit[-1] = -tol * (1.0 + abs(bound))
    changes: list[tuple[int, int, float]] = []
    n = tables.num_vars
    box = np.concatenate((lb, -ub))
    np.maximum(box, -_BIG, out=box)
    np.minimum(box, _BIG, out=box)
    clb, neg_cub = box[:n], box[n:]
    row, own, magnitude, inv = tables.row, tables.own, tables.magnitude, tables.inv
    if row.size == 0:
        return not np.count_nonzero(rhs < limit), changes
    starts, target, records = tables.starts, tables.seg_target, tables.seg_records
    integer = tables.seg_integer
    for _ in range(max_rounds):
        start = box[own]
        slack = rhs - np.bincount(row, magnitude * start, minlength=rhs.shape[0])
        if np.count_nonzero(slack < limit):
            return False, changes
        best = np.minimum.reduceat(start + slack[row] * inv, starts)
        np.floor(best + tol, out=best, where=integer)
        improved = (best < -tol - box[target]).nonzero()[0]
        if improved.size == 0:
            break
        values = best[improved]
        box[target[improved]] = -values
        for s, value in zip(improved.tolist(), values.tolist()):
            j, upper = records[s]
            if upper:
                ub[j] = value
                changes.append((j, UB_TIGHTENED, value))
            else:
                lb[j] = -value
                changes.append((j, LB_TIGHTENED, -value))
        if np.count_nonzero(clb > tol - neg_cub):
            return False, changes
    return True, changes


def reduced_cost_tighten(
    reduced_costs: np.ndarray,
    root_lb: np.ndarray,
    root_ub: np.ndarray,
    root_objective: float,
    cutoff: float,
    lb: np.ndarray,
    ub: np.ndarray,
    integer_mask: np.ndarray,
    eps: float = 1e-7,
    tol: float = 1e-6,
) -> int:
    """Reduced-cost fixing against ``cutoff``; tightens ``lb``/``ub`` in place.

    ``root_lb``/``root_ub`` are the bounds the root LP was solved under and
    ``root_objective`` its optimum (minimization sense). Only integer columns
    are tightened — the rounding is where fixing beats plain dual bounds.
    Returns the number of bounds tightened; resulting ``lb > ub`` simply
    means no improving solution touches that column range, which the caller
    treats as a (correct) subtree prune.
    """
    gap = cutoff - root_objective
    if not np.isfinite(gap) or gap < 0.0:
        return 0
    tightened = 0
    up_cols = np.flatnonzero(
        integer_mask & (reduced_costs > eps) & np.isfinite(root_lb)
    )
    if up_cols.size:
        cand = root_lb[up_cols] + np.floor(gap / reduced_costs[up_cols] + tol)
        better = cand < ub[up_cols] - 0.5
        cols = up_cols[better]
        ub[cols] = cand[better]
        tightened += int(cols.size)
    down_cols = np.flatnonzero(
        integer_mask & (reduced_costs < -eps) & np.isfinite(root_ub)
    )
    if down_cols.size:
        cand = root_ub[down_cols] - np.floor(gap / -reduced_costs[down_cols] + tol)
        better = cand > lb[down_cols] + 0.5
        cols = down_cols[better]
        lb[cols] = cand[better]
        tightened += int(cols.size)
    return tightened
