"""Root presolve: whole-model reductions before the branch-and-bound search.

Where :mod:`repro.ilp.presolve` tightens *bounds* per node, this module
shrinks the *model* once at the root, in up to ``rounds`` passes of these
reductions:

- **Bound tightening** — the node propagator (:func:`propagate_bounds`)
  run over the whole model, so later reductions see the tightest box.
- **Dual fixing** — a column whose objective coefficient and every
  ``A_ub`` coefficient share a sign, and which is absent from ``A_eq``,
  can be pushed to its cheap bound without losing any optimum: moving it
  that way never costs feasibility and never costs objective.
- **Coefficient tightening** — for a unit-width integer column in a
  ``<=`` row, when the row's maximum activity exceeds the rhs by less
  than the column's contribution range, the coefficient (and rhs) shrink
  to the point where the row is exactly as strong at both integer values
  but strictly stronger at fractional LP points.
- **Row cleanup** — empty rows are dropped (or prove infeasibility),
  rows whose maximum activity already satisfies the rhs are dropped, and
  coefficient-identical duplicate rows collapse to the strongest copy
  (equality duplicates with different rhs prove infeasibility).

Every reduction preserves at least one optimal solution of the *integer*
program, and :class:`Postsolve` maps any reduced-space point back to an
exactly feasible original-space point — fixed columns get their recorded
values. The branch-and-bound solver keeps its cache keys, checkpoints, and
matrix fingerprints in original space, so presolve settings never leak
into stored artifacts (see DESIGN.md §13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ilp.model import MatrixForm
from repro.ilp.presolve import PropagationTables, propagate_bounds

_TOL = 1e-6

#: Bounds beyond this magnitude are treated as infinite in activity sums.
_ACT_BIG = 1e14


@dataclass
class Postsolve:
    """Maps reduced-space solutions back to the original variable space.

    ``kept[r]`` is the original index of reduced column ``r``; ``records``
    holds ``(original column, value)`` for every column presolve fixed.
    """

    num_vars: int
    kept: np.ndarray
    records: list[tuple] = field(default_factory=list)

    @property
    def identity(self) -> bool:
        """True when presolve removed nothing (restore is a copy)."""
        return not self.records and self.kept.size == self.num_vars

    def restore(self, x_reduced: np.ndarray) -> np.ndarray:
        """An original-space vector whose objective equals the reduced one."""
        x = np.full(self.num_vars, np.nan)
        if self.kept.size:
            x[self.kept] = x_reduced
        for j, value in self.records:
            x[j] = value
        if np.isnan(x).any():  # pragma: no cover - internal invariant
            missing = np.flatnonzero(np.isnan(x))
            raise RuntimeError(f"postsolve left columns unrestored: {missing.tolist()}")
        return x

    def reduce(self, x_full: np.ndarray) -> np.ndarray:
        """Project an original-space point (e.g. a warm incumbent) down."""
        return np.asarray(x_full, dtype=float)[self.kept]


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve_root`.

    ``status`` is ``"reduced"`` (possibly an identity reduction) or
    ``"infeasible"`` when a reduction proved the model has no feasible
    point — in which case ``form`` is the partially reduced model and must
    not be solved.
    """

    status: str
    form: MatrixForm
    postsolve: Postsolve
    stats: dict[str, int]


class _Reducer:
    """Mutable working copy of a model while reductions run.

    Columns compact eagerly (``orig`` tracks reduced → original indices);
    row removals batch per cleanup step. All scans run in index order so
    the reduction sequence — and therefore the reduced model — is
    deterministic for a given input.
    """

    #: The reductions of one pass, in the order they run.
    REDUCTIONS = ("tighten_bounds", "sweep_fixed", "dual_fix", "coeff_tighten", "row_cleanup")

    def __init__(self, form: MatrixForm):
        self.c = form.c.astype(float).copy()
        self.c0 = float(form.c0)
        self.a_ub = form.a_ub.astype(float).copy() if form.a_ub.size else np.zeros((0, form.num_vars))
        self.b_ub = form.b_ub.astype(float).copy() if form.b_ub.size else np.zeros(0)
        self.a_eq = form.a_eq.astype(float).copy() if form.a_eq.size else np.zeros((0, form.num_vars))
        self.b_eq = form.b_eq.astype(float).copy() if form.b_eq.size else np.zeros(0)
        self.lb = form.lb.astype(float).copy()
        self.ub = form.ub.astype(float).copy()
        self.integer_mask = form.integer_mask.copy()
        self.orig = np.arange(form.num_vars)
        self.records: list[tuple] = []
        self.stats = {
            "rounds": 0,
            "bounds_tightened": 0,
            "dual_fixed": 0,
            "coeffs_tightened": 0,
            "rows_removed": 0,
            "cols_removed": 0,
        }
        self.infeasible = False

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    def snapshot(self) -> MatrixForm:
        return MatrixForm(
            c=self.c,
            c0=self.c0,
            a_ub=self.a_ub,
            b_ub=self.b_ub,
            a_eq=self.a_eq,
            b_eq=self.b_eq,
            lb=self.lb,
            ub=self.ub,
            integer_mask=self.integer_mask,
        )

    # ------------------------------------------------------------ primitives
    def _fix_columns(self, cols: np.ndarray, values: np.ndarray) -> None:
        """Remove ``cols`` (reduced indices) at the given values."""
        if cols.size == 0:
            return
        for j, value in zip(cols.tolist(), values.tolist()):
            self.records.append((int(self.orig[j]), float(value)))
        if self.a_ub.size:
            self.b_ub -= self.a_ub[:, cols] @ values
        if self.a_eq.size:
            self.b_eq -= self.a_eq[:, cols] @ values
        self.c0 += float(self.c[cols] @ values)
        keep = np.ones(self.num_vars, dtype=bool)
        keep[cols] = False
        self._keep_columns(keep)
        self.stats["cols_removed"] += int(cols.size)

    def _keep_columns(self, keep: np.ndarray) -> None:
        self.c = self.c[keep]
        self.a_ub = self.a_ub[:, keep] if self.a_ub.size else np.zeros((self.a_ub.shape[0], int(keep.sum())))
        self.a_eq = self.a_eq[:, keep] if self.a_eq.size else np.zeros((self.a_eq.shape[0], int(keep.sum())))
        self.lb = self.lb[keep]
        self.ub = self.ub[keep]
        self.integer_mask = self.integer_mask[keep]
        self.orig = self.orig[keep]

    def _drop_ub_rows(self, drop: np.ndarray) -> None:
        if drop.any():
            keep = ~drop
            self.a_ub = self.a_ub[keep]
            self.b_ub = self.b_ub[keep]
            self.stats["rows_removed"] += int(drop.sum())

    def _drop_eq_rows(self, drop: np.ndarray) -> None:
        if drop.any():
            keep = ~drop
            self.a_eq = self.a_eq[keep]
            self.b_eq = self.b_eq[keep]
            self.stats["rows_removed"] += int(drop.sum())

    def _max_activity(self, rows: np.ndarray) -> np.ndarray:
        """Per-row maximum activity; +inf where an unbounded term blocks it."""
        pos = np.maximum(rows, 0.0)
        neg = np.minimum(rows, 0.0)
        cub = np.clip(self.ub, -_ACT_BIG, _ACT_BIG)
        clb = np.clip(self.lb, -_ACT_BIG, _ACT_BIG)
        act = pos @ cub + neg @ clb
        unbounded = ((rows > 0.0) & ~np.isfinite(self.ub)) | (
            (rows < 0.0) & ~np.isfinite(self.lb)
        )
        act[unbounded.any(axis=1)] = math.inf
        return act

    # ------------------------------------------------------------ reductions
    def tighten_bounds(self) -> None:
        tables = PropagationTables(self.snapshot(), tol=_TOL)
        feasible, changes = propagate_bounds(tables, self.lb, self.ub, max_rounds=2)
        self.stats["bounds_tightened"] += len(changes)
        if not feasible:
            self.infeasible = True

    def dual_fix(self) -> None:
        if self.num_vars == 0:
            return
        in_eq = (
            np.any(self.a_eq != 0.0, axis=0)
            if self.a_eq.size
            else np.zeros(self.num_vars, dtype=bool)
        )
        col_min = (
            np.min(self.a_ub, axis=0) if self.a_ub.size else np.zeros(self.num_vars)
        )
        col_max = (
            np.max(self.a_ub, axis=0) if self.a_ub.size else np.zeros(self.num_vars)
        )
        down = (
            ~in_eq & (col_min >= 0.0) & (self.c >= 0.0) & np.isfinite(self.lb)
        )
        up = (
            ~in_eq
            & (col_max <= 0.0)
            & (self.c <= 0.0)
            & np.isfinite(self.ub)
            & ~down
        )
        already = self.ub - self.lb <= _TOL
        down &= ~already
        up &= ~already
        count = int(down.sum() + up.sum())
        if count == 0:
            return
        self.stats["dual_fixed"] += count
        values = np.where(down, self.lb, self.ub)
        cols = np.flatnonzero(down | up)
        self._fix_columns(cols, values[cols])

    def coeff_tighten(self) -> None:
        if not self.a_ub.size or self.num_vars == 0:
            return
        unit_int = (
            self.integer_mask
            & np.isfinite(self.lb)
            & np.isfinite(self.ub)
            & (np.abs(self.ub - self.lb - 1.0) <= _TOL)
        )
        if not unit_int.any():
            return
        maxact = self._max_activity(self.a_ub)
        for i in range(self.a_ub.shape[0]):
            if not math.isfinite(maxact[i]):
                continue
            row = self.a_ub[i]
            cols = np.flatnonzero(unit_int & (row != 0.0))
            for j in cols.tolist():
                a = float(row[j])
                amag = abs(a)
                delta = float(self.b_ub[i]) - float(maxact[i]) + amag
                if delta <= _TOL or delta >= amag - _TOL:
                    continue
                new_mag = amag - delta
                if a > 0.0:
                    # y = x_j - lb: contribution floor at lb.
                    rhs_y = float(self.b_ub[i]) - a * float(self.lb[j]) - delta
                    self.a_ub[i, j] = new_mag
                    self.b_ub[i] = rhs_y + new_mag * float(self.lb[j])
                else:
                    # y = ub - x_j: contribution floor at ub.
                    rhs_y = float(self.b_ub[i]) - a * float(self.ub[j]) - delta
                    self.a_ub[i, j] = -new_mag
                    self.b_ub[i] = rhs_y - new_mag * float(self.ub[j])
                self.stats["coeffs_tightened"] += 1
                break  # one tightening per row per round; maxact is stale now

    def row_cleanup(self) -> None:
        # Guard on row counts, not .size: once every column is fixed the
        # matrices are (m, 0) with size 0, yet a residual empty row with a
        # nonzero rhs still proves infeasibility.
        if self.a_ub.shape[0]:
            empty = ~np.any(self.a_ub != 0.0, axis=1)
            if np.any(empty & (self.b_ub < -_TOL)):
                self.infeasible = True
                return
            maxact = self._max_activity(self.a_ub)
            redundant = maxact <= self.b_ub + _TOL * (1.0 + np.abs(self.b_ub))
            self._drop_ub_rows(empty | redundant)
        if self.a_ub.shape[0] > 1:
            seen: dict[bytes, int] = {}
            drop = np.zeros(self.a_ub.shape[0], dtype=bool)
            for i in range(self.a_ub.shape[0]):
                key = self.a_ub[i].tobytes()
                prev = seen.get(key)
                if prev is None:
                    seen[key] = i
                elif self.b_ub[i] < self.b_ub[prev]:
                    drop[prev] = True
                    seen[key] = i
                else:
                    drop[i] = True
            self._drop_ub_rows(drop)
        if self.a_eq.shape[0]:
            empty = ~np.any(self.a_eq != 0.0, axis=1)
            if np.any(empty & (np.abs(self.b_eq) > _TOL)):
                self.infeasible = True
                return
            self._drop_eq_rows(empty)
        if self.a_eq.shape[0] > 1:
            seen_eq: dict[bytes, int] = {}
            drop = np.zeros(self.a_eq.shape[0], dtype=bool)
            for i in range(self.a_eq.shape[0]):
                key = self.a_eq[i].tobytes()
                prev = seen_eq.get(key)
                if prev is None:
                    seen_eq[key] = i
                elif abs(self.b_eq[i] - self.b_eq[prev]) > _TOL:
                    self.infeasible = True
                    return
                else:
                    drop[i] = True
            self._drop_eq_rows(drop)

    def sweep_fixed(self) -> None:
        """Remove columns whose bounds collapsed to a point."""
        if self.num_vars == 0:
            return
        if np.any(self.lb > self.ub + _TOL):
            self.infeasible = True
            return
        fixed = np.flatnonzero(self.ub - self.lb <= _TOL)
        if fixed.size == 0:
            return
        values = self.lb[fixed].copy()
        snap = self.integer_mask[fixed]
        values[snap] = np.round(values[snap])
        self._fix_columns(fixed, values)


def presolve_root(form: MatrixForm, rounds: int) -> PresolveResult:
    """Reduce ``form`` in up to ``rounds`` passes; exact for the integer program.

    Runs up to ``rounds`` passes of every reduction and stops early
    once a pass changes nothing. The returned form is safe to hand to
    any LP/MIP solver; map its solutions back with ``result.postsolve``.
    """
    reducer = _Reducer(form)
    identity = Postsolve(num_vars=form.num_vars, kept=np.arange(form.num_vars))
    if rounds <= 0:
        return PresolveResult("reduced", form, identity, reducer.stats)
    for _ in range(rounds):
        before = (
            reducer.num_vars,
            reducer.a_ub.shape[0],
            reducer.a_eq.shape[0],
            reducer.stats["bounds_tightened"],
            reducer.stats["coeffs_tightened"],
        )
        reducer.stats["rounds"] += 1
        for reduction in reducer.REDUCTIONS:
            getattr(reducer, reduction)()
            if reducer.infeasible:
                break
        if reducer.infeasible:
            break
        after = (
            reducer.num_vars,
            reducer.a_ub.shape[0],
            reducer.a_eq.shape[0],
            reducer.stats["bounds_tightened"],
            reducer.stats["coeffs_tightened"],
        )
        if after == before:
            break
    postsolve = Postsolve(
        num_vars=form.num_vars, kept=reducer.orig, records=reducer.records
    )
    status = "infeasible" if reducer.infeasible else "reduced"
    return PresolveResult(status, reducer.snapshot(), postsolve, reducer.stats)
