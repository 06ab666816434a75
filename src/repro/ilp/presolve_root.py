"""Root presolve: the one model reduction before the branch-and-bound search.

Where :mod:`repro.ilp.presolve` tightens *bounds* per node, this module
shrinks the *model* once at the root, in three steps:

- **Bound propagation** — the node propagator (:func:`propagate_bounds`)
  run over the whole model until a round tightens nothing;
- **Fixed columns** — every column whose bounds met is removed, its value
  folded into the right-hand sides and the objective constant;
- **Row cleanup** — rows left without a column are dropped (or prove
  infeasibility), and so are ``<=`` rows whose maximum activity already
  satisfies the rhs: they cannot bind.

Propagation over the whole model sees what it would see over the reduced
one, so one pass reaches the fixed point. Every step keeps every
integer-feasible point, and :class:`Postsolve` maps a reduced-space point
back to an exactly feasible original-space point — fixed columns get their
recorded values. The branch-and-bound solver keeps its cache keys,
checkpoints, and matrix fingerprints in original space, so the reduction
never leaks into stored artifacts (see DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ilp.model import MatrixForm
from repro.ilp.presolve import PropagationTables, propagate_bounds

_TOL = 1e-6

#: Bounds beyond this magnitude are treated as infinite in activity sums.
_ACT_BIG = 1e14

#: Cap on propagation rounds. TAM models reach the fixed point in two or
#: three; the cap only stops a continuous column that creeps in tiny steps.
_MAX_ROUNDS = 64


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
    ``"infeasible"`` when a step proved the model has no feasible point —
    in which case ``form`` must not be solved.
    """

    status: str
    form: MatrixForm
    postsolve: Postsolve
    stats: dict[str, int]


def _max_activity(rows: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Per-row maximum activity; +inf where an unbounded term blocks it."""
    act = np.maximum(rows, 0.0) @ np.clip(ub, -_ACT_BIG, _ACT_BIG) + np.minimum(
        rows, 0.0
    ) @ np.clip(lb, -_ACT_BIG, _ACT_BIG)
    unbounded = ((rows > 0.0) & ~np.isfinite(ub)) | ((rows < 0.0) & ~np.isfinite(lb))
    act[unbounded.any(axis=1)] = np.inf
    return act


def presolve_root(form: MatrixForm) -> PresolveResult:
    """Propagate, remove fixed columns, drop rows that cannot bind.

    Exact for the integer program: the returned form is safe to hand to
    any LP/MIP solver; map its solutions back with ``result.postsolve``.
    """
    n = form.num_vars
    stats = {"bounds_tightened": 0, "cols_removed": 0, "rows_removed": 0}
    lb = form.lb.astype(float)
    ub = form.ub.astype(float)
    feasible, changes = propagate_bounds(
        PropagationTables(form, tol=_TOL), lb, ub, max_rounds=_MAX_ROUNDS
    )
    stats["bounds_tightened"] = len(changes)
    identity = Postsolve(num_vars=n, kept=np.arange(n))
    if not feasible or np.any(lb > ub + _TOL):
        return PresolveResult("infeasible", form, identity, stats)

    a_ub = np.asarray(form.a_ub, dtype=float).reshape(form.b_ub.shape[0], n)
    a_eq = np.asarray(form.a_eq, dtype=float).reshape(form.b_eq.shape[0], n)
    integer = form.integer_mask.astype(bool)
    fixed = ub - lb <= _TOL
    cols = np.flatnonzero(fixed)
    values = lb[cols]
    snap = integer[cols]
    values[snap] = np.round(values[snap])
    keep = ~fixed
    b_ub = form.b_ub - a_ub[:, cols] @ values
    b_eq = form.b_eq - a_eq[:, cols] @ values
    a_ub, a_eq, lb, ub = a_ub[:, keep], a_eq[:, keep], lb[keep], ub[keep]
    stats["cols_removed"] = int(cols.size)

    # Guard on row counts, not .size: once every column is fixed the
    # matrices are (m, 0), yet a residual empty row with a nonzero rhs
    # still proves infeasibility.
    empty_ub = ~np.any(a_ub != 0.0, axis=1)
    empty_eq = ~np.any(a_eq != 0.0, axis=1)
    if np.any(empty_ub & (b_ub < -_TOL)) or np.any(empty_eq & (np.abs(b_eq) > _TOL)):
        return PresolveResult("infeasible", form, identity, stats)
    loose = _max_activity(a_ub, lb, ub) <= b_ub + _TOL * (1.0 + np.abs(b_ub))
    keep_ub = ~(empty_ub | loose)
    keep_eq = ~empty_eq
    stats["rows_removed"] = int(keep_ub.size - keep_ub.sum() + keep_eq.size - keep_eq.sum())

    reduced = MatrixForm(
        c=form.c[keep],
        c0=float(form.c0) + float(form.c[cols] @ values),
        a_ub=a_ub[keep_ub],
        b_ub=b_ub[keep_ub],
        a_eq=a_eq[keep_eq],
        b_eq=b_eq[keep_eq],
        lb=lb,
        ub=ub,
        integer_mask=integer[keep],
    )
    postsolve = Postsolve(
        num_vars=n,
        kept=np.flatnonzero(keep),
        records=list(zip(cols.tolist(), values.tolist())),
    )
    return PresolveResult("reduced", reduced, postsolve, stats)
