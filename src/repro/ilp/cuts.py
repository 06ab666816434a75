"""Clique cuts from the conflict graph, separated at the root.

Any clique K of the conflict graph (:mod:`repro.ilp.conflict`) yields the
valid inequality ``sum_{j in K} x_j <= 1``. :func:`generate_cuts` runs one
separation round at an LP point and returns the violated clique cuts,
most violated first; the branch-and-bound solver appends them to its LP
with :func:`append_cuts`. Cuts derive from the conflict structure of the
base rows only, so every cut is valid for the integer hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ilp.model import MatrixForm

#: At most this many cuts join the LP per separation round.
MAX_CUTS_PER_ROUND = 32

#: A clique cut must be violated by more than this to be separated.
MIN_VIOLATION = 1e-4


def append_cuts(form: MatrixForm, cuts: list[tuple[np.ndarray, float]]) -> MatrixForm:
    """Return a new MatrixForm with ``cuts`` appended to the UB system."""
    if not cuts:
        return form
    rows = np.vstack([form.a_ub] + [cut[0][None, :] for cut in cuts])
    rhs = np.concatenate([form.b_ub, [cut[1] for cut in cuts]])
    return MatrixForm(
        c=form.c,
        c0=form.c0,
        a_ub=rows,
        b_ub=rhs,
        a_eq=form.a_eq,
        b_eq=form.b_eq,
        lb=form.lb,
        ub=form.ub,
        integer_mask=form.integer_mask,
    )


@dataclass(frozen=True)
class Cut:
    """One cutting plane ``sum coefs[i] * x[cols[i]] <= rhs``."""

    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    rhs: float
    violation: float = 0.0

    def as_pair(self, num_vars: int) -> tuple[np.ndarray, float]:
        """Dense ``(row, rhs)`` form for :func:`append_cuts`."""
        row = np.zeros(num_vars)
        row[list(self.cols)] = self.coefs
        return row, self.rhs


def generate_cuts(graph, x: np.ndarray) -> list[Cut]:
    """One separation round: the clique cuts of ``graph`` violated at ``x``.

    Returns at most :data:`MAX_CUTS_PER_ROUND` cuts, most violated first
    (ties by column tuple).
    """
    cuts = [
        Cut(cols, (1.0,) * len(cols), 1.0, violation)
        for cols, violation in graph.separate(
            x, max_cliques=MAX_CUTS_PER_ROUND, min_violation=MIN_VIOLATION
        )
    ]
    cuts.sort(key=lambda cut: (-cut.violation, cut.cols))
    return cuts
