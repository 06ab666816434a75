"""Conflict graph over binary columns + maximal-clique cut separation.

Two binary variables *conflict* when no integer-feasible point sets both
to 1. The graph is derived structurally from ``MatrixForm`` rows whose
support is pure non-negative binary: for such a row ``sum a_j x_j <= b``
(or ``= b``), the pair ``(j, k)`` conflicts whenever ``a_j + a_k > b`` —
setting both to 1 already overshoots the right-hand side, because every
other support coefficient is non-negative over [0, 1] bounds. The
layout-forbidden pairs of the TAM formulation (``x_aj + x_bj <= 1``) are
exactly the ``1 + 1 > 1`` case, so each such row contributes one edge.

Any clique K of the conflict graph yields the valid inequality
``sum_{j in K} x_j <= 1`` — at most one member of a pairwise-conflicting
set can be 1 in any integer point. Maximal cliques dominate: a clique
cut over a sub-clique is implied by the maximal one, and extending a
violated clique with zero-valued vertices is free lifting (the violation
is unchanged while the cut tightens). Separation is the standard greedy:
seed on high-``x*`` vertices, grow by descending ``x*``, then extend to
maximality with whatever still fits.
"""

from __future__ import annotations

import numpy as np

from repro.ilp.model import MatrixForm

_TOL = 1e-9


def _row_conflicts(
    row: np.ndarray,
    b: float,
    support: np.ndarray,
    adjacency: dict[int, set[int]],
    tol: float,
) -> None:
    """Add every pair of ``support`` with ``a_j + a_k > b`` to ``adjacency``."""
    order = sorted((int(j) for j in support), key=lambda j: (-row[j], j))
    coefs = [float(row[j]) for j in order]
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            if coefs[p] + coefs[q] <= b + tol:
                break  # coefs descend: later q only get smaller
            adjacency.setdefault(order[p], set()).add(order[q])
            adjacency.setdefault(order[q], set()).add(order[p])


class ConflictGraph:
    """Pairwise-exclusion structure of a ``MatrixForm``'s binary columns."""

    def __init__(self, num_vars: int, adjacency: dict[int, set[int]]):
        self.num_vars = num_vars
        self.adjacency = {j: frozenset(nbrs) for j, nbrs in adjacency.items() if nbrs}

    @classmethod
    def from_matrix_form(cls, form: MatrixForm, tol: float = _TOL) -> "ConflictGraph":
        """Derive conflicts from the pure-binary non-negative rows of ``form``.

        Both inequality (``a_ub``) and equality (``a_eq``) rows
        participate: an equality over non-negative binaries forbids any
        pair whose coefficients alone exceed its right-hand side.
        """
        binary = form.integer_mask & (form.lb == 0.0) & (form.ub == 1.0)
        adjacency: dict[int, set[int]] = {}
        for matrix, rhs in ((form.a_ub, form.b_ub), (form.a_eq, form.b_eq)):
            if matrix is None or matrix.size == 0:
                continue
            for r in range(matrix.shape[0]):
                row = matrix[r]
                support = np.flatnonzero(row)
                if len(support) < 2:
                    continue
                if not np.all(binary[support]) or np.any(row[support] <= 0):
                    continue
                _row_conflicts(row, float(rhs[r]), support, adjacency, tol)
        return cls(form.num_vars, adjacency)

    # ------------------------------------------------------------- structure
    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def are_adjacent(self, j: int, k: int) -> bool:
        return k in self.adjacency.get(j, frozenset())

    def _grow(self, seed: int, candidates: list[int]) -> list[int]:
        """Extend ``seed`` with candidates adjacent to every current member."""
        clique = [seed]
        for u in candidates:
            if all(self.are_adjacent(u, w) for w in clique):
                clique.append(u)
        return clique

    # ------------------------------------------------------------ separation
    def separate(
        self,
        x: np.ndarray,
        max_cliques: int = 32,
        min_violation: float = 1e-4,
    ) -> list[tuple[tuple[int, ...], float]]:
        """Violated maximal-clique cuts at the LP point ``x``.

        Returns ``(columns, violation)`` pairs with
        ``sum_{j in columns} x_j = 1 + violation > 1``; each clique is
        maximal, so zero-valued members are already lifted in. Seeds are
        tried by descending ``x*`` and growth prefers heavy vertices, the
        standard greedy heuristic.
        """
        weight_order = sorted(
            self.adjacency, key=lambda j: (-float(x[j]), j)
        )
        seen: set[frozenset[int]] = set()
        cuts: list[tuple[tuple[int, ...], float]] = []
        for seed in weight_order:
            if float(x[seed]) <= min_violation:
                break  # all remaining seeds are lighter still
            candidates = sorted(
                self.adjacency[seed], key=lambda j: (-float(x[j]), j)
            )
            clique = self._grow(seed, candidates)
            violation = float(sum(x[j] for j in clique)) - 1.0
            if violation <= min_violation:
                continue
            key = frozenset(clique)
            if key in seen:
                continue
            seen.add(key)
            cuts.append((tuple(sorted(clique)), violation))
            if len(cuts) >= max_cliques:
                break
        return cuts
