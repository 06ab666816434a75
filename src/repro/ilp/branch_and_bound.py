"""Best-first branch and bound over LP relaxations.

The solver operates on the dense :class:`~repro.ilp.model.MatrixForm` of a
model through a precomputed :class:`~repro.ilp.lp.LpWorkspace`, so the
scipy constraint handles are derived once, not per node. Before the search
starts, **root presolve** (:mod:`repro.ilp.presolve_root`, up to
``presolve_rounds`` passes) shrinks the model itself —
bound tightening, dual fixing, coefficient tightening, row cleanup —
and the whole search then runs in the reduced space; every incumbent is
mapped back through the recorded ``Postsolve`` before it is stored, so
cache records, checkpoints, and fingerprints stay in original variable
space and are presolve-independent. The search runs a fast path on every
node:

- **delta-bound nodes** — heap entries carry only the chain of bound
  changes along their tree path (a shared-tail linked list of
  ``(column, kind, value)`` tightenings); full ``lb``/``ub`` arrays are
  materialized from the root bounds only when a node is actually expanded;
- **node presolve** — integer bound propagation over the materialized node
  bounds (with the incumbent as an objective cutoff row) plus reduced-cost
  fixing from the root LP duals, pruning or shrinking subtrees before any
  LP is solved (see :mod:`repro.ilp.presolve`);
- **warm-started node LPs** — each heap entry also carries
  its parent's simplex :class:`~repro.ilp.simplex.Basis`; a child differs
  from its parent by bound tightenings only, which keep that basis dual
  feasible, so the bounded revised dual simplex reoptimizes in a few
  pivots instead of a cold HiGHS solve — and its monotone dual
  bound prunes the node early once it crosses the incumbent cutoff. The
  basis carries its factorization while the open nodes' factorizations
  fit under ``_FACTOR_BYTES_CAP``, so a child does not re-invert it.
  Numerical doubt of any kind falls back to the cold engine;
- **pseudocost branching** — branching scores learned from the observed
  objective degradations of earlier branchings, falling back to
  most-fractional until history exists.

At the root, clique cuts from the conflict graph tighten the relaxation in
up to ``cut_rounds`` separation rounds, and a *diving* pass rounds its way
to an early incumbent so that pruning has a bound to work with from the
start. All objective handling is in minimization sense; the wrapping
``solve`` translates back to the model's sense.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.ilp.conflict import ConflictGraph
from repro.ilp.cuts import Cut, append_cuts
from repro.ilp.lp import LpResult, LpWorkspace, solve_matrix_lp
from repro.ilp.model import MatrixForm, Model
from repro.ilp.presolve import LB_TIGHTENED, propagate_bounds, reduced_cost_tighten
from repro.ilp.presolve_root import Postsolve, presolve_root
from repro.ilp.simplex import Basis, RevisedSimplex
from repro.ilp.solution import Solution, SolveStats, Status, relative_gap
from repro.obs import get_metrics, node_event, now, span
from repro.obs import event as trace_event
from repro.obs.policy import CheckpointStore
from repro.util.errors import SolverError

_INT_TOL = 1e-6

#: Rounds of root clique-cut separation a solve runs unless told otherwise.
CUT_ROUNDS = 3

#: Passes of root model presolve a solve runs unless told otherwise.
PRESOLVE_ROUNDS = 4

#: Minimum seconds between two incumbent checkpoint writes during a search;
#: the final incumbent is written when the solve ends, whatever the gap.
CHECKPOINT_INTERVAL = 1.0

#: Floor for pseudocost scores so an (estimated) zero degradation never
#: erases the other direction's signal in the product rule.
_PC_EPS = 1e-6

#: Cap on the bytes of simplex factorizations (basis inverse plus reduced
#: costs) that one solve's queued nodes may hold. A branched node's
#: factorization is kept for its children only while the total stays under
#: the cap, and released when its last child pops; past the cap, children
#: refactorize from the bare basis instead.
_FACTOR_BYTES_CAP = 16 << 20


class BranchAndBoundSolver:
    """Exact MILP solver: LP relaxations + best-first search.

    Parameters
    ----------
    model:
        The model to solve.
    node_limit:
        Maximum number of nodes to process before giving up; when hit, the
        returned solution has status ``NODE_LIMIT`` (or ``FEASIBLE`` if an
        incumbent was found on the way).
    gap_tol:
        Absolute optimality gap at which the search stops early. The TAM
        objectives are integral cycle counts, so the designer passes
        ``gap_tol`` slightly under 1 to stop as soon as the bound rounds up
        to the incumbent.
    time_limit:
        Wall-clock budget in seconds (None = unlimited).
    dive:
        Whether to run the rounding dive at the root for an early incumbent.
    cut_rounds:
        Rounds of maximal-clique cuts from the conflict graph separated at
        the root (0 = none). Every cut is valid for the integer hull, so
        the cut rows stay in the LP for every node.
    presolve_rounds:
        Passes of the one-time model reduction before the search (0 =
        search the original model). Exact for the integer program;
        incumbents are postsolved back to original variable space before
        they are stored anywhere.
    warm_start:
        Optional feasible assignment ``{Variable: value}`` used as the
        initial incumbent (e.g. a greedy heuristic's solution). Validated
        against the model first; an infeasible warm start is rejected with
        :class:`~repro.util.errors.ValidationError` rather than silently
        breaking pruning.
    checkpoint_dir:
        Directory of incumbent checkpoints keyed by instance fingerprint
        (see :class:`~repro.obs.CheckpointStore`). On start, a stored
        incumbent for this instance is validated and installed (a warm
        resume for interrupted sweeps); improvements are persisted back,
        at most once per :data:`CHECKPOINT_INTERVAL` seconds.
    """

    def __init__(
        self,
        model: Model,
        node_limit: int = 200_000,
        gap_tol: float = 1e-9,
        time_limit: float | None = None,
        dive: bool = True,
        cut_rounds: int = CUT_ROUNDS,
        presolve_rounds: int = PRESOLVE_ROUNDS,
        warm_start: dict | None = None,
        checkpoint_dir: str | None = None,
    ):
        self.model = model
        self.node_limit = node_limit
        self.gap_tol = gap_tol
        self.time_limit = time_limit
        self.dive = dive
        self.cut_rounds = cut_rounds
        self.presolve_rounds = presolve_rounds
        # Cut rows in the working LP, in the order root separation added them.
        self._cuts: list[Cut] = []
        # The original form anchors everything that outlives this solve:
        # checkpoint fingerprints, incumbents, the returned values. The
        # *search* arrays are bound by _bind_form once root presolve has
        # settled the form (reduced or not); _postsolve maps between the
        # two spaces.
        self._orig_form = model.to_matrix_form()
        self._orig_int_indices = np.flatnonzero(self._orig_form.integer_mask)
        self._int_indices = self._orig_int_indices  # until _bind_form
        self._postsolve: Postsolve | None = None
        self._root_obj: float | None = None
        self._root_rc: np.ndarray | None = None
        self._root_lb: np.ndarray | None = None
        self._root_ub: np.ndarray | None = None
        self._stats = SolveStats()
        self._incumbent_x: np.ndarray | None = None
        self._incumbent_obj = math.inf
        self._checkpoints: CheckpointStore | None = None
        self._fingerprint: str | None = None
        self._last_checkpoint = -math.inf
        self._checkpoint_dirty = False
        if checkpoint_dir is not None:
            from repro.runtime.cache import matrix_fingerprint

            self._checkpoints = CheckpointStore(checkpoint_dir)
            self._fingerprint = matrix_fingerprint(self._orig_form)
        if warm_start is not None:
            self._install_warm_start(warm_start)
        if self._checkpoints is not None:
            self._resume_from_checkpoint()

    def _bind_form(self, form: MatrixForm) -> None:
        """Point the search machinery at ``form`` (original or reduced).

        Cuts append rows to a rebuilt ``self._form``; ``self._base_form``
        stays at the bound form so separation always derives from uncut
        rows.
        """
        self._base_form = form
        self._set_lp_form(form)
        self._int_indices = np.flatnonzero(form.integer_mask)
        self._int_mask = form.integer_mask
        # Root bounds shared by every node materialization; reduced-cost
        # fixing tightens these globally as the incumbent improves.
        self._base_lb = form.lb.copy()
        self._base_ub = form.ub.copy()
        n = form.num_vars
        # Pseudocost means and observation counts, down-branch entries then
        # up-branch ones in one array each: the mean over every initialized
        # entry is then one masked sum.
        self._pc = np.zeros(2 * n)
        self._pc_n = np.zeros(2 * n, dtype=np.int64)
        self._pc_dn, self._pc_up = self._pc[:n], self._pc[n:]
        self._pc_dn_n, self._pc_up_n = self._pc_n[:n], self._pc_n[n:]
        self._basis_generation = 0
        self._warm_engine = RevisedSimplex(form, generation=0)

    def _set_lp_form(self, form: MatrixForm) -> None:
        """Make ``form`` the LP every node solves, with its residual check.

        The residual check reads every row of ``form`` as one ``<=`` row of
        ``[A_ub; A_eq; -A_eq]`` against ``[b_ub; b_eq; -b_eq]``, built here
        once per form rather than once per node.
        """
        self._form = form
        self._workspace = LpWorkspace(form)
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        # Row counts, not .size: on a form without columns every row is a
        # constant the check must still read.
        if form.a_ub.shape[0]:
            rows.append(form.a_ub)
            rhs.append(form.b_ub)
        if form.a_eq.shape[0]:
            rows += [form.a_eq, -form.a_eq]
            rhs += [form.b_eq, -form.b_eq]
        self._check_rows = np.vstack(rows) if rows else None
        self._check_rhs = np.concatenate(rhs) if rhs else None

    def _install_warm_start(self, values: dict) -> None:
        from repro.util.errors import ValidationError

        problems = self.model.check_solution(values)
        if problems:
            raise ValidationError(
                "warm start is not feasible for the model: " + "; ".join(problems[:3])
            )
        x = np.zeros(self._orig_form.num_vars)
        for var, value in values.items():
            x[var.index] = value
        sign = 1.0 if self.model.sense == "min" else -1.0
        objective = sign * self.model.objective_value(values)
        self._try_update_incumbent(x, objective)

    def _resume_from_checkpoint(self) -> None:
        """Install a persisted incumbent for this instance, if one validates."""
        assert self._checkpoints is not None and self._fingerprint is not None
        payload = self._checkpoints.load(self._fingerprint)
        if payload is None:
            return
        values = payload.get("values") or []
        if len(values) != self._orig_form.num_vars:
            return
        by_var = {var: float(values[var.index]) for var in self.model.variables}
        if self.model.check_solution(by_var):
            return  # stale/incompatible checkpoint: ignore, never break pruning
        x = np.array(values, dtype=float)
        sign = 1.0 if self.model.sense == "min" else -1.0
        objective = sign * self.model.objective_value(by_var)
        self._try_update_incumbent(x, objective)
        trace_event("checkpoint_resume", objective=objective)

    # ------------------------------------------------------------------ api
    def solve(self) -> Solution:
        start = now()
        try:
            status = self._search(start)
        finally:
            self._flush_checkpoint()
            self._settle_bound()
            self._stats.wall_time = now() - start
            self._stats.publish(get_metrics())
        return self._wrap(status)

    # ------------------------------------------------------------ internals
    def _settle_bound(self) -> None:
        """Report the proven bound in the model's sense, and the gap to it.

        The search keeps ``best_bound`` in minimization sense; every exit
        with an incumbent then reports ``gap`` relative to that incumbent.
        """
        bound = self._stats.best_bound
        if bound is None:
            return
        if self._incumbent_x is not None:
            self._stats.gap = relative_gap(self._incumbent_obj, bound)
        if self.model.sense != "min":
            self._stats.best_bound = -bound

    def _solve_node(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        want_reduced_costs: bool = False,
        basis: Basis | None = None,
        cutoff: float | None = None,
    ) -> LpResult:
        """One node LP: warm dual-simplex reoptimization when available.

        ``basis`` is the parent's optimal basis (the engine ignores it when
        its generation is stale — cut rounds rebuild the matrix). The warm
        engine's three healthy outcomes map directly: ``optimal`` (after a
        residual check of the claimed point), ``infeasible``, and
        ``cutoff`` (the monotone dual bound crossed ``cutoff``; the caller
        prunes). Anything else — or a failed residual check — re-solves
        cold with HiGHS.
        """
        self._stats.lp_solves += 1
        lp_start = now()
        warm = self._warm_engine.solve(lb, ub, basis=basis, cutoff=cutoff)
        trusted = warm.status in ("infeasible", "cutoff") or (
            warm.status == "optimal" and self._warm_point_ok(warm.x, lb, ub)
        )
        if trusted:
            self._stats.warm_lp_solves += 1
            self._stats.lp_time += now() - lp_start
            self._stats.lp_iterations += warm.iterations
            return warm
        self._stats.warm_lp_fallbacks += 1
        result = solve_matrix_lp(
            self._form,
            lb=lb,
            ub=ub,
            workspace=self._workspace,
            want_reduced_costs=want_reduced_costs,
        )
        self._stats.lp_time += now() - lp_start
        self._stats.lp_iterations += result.iterations
        return result

    def _warm_point_ok(self, x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> bool:
        """Cheap residual guard on a warm-claimed optimum before trusting it.

        Each bound and each row may be violated by at most 1e-6: two bound
        maxima, then one product over the stacked rows of
        :meth:`_set_lp_form` and its maximum.
        """
        worst_lb = np.maximum.reduce(lb - x, initial=-math.inf)
        if worst_lb > 1e-6 or np.maximum.reduce(x - ub, initial=-math.inf) > 1e-6:
            return False
        rows = self._check_rows
        return rows is None or np.maximum.reduce(rows.dot(x) - self._check_rhs) <= 1e-6

    def _cutoff(self) -> float:
        """Objective value at/above which a solution cannot matter."""
        return self._incumbent_obj - self.gap_tol

    def _out_of_time(self, start: float) -> bool:
        """The deadline test shared by the node loop and the root work."""
        return self.time_limit is not None and now() - start > self.time_limit

    def _fractional_index(self, x: np.ndarray) -> int | None:
        """The most fractional integer variable, or None if all integral.

        Vectorized; scores by fractionality ``min(f, 1-f)`` with ties broken
        toward the lowest index (matching the historical scalar loop
        exactly — ``np.argmax`` keeps the first maximum).
        """
        if self._int_indices.size == 0:
            return None
        xi = x[self._int_indices]
        frac = np.abs(xi - xi.round())
        mask = frac > _INT_TOL
        if not np.count_nonzero(mask):
            return None
        scores = np.where(mask, np.minimum(frac, 1.0 - frac), -1.0)
        return int(self._int_indices[scores.argmax()])

    def _select_branch(self, x: np.ndarray) -> int | None:
        """Branching decision for a search node (pseudocost-aware)."""
        xi = x[self._int_indices]
        mask = np.abs(xi - xi.round()) > _INT_TOL
        if not np.count_nonzero(mask):
            return None
        known = self._pc_n > 0
        initialized = self._pc[known]
        if initialized.size == 0:
            # No history yet: initialize from most-fractional.
            return self._fractional_index(x)
        # Uninitialized entries borrow the mean of the initialized ones,
        # summed in ``ndarray.mean``'s order (down entries, then up).
        avg = float(np.add.reduce(initialized)) / initialized.size
        cand = self._int_indices[mask]
        n = self._pc_dn.size
        estimate = np.where(known, self._pc, avg)
        est_dn = estimate[:n].take(cand)
        est_up = estimate[n:].take(cand)
        xc = xi[mask]
        f = xc - np.floor(xc)
        score = np.maximum(est_dn * f, _PC_EPS) * np.maximum(est_up * (1.0 - f), _PC_EPS)
        self._stats.pseudocost_branches += 1
        return int(cand[score.argmax()])

    def _update_pseudocost(self, branch_info: tuple, child_objective: float) -> None:
        """Fold one observed objective degradation into the running means."""
        j, direction, parent_obj, frac = branch_info
        degradation = max(child_objective - parent_obj, 0.0)
        if direction < 0:
            per_unit = degradation / max(frac, _PC_EPS)
            n = self._pc_dn_n[j]
            self._pc_dn[j] = (self._pc_dn[j] * n + per_unit) / (n + 1)
            self._pc_dn_n[j] = n + 1
        else:
            per_unit = degradation / max(1.0 - frac, _PC_EPS)
            n = self._pc_up_n[j]
            self._pc_up[j] = (self._pc_up[j] * n + per_unit) / (n + 1)
            self._pc_up_n[j] = n + 1

    def _apply_reduced_cost_fixing(self) -> None:
        """Tighten the global root bounds from the root duals + incumbent."""
        if (
            self._root_rc is None
            or self._root_obj is None
            or not math.isfinite(self._incumbent_obj)
        ):
            return
        assert self._root_lb is not None and self._root_ub is not None
        fixed = reduced_cost_tighten(
            self._root_rc,
            self._root_lb,
            self._root_ub,
            self._root_obj,
            self._cutoff(),
            self._base_lb,
            self._base_ub,
            self._int_mask,
        )
        if fixed:
            self._stats.presolve_fixings += fixed
            trace_event("reduced_cost_fixing", fixed=fixed, incumbent=self._incumbent_obj)

    def _try_update_incumbent(self, x: np.ndarray, objective: float) -> None:
        """Install an *original-space* candidate as the incumbent.

        Presolve folds fixed/substituted columns into the constant term, so
        a reduced-space objective equals the original-space one — the
        cutoff needs no translation, only the vector does (see
        :meth:`_accept_candidate` for search-space candidates).
        """
        if objective < self._incumbent_obj - 1e-12:
            snapped = x.copy()
            snapped[self._orig_int_indices] = np.round(snapped[self._orig_int_indices])
            self._incumbent_x = snapped
            self._incumbent_obj = objective
            self._stats.incumbent_updates += 1
            trace_event("incumbent", objective=objective, node=self._stats.nodes)
            get_metrics().histogram("solve.incumbent_objective").observe(objective)
            self._apply_reduced_cost_fixing()
            self._save_checkpoint(debounce=True)

    def _accept_candidate(self, x: np.ndarray, objective: float) -> None:
        """Map a *search-space* candidate back and install it."""
        if self._postsolve is not None and not self._postsolve.identity:
            x = self._postsolve.restore(x)
        self._try_update_incumbent(x, objective)

    def _save_checkpoint(self, debounce: bool) -> None:
        """Persist the incumbent, at most once per ``CHECKPOINT_INTERVAL``."""
        if (
            self._checkpoints is None
            or self._fingerprint is None
            or self._incumbent_x is None
        ):
            return
        timestamp = now()
        if debounce and timestamp - self._last_checkpoint < CHECKPOINT_INTERVAL:
            self._checkpoint_dirty = True
            return
        self._checkpoints.save(
            self._fingerprint,
            [float(v) for v in self._incumbent_x],
            self._incumbent_obj,
        )
        self._last_checkpoint = timestamp
        self._checkpoint_dirty = False

    def _flush_checkpoint(self) -> None:
        """Final-incumbent persistence: debounce never loses the best."""
        if self._checkpoint_dirty:
            self._save_checkpoint(debounce=False)

    def _dive_for_incumbent(
        self, start: float, x: np.ndarray, basis: Basis | None = None
    ) -> None:
        """Round-and-refix dive from the root relaxation.

        Repeatedly fixes the most fractional integer variable to its nearest
        integer and re-solves; stops on infeasibility, when the relaxation
        comes back integral, or at the deadline. Produces an incumbent often
        good enough to prune most of the tree on assignment-structured
        models.
        """
        lb = self._base_lb.copy()
        ub = self._base_ub.copy()
        current = x
        for _ in range(len(self._int_indices) + 1):
            j = self._fractional_index(current)
            if j is None:
                obj = float(self._form.c @ current) + self._form.c0
                self._accept_candidate(current, obj)
                return
            if self._out_of_time(start):
                return
            value = float(round(current[j]))
            value = min(max(value, lb[j]), ub[j])
            lb[j] = ub[j] = value
            result = self._solve_node(lb, ub, basis=basis)
            if result.status != "optimal":
                return
            basis = result.basis
            current = result.x

    # ----------------------------------------------------------- separation
    def _rebuild_with_cuts(self) -> None:
        """Reassemble the working LP as base rows + the cut rows.

        The cut rows also join the node-presolve propagation tables, so a
        clique cut propagates (fixing one member to 1 zeroes the rest).
        """
        pairs = [cut.as_pair(self._base_form.num_vars) for cut in self._cuts]
        self._set_lp_form(append_cuts(self._base_form, pairs))
        # The constraint matrix changed shape: bump the basis generation so
        # every basis snapshot taken against the old matrix goes stale, and
        # refit the warm engine to the cut-extended rows.
        self._basis_generation += 1
        self._warm_engine = RevisedSimplex(self._form, generation=self._basis_generation)

    def _separate_root(self, start: float, root: LpResult) -> LpResult:
        """Clique-cut rounds at the root, while the deadline allows; returns
        the final root relaxation.

        A round stops the loop when it separates nothing. A cut added in one
        round holds at every later root point, so no round repeats one.
        """
        # Looked up at call time, so a wrapper installed on the module (as
        # perfbench's tracer does) sees every round.
        from repro.ilp.cuts import generate_cuts

        with span("ilp.conflict.graph") as graph_span:
            conflicts = ConflictGraph.from_matrix_form(self._base_form)
            graph_span.attrs["edges"] = conflicts.num_edges
        with span("ilp.cuts.separate", rounds=self.cut_rounds) as sep_span:
            for _ in range(self.cut_rounds):
                if self._out_of_time(start):
                    break
                added = generate_cuts(conflicts, root.x)
                if not added:
                    break
                self._cuts += added
                self._stats.cuts += len(added)
                self._stats.cut_rounds += 1
                self._rebuild_with_cuts()
                root = self._solve_node(
                    self._base_lb, self._base_ub, want_reduced_costs=True
                )
                trace_event(
                    "cut_round",
                    added=len(added),
                    active=len(self._cuts),
                    bound=root.objective,
                )
                if root.status == "infeasible":
                    # Cuts are valid for the integer hull, so an infeasible
                    # cut-strengthened root proves integer infeasibility.
                    break
                if root.status != "optimal":  # only numerical noise lands here
                    raise SolverError("root LP failed after adding cuts")
                if self._fractional_index(root.x) is None:
                    break
            sep_span.attrs["cuts"] = self._stats.cuts
        return root

    def _search(self, start: float) -> Status:
        form = self._orig_form
        if self.presolve_rounds > 0:
            with span("ilp.presolve_root.reduce") as model_span:
                reduction = presolve_root(self._orig_form, self.presolve_rounds)
                self._stats.root_presolve_rounds = reduction.stats["rounds"]
                self._stats.root_cols_removed = reduction.stats["cols_removed"]
                self._stats.root_rows_removed = reduction.stats["rows_removed"]
                self._stats.root_coeffs_tightened = reduction.stats["coeffs_tightened"]
                model_span.attrs.update(reduction.stats)
            if reduction.status == "infeasible":
                return Status.INFEASIBLE
            self._postsolve = reduction.postsolve
            reduced = reduction.form
            if reduced.num_vars == 0:
                # Everything was fixed; validate any leftover constant rows
                # and restore the point.
                if not reduced.constant_rows_hold():
                    return Status.INFEASIBLE
                x = reduction.postsolve.restore(np.zeros(0))
                objective = float(self._orig_form.c @ x) + self._orig_form.c0
                self._try_update_incumbent(x, objective)
                self._stats.best_bound = objective
                return Status.OPTIMAL
            # Search the reduced form even on an identity column mapping:
            # bound tightening and row cleanup change the form without
            # touching any column.
            form = reduced
        self._bind_form(form)

        with span("ilp.presolve.propagate") as presolve_span:
            feasible, changes = propagate_bounds(
                self._workspace.propagation, self._base_lb, self._base_ub
            )
            self._stats.presolve_fixings += len(changes)
            presolve_span.attrs["fixings"] = len(changes)
        if not feasible:
            return Status.INFEASIBLE

        with span("ilp.simplex.root_lp"):
            root = self._solve_node(
                self._base_lb, self._base_ub, want_reduced_costs=True
            )
        self._stats.nodes += 1
        if root.status == "infeasible":
            return Status.INFEASIBLE
        if root.status == "unbounded":
            return Status.UNBOUNDED
        if root.status == "error":
            raise SolverError("LP relaxation failed at the root node")

        frac = self._fractional_index(root.x)
        if frac is None:
            self._accept_candidate(root.x, root.objective)
            self._stats.best_bound = root.objective
            return Status.OPTIMAL

        if self.cut_rounds > 0:
            root = self._separate_root(start, root)
            if root.status == "infeasible":
                return Status.INFEASIBLE
            if self._fractional_index(root.x) is None:
                self._accept_candidate(root.x, root.objective)
                self._stats.best_bound = root.objective
                return Status.OPTIMAL

        # Root duals anchor reduced-cost fixing for the whole search;
        # captured after cuts so they price the final root relaxation.
        self._root_obj = root.objective
        self._root_rc = root.reduced_costs
        self._root_lb = self._base_lb.copy()
        self._root_ub = self._base_ub.copy()

        with span("ilp.branch_and_bound.dive", dive=self.dive):
            if self.dive:
                self._dive_for_incumbent(start, root.x, basis=root.basis)
            self._apply_reduced_cost_fixing()

        with span("ilp.branch_and_bound") as search_span:
            status = self._best_first(start, root)
            search_span.attrs["nodes"] = self._stats.nodes
            search_span.attrs["status"] = status.value
            search_span.attrs["presolve_fixings"] = self._stats.presolve_fixings
            search_span.attrs["presolve_pruned"] = self._stats.presolve_pruned
        return status

    def _materialize(self, chain: tuple | None) -> tuple[np.ndarray, np.ndarray]:
        """Node bounds = global root bounds + the chain's tightenings.

        Every chain entry only ever *tightens* (branching floors/ceils,
        presolve shrinks), so entries apply order-independently via
        ``max``/``min`` — which also lets later global reduced-cost fixings
        override stale, looser deltas recorded before the incumbent improved.
        """
        lb = self._base_lb.copy()
        ub = self._base_ub.copy()
        node = chain
        while node is not None:
            _, j, kind, value = node
            if kind == LB_TIGHTENED:
                if value > lb[j]:
                    lb[j] = value
            elif value < ub[j]:
                ub[j] = value
            node = node[0]
        return lb, ub

    def _best_first(self, start: float, root: LpResult) -> Status:
        """The best-first loop over delta-bound nodes.

        Heap entries are ``(bound, tick, depth, chain, branch_info, basis)``:
        ``chain`` is the delta chain materialized lazily at pop time,
        ``branch_info = (column, direction, parent_objective, fraction)``
        feeds the pseudocost update once the node's LP resolves, and
        ``basis`` is the parent node's optimal simplex basis — both
        children warm-start from it (the tick tie-breaker guarantees tuple
        comparison never reaches it). The basis keeps its factorization
        only while the queued ones fit under ``_FACTOR_BYTES_CAP``; its
        bytes are released when the last child pops.
        """
        counter = itertools.count()  # heap tie-breaker
        heap: list[tuple[float, int, int, tuple | None, tuple | None, Basis | None]] = []
        # Factorizations held by queued nodes: bytes, and per carrying
        # basis (by id; it stays alive while queued) the children still
        # waiting to pop.
        held_bytes = 0
        waiting: dict[int, int] = {}

        def carried(basis: Basis | None, children: int) -> Basis | None:
            nonlocal held_bytes
            if basis is None or basis.factor_bytes == 0:
                return basis
            if held_bytes + basis.factor_bytes > _FACTOR_BYTES_CAP:
                return basis.without_factorization()
            held_bytes += basis.factor_bytes
            waiting[id(basis)] = children
            return basis

        heapq.heappush(
            heap, (root.objective, next(counter), 0, None, None, carried(root.basis, 1))
        )

        while heap:
            bound, _, depth, chain, branch_info, parent_basis = heapq.heappop(heap)
            if parent_basis is not None and parent_basis.factor_bytes:
                key = id(parent_basis)
                waiting[key] -= 1
                if waiting[key] == 0:
                    del waiting[key]
                    held_bytes -= parent_basis.factor_bytes
            self._stats.best_bound = bound
            incumbent = None if self._incumbent_x is None else self._incumbent_obj
            node_event(depth=depth, bound=bound, incumbent=incumbent)
            if bound >= self._cutoff():
                # Best-first order: every remaining node is at least as bad,
                # and every pruned one was at least the cutoff.
                return self._proven()

            if self._stats.nodes >= self.node_limit:
                trace_event("budget_exhausted", kind="nodes", nodes=self._stats.nodes)
                return Status.FEASIBLE if self._incumbent_x is not None else Status.NODE_LIMIT
            if self._out_of_time(start):
                trace_event("budget_exhausted", kind="deadline", nodes=self._stats.nodes)
                return Status.FEASIBLE if self._incumbent_x is not None else Status.NODE_LIMIT

            lb, ub = self._materialize(chain)
            if np.count_nonzero(lb > ub):
                # Global reduced-cost fixing emptied this subtree's box.
                self._stats.presolve_pruned += 1
                continue
            cutoff = self._cutoff()
            feasible, changes = propagate_bounds(
                self._workspace.propagation,
                lb,
                ub,
                cutoff=cutoff if math.isfinite(cutoff) else None,
            )
            if not feasible:
                self._stats.presolve_pruned += 1
                continue
            if changes:
                self._stats.presolve_fixings += len(changes)
                for delta in changes:
                    chain = (chain, *delta)

            node_cutoff = self._cutoff()
            result = self._solve_node(
                lb,
                ub,
                basis=parent_basis,
                cutoff=node_cutoff if math.isfinite(node_cutoff) else None,
            )
            self._stats.nodes += 1
            if branch_info is not None and result.status == "optimal":
                self._update_pseudocost(branch_info, result.objective)
            if result.status != "optimal":
                # Infeasible subtree, or a warm "cutoff" bound-prune
                # (unbounded cannot appear below a bounded root).
                continue
            if result.objective >= self._cutoff():
                continue

            j = self._select_branch(result.x)
            if j is None:
                self._accept_candidate(result.x, result.objective)
                continue

            value = result.x[j]
            frac = value - math.floor(value)
            down_chain = (chain, j, 1, float(math.floor(value)))
            up_chain = (chain, j, 0, float(math.ceil(value)))
            basis = carried(result.basis, 2)
            heapq.heappush(
                heap,
                (result.objective, next(counter), depth + 1, down_chain,
                 (j, -1, result.objective, frac), basis),
            )
            heapq.heappush(
                heap,
                (result.objective, next(counter), depth + 1, up_chain,
                 (j, +1, result.objective, frac), basis),
            )

        return self._proven()

    def _proven(self) -> Status:
        """Search exhausted below the cutoff: nothing under it survives."""
        if self._incumbent_x is None:
            self._stats.best_bound = None
            return Status.INFEASIBLE
        self._stats.best_bound = self._cutoff()
        return Status.OPTIMAL

    def _wrap(self, status: Status) -> Solution:
        sign = 1.0 if self.model.sense == "min" else -1.0
        if status in (Status.OPTIMAL, Status.FEASIBLE) and self._incumbent_x is not None:
            values = {
                var: float(self._incumbent_x[var.index]) for var in self.model.variables
            }
            return Solution(
                status,
                objective=sign * self._incumbent_obj,
                values=values,
                stats=self._stats,
                backend="bnb",
            )
        return Solution(status, stats=self._stats, backend="bnb")
