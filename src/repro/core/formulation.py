"""The DAC 2000 integer linear program.

Decision variables: binary ``x[i][j]`` — core *i* is assigned to test bus
*j* — created only for the (i, j) pairs the timing model allows for every
core of *i*'s power-forced group, and the continuous makespan ``T``.

    minimize   T
    subject to sum_j x[i][j] = 1                      (every core gets a bus)
               sum_i t[i][j] * x[i][j] <= T           (bus serial time)
               x[a][j] + x[b][j] <= 1   for all j     (forbidden pair a,b)
               x[a][j] = x[b][j]        for all j     (forced pair a,b)

The forced-pair equalities are the paper's conservative power encoding; the
forbidden-pair inequalities are its place-and-route encoding. Both are
linear, so the augmented problem remains an ILP. Width-infeasible (i, j)
combinations simply have no variable, which both shrinks the model and makes
the fixed-width rule unviolable by construction. A forced group must share
one bus, so a bus that one member cannot use gets no variable for any of
them: the power rows never need an ``x == 0`` row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import DesignProblem
from repro.ilp import BINARY, Model, Solution, Variable, quicksum
from repro.tam.assignment import Assignment
from repro.util.errors import InfeasibleError


@dataclass
class IlpFormulation:
    """A built model plus the handles needed to decode its solutions."""

    problem: DesignProblem
    model: Model
    x: dict[tuple[int, int], Variable]
    makespan_var: Variable

    def decode(self, solution: Solution, tol: float = 1e-6) -> Assignment:
        """Turn a feasible solution into an :class:`Assignment`.

        Accepts slightly-fractional binaries (LP round-off) and verifies
        each core lands on exactly one bus.
        """
        if not solution.is_feasible:
            raise InfeasibleError(
                f"cannot decode a solution with status {solution.status.value}"
            )
        num_cores = len(self.problem.soc)
        bus_of: list[int | None] = [None] * num_cores
        for (i, j), var in self.x.items():
            if solution[var] > 1.0 - tol:
                if bus_of[i] is not None:
                    raise InfeasibleError(
                        f"solver assigned core {i} to two buses", reason="decode error"
                    )
                bus_of[i] = j
        missing = [i for i, b in enumerate(bus_of) if b is None]
        if missing:
            raise InfeasibleError(
                f"solver left cores {missing} unassigned", reason="decode error"
            )
        return Assignment(self.problem.soc, self.problem.arch, tuple(bus_of))  # type: ignore[arg-type]


def build_assignment_ilp(problem: DesignProblem) -> IlpFormulation:
    """Encode ``problem`` as the paper's ILP.

    Raises :class:`InfeasibleError` immediately when some core has no bus
    that it and every core of its power-forced group can use (no variable
    could be created for it) — the one infeasibility mode detectable
    before solving.
    """
    soc = problem.soc
    arch = problem.arch
    times = problem.times
    num_cores = len(soc)
    num_buses = arch.num_buses

    fits = np.isfinite(times)
    usable = fits.copy()
    for group in problem.forced_groups:
        usable[list(group)] = fits[list(group)].all(axis=0)

    model = Model(f"tam-{soc.name}-{arch}")
    x: dict[tuple[int, int], Variable] = {}
    for i in range(num_cores):
        feasible_buses = np.flatnonzero(usable[i]).tolist()
        if not feasible_buses:
            core = soc.cores[i]
            if fits[i].any():
                raise InfeasibleError(
                    f"core {core.name!r} shares no width-feasible bus of {arch} "
                    "with the cores the power budget forces onto its bus",
                    reason="width-infeasible power group",
                )
            raise InfeasibleError(
                f"core {core.name!r} (width {core.test_width}) fits no bus of {arch}",
                reason="width-infeasible core",
            )
        for j in feasible_buses:
            x[i, j] = model.add_var(f"x_{soc.cores[i].name}_b{j}", vartype=BINARY)
        model.add_constr(
            quicksum(x[i, j] for j in feasible_buses) == 1,
            name=f"assign_{soc.cores[i].name}",
        )

    # Makespan definition. Lower-bound T by the best single core to tighten
    # the LP relaxation slightly (harmless, often saves B&B nodes).
    makespan = model.add_var("T", lb=problem.makespan_lower_bound())
    for j in range(num_buses):
        members = [(i, jj) for (i, jj) in x if jj == j]
        if not members:
            continue
        model.add_constr(
            quicksum(times[i][j] * x[i, j] for i, _ in members) <= makespan,
            name=f"bus{j}_time",
        )

    # Place-and-route: distant cores may not share any bus.
    for a, b in problem.forbidden_pairs:
        for j in range(num_buses):
            if (a, j) in x and (b, j) in x:
                model.add_constr(
                    x[a, j] + x[b, j] <= 1, name=f"far_{a}_{b}_b{j}"
                )

    # Power: incompatible cores must serialize on a common bus. Both cores
    # of a forced pair have a variable on exactly their group's buses.
    for a, b in problem.forced_pairs:
        for j in range(num_buses):
            if (a, j) in x:
                model.add_constr(x[a, j] == x[b, j], name=f"pow_{a}_{b}_b{j}")

    model.minimize(makespan)
    return IlpFormulation(problem, model, x, makespan)
