"""The MILP substrate as a standalone library.

Run with::

    python examples/solver_playground.py

The ILP layer underneath the TAM designer is a general (small-scale) MILP
toolkit: an expression API, our own warm-started dual simplex, exact
branch & bound, and a scipy/HiGHS cross-check backend. This example uses
it directly on two classic problems, then shows what the TAM formulation
itself looks like as a model object.
"""

from repro.api import (
    DesignProblem,
    Model,
    TamArchitecture,
    build_assignment_ilp,
    build_s1,
    quicksum,
    trace_solve,
)

def knapsack() -> None:
    weights = [12, 7, 11, 8, 9]
    profits = [24, 13, 23, 15, 16]
    capacity = 26

    model = Model("knapsack")
    take = [model.add_binary(f"take_{i}") for i in range(len(weights))]
    model.add_constr(quicksum(w * t for w, t in zip(weights, take)) <= capacity)
    model.maximize(quicksum(p * t for p, t in zip(profits, take)))

    ours = model.solve()                      # our branch & bound
    reference = model.solve(backend="scipy")  # HiGHS cross-check
    chosen = [i for i, t in enumerate(take) if ours[t] > 0.5]
    print(f"knapsack: profit {ours.objective:.0f} with items {chosen} "
          f"({ours.stats.nodes} B&B nodes; HiGHS agrees: "
          f"{abs(ours.objective - reference.objective) < 1e-6})")


def vertex_cover() -> None:
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]
    model = Model("vertex-cover")
    picked = [model.add_binary(f"v{i}") for i in range(5)]
    for u, v in edges:
        model.add_constr(picked[u] + picked[v] >= 1)
    model.minimize(quicksum(picked))
    solution = model.solve()
    cover = [i for i, v in enumerate(picked) if solution[v] > 0.5]
    print(f"vertex cover: size {solution.objective:.0f}, vertices {cover}")


def tam_formulation() -> None:
    soc = build_s1()
    problem = DesignProblem(
        soc=soc, arch=TamArchitecture([16, 16, 16]), timing="serial",
        power_budget=120.0,
    )
    formulation = build_assignment_ilp(problem)
    print(f"\nTAM ILP for {problem.constraint_summary()}:")
    print(f"  {formulation.model.summary()}")

    relaxation = formulation.model.solve_relaxation()
    exact = formulation.model.solve()
    print(f"  LP relaxation bound: {relaxation.objective:.1f} cycles")
    print(f"  integer optimum:     {exact.objective:.0f} cycles "
          f"({exact.stats.nodes} nodes, {exact.stats.lp_solves} LPs)")
    assignment = formulation.decode(exact)
    print(f"  decoded assignment:  {assignment.groups()}")


def traced_solve() -> None:
    """Where does the solve time go? Trace one B&B run and print the flame."""
    soc = build_s1()
    problem = DesignProblem(
        soc=soc, arch=TamArchitecture([16, 16, 16]), timing="serial"
    )
    formulation = build_assignment_ilp(problem)
    with trace_solve() as trace:
        formulation.model.solve(cache=False)
    print()
    print(trace.flame())


if __name__ == "__main__":
    knapsack()
    vertex_cover()
    tam_formulation()
    traced_solve()
