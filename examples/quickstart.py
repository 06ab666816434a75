"""Quickstart: design an optimal test access architecture for the S1 SOC.

Run with::

    python examples/quickstart.py

Covers the 90% use case in ~20 lines: build a benchmark SOC, state the bus
architecture and timing model, solve to proven optimality, and inspect the
result (per-bus core lists, makespan, solver effort) — then the anytime
variant: the same solve under a :class:`SolvePolicy` budget, which returns
the best incumbent (or the LPT assignment) instead of failing.
"""

from repro.api import (
    DesignProblem,
    SolvePolicy,
    TamArchitecture,
    build_s1,
    design,
    run_all_baselines,
)

def main() -> None:
    # The six-core academic SOC used throughout the paper's evaluation.
    soc = build_s1()
    print(soc.describe())
    print()

    # Three 16-bit test buses; narrow cores are serialized when needed.
    problem = DesignProblem(
        soc=soc,
        arch=TamArchitecture([16, 16, 16]),
        timing="serial",
    )

    # Exact ILP solve (our branch & bound; pass backend="scipy" for HiGHS).
    result = design(problem)
    print(result.describe())
    print()

    # How much did exactness buy? Compare the heuristics a practitioner
    # would otherwise use.
    print("heuristic comparison:")
    for baseline in run_all_baselines(problem, seed=0):
        gap = (baseline.makespan - result.makespan) / result.makespan * 100
        print(f"  {baseline.name:>12}: {baseline.makespan:8.0f} cycles  (+{gap:.1f}%)")
    print()

    # Anytime mode: cap the solver's effort. On exhaustion you still get a
    # design — the best incumbent found, or the LPT assignment when there is
    # none — and its provenance says which.
    capped = design(problem, policy=SolvePolicy(node_budget=5, deadline=10.0))
    print(f"capped solve: {capped.makespan:.0f} cycles "
          f"(status={capped.status.value}, provenance={capped.provenance})")


if __name__ == "__main__":
    main()
