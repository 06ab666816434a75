"""Ablation: branch-and-bound design choices.

This bench quantifies two solver knobs on a fixed instance set (S1/S2 TAM
ILPs + a fractional knapsack) while asserting that every configuration
returns the same optimum:

- the root rounding *dive* (early incumbent for pruning);
- *root clique cuts* under the default :class:`~repro.api.CutPolicy`
  (a no-op where no row yields a pairwise conflict).
"""

import pytest

from repro.api import (
    CutPolicy,
    DesignProblem,
    Model,
    TamArchitecture,
    build_assignment_ilp,
    build_s1,
    build_s2,
    quicksum,
)


def _instances():
    models = []
    for soc, widths in ((build_s1(), [16, 16, 16]), (build_s2(), [32, 16, 16])):
        problem = DesignProblem(soc=soc, arch=TamArchitecture(widths), timing="serial")
        models.append((f"tam-{soc.name}", build_assignment_ilp(problem).model))
    knapsack = Model("knapsack")
    xs = [knapsack.add_binary(f"x{i}") for i in range(12)]
    weights = [5, 7, 11, 4, 9, 6, 13, 8, 5, 10, 7, 6]
    profits = [9, 12, 20, 6, 14, 11, 22, 13, 8, 17, 12, 10]
    knapsack.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 45)
    knapsack.maximize(quicksum(p * x for p, x in zip(profits, xs)))
    models.append(("knapsack12", knapsack))
    return models


CONFIGS = {
    "baseline": {},
    "no_dive": {"dive": False},
    "cuts": {"cut_policy": CutPolicy()},
}


@pytest.fixture(scope="module")
def reference_objectives():
    return {name: model.solve(backend="scipy").objective for name, model in _instances()}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_bench_ablation_solver(benchmark, config_name, reference_objectives):
    options = CONFIGS[config_name]
    instances = _instances()

    def run():
        nodes = 0
        for name, model in instances:
            solution = model.solve(**options)
            assert solution.objective == pytest.approx(reference_objectives[name])
            nodes += solution.stats.nodes
        return nodes

    total_nodes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert total_nodes >= len(instances)
