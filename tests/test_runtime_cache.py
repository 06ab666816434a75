"""Solve-cache correctness: fingerprints, round-trips, persistence, reuse."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.core import DesignProblem, design
from repro.experiments import ExperimentConfig, run_experiment
from repro.ilp import Model, quicksum
from repro.runtime import (
    SolutionCache,
    get_solve_cache,
    matrix_fingerprint,
    set_solve_cache,
    solve_cached,
    solve_fingerprint,
    use_cache,
)
from repro.runtime.cache import CacheRecord
from repro.tam import TamArchitecture


def knapsack_model(profits=(24, 13, 23, 15, 16)) -> Model:
    weights = [12, 7, 11, 8, 9]
    model = Model("knapsack")
    take = [model.add_binary(f"take_{i}") for i in range(len(weights))]
    model.add_constr(quicksum(w * t for w, t in zip(weights, take)) <= 26)
    model.maximize(quicksum(p * t for p, t in zip(profits, take)))
    return model


class TestFingerprint:
    def test_identical_models_share_fingerprint(self):
        a = knapsack_model().to_matrix_form()
        b = knapsack_model().to_matrix_form()
        assert matrix_fingerprint(a) == matrix_fingerprint(b)

    def test_constraint_order_is_canonicalized(self):
        base = Model("m")
        x = base.add_binary("x")
        y = base.add_binary("y")
        base.add_constr(x + y <= 1)
        base.add_constr(2 * x + y <= 2)
        base.maximize(x + y)

        flipped = Model("m")
        x2 = flipped.add_binary("x")
        y2 = flipped.add_binary("y")
        flipped.add_constr(2 * x2 + y2 <= 2)
        flipped.add_constr(x2 + y2 <= 1)
        flipped.maximize(x2 + y2)

        assert matrix_fingerprint(base.to_matrix_form()) == matrix_fingerprint(
            flipped.to_matrix_form()
        )

    def test_perturbed_coefficient_changes_fingerprint(self):
        a = knapsack_model().to_matrix_form()
        b = knapsack_model(profits=(24, 13, 23, 15, 16.000001)).to_matrix_form()
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_backend_and_options_enter_solve_key(self):
        form = knapsack_model().to_matrix_form()
        assert solve_fingerprint(form, "bnb", {}) != solve_fingerprint(form, "scipy", {})
        assert solve_fingerprint(form, "bnb", {}) != solve_fingerprint(
            form, "bnb", {"node_limit": 10}
        )


class TestSolutionCache:
    def test_hit_returns_equivalent_solution(self):
        cache = SolutionCache()
        first = solve_cached(knapsack_model(), cache=cache)
        second = solve_cached(knapsack_model(), cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        assert not first.cache_hit
        assert second.cache_hit and second.stats.cache_hit
        assert second.status is first.status
        assert second.objective == pytest.approx(first.objective)

    def test_cached_values_bind_to_the_new_model(self):
        cache = SolutionCache()
        solve_cached(knapsack_model(), cache=cache)
        model = knapsack_model()
        solution = solve_cached(model, cache=cache)
        profits = [24, 13, 23, 15, 16]
        taken = [
            profit
            for var, profit in zip(model.variables, profits)
            if solution[var] > 0.5
        ]
        assert sum(taken) == pytest.approx(solution.objective)

    def test_perturbed_model_misses(self):
        cache = SolutionCache()
        solve_cached(knapsack_model(), cache=cache)
        solve_cached(knapsack_model(profits=(25, 13, 23, 15, 16)), cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_disk_persistence_across_instances(self, tmp_path):
        store = tmp_path / "cache"
        first = solve_cached(knapsack_model(), cache=SolutionCache(directory=str(store)))
        reopened = SolutionCache(directory=str(store))
        second = solve_cached(knapsack_model(), cache=reopened)
        assert reopened.hits == 1 and reopened.misses == 0
        assert second.cache_hit
        assert second.objective == pytest.approx(first.objective)

    def test_lru_eviction_bounds_memory(self):
        cache = SolutionCache(maxsize=2)
        models = [
            knapsack_model(),
            knapsack_model(profits=(1, 2, 3, 4, 5)),
            knapsack_model(profits=(5, 4, 3, 2, 1)),
        ]
        for model in models:
            solve_cached(model, cache=cache)
        assert len(cache) == 2
        # The oldest entry was evicted: re-solving it is a miss again.
        solve_cached(knapsack_model(), cache=cache)
        assert cache.misses == 4

    def test_clear(self, tmp_path):
        cache = SolutionCache(directory=str(tmp_path / "c"))
        solve_cached(knapsack_model(), cache=cache)
        cache.clear(disk=True)
        assert len(cache) == 0
        solve_cached(knapsack_model(), cache=cache)
        assert cache.misses == 2


class TestConcurrentWriters:
    # Each child stores its own record under the shared key, over and over.
    WRITER = textwrap.dedent(
        """
        import json, sys
        from repro.runtime.cache import CacheRecord, SolutionCache

        directory, key, payload = sys.argv[1:4]
        record = CacheRecord.from_json(json.loads(payload))
        cache = SolutionCache(directory=directory)
        for _ in range(400):
            cache.store(key, record)
        """
    )

    def test_readers_see_a_miss_or_a_whole_record(self, tmp_path, child_env):
        import json

        model = knapsack_model()
        records = [
            CacheRecord.from_solution(model.solve(backend=backend, cache=False), model.num_vars)
            for backend in ("bnb", "scipy")
        ]
        reader = SolutionCache(directory=tmp_path)
        key = reader.fingerprint(model.to_matrix_form())
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(tmp_path), key,
                 json.dumps(record.to_json())],
                env=child_env,
            )
            for record in records
        ]
        seen = set()
        try:
            while any(writer.poll() is None for writer in writers):
                reader.clear()  # memory only: every lookup reads the file
                record = reader.lookup(key)
                if record is None:
                    continue
                solution = record.to_solution(model)
                assert model.check_solution(solution.values) == []
                seen.add(record.backend)
        finally:
            for writer in writers:
                writer.wait(timeout=300)
        assert [writer.returncode for writer in writers] == [0, 0]
        assert seen and seen <= {"bnb", "scipy"}
        assert reader.lookup(key) in records
        assert list(tmp_path.rglob("*.tmp")) == []


class TestActiveCacheContext:
    def test_use_cache_installs_and_restores(self):
        cache = SolutionCache()
        assert get_solve_cache() is None
        with use_cache(cache):
            assert get_solve_cache() is cache
            knapsack_model().solve()
        assert get_solve_cache() is None
        assert cache.misses == 1

    def test_explicit_false_bypasses_active_cache(self):
        cache = SolutionCache()
        with use_cache(cache):
            knapsack_model().solve(cache=False)
            knapsack_model().solve(cache=False)
        assert cache.misses == 0 and cache.hits == 0

    def test_set_solve_cache_roundtrip(self):
        cache = SolutionCache()
        previous = set_solve_cache(cache)
        try:
            assert get_solve_cache() is cache
        finally:
            set_solve_cache(previous)
        assert get_solve_cache() is previous


class TestDesignFlowCaching:
    def test_design_through_cache_matches_uncached(self, s1):
        problem = DesignProblem(soc=s1, arch=TamArchitecture([16, 16]), timing="serial")
        cold = design(problem, cache=False)
        cache = SolutionCache()
        warm_miss = design(problem, cache=cache)
        warm_hit = design(problem, cache=cache)
        assert warm_hit.makespan == pytest.approx(cold.makespan)
        assert warm_miss.makespan == pytest.approx(cold.makespan)
        assert warm_hit.stats.cache_hit
        assert cache.hits == 1 and cache.misses == 1

    def test_warm_f1_rerun_performs_zero_solves(self, s1, tmp_path):
        """ISSUE acceptance: a warm-cache F1 re-run issues no fresh B&B solves."""
        grid = dict(soc=s1, bus_counts=(2,), total_widths=[8, 16, 24])
        cold = ExperimentConfig(cache_dir=str(tmp_path / "f1"))
        first = run_experiment("F1", config=cold, **grid)
        assert cold.cache.misses > 0  # the cold run actually solved

        warm = ExperimentConfig(cache_dir=str(tmp_path / "f1"))
        second = run_experiment("F1", config=warm, **grid)
        assert warm.cache.misses == 0  # every solve answered from the store
        assert warm.cache.hits > 0
        assert second.telemetry.cache_misses == 0
        assert second.telemetry.nodes == 0  # zero fresh branch-and-bound work
        assert [t.render() for t in first.tables] == [t.render() for t in second.tables]
