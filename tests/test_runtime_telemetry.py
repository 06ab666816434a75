"""Solve counters reach every sink: run telemetry, metrics and the cache.

The additive counters are declared once, on
:class:`~repro.ilp.solution.SolveCounters`; these tests pin that each of
them arrives in :class:`~repro.runtime.RunTelemetry`, in a cache record
(memory and disk), and — for the published ones — in the ``solve.*``
metrics, and that timing fields are found from metadata.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import pytest

from repro.core import DesignProblem, design
from repro.ilp import Model, quicksum
from repro.ilp.solution import SolveCounters, SolveStats
from repro.obs import use_metrics
from repro.runtime import RunTelemetry, SolutionCache

COUNTERS = [spec.name for spec in fields(SolveCounters)]

#: The ``solve.*`` counters the end-to-end benchmark reads; their names and
#: values must stay what the solver reports on its SolveStats.
BENCHMARK_COUNTERS = (
    "nodes",
    "lp_solves",
    "lp_iterations",
    "presolve_fixings",
    "presolve_pruned",
    "cuts",
    "cut_rounds",
    "root_cols_removed",
    "root_rows_removed",
    "warm_lp_solves",
    "warm_lp_fallbacks",
)


def distinct_stats(**extra) -> SolveStats:
    """Stats whose every counter holds a different nonzero value."""
    values = {
        spec.name: (i + 1) * (0.5 if spec.metadata.get("timing") else 1)
        for i, spec in enumerate(fields(SolveCounters))
    }
    return SolveStats(**values, **extra)


def knapsack_model() -> Model:
    weights = [12, 7, 11, 8, 9]
    profits = [24, 13, 23, 15, 16]
    model = Model("knapsack")
    take = [model.add_binary(f"take_{i}") for i in range(len(weights))]
    model.add_constr(quicksum(w * t for w, t in zip(weights, take)) <= 26)
    model.maximize(quicksum(p * t for p, t in zip(profits, take)))
    return model


class TestRunTelemetry:
    def test_record_keeps_every_additive_counter(self):
        stats = distinct_stats()
        telemetry = RunTelemetry()
        telemetry.record(stats)
        payload = telemetry.as_dict()
        for name in COUNTERS:
            assert payload[name] == getattr(stats, name), name
        # The counters the hand-written roll-up used to drop.
        for name in (
            "lp_time",
            "cut_rounds",
            "pseudocost_branches",
            "root_cols_removed",
            "root_rows_removed",
        ):
            assert payload[name] == getattr(stats, name) != 0, name

    def test_cache_hit_adds_no_work(self):
        telemetry = RunTelemetry()
        telemetry.record(distinct_stats(cache_hit=True))
        assert (telemetry.solves, telemetry.cache_hits, telemetry.cache_misses) == (1, 1, 0)
        assert all(getattr(telemetry, name) == 0 for name in COUNTERS)

    def test_merge_sums_everything_but_jobs(self):
        a, b = RunTelemetry(jobs=2), RunTelemetry(jobs=5)
        a.record(distinct_stats())
        b.record(distinct_stats())
        b.record_fallback("lpt")
        b.record_fallback("exact")
        a.merge(b)
        assert a.jobs == 2
        assert (a.solves, a.cache_misses, a.fallbacks) == (2, 2, 1)
        for name in COUNTERS:
            assert getattr(a, name) == 2 * getattr(distinct_stats(), name), name

    def test_counts_leave_out_timings_found_from_metadata(self):
        timings = {spec.name for spec in fields(SolveStats) if spec.metadata.get("timing")}
        assert timings == {"wall_time", "lp_time"}
        telemetry = RunTelemetry(jobs=3)
        telemetry.record(distinct_stats())
        counts = telemetry.counts()
        assert not timings & set(counts)
        assert "jobs" not in counts
        assert set(COUNTERS) - timings <= set(counts)


class TestCacheRecords:
    def test_round_trip_keeps_every_stats_field(self, tmp_path):
        model = knapsack_model()
        fresh = model.solve(cache=SolutionCache(directory=tmp_path))
        assert not fresh.cache_hit
        # A new cache over the same directory must read the record from disk.
        replay = model.solve(cache=SolutionCache(directory=tmp_path))
        assert replay.cache_hit and replay.stats.cache_hit
        expected = {**asdict(fresh.stats), "cache_hit": True}
        assert asdict(replay.stats) == expected


class TestPublishedMetrics:
    def test_solver_counters_keep_their_names_and_values(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with use_metrics() as metrics:
            solves = [design(problem, cache=False) for _ in range(2)]
        for name in BENCHMARK_COUNTERS:
            total = sum(getattr(result.stats, name) for result in solves)
            assert metrics.counter(f"solve.{name}").value == total, name
        assert metrics.counter("solve.lp_solves").value > 0
        assert metrics.histogram("solve.wall_time").count == len(solves)

    def test_every_published_counter_is_emitted(self):
        with use_metrics() as metrics:
            stats = knapsack_model().solve(cache=False).stats
        for spec in fields(SolveCounters):
            kind = spec.metadata.get("publish")
            if kind == "counter":
                assert metrics.counter(f"solve.{spec.name}").value == getattr(stats, spec.name)
            elif kind == "histogram":
                assert metrics.histogram(f"solve.{spec.name}").count == 1
        assert metrics.gauge("solve.best_bound").value == pytest.approx(stats.best_bound)
