"""Span tracing: nesting, JSON export, flame view, phase-total invariants."""

from __future__ import annotations

import json

import pytest

from repro.core import DesignProblem, design
from repro.obs import Tracer, current_tracer, now, span, trace_solve


class TestTracerMechanics:
    def test_span_nesting_records_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.end is not None and inner.end is not None

    def test_event_attaches_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.event("tick", value=1)
        assert tracer.spans[0].events[0]["name"] == "tick"

    def test_node_events_are_sampled(self):
        tracer = Tracer(node_sample_every=10)
        for depth in range(25):
            tracer.node_event(depth=depth, bound=0.0, incumbent=None)
        # Nodes 1, 11, 21 are kept.
        assert [e["node"] for e in tracer.node_events] == [1, 11, 21]

    def test_module_helpers_are_noops_without_tracer(self):
        assert current_tracer() is None
        with span("nothing"):  # must not raise nor allocate a tracer
            pass
        assert current_tracer() is None

    def test_trace_solve_installs_and_restores(self):
        assert current_tracer() is None
        with trace_solve() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None


class TestPhaseTotals:
    def test_self_times_partition_root_duration(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                now()
            with tracer.span("b"):
                now()
        totals = tracer.phase_totals()
        assert set(totals) == {"root", "a", "b"}
        assert sum(totals.values()) == pytest.approx(tracer.traced_duration(), rel=1e-9)

    def test_traced_design_phase_totals_cover_wall_time(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with trace_solve() as tracer:
            with tracer.span("design"):
                start = now()
                design(problem, cache=False)
                wall = now() - start
        totals = tracer.phase_totals()
        # The acceptance invariant: per-phase totals sum to within 5% of the
        # measured wall time of the traced region.
        assert sum(totals.values()) == pytest.approx(wall, rel=0.05)
        assert {"formulate", "solve", "ilp.branch_and_bound", "decode"} <= set(totals)
        # The solver's spans carry perfbench's layer names. Root propagation
        # runs inside root presolve, so it has no span of its own.
        assert {
            "ilp.presolve_root.reduce",
            "ilp.simplex.root_lp",
            "ilp.conflict.graph",
            "ilp.cuts.separate",
            "ilp.branch_and_bound.dive",
        } <= set(totals)

    def test_bnb_emits_node_and_incumbent_events(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with trace_solve(node_sample_every=1) as tracer:
            design(problem, cache=False)
        assert tracer.node_events, "expected sampled B&B node events"
        sample = tracer.node_events[0]
        assert {"node", "depth", "bound", "incumbent", "t"} <= set(sample)
        incumbents = [
            e for s in tracer.spans for e in s.events if e["name"] == "incumbent"
        ]
        assert incumbents, "expected incumbent-improvement events"


class TestExports:
    def test_to_json_is_valid_and_self_contained(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with trace_solve() as tracer:
            design(problem, cache=False)
        payload = json.loads(json.dumps(tracer.to_json()))
        assert payload["version"] == 1
        assert payload["spans"], "expected recorded spans"
        ids = {s["id"] for s in payload["spans"]}
        for entry in payload["spans"]:
            assert entry["parent"] is None or entry["parent"] in ids
            assert entry["end"] is not None and entry["end"] >= entry["start"] >= 0.0
        assert sum(payload["phase_totals"].values()) == pytest.approx(
            payload["traced_duration"], rel=1e-6
        )

    def test_flame_renders_every_phase(self):
        tracer = Tracer()
        with tracer.span("alpha"):
            with tracer.span("beta"):
                pass
        text = tracer.flame()
        assert "alpha" in text and "beta" in text
        assert text.startswith("trace:")
