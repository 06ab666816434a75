"""SolvePolicy semantics: budgets, degradation, cache keying.

Covers the anytime-solve path end to end: policy validation and
backend-option mapping, rejection of the removed legacy kwargs, the LPT
stand-in with provenance, the capped-solve cache-key regression, incumbent
checkpointing (including a resume after the solving process is killed),
and the parallel metrics-equivalence invariant.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core import DesignProblem, design, lpt_assignment, width_sweep
from repro.ilp import Model, branch_and_bound, quicksum
from repro.ilp.model import register_backend, unregister_backend
from repro.ilp.solution import Solution, Status
from repro.obs import CheckpointStore, SolvePolicy, trace_solve, use_metrics
from repro.runtime import RunTelemetry, SolutionCache
from repro.runtime.cache import solve_fingerprint
from repro.tam import TamArchitecture
from repro.util.errors import SolverError, ValidationError


def clique_model() -> Model:
    """Three pairwise-exclusive binaries: the root LP is fractional and one
    clique cut closes it."""
    model = Model("triangle")
    xs = [model.add_binary(f"x{i}") for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            model.add_constr(xs[i] + xs[j] <= 1)
    model.maximize(quicksum((3 + i) * x for i, x in enumerate(xs)))
    return model


def knapsack_model() -> Model:
    weights = [12, 7, 11, 8, 9]
    profits = [24, 13, 23, 15, 16]
    model = Model("knapsack")
    take = [model.add_binary(f"take_{i}") for i in range(len(weights))]
    model.add_constr(quicksum(w * t for w, t in zip(weights, take)) <= 26)
    model.maximize(quicksum(p * t for p, t in zip(profits, take)))
    return model


class TestPolicyObject:
    def test_validation_rejects_bad_budgets(self):
        with pytest.raises(ValidationError):
            SolvePolicy(deadline=0)
        with pytest.raises(ValidationError):
            SolvePolicy(node_budget=-1)
        with pytest.raises(ValidationError, match="node_budget must be an integer"):
            SolvePolicy(node_budget=2.5)

    def test_capped_flag(self):
        assert not SolvePolicy().is_capped
        assert not SolvePolicy(checkpoint_dir="ckpt").is_capped
        assert SolvePolicy(node_budget=5).is_capped
        assert SolvePolicy(deadline=1.0).is_capped

    def test_backend_options_mapping(self):
        policy = SolvePolicy(deadline=2.0, node_budget=7)
        assert policy.backend_options("bnb") == {"node_limit": 7, "time_limit": 2.0}
        # scipy understands only a time limit.
        assert policy.backend_options("scipy") == {"time_limit": 2.0}

    def test_checkpoint_settings_travel_outside_backend_options(self):
        policy = SolvePolicy(node_budget=7, checkpoint_dir="ckpt")
        assert policy.backend_options("bnb") == {"node_limit": 7}
        assert policy.checkpoint_options("bnb") == {"checkpoint_dir": "ckpt"}
        assert policy.checkpoint_options("scipy") == {}
        assert SolvePolicy().checkpoint_options("bnb") == {}

    def test_cache_token_covers_only_effort_fields(self):
        a = SolvePolicy(node_budget=5, checkpoint_dir="ckpt")
        b = SolvePolicy(node_budget=5)
        c = SolvePolicy(node_budget=6)
        assert a.cache_token() == b.cache_token()
        assert a.cache_token() != c.cache_token()

    def test_dict_round_trip(self):
        policy = SolvePolicy(deadline=1.5, node_budget=3, checkpoint_dir="ckpt")
        assert SolvePolicy.from_dict(policy.as_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="node_limit"):
            SolvePolicy.from_dict({"node_limit": 3})

    def test_policy_is_picklable(self):
        import pickle

        policy = SolvePolicy(deadline=1.0, checkpoint_dir="ckpt")
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestCutPolicyObject:
    """``cut_rounds``: the root clique-cut rounds, a bnb solver kwarg."""

    def test_enabled_flag(self):
        # Unset leaves the solver default on; 0 turns separation off.
        assert branch_and_bound.CUT_ROUNDS > 0
        off = clique_model().solve(cut_rounds=0, cache=False)
        on = clique_model().solve(cache=False)
        assert off.stats.cut_rounds == 0 and on.stats.cut_rounds >= 1
        assert off.objective == pytest.approx(on.objective)

    def test_root_cuts_is_not_a_cut_field(self):
        # The retired root_cuts=N spelling and the retired nested cuts
        # block have no policy mapping: each is an unknown field.
        with pytest.raises(ValidationError, match="unknown SolvePolicy field.*root_cuts"):
            SolvePolicy.from_dict({"root_cuts": 2})
        with pytest.raises(ValidationError, match="unknown SolvePolicy field.*cuts"):
            SolvePolicy.from_dict({"cuts": {"rounds": 2}})
        with pytest.raises(TypeError, match="cut_policy"):
            clique_model().solve(cut_policy=None, cache=False)

    def test_cache_token_distinguishes_every_field(self):
        # cut_rounds changes what a solve returns, so as an ad-hoc solver
        # option it is hashed into the solve key like any other.
        form = clique_model().to_matrix_form()
        keys = {
            solve_fingerprint(form, backend="bnb", options=options)
            for options in ({}, {"cut_rounds": 0}, {"cut_rounds": 3}, {"cut_rounds": 9})
        }
        assert len(keys) == 4


class TestPresolvePolicyObject:
    """Root presolve has no setting: it runs once on every bnb solve."""

    def test_validation_rejects_bad_rounds(self):
        # The retired presolve_rounds knob is no solver kwarg any more.
        with pytest.raises(TypeError, match="presolve_rounds"):
            knapsack_model().solve(presolve_rounds=0, cache=False)

    def test_enabled_flag(self):
        with trace_solve() as trace:
            solution = knapsack_model().solve(cache=False)
        assert solution.status is Status.OPTIMAL
        assert sum(1 for s in trace.spans if s.name == "ilp.presolve_root.reduce") == 1

    def test_dict_round_trip_and_unknown_keys(self):
        for key in ("presolve_rounds", "root_presolve", "probing"):
            with pytest.raises(ValidationError, match=f"unknown SolvePolicy field.*{key}"):
                SolvePolicy.from_dict({key: 2})


class TestSolverOptionsBlock:
    """The retired ``solver`` block: no class, no field, no shim."""

    def test_validation(self):
        with pytest.raises(TypeError, match="solver"):
            SolvePolicy(solver={"cut_rounds": 1})

    def test_flat_keys_are_unknown_fields(self):
        for key in (
            "presolve",
            "branching",
            "root_cuts",
            "cut_rounds",
            "presolve_rounds",
            "checkpoint_interval",
            "max_retries",
            "fallback_seed",
            "fallback",
            "gap_tol",
        ):
            with pytest.raises(ValidationError, match=f"unknown SolvePolicy field.*{key}"):
                SolvePolicy.from_dict({"node_budget": 3, key: 1})

    def test_flat_key_beside_nested_block_rejected(self):
        for payload in ({"solver": {"cut_rounds": 1}}, {"deadline": 1.0, "solver": {}}):
            with pytest.raises(ValidationError, match="unknown SolvePolicy field.*solver"):
                SolvePolicy.from_dict(payload)
        payload = {"cut_rounds": 2, "solver": {"cut_rounds": 1}}
        with pytest.raises(ValidationError, match="unknown SolvePolicy field"):
            SolvePolicy.from_dict(payload)


class TestLegacyKwargRemoval:
    def test_model_solve_rejects_node_limit(self):
        model = knapsack_model()
        with pytest.raises(TypeError, match="SolvePolicy"):
            model.solve(node_limit=1000, cache=False)

    def test_design_rejects_time_limit(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with pytest.raises(TypeError, match="SolvePolicy"):
            design(problem, time_limit=60.0, cache=False)

    def test_rejection_happens_even_with_a_policy(self):
        model = knapsack_model()
        with pytest.raises(TypeError, match="SolvePolicy"):
            model.solve(policy=SolvePolicy(node_budget=5), node_limit=3, cache=False)


class TestRetries:
    """There is no retry loop: ``Model.solve`` calls a backend once."""

    def test_no_policy_means_no_retry(self):
        calls = []

        def failing(model, **options):
            calls.append(options)
            raise SolverError("injected fault")

        register_backend("failing", failing)
        try:
            for policy in (None, SolvePolicy(node_budget=5)):
                with pytest.raises(SolverError, match="injected fault"):
                    knapsack_model().solve(backend="failing", cache=False, policy=policy)
        finally:
            unregister_backend("failing")
        assert len(calls) == 2


class TestDegradation:
    def test_budget_exhaustion_returns_incumbent(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(problem, policy=SolvePolicy(node_budget=1), cache=False)
        assert result.status is Status.FEASIBLE
        assert result.provenance == "incumbent"
        # The incumbent is a real, validated assignment.
        assert not problem.validate(result.assignment)

    def test_no_incumbent_falls_back_to_lpt(self, s1, arch3):
        # On bnb the LPT seed is the first incumbent, so the stand-in is
        # reached only through a backend that stops with nothing.
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")

        def stopped(model, **options):
            return Solution(status=Status.NODE_LIMIT, backend="stopped")

        register_backend("stopped", stopped)
        try:
            with use_metrics() as metrics:
                result = design(
                    problem, backend="stopped", policy=SolvePolicy(node_budget=1),
                    cache=False,
                )
        finally:
            unregister_backend("stopped")
        assert result.status is Status.FEASIBLE
        assert result.provenance == "lpt"
        assert result.makespan == pytest.approx(lpt_assignment(problem).makespan)
        assert "provenance: lpt" in result.describe()
        assert metrics.counter("design.fallbacks").value == 1

    def test_empty_ladder_raises_like_legacy(self, lpt_unplaceable):
        # LPT cannot place every core, so the search starts with no
        # incumbent, stops with none after one node, and the stand-in
        # fails too: the error says how the backend stopped.
        with pytest.raises(
            SolverError, match="^backend 'bnb' stopped with status node_limit after 1 nodes$"
        ):
            design(
                lpt_unplaceable, policy=SolvePolicy(node_budget=1), dive=False, cache=False
            )

    def test_exact_solve_reports_exact_provenance(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(problem, policy=SolvePolicy(deadline=600.0), cache=False)
        assert result.status is Status.OPTIMAL
        assert result.provenance == "exact"
        assert "provenance" not in result.describe()

    def test_fallback_recorded_in_run_telemetry(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(
            problem, policy=SolvePolicy(node_budget=1), dive=False, cache=False
        )
        telemetry = RunTelemetry()
        telemetry.record(result.stats)
        telemetry.record_fallback(result.provenance)
        assert telemetry.fallbacks == 1
        assert "1 fallbacks" in telemetry.render()


class TestCacheKeying:
    def test_truncated_solve_is_not_replayed_for_uncapped_request(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cache = SolutionCache()
        capped = design(problem, policy=SolvePolicy(node_budget=1), cache=cache)
        assert capped.status is Status.FEASIBLE
        exact = design(problem, cache=cache)
        assert exact.status is Status.OPTIMAL
        assert exact.makespan <= capped.makespan + 1e-9

    def test_same_capped_policy_hits_the_cache(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cache = SolutionCache()
        policy = SolvePolicy(node_budget=1)
        design(problem, policy=policy, cache=cache)
        misses = cache.misses
        replay = design(problem, policy=policy, cache=cache)
        assert cache.hits >= 1
        assert cache.misses == misses
        assert replay.stats.cache_hit

    def test_uncapped_policy_shares_key_with_no_policy(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cache = SolutionCache()
        design(problem, cache=cache)
        replay = design(problem, policy=SolvePolicy(), cache=cache)
        assert replay.stats.cache_hit


class TestCacheKeyLeavesOutUncachedFields:
    """Checkpoint settings only persist incumbents: they never split a key."""

    @pytest.fixture
    def problem(self, s1):
        return DesignProblem(soc=s1, arch=TamArchitecture([16, 8]), timing="serial")

    def test_checkpoint_dir_shares_the_key(self, problem, tmp_path):
        cache = SolutionCache()
        design(
            problem,
            policy=SolvePolicy(deadline=30, checkpoint_dir=str(tmp_path / "a")),
            cache=cache,
        )
        replay = design(
            problem,
            policy=SolvePolicy(deadline=30, checkpoint_dir=str(tmp_path / "b")),
            cache=cache,
        )
        assert replay.stats.cache_hit
        assert (cache.hits, cache.misses) == (1, 1)

    def test_flat_design_kwarg_is_an_ad_hoc_option_in_the_key(self, problem):
        # design(..., dive=False) reaches the backend like gap_tol does,
        # and is hashed into the key like any ad-hoc option.
        cache = SolutionCache()
        flat = design(problem, dive=False, cache=cache)
        assert not flat.stats.cache_hit
        assert not design(problem, cache=cache).stats.cache_hit
        assert design(problem, dive=False, cache=cache).stats.cache_hit


class TestCheckpointing:
    def test_store_keeps_best_objective(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("fp", [1.0, 0.0], objective=10.0)
        store.save("fp", [0.0, 1.0], objective=20.0)  # worse: ignored
        payload = store.load("fp")
        assert payload["objective"] == 10.0
        assert payload["values"] == [1.0, 0.0]
        assert store.load("missing") is None

    def test_bnb_resumes_from_checkpoint(self, tmp_path, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        seed_policy = SolvePolicy(node_budget=1, checkpoint_dir=str(tmp_path))
        first = design(problem, policy=seed_policy, cache=False)
        assert first.status is Status.FEASIBLE  # incumbent was checkpointed

        resume_policy = SolvePolicy(checkpoint_dir=str(tmp_path))
        with trace_solve() as tracer:
            second = design(problem, policy=resume_policy, cache=False)
        assert second.status is Status.OPTIMAL
        resumed = [
            e for s in tracer.spans for e in s.events if e["name"] == "checkpoint_resume"
        ]
        assert resumed, "expected the warm incumbent to be resumed"

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_resume_after_the_solving_process_is_killed(
        self, tmp_path, s1, arch3, child_env
    ):
        # The child solves with checkpoints on and SIGKILLs itself as soon
        # as its first checkpoint write has completed.
        child = textwrap.dedent(
            """
            import os, signal, sys
            from repro.core import DesignProblem, design
            from repro.obs import CheckpointStore, SolvePolicy
            from repro.soc import build_s1
            from repro.tam import TamArchitecture

            save = CheckpointStore.save

            def save_then_die(self, *args):
                save(self, *args)
                os.kill(os.getpid(), signal.SIGKILL)

            CheckpointStore.save = save_then_die
            problem = DesignProblem(
                soc=build_s1(), arch=TamArchitecture([16, 16, 16]), timing="serial"
            )
            design(problem, policy=SolvePolicy(checkpoint_dir=sys.argv[1]), cache=False)
            """
        )
        killed = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path)], env=child_env, timeout=300
        )
        assert killed.returncode == -signal.SIGKILL

        # The store the killed solve left behind is one whole checkpoint.
        stored = sorted(tmp_path.iterdir())
        assert [path.suffix for path in stored] == [".json"]
        fingerprint = stored[0].stem.removeprefix("incumbent-")
        assert CheckpointStore(tmp_path).load(fingerprint) is not None

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with trace_solve() as tracer:
            resumed = design(
                problem, policy=SolvePolicy(checkpoint_dir=str(tmp_path)), cache=False
            )
        events = [e["name"] for span in tracer.spans for e in span.events]
        assert "checkpoint_resume" in events
        assert resumed.status is Status.OPTIMAL
        assert resumed.makespan == pytest.approx(design(problem, cache=False).makespan)


class TestCheckpointDebounce:
    def _solver(self, tmp_path, monkeypatch, interval):
        monkeypatch.setattr(branch_and_bound, "CHECKPOINT_INTERVAL", interval)
        return branch_and_bound.BranchAndBoundSolver(
            knapsack_model(), dive=False, checkpoint_dir=str(tmp_path)
        )

    def _count_saves(self, monkeypatch):
        calls = []
        original = CheckpointStore.save

        def counting_save(self, fingerprint, values, objective):
            calls.append(objective)
            return original(self, fingerprint, values, objective)

        monkeypatch.setattr(CheckpointStore, "save", counting_save)
        return calls

    def test_interval_throttles_saves_but_final_incumbent_persists(
        self, tmp_path, monkeypatch
    ):
        calls = self._count_saves(monkeypatch)
        solver = self._solver(tmp_path, monkeypatch, interval=3600.0)
        solution = solver.solve()
        assert solution.status is Status.OPTIMAL
        assert solution.stats.incumbent_updates >= 2
        # First incumbent writes immediately; later improvements fall inside
        # the (huge) interval, and only the final flush writes again.
        assert len(calls) <= 2
        payload = solver._checkpoints.load(solver._fingerprint)
        assert payload is not None
        assert payload["objective"] == pytest.approx(-solution.objective)

    def test_zero_interval_saves_every_improvement(self, tmp_path, monkeypatch):
        calls = self._count_saves(monkeypatch)
        solver = self._solver(tmp_path, monkeypatch, interval=0.0)
        solution = solver.solve()
        assert solution.status is Status.OPTIMAL
        assert len(calls) == solution.stats.incumbent_updates


class TestParallelEquivalence:
    def test_jobs_do_not_change_aggregate_metrics(self, s1):
        aggregates = []
        for jobs in (1, 2):
            points = width_sweep(
                s1, 2, [8, 10, 12], timing="serial", jobs=jobs
            )
            total = RunTelemetry(jobs=jobs)
            for point in points:
                total.merge(point.telemetry)
            aggregates.append(total.counts())
        assert aggregates[0] == aggregates[1]
