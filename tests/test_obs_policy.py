"""SolvePolicy semantics: budgets, degradation, cache keying.

Covers the anytime-solve path end to end: policy validation and
backend-option mapping, rejection of the removed legacy kwargs, heuristic
fallback with provenance, the capped-solve cache-key regression, incumbent
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
from repro.obs import (
    CheckpointStore,
    FallbackReport,
    SolvePolicy,
    SolverOptions,
    trace_solve,
    use_metrics,
)
from repro.runtime import RunTelemetry, SolutionCache
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
        with pytest.raises(ValidationError):
            SolvePolicy(fallback=("greedy",))

    def test_fallback_coerced_to_tuple(self):
        policy = SolvePolicy(fallback=["lpt"])
        assert policy.fallback == ("lpt",)
        assert policy.degrades

    def test_capped_and_degrades_flags(self):
        assert not SolvePolicy().is_capped
        assert SolvePolicy(node_budget=5).is_capped
        assert SolvePolicy(deadline=1.0).is_capped
        assert not SolvePolicy(fallback=()).degrades

    def test_backend_options_mapping(self):
        policy = SolvePolicy(deadline=2.0, node_budget=7, gap_tol=0.5)
        assert policy.backend_options("bnb") == {
            "node_limit": 7,
            "time_limit": 2.0,
            "gap_tol": 0.5,
        }
        # scipy understands only a time limit.
        assert policy.backend_options("scipy") == {"time_limit": 2.0}

    def test_checkpoint_settings_travel_outside_backend_options(self):
        policy = SolvePolicy(node_budget=7, checkpoint_dir="ckpt")
        assert policy.backend_options("bnb") == {"node_limit": 7}
        assert policy.checkpoint_options("bnb") == {"checkpoint_dir": "ckpt"}
        assert policy.checkpoint_options("scipy") == {}
        assert SolvePolicy().checkpoint_options("bnb") == {}

    def test_cache_token_covers_only_effort_fields(self):
        a = SolvePolicy(node_budget=5, checkpoint_dir="ckpt", fallback=())
        b = SolvePolicy(node_budget=5)
        c = SolvePolicy(node_budget=6)
        assert a.cache_token() == b.cache_token()
        assert a.cache_token() != c.cache_token()

    def test_dict_round_trip(self):
        policy = SolvePolicy(deadline=1.5, node_budget=3, fallback=("lpt",))
        assert SolvePolicy.from_dict(policy.as_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="node_limit"):
            SolvePolicy.from_dict({"node_limit": 3})

    def test_policy_is_picklable(self):
        import pickle

        policy = SolvePolicy(deadline=1.0, fallback=("lpt",))
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestCutPolicyObject:
    """``SolverOptions.cut_rounds``: the root clique-cut rounds."""

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValidationError, match="cut_rounds cannot be negative"):
            SolverOptions(cut_rounds=-1)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValidationError, match="cut_rounds must be an integer"):
                SolverOptions(cut_rounds=bad)

    def test_enabled_flag(self):
        # Unset leaves the solver default on; 0 is forwarded and turns
        # separation off.
        assert branch_and_bound.CUT_ROUNDS > 0
        assert SolverOptions().backend_options("bnb") == {}
        assert SolverOptions(cut_rounds=0).backend_options("bnb") == {"cut_rounds": 0}
        off = clique_model().solve(cut_rounds=0, cache=False)
        on = clique_model().solve(cache=False)
        assert off.stats.cut_rounds == 0 and on.stats.cut_rounds >= 1
        assert off.objective == pytest.approx(on.objective)

    def test_root_cuts_is_not_a_cut_field(self):
        # The retired root_cuts=N spelling and the retired nested cuts
        # block have no policy mapping: each is an unknown field.
        with pytest.raises(ValidationError, match="root_cuts"):
            SolverOptions.from_dict({"root_cuts": 2})
        with pytest.raises(ValidationError, match="unknown SolverOptions field.*cuts"):
            SolverOptions.from_dict({"cuts": {"rounds": 2}})
        with pytest.raises(TypeError, match="cut_policy"):
            clique_model().solve(cut_policy=None, cache=False)

    def test_dict_round_trip_and_unknown_keys(self):
        block = SolverOptions(cut_rounds=5)
        assert block.as_dict()["cut_rounds"] == 5
        assert SolverOptions.from_dict(block.as_dict()) == block
        with pytest.raises(ValidationError, match="gomory"):
            SolverOptions.from_dict({"gomory": True})

    def test_cache_token_distinguishes_every_field(self):
        tokens = {
            SolverOptions(cut_rounds=rounds).cache_token() for rounds in (None, 0, 3, 9)
        }
        assert len(tokens) == 4


class TestPresolvePolicyObject:
    """``SolverOptions.presolve_rounds``: the root model presolve passes."""

    def test_validation_rejects_bad_rounds(self):
        with pytest.raises(ValidationError, match="presolve_rounds cannot be negative"):
            SolverOptions(presolve_rounds=-1)
        for bad in (1.5, False):
            with pytest.raises(ValidationError, match="presolve_rounds must be an integer"):
                SolverOptions(presolve_rounds=bad)

    def test_enabled_flag(self):
        assert branch_and_bound.PRESOLVE_ROUNDS > 0
        assert SolverOptions(presolve_rounds=0).backend_options("bnb") == {
            "presolve_rounds": 0
        }
        off = knapsack_model().solve(presolve_rounds=0, cache=False)
        on = knapsack_model().solve(cache=False)
        assert off.stats.root_presolve_rounds == 0
        assert on.stats.root_presolve_rounds >= 1
        assert off.objective == pytest.approx(on.objective)

    def test_dict_round_trip_and_unknown_keys(self):
        block = SolverOptions(presolve_rounds=2)
        assert SolverOptions.from_dict(block.as_dict()) == block
        with pytest.raises(ValidationError, match="probing"):
            SolverOptions.from_dict({"probing": True})
        with pytest.raises(ValidationError, match="root_presolve"):
            SolverOptions.from_dict({"root_presolve": {"rounds": 2}})

    def test_cache_token_distinguishes_every_field(self):
        tokens = {
            SolverOptions(presolve_rounds=rounds).cache_token()
            for rounds in (None, 0, 4, 9)
        }
        assert len(tokens) == 4

    def test_policy_is_picklable(self):
        import pickle

        policy = SolvePolicy(solver=SolverOptions(presolve_rounds=1))
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestSolverOptionsBlock:
    def test_validation(self):
        with pytest.raises(TypeError):
            SolverOptions(checkpoint_interval=1.0)
        with pytest.raises(ValidationError, match="solver must be a SolverOptions"):
            SolvePolicy(solver={"cut_rounds": 1})

    def test_presolve_and_warm_start_forwarding(self):
        block = SolverOptions(presolve_rounds=0)
        options = block.backend_options("bnb")
        assert options == {"presolve_rounds": 0}
        assert block.backend_options("scipy") == {}
        # Node LPs always start warm: the block has no LP-basis switch, and
        # never sets the solver's own `warm_start` (an incumbent hint).
        with pytest.raises(ValidationError, match="warm_start"):
            SolverOptions.from_dict({"warm_start": False})

    def test_presolve_and_warm_start_shape_cache_token(self):
        bare = SolverOptions()
        presolve_off = SolverOptions(presolve_rounds=0)
        one_round = SolverOptions(presolve_rounds=1)
        tokens = {b.cache_token() for b in (bare, presolve_off, one_round)}
        assert len(tokens) == 3

    def test_nested_presolve_dict_round_trip(self):
        block = SolverOptions(presolve_rounds=2)
        assert SolverOptions.from_dict(block.as_dict()) == block

    def test_backend_options_forwarding(self):
        block = SolverOptions(cut_rounds=2, presolve_rounds=1)
        options = block.backend_options("bnb")
        assert options == {"cut_rounds": 2, "presolve_rounds": 1}
        # non-bnb backends understand none of these knobs
        assert block.backend_options("scipy") == {}

    def test_policy_carries_solver_block_to_backend(self):
        policy = SolvePolicy(node_budget=7, solver=SolverOptions(cut_rounds=3))
        options = policy.backend_options("bnb")
        assert options["node_limit"] == 7
        assert options["cut_rounds"] == 3
        assert policy.backend_options("scipy") == {}

    def test_cache_token_covers_the_block(self):
        bare = SolvePolicy(node_budget=5)
        cuts_on = SolvePolicy(node_budget=5, solver=SolverOptions(cut_rounds=3))
        cuts_off = SolvePolicy(node_budget=5, solver=SolverOptions(cut_rounds=0))
        tokens = {p.cache_token() for p in (bare, cuts_on, cuts_off)}
        assert len(tokens) == 3

    def test_nested_dict_round_trip(self):
        policy = SolvePolicy(
            deadline=1.5, solver=SolverOptions(cut_rounds=1, presolve_rounds=2)
        )
        assert SolvePolicy.from_dict(policy.as_dict()) == policy

    def test_flat_keys_are_unknown_fields(self):
        for key in (
            "presolve",
            "branching",
            "root_cuts",
            "cut_rounds",
            "checkpoint_interval",
            "max_retries",
            "fallback_seed",
        ):
            with pytest.raises(ValidationError, match=f"unknown SolvePolicy field.*{key}"):
                SolvePolicy.from_dict({"node_budget": 3, key: 1})

    def test_flat_key_beside_nested_block_rejected(self):
        payload = {"cut_rounds": 2, "solver": {"cut_rounds": 1}}
        with pytest.raises(ValidationError, match="unknown SolvePolicy field.*cut_rounds"):
            SolvePolicy.from_dict(payload)
        nested = SolvePolicy.from_dict({"solver": {"cut_rounds": 1}})
        assert nested.solver == SolverOptions(cut_rounds=1)

    def test_block_is_picklable(self):
        import pickle

        policy = SolvePolicy(solver=SolverOptions(cut_rounds=1))
        assert pickle.loads(pickle.dumps(policy)) == policy


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
        assert result.fallback is not None and result.fallback.degraded
        # The incumbent is a real, validated assignment.
        assert not problem.validate(result.assignment)

    def test_no_incumbent_falls_back_to_lpt(self, s1, arch3):
        # On bnb the LPT seed is the first incumbent, so LPT's rung is
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
        steps = [s["step"] for s in result.fallback.ladder]
        assert steps[0] == "exact" and "lpt" in steps
        assert metrics.counter("design.fallbacks").value == 1

    def test_empty_ladder_raises_like_legacy(self, lpt_unplaceable):
        with pytest.raises(SolverError):
            design(
                lpt_unplaceable,
                policy=SolvePolicy(node_budget=1, fallback=()),
                dive=False,
                cache=False,
            )

    def test_exact_solve_reports_exact_provenance(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(problem, policy=SolvePolicy(deadline=600.0), cache=False)
        assert result.status is Status.OPTIMAL
        assert result.provenance == "exact"
        assert not result.fallback.degraded

    def test_fallback_recorded_in_run_telemetry(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(
            problem, policy=SolvePolicy(node_budget=1), dive=False, cache=False
        )
        telemetry = RunTelemetry()
        telemetry.record(result.stats)
        telemetry.record_fallback(result.fallback)
        assert telemetry.fallbacks == 1
        assert "1 fallbacks" in telemetry.render()

    def test_fallback_report_renders_provenance(self):
        report = FallbackReport(source="sa", reason="budget")
        report.record_step("exact", "no_incumbent")
        report.record_step("sa", "ok")
        text = report.render()
        assert "source=sa" in text and "reason=budget" in text
        assert "exact:no_incumbent" in text
        assert FallbackReport().render() == "exact solve"


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
        replay = design(problem, policy=SolvePolicy(fallback=()), cache=cache)
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
