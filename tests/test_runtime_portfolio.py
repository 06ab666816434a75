"""The racing portfolio: policy, dispatch, cross-feed pruning, provenance."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    DEFAULT_PORTFOLIO_POLICY,
    DesignProblem,
    PortfolioPolicy,
    SolvePolicy,
    SolverOptions,
    TamArchitecture,
    build_d695,
    design,
    run_portfolio,
)
from repro.cli import main
from repro.ilp.solution import Status
from repro.runtime.portfolio import EntrantRecord, PortfolioReport
from repro.runtime.telemetry import RunTelemetry
from repro.util.errors import InfeasibleError


def _top2_power(soc) -> float:
    powers = sorted(core.test_power for core in soc.cores)
    return round(powers[-1] + powers[-2], 1)


@pytest.fixture(scope="module")
def d695_pw():
    """The power-constrained d695 instance where cross-feeding prunes."""
    soc = build_d695()
    return DesignProblem(
        soc,
        TamArchitecture((32, 16, 16, 8)),
        timing="serial",
        power_budget=_top2_power(soc),
    )


def race_policy(**portfolio_kwargs) -> SolvePolicy:
    return SolvePolicy(solver=SolverOptions(portfolio=PortfolioPolicy(**portfolio_kwargs)))


class TestPortfolioPolicy:
    def test_default_races_everything(self):
        assert DEFAULT_PORTFOLIO_POLICY.enabled
        assert DEFAULT_PORTFOLIO_POLICY.exact
        assert DEFAULT_PORTFOLIO_POLICY.heuristics == ("lpt", "sa")

    def test_disabled_is_distinct_from_unset(self):
        off = PortfolioPolicy.disabled()
        assert not off.enabled and not off.exact and off.heuristics == ()
        assert SolverOptions().portfolio is None

    def test_unknown_duplicate_and_negative_rejected(self):
        with pytest.raises(ValueError, match="unknown portfolio entrant"):
            PortfolioPolicy(entrants=("bnb", "tabu"))
        with pytest.raises(ValueError, match="duplicate"):
            PortfolioPolicy(entrants=("lpt", "lpt"))
        with pytest.raises(ValueError, match="jobs must be an integer"):
            PortfolioPolicy(jobs=1.5)

    def test_cache_token_excludes_jobs(self):
        assert (
            PortfolioPolicy(jobs=1).cache_token()
            == PortfolioPolicy(jobs=8).cache_token()
        )
        assert (
            PortfolioPolicy(seed=0).cache_token()
            != PortfolioPolicy(seed=1).cache_token()
        )

    def test_solver_options_token_carries_portfolio(self):
        plain = SolverOptions().cache_token()
        racing = SolverOptions(portfolio=PortfolioPolicy()).cache_token()
        assert plain != racing
        assert PortfolioPolicy().cache_token() in racing

    def test_round_trip_through_solve_policy_dicts(self):
        policy = SolvePolicy(
            deadline=2.0,
            solver=SolverOptions(
                portfolio=PortfolioPolicy(entrants=("lpt", "bnb"), seed=7, jobs=3)
            ),
        )
        again = SolvePolicy.from_dict(policy.as_dict())
        assert again == policy
        assert again.solver.portfolio.entrants == ("lpt", "bnb")
        assert again.solver.portfolio.jobs == 3


class TestDispatch:
    def test_design_dispatches_to_portfolio(self, d695_pw):
        result = design(d695_pw, policy=race_policy(), cache=False)
        assert result.portfolio is not None
        assert result.status is Status.OPTIMAL
        assert {record.name for record in result.portfolio.entrants} == {
            "lpt",
            "sa",
            "bnb",
        }
        assert "portfolio[" in result.describe()

    def test_non_bnb_backend_rejected(self, d695_pw):
        with pytest.raises(ValueError, match="portfolio"):
            design(d695_pw, backend="greedy", policy=race_policy(), cache=False)

    def test_incumbent_and_portfolio_are_exclusive(self, d695_pw):
        from repro.tam.assignment import Assignment

        incumbent = Assignment(
            d695_pw.soc, d695_pw.arch, tuple([0] * len(d695_pw.soc))
        )
        with pytest.raises(ValueError, match="incumbent"):
            design(d695_pw, policy=race_policy(), incumbent=incumbent, cache=False)

    def test_run_portfolio_requires_enabled_policy(self, d695_pw):
        with pytest.raises(ValueError, match="enabled portfolio"):
            run_portfolio(d695_pw, SolvePolicy())
        with pytest.raises(ValueError, match="enabled portfolio"):
            run_portfolio(
                d695_pw,
                SolvePolicy(solver=SolverOptions(portfolio=PortfolioPolicy.disabled())),
            )


class TestCrossFeed:
    def test_incumbent_prunes_the_exact_tree(self, d695_pw):
        cold = design(d695_pw, policy=SolvePolicy(), cache=False)
        raced = design(d695_pw, policy=race_policy(), cache=False)
        assert raced.status is Status.OPTIMAL
        assert raced.makespan == pytest.approx(cold.makespan)
        assert raced.portfolio.cross_fed
        bnb = raced.portfolio.entrant("bnb")
        assert bnb is not None
        assert bnb.nodes < cold.stats.nodes  # the cross-fed cutoff prunes

    def test_explicit_incumbent_matches_warm_start_channel(self, d695_pw):
        from repro.core.baselines import lpt_assignment

        incumbent = lpt_assignment(d695_pw).assignment
        warm = design(d695_pw, incumbent=incumbent, cache=False)
        cold = design(d695_pw, cache=False)
        assert warm.status is Status.OPTIMAL
        assert warm.makespan == pytest.approx(cold.makespan)
        assert warm.stats.nodes <= cold.stats.nodes

    def test_tie_attribution_goes_to_the_heuristic(self, d695_pw):
        # On this instance the SA incumbent is optimal: B&B only proves it,
        # so the heuristic keeps the win.
        raced = design(d695_pw, policy=race_policy(), cache=False)
        heur_best = min(
            record.makespan
            for record in raced.portfolio.entrants
            if record.name != "bnb" and record.makespan is not None
        )
        if heur_best == pytest.approx(raced.makespan):
            assert raced.portfolio.winner != "bnb"

    def test_budget_sharing_floors_the_exact_leg(self, d695_pw):
        # A deadline smaller than any heuristic's wall still leaves B&B its
        # MIN_EXACT_BUDGET floor: the race completes and reports the shared
        # deadline it ran under.
        raced = design(
            d695_pw,
            policy=SolvePolicy(
                deadline=0.001,
                solver=SolverOptions(portfolio=PortfolioPolicy()),
            ),
            cache=False,
        )
        assert raced.portfolio.shared_deadline == pytest.approx(0.001)
        assert raced.portfolio.entrant("bnb") is not None
        assert raced.makespan > 0


class TestHeuristicOnly:
    def test_certified_gap_and_provenance(self, d695_pw):
        result = design(
            d695_pw, policy=race_policy(entrants=("lpt", "sa")), cache=False
        )
        assert result.status is Status.FEASIBLE
        assert result.backend == "portfolio"
        assert result.portfolio.winner in ("lpt", "sa")
        assert not result.portfolio.cross_fed
        assert result.stats.best_bound is not None
        assert result.portfolio.gap is not None and result.portfolio.gap >= 0.0
        # The certified bound really is a lower bound on the exact optimum.
        exact = design(d695_pw, cache=False)
        assert result.stats.best_bound <= exact.makespan + 1e-9
        assert result.makespan >= exact.makespan - 1e-9
        assert result.fallback is not None
        assert result.fallback.source == result.portfolio.winner

    def test_infeasible_when_no_entrant_succeeds(self):
        soc = build_d695()
        # Under fixed-width timing the 32-wide s38584 fits no 16/8 bus, so
        # every heuristic fails and the heuristic-only race must say so.
        problem = DesignProblem(soc, TamArchitecture((16, 8)), timing="fixed")
        with pytest.raises(InfeasibleError):
            design(problem, policy=race_policy(entrants=("lpt", "sa")), cache=False)


class TestReportSurface:
    def test_entrant_record_and_report_dicts(self):
        record = EntrantRecord(
            name="lpt", status="feasible", makespan=10.0, wall_time=0.1
        )
        report = PortfolioReport(
            winner="lpt",
            gap=0.0,
            best_bound=10.0,
            cross_fed=True,
            shared_deadline=None,
            wall_time=0.2,
            entrants=[record],
        )
        payload = report.as_dict()
        assert payload["winner"] == "lpt"
        assert payload["entrants"][0] == record.as_dict()
        assert report.entrant("lpt") is record
        assert report.entrant("bnb") is None
        text = report.render()
        assert "lpt=feasible@10" in text and "cross-fed" in text

    def test_telemetry_counts_races(self):
        telemetry = RunTelemetry()
        telemetry.record_portfolio(None)  # no-op
        telemetry.record_portfolio(
            PortfolioReport(
                winner="sa", gap=0.0, best_bound=1.0, cross_fed=True,
                shared_deadline=None, wall_time=0.1,
            )
        )
        telemetry.record_portfolio(
            PortfolioReport(
                winner="bnb", gap=0.0, best_bound=1.0, cross_fed=False,
                shared_deadline=None, wall_time=0.1,
            )
        )
        assert telemetry.portfolio_runs == 2
        assert telemetry.portfolio_heuristic_wins == 1
        assert telemetry.portfolio_cross_fed == 1
        other = RunTelemetry()
        other.merge(telemetry)
        assert other.portfolio_runs == 2
        assert "portfolio races" in telemetry.render()


class TestCliAndWire:
    def test_design_portfolio_json_carries_provenance(self, capsys):
        assert (
            main(["design", "S1", "--widths", "16,16", "--portfolio", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        race = payload["portfolio"]
        assert race["winner"] in ("lpt", "sa", "bnb")
        assert {entry["name"] for entry in race["entrants"]} == {"lpt", "sa", "bnb"}
        assert race["gap"] is not None

    def test_entrants_flag_narrows_the_race(self, capsys):
        args = [
            "design", "S1", "--widths", "16,16",
            "--portfolio-entrants", "lpt,sa", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible"
        assert {e["name"] for e in payload["portfolio"]["entrants"]} == {"lpt", "sa"}

    def test_no_portfolio_contradiction_rejected(self, capsys):
        args = [
            "design", "S1", "--widths", "16,16",
            "--no-portfolio", "--portfolio-seed", "3",
        ]
        assert main(args) != 0
