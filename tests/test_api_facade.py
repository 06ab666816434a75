"""The repro.api facade: completeness, aliases, CLI/runtime integration."""

from __future__ import annotations

import json
from pathlib import Path

import repro.api as api
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestFacadeSurface:
    def test_all_names_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_all_is_sorted_free_of_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_blessed_aliases_are_the_real_functions(self):
        assert api.sweep_widths is api.width_sweep
        assert api.min_width is api.minimize_width
        assert api.bus_count_curve is api.explore_bus_counts

    def test_blessed_alias_map_matches_the_bindings(self):
        # BLESSED_ALIASES is the single source of truth: every entry must
        # be bound to the canonical object, and both ends must be exported.
        for alias, target in api.BLESSED_ALIASES.items():
            assert getattr(api, alias) is getattr(api, target)
            assert alias in api.__all__ and target in api.__all__

    def test_core_surface_spans_the_paper_flow(self):
        # One name from each documented group must be present.
        for name in (
            "load_soc",
            "DesignProblem",
            "design",
            "sweep_widths",
            "run_experiment",
            "ExperimentConfig",
            "solve_cached",
            "SolutionCache",
            "run_parallel",
            "RunTelemetry",
            "format_objective",
            "lint_paths",
            "ReproError",
        ):
            assert name in api.__all__

    def test_examples_pass_facade_lint(self):
        report = api.lint_paths(["examples"])
        c005 = [d for d in report if d.rule == "C005"]
        assert c005 == []


class TestFacadeManifest:
    def test_table_covers_all_exactly(self):
        rows = api.facade_table()
        assert [row["name"] for row in rows] == sorted(api.__all__)

    def test_rows_report_real_homes(self):
        for row in api.facade_table():
            assert str(row["module"]).startswith("repro"), row
            # The module must be importable and actually hold the object —
            # by name, or (for facade renames like EXPERIMENTS ->
            # experiments.REGISTRY) by identity under any name.
            module = __import__(str(row["module"]), fromlist=["_"])
            name = str(row["alias_of"] or row["name"])
            obj = getattr(api, str(row["name"]))
            assert hasattr(module, name) or any(
                getattr(module, attr) is obj for attr in dir(module)
            ), row

    def test_alias_rows_point_at_exported_targets(self):
        rows = {row["name"]: row for row in api.facade_table()}
        aliased = {
            name: row["alias_of"] for name, row in rows.items() if row["alias_of"]
        }
        assert aliased == api.BLESSED_ALIASES
        for alias, target in aliased.items():
            assert target in rows
            assert rows[alias]["module"] == rows[target]["module"]

    def test_since_values_are_sane(self):
        for row in api.facade_table():
            assert 1 <= int(str(row["since"])) <= 10, row

    def test_pr8_solver_options_surface(self):
        # The solver block left the facade with its class: the settings
        # tree is SolvePolicy alone, and cut_rounds is a bnb solver kwarg.
        # The cut wrapper class and its default constant went before it,
        # and the fallback ladder's report went after it.
        assert "SolvePolicy" in api.__all__
        for name in (
            "SolverOptions",
            "CutPolicy",
            "DEFAULT_CUT_POLICY",
            "TransientSolverError",
            "FallbackReport",
        ):
            assert name not in api.__all__ and not hasattr(api, name)

    def test_pr9_presolve_surface(self):
        # Root presolve has no setting left: neither PR 9's wrapper class
        # and default constant nor a presolve_rounds field.
        from dataclasses import fields

        assert "presolve_rounds" not in {spec.name for spec in fields(api.SolvePolicy)}
        for name in ("PresolvePolicy", "DEFAULT_PRESOLVE_POLICY"):
            assert name not in api.__all__ and not hasattr(api, name)

    def test_pr10_scale_surface(self):
        rows = {row["name"]: row for row in api.facade_table()}
        for name in ("build_p93791", "build_t512505", "corpus_names", "corpus_soc"):
            assert name in api.__all__
            assert rows[name]["since"] == 10
        # design() seeds every bnb search with LPT, so the race of
        # heuristics against B&B left the facade with its names.
        for name in (
            "PortfolioPolicy",
            "DEFAULT_PORTFOLIO_POLICY",
            "PortfolioReport",
            "EntrantRecord",
            "run_portfolio",
        ):
            assert name not in api.__all__ and not hasattr(api, name)

    def test_checked_in_manifest_matches_live_facade(self):
        manifest = REPO_ROOT / "API.md"
        assert manifest.exists(), "run: PYTHONPATH=src python -m repro.api > API.md"
        assert manifest.read_text(encoding="utf-8") == api.render_facade_manifest()


class TestCliJsonTelemetry:
    def test_design_json_carries_solve_stats(self, capsys):
        assert main(["design", "S1", "--widths", "16,16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        for key in (
            "wall_time",
            "nodes",
            "lp_solves",
            "lp_iterations",
            "incumbent_updates",
            "cache_hit",
        ):
            assert key in stats
        assert stats["cache_hit"] is False
        assert stats["nodes"] >= 1
        assert payload["status"] == "optimal"

    def test_design_json_cache_flag_roundtrip(self, capsys, tmp_path):
        args = ["design", "S1", "--widths", "16,16", "--json", "--cache", str(tmp_path)]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["stats"]["cache_hit"] is False
        assert warm["stats"]["cache_hit"] is True
        assert warm["makespan"] == cold["makespan"]
        assert warm["assignment"] == cold["assignment"]

    def test_sweep_prints_telemetry_footer(self, capsys):
        assert main(["sweep", "S1", "--total-width", "24", "--buses", "2"]) == 0
        out = capsys.readouterr().out
        assert "B&B nodes" in out and "solves" in out

    def test_experiments_jobs_flag(self, capsys):
        assert main(["experiments", "T1", "--jobs", "2"]) == 0
        assert "T1" in capsys.readouterr().out
