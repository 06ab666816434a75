"""Tests for the CLI front-end and the design report."""

import pytest

from repro.cli import main, resolve_soc
from repro.core import DesignProblem, design
from repro.core.report import design_report
from repro.layout import grid_place
from repro.soc import build_s1, dump_soc, save_soc
from repro.tam import TamArchitecture


class TestResolveSoc:
    def test_builtin_names(self):
        assert resolve_soc("S1").name == "S1"
        assert resolve_soc("s2").name == "S2"

    def test_synthetic_spec(self):
        soc = resolve_soc("SYN5:42")
        assert len(soc) == 5
        assert dump_soc(soc) == dump_soc(resolve_soc("syn5:42"))

    def test_synthetic_default_seed(self):
        assert len(resolve_soc("SYN3")) == 3

    def test_file_path(self, tmp_path):
        path = tmp_path / "x.soc"
        save_soc(build_s1(), path)
        assert resolve_soc(str(path)).name == "S1"


class TestCliCommands:
    def test_describe(self, capsys):
        assert main(["describe", "S1"]) == 0
        out = capsys.readouterr().out
        assert "SOC S1" in out and "c7552" in out

    def test_design_plain(self, capsys):
        assert main(["design", "S1", "--widths", "16,16,16"]) == 0
        out = capsys.readouterr().out
        assert "TAM design report" in out
        assert "makespan:  5363" in out

    def test_design_constrained(self, capsys):
        code = main([
            "design", "S1", "--widths", "16,16,16",
            "--power-budget", "150", "--max-distance", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "constraints honored" in out
        assert "clean" in out

    def test_design_infeasible_returns_error(self, capsys):
        code = main(["design", "S1", "--widths", "4,4", "--timing", "fixed"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--cut-rounds", "-1", "cut_rounds cannot be negative"),
            ("--node-budget", "0", "node_budget must be positive"),
            ("--deadline", "0", "deadline must be positive"),
        ],
    )
    def test_out_of_range_setting_is_a_usage_error(self, capsys, flag, value, message):
        code = main(["design", "S1", "--widths", "16,16", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}, got ")
        assert err.count("\n") == 1

    def test_sweep(self, capsys):
        assert main(["sweep", "S1", "--total-width", "12", "--buses", "2"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out and "distributions" in out

    def test_buscount(self, capsys):
        assert main(["buscount", "S1", "--total-width", "16", "--max-buses", "2"]) == 0
        out = capsys.readouterr().out
        assert "bus-count exploration" in out

    def test_minwidth(self, capsys):
        assert main(["minwidth", "S1", "--buses", "2", "--time-budget", "20000"]) == 0
        out = capsys.readouterr().out
        assert "min TAM width" in out and "binary search trace" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments", "T1"]) == 0
        assert "T1" in capsys.readouterr().out

    def test_scipy_backend_flag(self, capsys):
        assert main(["design", "S1", "--widths", "16,16", "--backend", "scipy"]) == 0
        assert "scipy" in capsys.readouterr().out


class TestDesignReport:
    @pytest.fixture(scope="class")
    def constrained_result(self):
        soc = build_s1()
        problem = DesignProblem(
            soc=soc, arch=TamArchitecture([16, 16, 16]), timing="serial",
            power_budget=150.0, floorplan=grid_place(soc), max_pair_distance=7.0,
        )
        return design(problem)

    def test_report_sections(self, constrained_result):
        text = design_report(constrained_result)
        for fragment in (
            "TAM design report",
            "instance:",
            "solver:",
            "makespan:",
            "assignment:",
            "Schedule for S1",
            "power:",
            "worst concurrent pair",
            "routing:",
            "constraints honored",
        ):
            assert fragment in text, fragment

    def test_report_validates_clean(self, constrained_result):
        assert "clean" in design_report(constrained_result)

    def test_report_without_constraints_smaller(self):
        soc = build_s1()
        problem = DesignProblem(soc=soc, arch=TamArchitecture([16, 16]), timing="serial")
        text = design_report(design(problem))
        assert "worst concurrent pair" not in text
        assert "routing:" not in text
