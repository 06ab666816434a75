"""Assorted coverage: doctests, charts in figures, CLI on d695, solver edges."""

import doctest

import pytest

import repro.util.combinatorics
import repro.util.tables
from repro.cli import main


class TestDoctests:
    @pytest.mark.parametrize(
        "module", [repro.util.combinatorics, repro.util.tables], ids=lambda m: m.__name__
    )
    def test_module_doctests(self, module):
        failures, tests = doctest.testmod(module, verbose=False).failed, doctest.testmod(module).attempted
        assert tests > 0
        assert failures == 0


class TestFigureCharts:
    def test_f1_attaches_chart(self, s1):
        from repro.experiments import f1_width

        result = f1_width.run(soc=s1, bus_counts=(2,), total_widths=[8, 16, 24])
        assert result.charts, "F1 must render its staircase chart"
        assert "total TAM width" in result.charts[0]

    def test_f2_staircase_chart(self, s1):
        from repro.experiments import f2_power_curve

        result = f2_power_curve.run(soc=s1)
        assert any("P_max" in chart for chart in result.charts)
        assert "legend:" in result.charts[0]

    def test_charts_render_in_output(self, s1):
        from repro.experiments import f2_power_curve

        result = f2_power_curve.run(soc=s1)
        assert result.charts[0] in result.render()


class TestCliMore:
    def test_describe_d695(self, capsys):
        assert main(["describe", "d695"]) == 0
        out = capsys.readouterr().out
        assert "d695" in out and "s38417" in out

    def test_design_d695_flexible(self, capsys):
        code = main(["design", "d695", "--widths", "16,8,8", "--timing", "flexible"])
        assert code == 0
        assert "TAM design report" in capsys.readouterr().out

    def test_sweep_infeasible_exit_code(self, capsys):
        # Fixed timing with an 8-wire budget cannot host S1's 16-wide cores.
        code = main(["sweep", "S1", "--total-width", "8", "--buses", "2",
                     "--timing", "fixed"])
        assert code == 1
        assert "no feasible width distribution" in capsys.readouterr().out

    def test_synthetic_spec_in_design(self, capsys):
        assert main(["design", "SYN4:3", "--widths", "16,16"]) == 0
        assert "SYN4" in capsys.readouterr().out


class TestDesignerOptions:
    def test_sweep_with_warm_start(self, s1):
        # Every split of the sweep, warm-started from its LPT assignment,
        # reproduces the sweep's best makespan.
        from repro.core import DesignProblem, design, design_best_architecture
        from repro.core import lpt_assignment

        plain = design_best_architecture(s1, 16, 2, timing="serial")
        problems = [
            DesignProblem(soc=s1, arch=arch, timing="serial")
            for arch, _ in plain.per_architecture
        ]
        warm = min(
            design(problem, incumbent=lpt_assignment(problem).assignment).makespan
            for problem in problems
        )
        assert warm == pytest.approx(plain.best_makespan)

    def test_report_gantt_width_parameter(self, s1, arch3):
        from repro.core import DesignProblem, design
        from repro.core.report import design_report

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        text = design_report(design(problem), gantt_width=30)
        gantt_rows = [l for l in text.splitlines() if l.strip().startswith("bus ") and ":" in l and "." in l]
        assert gantt_rows
