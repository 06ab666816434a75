"""Tests for the flow engine (project/callgraph/dataflow) and the D-rules.

The load-bearing tests here are the *seeded mutation* ones: they copy the
real ``src/repro`` tree, re-introduce a specific cache-soundness bug
(deleting the ``cache_token`` canonicalization; forwarding a solver knob
around the fingerprint; opting a forwarded field out of the derived token;
writing a policy token by hand), and assert rule D001 turns red — proving
the rule checks structure, not a hard-coded pass list. The complementary
property test asserts the real tree is D-clean with zero waivers. That the derived tokens themselves cover every cached
field is pinned by the property tests in ``test_obs_fields.py``.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.code_lint import lint_paths
from repro.analysis.flow import (
    build_call_graph,
    function_origins,
    load_project,
    run_project_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def project_from(tmp_path, files):
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src))
    return load_project(sorted(tmp_path.rglob("*.py")))


def d_rules(report):
    return sorted(d.rule for d in report.diagnostics)


class TestProjectResolution:
    def test_aliased_from_import(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/impl.py": "def work():\n    return 1\n",
                "pkg/user.py": "from pkg.impl import work as w\n",
            },
        )
        user = project.module("pkg.user")
        resolved = project.resolve_name(user, "w")
        assert resolved.module.name == "pkg.impl"
        assert resolved.name == "work"

    def test_reexport_chain_through_package_init(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.sub import helper\n",
                "pkg/sub/__init__.py": "from pkg.sub.impl import helper\n",
                "pkg/sub/impl.py": "def helper():\n    return 2\n",
                "app.py": "from pkg import helper\n",
            },
        )
        app = project.module("app")
        resolved = project.resolve_name(app, "helper")
        assert resolved.module.name == "pkg.sub.impl"

    def test_relative_import_resolution(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/impl.py": "def work():\n    return 1\n",
                "pkg/user.py": "from .impl import work\n",
            },
        )
        resolved = project.resolve_name(project.module("pkg.user"), "work")
        assert resolved.module.name == "pkg.impl"

    def test_reexport_cycle_does_not_recurse_forever(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "a.py": "from b import thing\n",
                "b.py": "from a import thing\n",
            },
        )
        resolved = project.resolve_name(project.module("a"), "thing")
        assert resolved.is_external

    def test_real_runtime_reexport(self):
        project = load_project(sorted(SRC_REPRO.rglob("*.py")))
        runtime = project.module("repro.runtime")
        assert runtime is not None
        resolved = project.resolve_name(runtime, "run_parallel")
        assert resolved.module.name == "repro.runtime.parallel"


class TestCallGraph:
    FILES = {
        "pkg/__init__.py": "from pkg.work import job\n",
        "pkg/work.py": """\
            import functools

            def leaf():
                return 1

            def job():
                return leaf()

            def via_partial():
                return functools.partial(leaf, 1)
            """,
        "app.py": """\
            from pkg import job as aliased

            def main():
                return aliased()
            """,
    }

    def test_edges_through_alias_and_reexport(self, tmp_path):
        project = project_from(tmp_path, self.FILES)
        graph = build_call_graph(project)
        assert "pkg.work.leaf" in graph.reachable("app.main")

    def test_partial_target_is_an_edge(self, tmp_path):
        project = project_from(tmp_path, self.FILES)
        graph = build_call_graph(project)
        assert "pkg.work.leaf" in graph.callees("pkg.work.via_partial")

    def test_reaches_any(self, tmp_path):
        project = project_from(tmp_path, self.FILES)
        graph = build_call_graph(project)
        assert graph.reaches_any("app.main", {"pkg.work.leaf"})
        assert not graph.reaches_any("pkg.work.leaf", {"app.main"})


class TestDataflow:
    def origins_of(self, src):
        import ast

        tree = ast.parse(textwrap.dedent(src))
        return function_origins(tree.body[0])

    def test_kwargs_flow_through_dict_copy_and_update(self):
        info = self.origins_of(
            """\
            def solve(self, backend, policy=None, **options):
                effective = dict(options)
                effective.update(policy.backend_options(backend))
                key_options = dict(effective)
                return key_options
            """
        )
        assert info.var_keyword == "options"
        roots = info.of_name("key_options")
        assert "param:options" in roots and "param:policy" in roots

    def test_subscript_store_folds_into_container(self):
        info = self.origins_of(
            """\
            def f(knob):
                d = {}
                d["k"] = knob
                return d
            """
        )
        assert "param:knob" in info.of_name("d")

    def test_reassigned_parameter_keeps_param_root(self):
        info = self.origins_of(
            """\
            def f(policy, options):
                policy = shim(policy, options)
                return policy
            """
        )
        assert "param:policy" in info.of_name("policy")


class TestD001SeededMutations:
    """The acceptance-criteria tests: known cache bugs must turn D001 red."""

    @pytest.fixture()
    def mutable_tree(self, tmp_path):
        dst = tmp_path / "repro"
        shutil.copytree(SRC_REPRO, dst)
        return dst

    def run_rules(self, tree):
        return run_project_rules(load_project(sorted(tree.rglob("*.py"))))

    def test_pristine_tree_is_clean(self, mutable_tree):
        assert d_rules(self.run_rules(mutable_tree)) == []

    def test_deleting_cache_token_canonicalization_fires(self, mutable_tree):
        fingerprint = mutable_tree / "runtime" / "fingerprint.py"
        text = fingerprint.read_text()
        needle = 'getattr(value, "cache_token", None)'
        assert needle in text, "expected the protocol probe to delete"
        fingerprint.write_text(text.replace(needle, "None"))
        report = self.run_rules(mutable_tree)
        assert "D001" in d_rules(report)
        assert any("cache_token" in d.message for d in report.diagnostics)

    def test_unhashed_solver_knob_fires(self, mutable_tree):
        model = mutable_tree / "ilp" / "model.py"
        text = model.read_text()
        dispatch = "solution = solver(self, **effective)"
        signature = "policy: SolvePolicy | None = None,"
        assert dispatch in text and signature in text
        text = text.replace(
            dispatch, "solution = solver(self, branching_hint=branching_hint, **effective)"
        )
        text = text.replace(
            signature, signature + "\n        branching_hint: str | None = None,", 1
        )
        model.write_text(text)
        report = self.run_rules(mutable_tree)
        offenders = [d for d in report.diagnostics if d.rule == "D001"]
        assert offenders, "new result-affecting kwarg skipped the fingerprint"
        assert any("branching_hint" in d.message for d in offenders)

    def opt_out_field(self, tree, name, annotation):
        """Take a forwarded field out of the derived token, as a misplaced
        ``metadata={"cache": False}`` would, and return the D001 findings."""
        policy = tree / "obs" / "policy.py"
        text = policy.read_text()
        declaration = f"    {name}: {annotation} = None\n"
        assert text.count(declaration) == 1, f"expected the {name} field to opt out"
        opted_out = (
            f"    {name}: {annotation} = "
            'field(default=None, metadata={"cache": False})\n'
        )
        policy.write_text(text.replace(declaration, opted_out))
        report = self.run_rules(tree)
        return [d for d in report.diagnostics if d.rule == "D001"]

    def test_deleting_deadline_token_contribution_fires(self, mutable_tree):
        # SolvePolicy's token must keep the deadline it forwards as the
        # backend's time limit; dropping it would replay a solve cut short
        # by one deadline for a request with another.
        offenders = self.opt_out_field(mutable_tree, "deadline", "float | None")
        assert offenders, "deadline dropped from the policy token undetected"
        assert any("SolvePolicy.deadline" in d.message for d in offenders)

    def test_deleting_node_budget_token_contribution_fires(self, mutable_tree):
        # Same guard for an effort field: a solve truncated by its node
        # budget must never be replayed for an uncapped request.
        offenders = self.opt_out_field(mutable_tree, "node_budget", "int | None")
        assert offenders, "node_budget dropped from the policy token undetected"
        assert any("SolvePolicy.node_budget" in d.message for d in offenders)

    def test_hand_written_token_on_an_options_class_fires(self, mutable_tree):
        # A hand-written token is a second field list that can drift from
        # the fields backend_options() forwards; only the derived one passes.
        policy = mutable_tree / "obs" / "policy.py"
        text = policy.read_text()
        anchor = (
            '    def backend_options(self, backend: str = "bnb") -> dict[str, Any]:\n'
            '        """The solver kwargs this policy implies for ``backend``."""'
        )
        assert text.count(anchor) == 1, "expected SolvePolicy.backend_options to anchor on"
        hand_written = (
            "    def cache_token(self) -> str:\n"
            '        return f"policy(node_budget={self.node_budget!r})"\n\n'
        )
        policy.write_text(text.replace(anchor, hand_written + anchor))
        report = self.run_rules(mutable_tree)
        offenders = [d for d in report.diagnostics if d.rule == "D001"]
        assert offenders, "hand-written SolvePolicy.cache_token went undetected"
        assert any(
            "SolvePolicy" in d.message and "by hand" in d.message for d in offenders
        )

    def test_inherited_token_is_clean(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "base.py": """\
                    class Derived:
                        def cache_token(self):
                            return repr(self)
                    """,
                "pol.py": """\
                    from base import Derived

                    class Policy(Derived):
                        def backend_options(self, backend):
                            return {"time_limit": self.deadline}
                    """,
            },
        )
        assert d_rules(run_project_rules(project)) == []

    def test_policy_field_outside_token_and_options_fires(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pol.py": """\
                    class Policy:
                        def backend_options(self, backend):
                            options = {}
                            options["time_limit"] = self.deadline
                            if self.lp_method == "dual":
                                pass
                            return options

                        def cache_token(self):
                            return (self.deadline,)
                    """
            },
        )
        report = run_project_rules(project)
        assert d_rules(report) == ["D001"]
        message = report.diagnostics[0].message
        assert "Policy" in message and "by hand" in message

    def test_request_field_outside_token_and_options_fires(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "req.py": """\
                    class Request:
                        def request_options(self):
                            options = {}
                            options["backend"] = self.backend
                            if self.shortcut:
                                pass
                            return options

                        def cache_token(self):
                            return (self.backend,)
                    """
            },
        )
        report = run_project_rules(project)
        assert d_rules(report) == ["D001"]
        message = report.diagnostics[0].message
        assert "Request" in message and "by hand" in message
        assert "request_options" in message


class TestD002PoolPurity:
    RUNTIME = """\
        def run_parallel(fn, items, max_workers=1):
            return [fn(item) for item in items]
        """

    def check(self, tmp_path, caller_src):
        project = project_from(
            tmp_path, {"rt.py": self.RUNTIME, "caller.py": caller_src}
        )
        return run_project_rules(project)

    def test_top_level_worker_is_clean(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from rt import run_parallel

            def worker(item):
                return item * 2

            def sweep(items):
                return run_parallel(worker, items)
            """,
        )
        assert d_rules(report) == []

    def test_lambda_is_flagged(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from rt import run_parallel

            def sweep(items):
                return run_parallel(lambda item: item * 2, items)
            """,
        )
        assert d_rules(report) == ["D002"]

    def test_nested_def_is_flagged(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from rt import run_parallel

            def sweep(items):
                def worker(item):
                    return item * 2
                return run_parallel(worker, items)
            """,
        )
        assert d_rules(report) == ["D002"]

    def test_global_writing_worker_is_flagged(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from rt import run_parallel

            TOTALS = {}

            def worker(item):
                TOTALS[item] = item * 2
                return item

            def sweep(items):
                return run_parallel(worker, items)
            """,
        )
        assert d_rules(report) == ["D002"]
        assert "TOTALS" in report.diagnostics[0].message

    def test_global_statement_is_flagged(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from rt import run_parallel

            COUNT = 0

            def worker(item):
                global COUNT
                COUNT += 1
                return item

            def sweep(items):
                return run_parallel(worker, items)
            """,
        )
        assert "D002" in d_rules(report)

    def test_mutator_call_on_module_container_is_flagged(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from rt import run_parallel

            RESULTS = []

            def worker(item):
                RESULTS.append(item)
                return item

            def sweep(items):
                return run_parallel(worker, items)
            """,
        )
        assert d_rules(report) == ["D002"]

    def test_partial_over_top_level_worker_is_clean(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from functools import partial

            from rt import run_parallel

            def worker(scale, item):
                return item * scale

            def sweep(items):
                return run_parallel(partial(worker, 2), items)
            """,
        )
        assert d_rules(report) == []

    def test_real_tree_call_sites_are_clean(self):
        report = run_project_rules(load_project(sorted(SRC_REPRO.rglob("*.py"))))
        assert [d for d in report.diagnostics if d.rule == "D002"] == []


class TestD003Determinism:
    SINKY = """\
        class Solution:
            def __init__(self, values):
                self.values = values
        """

    def check(self, tmp_path, caller_src):
        project = project_from(
            tmp_path, {"sol.py": self.SINKY, "caller.py": caller_src}
        )
        return run_project_rules(project)

    def test_set_iteration_on_result_path_is_flagged(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from sol import Solution

            def build(names):
                chosen = set(names)
                return Solution([n for n in chosen])
            """,
        )
        assert d_rules(report) == ["D003"]

    def test_sorted_set_is_clean(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from sol import Solution

            def build(names):
                chosen = set(names)
                return Solution([n for n in sorted(chosen)])
            """,
        )
        assert d_rules(report) == []

    def test_set_iteration_off_result_path_is_clean(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            def log_membership(names):
                chosen = set(names)
                return [n for n in chosen]
            """,
        )
        assert d_rules(report) == []

    def test_module_level_set_constant_is_tracked(self, tmp_path):
        report = self.check(
            tmp_path,
            """\
            from sol import Solution

            KNOWN = {"a", "b"}

            def build():
                return Solution(list(KNOWN))
            """,
        )
        assert d_rules(report) == ["D003"]

    def test_unseeded_rng_on_result_path_is_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "sol.py": self.SINKY,
                "rng.py": "def make_rng(seed=None):\n    return seed\n",
                "caller.py": """\
                    from rng import make_rng
                    from sol import Solution

                    def build():
                        rng = make_rng()
                        return Solution([rng])
                    """,
            },
        )
        report = run_project_rules(project)
        assert d_rules(report) == ["D003"]

    def test_seeded_rng_is_clean(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "sol.py": self.SINKY,
                "rng.py": "def make_rng(seed=None):\n    return seed\n",
                "caller.py": """\
                    from rng import make_rng
                    from sol import Solution

                    def build():
                        rng = make_rng(1234)
                        return Solution([rng])
                    """,
            },
        )
        assert d_rules(run_project_rules(project)) == []


class TestD004FacadeIntegrity:
    def test_unresolvable_facade_import_is_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mylib/__init__.py": "",
                "mylib/core.py": "def real():\n    return 1\n",
                "mylib/api.py": """\
                    from mylib.core import real, vanished

                    __all__ = ["real", "vanished"]
                    """,
            },
        )
        report = run_project_rules(project)
        assert d_rules(report) == ["D004"]
        assert "vanished" in report.diagnostics[0].message

    def test_ghost_dunder_all_entry_is_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mylib/__init__.py": "",
                "mylib/core.py": "def real():\n    return 1\n",
                "mylib/api.py": """\
                    from mylib.core import real

                    __all__ = ["real", "ghost"]
                    """,
            },
        )
        report = run_project_rules(project)
        assert d_rules(report) == ["D004"]
        assert "ghost" in report.diagnostics[0].message

    def test_consumer_deep_import_of_blessed_symbol_is_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mylib/__init__.py": "",
                "mylib/core.py": "def real():\n    return 1\n",
                "mylib/api.py": 'from mylib.core import real\n\n__all__ = ["real"]\n',
                "bench.py": "from mylib.core import real\n",
            },
        )
        report = run_project_rules(project)
        assert d_rules(report) == ["D004"]
        assert "bench.py" in report.diagnostics[0].location

    def test_consumer_facade_import_is_clean(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mylib/__init__.py": "",
                "mylib/core.py": "def real():\n    return 1\n",
                "mylib/api.py": 'from mylib.core import real\n\n__all__ = ["real"]\n',
                "bench.py": "from mylib.api import real\n",
            },
        )
        assert d_rules(run_project_rules(project)) == []

    def test_package_internals_may_deep_import(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mylib/__init__.py": "",
                "mylib/core.py": "def real():\n    return 1\n",
                "mylib/api.py": 'from mylib.core import real\n\n__all__ = ["real"]\n',
                "mylib/cli.py": "from mylib.core import real\n",
            },
        )
        assert d_rules(run_project_rules(project)) == []

    def test_unblessed_symbols_may_be_deep_imported(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "mylib/__init__.py": "",
                "mylib/core.py": "def real():\n    return 1\n\ndef internal():\n    return 2\n",
                "mylib/api.py": 'from mylib.core import real\n\n__all__ = ["real"]\n',
                "bench.py": "from mylib.core import internal\n",
            },
        )
        assert d_rules(run_project_rules(project)) == []


class TestInlineWaiversForFlowRules:
    def test_inline_waiver_moves_finding_to_waived(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "rt.py": TestD002PoolPurity.RUNTIME,
                "caller.py": """\
                    from rt import run_parallel

                    def sweep(items):
                        return run_parallel(lambda item: item, items)  # lint: ignore[D002]
                    """,
            },
        )
        report = run_project_rules(project)
        assert report.diagnostics == []
        assert [d.rule for d in report.waived] == ["D002"]


class TestRealTreeFlowProperties:
    """Post-fix property: the whole repo is D-clean with zero D waivers."""

    def full_report(self):
        return lint_paths(
            [SRC_REPRO, REPO_ROOT / "examples", REPO_ROOT / "benchmarks"]
        )

    def test_no_flow_findings_anywhere(self):
        report = self.full_report()
        offenders = [d.render() for d in report.diagnostics if d.rule.startswith("D")]
        assert not offenders, "\n".join(offenders)

    def test_no_flow_waivers_in_use(self):
        report = self.full_report()
        waived = [d.render() for d in report.waived if d.rule.startswith("D")]
        assert not waived, "\n".join(waived)

    def test_per_file_rules_also_clean(self):
        report = self.full_report()
        offenders = [d.render() for d in report.diagnostics]
        assert not offenders, "\n".join(offenders)
