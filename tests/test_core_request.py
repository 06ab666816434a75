"""SolveRequest: the one request surface library, CLI, and service share.

Covers construction-time validation per kind, fingerprint semantics (what
is and is not result-affecting), the JSON wire round-trip, execution
parity with the direct library calls, and the CLI's request construction.
"""

from __future__ import annotations

import pytest

from repro.cli import _request_from_args, build_parser
from repro.core import DesignProblem, SolveRequest, design, resolve_soc
from repro.obs import SolvePolicy
from repro.tam import TamArchitecture
from repro.util.errors import ValidationError


def make_request(**overrides):
    base = {"kind": "design", "soc": "S1", "widths": (16, 16)}
    base.update(overrides)
    return SolveRequest(**base)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            SolveRequest(kind="tune", soc="S1")

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("design", {}),
            ("sweep", {"total_width": 24}),
            ("min_width", {"num_buses": 2}),
            ("bus_count", {"max_buses": 3}),
        ],
    )
    def test_missing_required_fields_rejected(self, kind, fields):
        with pytest.raises(ValidationError, match="missing required"):
            SolveRequest(kind=kind, soc="S1", **fields)

    def test_bad_timing_rejected(self):
        with pytest.raises(ValidationError, match="timing"):
            make_request(timing="quantum")

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            make_request(widths=(16, 0))
        with pytest.raises(ValidationError, match="positive"):
            SolveRequest(kind="sweep", soc="S1", total_width=-1, num_buses=2)
        with pytest.raises(ValidationError, match="positive"):
            make_request(jobs=0)

    def test_policy_must_be_a_policy(self):
        with pytest.raises(ValidationError, match="SolvePolicy"):
            make_request(policy={"node_budget": 3})

    @pytest.mark.parametrize(
        "payload, error",
        [
            ({"kind": "design", "widths": [16.7, 8]}, ValidationError),
            ({"kind": "design", "widths": [True, 8]}, ValidationError),
            ({"kind": "sweep", "total_width": 16.5, "num_buses": 2}, ValidationError),
            ({"kind": "sweep", "total_width": 16, "num_buses": 2.5}, ValidationError),
            ({"kind": "bus_count", "total_width": 16, "max_buses": 3.0}, ValidationError),
            ({"kind": "design", "widths": [16, 8], "jobs": 1.5}, ValidationError),
            ({"policy": {"node_budget": 2.5}}, ValidationError),
            ({"policy": {"solver": {"cut_rounds": 2.5}}}, ValidationError),
            ({"policy": {"solver": {"cut_rounds": True}}}, ValidationError),
            ({"policy": {"solver": {"presolve_rounds": 1.5}}}, ValidationError),
        ],
    )
    def test_non_integer_settings_rejected_when_built(self, payload, error):
        # Each of these used to build, then fail (or run truncated) in run().
        wire = {"kind": "design", "soc": "S1", "widths": [16, 8], **payload}
        with pytest.raises(error, match="must be .*integer"):
            SolveRequest.from_payload(wire)

    @pytest.mark.parametrize(
        "policy, message",
        [
            ({"deadline": 0}, "deadline must be positive"),
            ({"deadline": "soon"}, "deadline must be a number"),
            ({"node_budget": 0}, "node_budget must be positive"),
            ({"gap_tol": -0.5}, "gap_tol cannot be negative"),
            ({"fallback": ["tabu"]}, "unknown fallback rung"),
            ({"fallback": "lpt"}, "fallback must be a list of strings"),
            ({"checkpoint_dir": 7}, "checkpoint_dir must be a string"),
            ({"solver": 3}, "solver must be a SolverOptions"),
            ({"solver": {"cut_rounds": -1}}, "cut_rounds cannot be negative"),
            ({"solver": {"presolve_rounds": -1}}, "presolve_rounds cannot be negative"),
            ({"solver": {"portfolio": {}}}, "unknown SolverOptions field.*portfolio"),
            ({"retries": 2}, "unknown SolvePolicy field.*retries"),
        ],
    )
    def test_bad_nested_policy_is_a_validation_error(self, policy, message):
        wire = {"kind": "design", "soc": "S1", "widths": [16, 8], "policy": policy}
        with pytest.raises(ValidationError, match=message):
            SolveRequest.from_payload(wire)

    def test_widths_and_options_are_canonicalized(self):
        a = make_request(widths=[16, 16], options={"b": 2, "a": 1})
        b = make_request(widths=(16, 16), options=(("a", 1), ("b", 2)))
        assert a == b
        assert a.widths == (16, 16)
        assert a.options == (("a", 1), ("b", 2))


class TestFingerprint:
    def test_jobs_never_changes_the_fingerprint(self):
        assert make_request(jobs=1).fingerprint() == make_request(jobs=4).fingerprint()

    def test_result_affecting_fields_change_the_fingerprint(self):
        base = make_request().fingerprint()
        assert make_request(widths=(16, 8)).fingerprint() != base
        assert make_request(soc="S2").fingerprint() != base
        assert make_request(timing="fixed").fingerprint() != base
        assert make_request(options={"dive": False}).fingerprint() != base
        assert make_request(policy=SolvePolicy(node_budget=9)).fingerprint() != base

    def test_policy_checkpoint_dir_is_not_result_affecting(self):
        # The service injects a per-job checkpoint dir; that must never
        # split the dedupe identity of otherwise-equal requests.
        policy = SolvePolicy(node_budget=50)
        a = make_request(policy=policy)
        b = make_request(policy=policy.with_overrides(checkpoint_dir="/tmp/x"))
        assert a.fingerprint() == b.fingerprint()

    def test_request_options_fields_reach_cache_token(self):
        # Everything request_options() forwards must be fingerprinted
        # (flow rule D001 audits the same invariant structurally).
        token = make_request(
            backend="scipy", policy=SolvePolicy(node_budget=2), options={"k": 1}
        ).cache_token()
        assert "scipy" in token and "node_budget" in token and "k" in token


class TestWireFormat:
    def test_payload_round_trip(self):
        request = make_request(
            timing="fixed",
            power_budget=900.0,
            backend="bnb",
            policy=SolvePolicy(deadline=5.0, fallback=("lpt",)),
            jobs=2,
            options={"dive": False},
        )
        assert SolveRequest.from_payload(request.as_payload()) == request

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ValidationError, match="widht"):
            SolveRequest.from_payload({"kind": "design", "soc": "S1", "widht": [8]})

    def test_payload_requires_kind_and_soc(self):
        with pytest.raises(ValidationError, match="kind"):
            SolveRequest.from_payload({"soc": "S1"})

    def test_payload_is_minimal(self):
        assert make_request().as_payload() == {
            "kind": "design",
            "soc": "S1",
            "widths": [16, 16],
        }


class TestExecutionParity:
    def test_design_request_matches_direct_library_call(self):
        request = make_request()
        via_request = request.run()
        direct = design(
            DesignProblem(
                soc=resolve_soc("S1"), arch=TamArchitecture([16, 16]), timing="serial"
            )
        )
        assert via_request.makespan == direct.makespan
        assert via_request.assignment.bus_of == direct.assignment.bus_of

    def test_run_payload_shape(self):
        payload = make_request().run_payload()
        for key in ("kind", "soc", "makespan", "status", "assignment", "stats"):
            assert key in payload
        assert payload["kind"] == "design"
        assert payload["status"] == "optimal"

    def test_sweep_request_runs(self):
        payload = SolveRequest(
            kind="sweep", soc="S1", total_width=24, num_buses=2
        ).run_payload()
        assert payload["kind"] == "sweep"
        assert payload["best"]["makespan"] > 0


class TestCliConstructsRequests:
    def test_design_args_become_the_canonical_request(self):
        args = build_parser().parse_args(["design", "S1", "--widths", "16,16"])
        request = _request_from_args("design", args)
        assert request == make_request()

    def test_policy_flags_reach_the_request(self):
        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--node-budget", "7"]
        )
        request = _request_from_args("design", args)
        assert request.policy is not None
        assert request.policy.node_budget == 7

    def test_cut_flags_reach_the_policy_solver_block(self):
        from repro.ilp.branch_and_bound import CUT_ROUNDS

        args = build_parser().parse_args(["design", "S1", "--widths", "16,16", "--cuts"])
        request = _request_from_args("design", args)
        assert request.policy.solver.cut_rounds == CUT_ROUNDS

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--no-cuts"]
        )
        request = _request_from_args("design", args)
        assert request.policy.solver.cut_rounds == 0

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--cut-rounds", "5"]
        )
        request = _request_from_args("design", args)
        assert request.policy.solver.cut_rounds == 5
        assert request.policy.solver.presolve_rounds is None

    def test_presolve_and_warm_flags_reach_the_policy_solver_block(self):
        from repro.ilp.branch_and_bound import PRESOLVE_ROUNDS

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--no-root-presolve"]
        )
        request = _request_from_args("design", args)
        assert request.policy.solver.presolve_rounds == 0

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--root-presolve"]
        )
        request = _request_from_args("design", args)
        assert request.policy.solver.presolve_rounds == PRESOLVE_ROUNDS
        assert request.policy.solver.cut_rounds is None
        # The retry loop is gone, and its flag with it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "S1", "--widths", "16,16", "--retries", "2"])
        # Node LPs always start warm: there is no flag to turn that off.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "S1", "--widths", "16,16", "--no-warm-lps"])

    def test_presolve_and_warm_flags_are_fingerprint_stable_on_the_wire(self):
        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--no-root-presolve"]
        )
        request = _request_from_args("design", args)
        rebuilt = SolveRequest.from_payload(request.as_payload())
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()
        plain = _request_from_args(
            "design",
            build_parser().parse_args(["design", "S1", "--widths", "16,16"]),
        )
        assert rebuilt.fingerprint() != plain.fingerprint()

    def test_presolve_and_warm_flags_rejected_for_non_bnb_backend(self):
        from repro.util.errors import ValidationError

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--backend", "scipy",
             "--no-root-presolve"]
        )
        with pytest.raises(ValidationError, match="bnb"):
            _request_from_args("design", args)

    def test_contradictory_cut_flags_rejected(self):
        from repro.util.errors import ValidationError

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--no-cuts", "--cut-rounds", "3"]
        )
        with pytest.raises(ValidationError, match="contradict"):
            _request_from_args("design", args)

    def test_cut_flags_rejected_for_non_bnb_backend(self):
        from repro.util.errors import ValidationError

        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--backend", "scipy", "--cuts"]
        )
        with pytest.raises(ValidationError, match="bnb"):
            _request_from_args("design", args)

    def test_cut_flags_are_fingerprint_stable_on_the_wire(self):
        args = build_parser().parse_args(
            ["design", "S1", "--widths", "16,16", "--cut-rounds", "2"]
        )
        request = _request_from_args("design", args)
        rebuilt = SolveRequest.from_payload(request.as_payload())
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()
        plain = _request_from_args(
            "design",
            build_parser().parse_args(["design", "S1", "--widths", "16,16"]),
        )
        assert plain.fingerprint() != request.fingerprint()

    def test_sweep_args_fingerprint_identically_across_flag_order(self):
        a = build_parser().parse_args(
            ["sweep", "S1", "--total-width", "24", "--buses", "2"]
        )
        b = build_parser().parse_args(
            ["sweep", "S1", "--buses", "2", "--total-width", "24"]
        )
        assert (
            _request_from_args("sweep", a).fingerprint()
            == _request_from_args("sweep", b).fingerprint()
        )
