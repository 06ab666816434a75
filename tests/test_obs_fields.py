"""The field-derived surface of the settings classes.

:class:`~repro.obs.policy.DerivedFields` derives ``cache_token``,
``as_dict``/``from_dict`` and ``with_overrides`` from the dataclass fields
of the five policy classes and :class:`~repro.core.request.SolveRequest`.
These properties pin what that derivation must keep true for every class:

- the JSON round trip is exact (``as_payload``/``from_payload`` for the
  request, whose wire form drops defaults);
- changing a cached field changes the token — no two requests that differ
  in what a solve returns may alias — and changing an opted-out field
  (retries, fan-out, checkpoint I/O) does not;
- the opted-out set of each class is pinned here, so moving a field out of
  the key is a visible, reviewed change.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core import SolveRequest
from repro.core.request import _REQUIRED as REQUIRED_BY_KIND
from repro.obs import (
    FALLBACK_RUNGS,
    PORTFOLIO_ENTRANTS,
    CutPolicy,
    PortfolioPolicy,
    PresolvePolicy,
    SolvePolicy,
    SolverOptions,
)
from repro.obs.policy import DerivedFields
from repro.util.errors import ValidationError

#: The fields each class keeps out of its cache token.
OPTED_OUT = {
    CutPolicy: set(),
    PresolvePolicy: set(),
    PortfolioPolicy: {"jobs"},
    SolverOptions: {"checkpoint_interval"},
    SolvePolicy: {
        "max_retries",
        "retry_backoff",
        "fallback",
        "fallback_seed",
        "checkpoint_dir",
    },
    SolveRequest: {"jobs"},
}

positive = st.integers(min_value=1, max_value=64)
real = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def optional(strategy):
    return st.none() | strategy


def instances(cls, field_strategies):
    """Valid instances of ``cls`` built from one strategy per field."""

    @st.composite
    def build(draw):
        kwargs = draw(st.fixed_dictionaries(field_strategies))
        if cls is SolveRequest:
            # Fill what the kind requires so few draws are thrown away.
            for name in REQUIRED_BY_KIND[kwargs["kind"]]:
                if kwargs[name] is None:
                    kwargs[name] = draw(field_strategies[name].filter(bool))
        try:
            return cls(**kwargs)
        except (ValueError, ValidationError):
            assume(False)

    return build()


FIELDS: dict[type, dict] = {}
FIELDS[CutPolicy] = {"rounds": st.integers(0, 8)}
FIELDS[PresolvePolicy] = {"rounds": st.integers(0, 8)}
FIELDS[PortfolioPolicy] = {
    "entrants": st.permutations(PORTFOLIO_ENTRANTS).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda n: tuple(order[:n]))
    ),
    "seed": st.integers(0, 1000),
    "sa_iterations": st.integers(0, 10_000),
    "jobs": positive,
}
FIELDS[SolverOptions] = {
    "cuts": optional(instances(CutPolicy, FIELDS[CutPolicy])),
    "root_presolve": optional(instances(PresolvePolicy, FIELDS[PresolvePolicy])),
    "checkpoint_interval": optional(real),
    "portfolio": optional(instances(PortfolioPolicy, FIELDS[PortfolioPolicy])),
}
FIELDS[SolvePolicy] = {
    "deadline": optional(real),
    "node_budget": optional(positive),
    "gap_tol": optional(st.floats(min_value=0.0, max_value=10.0)),
    "max_retries": st.integers(0, 5),
    "retry_backoff": st.floats(min_value=0.0, max_value=5.0),
    "fallback": st.lists(st.sampled_from(FALLBACK_RUNGS), max_size=3).map(tuple),
    "fallback_seed": st.integers(0, 1000),
    "checkpoint_dir": optional(st.text(alphabet="abc/_", min_size=1, max_size=8)),
    "solver": optional(instances(SolverOptions, FIELDS[SolverOptions])),
}
FIELDS[SolveRequest] = {
    "kind": st.sampled_from(["design", "sweep", "min_width", "bus_count"]),
    "soc": st.sampled_from(["S1", "S2", "d695", "SYN6:3"]),
    "widths": optional(st.lists(positive, min_size=1, max_size=4).map(tuple)),
    "total_width": optional(positive),
    "num_buses": optional(positive),
    "time_budget": optional(real),
    "max_buses": optional(positive),
    "power_budget": optional(real),
    "max_pair_distance": optional(real),
    "timing": st.sampled_from(["fixed", "serial", "flexible"]),
    "backend": st.sampled_from(["bnb", "scipy"]),
    "jobs": positive,
    "options": st.dictionaries(
        st.sampled_from(["gap_tol", "dive", "presolve", "k"]),
        st.booleans() | st.integers(-100, 100) | real | st.text(max_size=4),
        max_size=3,
    ),
    "policy": optional(instances(SolvePolicy, FIELDS[SolvePolicy])),
}

CLASSES = list(FIELDS)


def key_of(value):
    """This test's own model of the key: every field outside ``OPTED_OUT``,
    nested blocks included — independent of the classes' metadata."""
    if isinstance(value, DerivedFields):
        return (
            type(value).__name__,
            tuple(
                (spec.name, key_of(getattr(value, spec.name)))
                for spec in fields(value)
                if spec.name not in OPTED_OUT[type(value)]
            ),
        )
    return value


def to_json_and_back(value):
    if isinstance(value, SolveRequest):
        return SolveRequest.from_payload(json.loads(json.dumps(value.as_payload())))
    return type(value).from_dict(json.loads(json.dumps(value.as_dict())))


def override(value, name, new):
    try:
        return value.with_overrides(**{name: new})
    except (ValueError, ValidationError):
        assume(False)


def test_opted_out_fields_are_pinned():
    for cls, expected in OPTED_OUT.items():
        declared = {spec.name for spec in fields(cls) if not spec.metadata.get("cache", True)}
        assert declared == expected, cls.__name__


def test_strategies_cover_every_field():
    for cls, strategies in FIELDS.items():
        assert set(strategies) == {spec.name for spec in fields(cls)}, cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_json_round_trip(cls, data):
    value = data.draw(instances(cls, FIELDS[cls]))
    assert to_json_and_back(value) == value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_changing_a_cached_field_changes_the_token(cls, data):
    value = data.draw(instances(cls, FIELDS[cls]))
    cached = sorted(set(FIELDS[cls]) - OPTED_OUT[cls])
    name = data.draw(st.sampled_from(cached))
    changed = override(value, name, data.draw(FIELDS[cls][name]))
    assume(key_of(changed) != key_of(value))
    assert changed.cache_token() != value.cache_token()


@pytest.mark.parametrize(
    "cls", [cls for cls in CLASSES if OPTED_OUT[cls]], ids=lambda cls: cls.__name__
)
@given(data=st.data())
def test_changing_an_opted_out_field_keeps_the_token(cls, data):
    value = data.draw(instances(cls, FIELDS[cls]))
    name = data.draw(st.sampled_from(sorted(OPTED_OUT[cls])))
    changed = override(value, name, data.draw(FIELDS[cls][name]))
    assert changed.cache_token() == value.cache_token()


def test_nested_opted_out_fields_keep_the_token():
    # An opted-out field inside a cached block stays out of the parent key.
    base = SolvePolicy(solver=SolverOptions(portfolio=PortfolioPolicy()))
    changed = SolvePolicy(
        solver=SolverOptions(checkpoint_interval=5.0, portfolio=PortfolioPolicy(jobs=4))
    )
    assert changed.cache_token() == base.cache_token()
    assert changed.cache_view() == base


def test_request_wire_form_keeps_its_layout():
    request = SolveRequest(
        kind="design",
        soc="S1",
        widths=(16, 8),
        timing="fixed",
        power_budget=900.0,
        jobs=2,
        options={"gap_tol": 0.5},
        policy=SolvePolicy(deadline=5.0),
    )
    payload = request.as_payload()
    assert list(payload) == [
        "kind", "soc", "widths", "power_budget", "timing", "jobs", "options", "policy",
    ]
    assert payload["options"] == {"gap_tol": 0.5}
    assert payload["policy"] == SolvePolicy(deadline=5.0).as_dict()
