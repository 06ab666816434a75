"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import hypothesis
import pytest

import repro

from repro.core import DesignProblem
from repro.layout import grid_place
from repro.soc import build_s1, build_s2, generate_synthetic_soc
from repro.tam import TamArchitecture, make_timing_model

# Property tests solve LPs/ILPs inside examples; a wall-clock deadline would
# flake on slow CI boxes, and a moderate example count keeps the suite fast.
hypothesis.settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("repro")


@pytest.fixture(scope="session")
def s1():
    return build_s1()


@pytest.fixture(scope="session")
def s2():
    return build_s2()


@pytest.fixture(scope="session")
def tiny_soc():
    """A 5-core deterministic synthetic SOC for exhaustive cross-checks."""
    return generate_synthetic_soc(5, seed=123)


@pytest.fixture(scope="session")
def arch2():
    return TamArchitecture([16, 16])


@pytest.fixture(scope="session")
def arch3():
    return TamArchitecture([16, 16, 16])


@pytest.fixture(scope="session")
def arch3_hetero():
    return TamArchitecture([32, 16, 8])


@pytest.fixture(scope="session")
def serial_timing():
    return make_timing_model("serial")


@pytest.fixture(scope="session")
def fixed_timing():
    return make_timing_model("fixed")


@pytest.fixture(scope="session")
def flexible_timing():
    return make_timing_model("flexible")


@pytest.fixture(scope="session")
def s1_floorplan(s1):
    return grid_place(s1)


@pytest.fixture(scope="session")
def lpt_unplaceable(s2):
    """S2 on its grid floorplan with a 13 mm layout budget over [15, 9] buses.

    LPT cannot place every core, so ``design()`` starts the search with no
    incumbent; the ILP optimum is 70,777 cycles, proven in 7 nodes.
    """
    return DesignProblem(
        soc=s2, arch=TamArchitecture([15, 9]), timing="serial",
        floorplan=grid_place(s2), max_pair_distance=13.0,
    )


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child ``python`` that imports this checkout's repro."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}
