"""Tests for the wrapper substrate (scan packing and test-time curves)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc import Core
from repro.util.errors import ValidationError
from repro.wrapper import (
    design_wrapper,
    internal_scan_chains,
    pareto_widths,
    application_time,
    application_time_curve,
)
from repro.wrapper.design import WrapperDesign, _pack_lpt


def make_core(ff=100, inputs=10, outputs=8, patterns=20, width=8, name="w"):
    return Core(
        name=name,
        num_inputs=inputs,
        num_outputs=outputs,
        num_flipflops=ff,
        num_gates=1000,
        num_patterns=patterns,
        test_width=width,
        test_power=10.0,
    )


def make_scan_core(chains, inputs, outputs, patterns):
    """A core delivered with explicit (possibly uneven) internal scan chains."""
    return Core(
        name="scan",
        num_inputs=inputs,
        num_outputs=outputs,
        num_flipflops=sum(chains),
        num_gates=1000,
        num_patterns=patterns,
        test_width=8,
        test_power=10.0,
        scan_chains=tuple(chains),
    )


class TestInternalChains:
    def test_total_preserved_and_balanced(self):
        chains = internal_scan_chains(make_core(ff=103), max_length=50)
        assert sum(chains) == 103
        assert max(chains) - min(chains) <= 1
        assert max(chains) <= 50

    def test_combinational_has_none(self):
        assert internal_scan_chains(make_core(ff=0)) == []

    def test_bad_max_length_rejected(self):
        with pytest.raises(ValidationError):
            internal_scan_chains(make_core(), max_length=0)


class TestLptPacking:
    def test_single_bin(self):
        assert _pack_lpt([3, 1, 2], 1) == [6]

    def test_known_packing(self):
        totals = sorted(_pack_lpt([7, 5, 4, 3, 1], 2))
        assert totals == [10, 10]

    @given(st.lists(st.integers(1, 40), max_size=12), st.integers(1, 6))
    def test_totals_conserved(self, items, bins):
        totals = _pack_lpt(items, bins)
        assert sum(totals) == sum(items)
        assert len(totals) == bins


class TestWrapperDesign:
    def test_formula(self):
        design = WrapperDesign("c", 2, (10, 7), (9, 6))
        # (1 + max(10, 9)) * p + min(10, 9)
        assert design.application_time(5) == 11 * 5 + 9

    def test_rejects_nonpositive_patterns(self):
        with pytest.raises(ValidationError):
            WrapperDesign("c", 1, (3,), (3,)).application_time(0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValidationError):
            design_wrapper(make_core(), 0)

    def test_width_one_serializes_everything(self):
        core = make_core(ff=60, inputs=5, outputs=3, patterns=2)
        design = design_wrapper(core, 1)
        assert design.si == core.scan_in_bits
        assert design.so == core.scan_out_bits

    def test_combinational_core(self):
        core = make_core(ff=0, inputs=16, outputs=4, patterns=3)
        design = design_wrapper(core, 4)
        assert design.si == 4  # 16 input cells over 4 chains
        assert design.application_time(3) == (1 + 4) * 3 + 1

    def test_wide_wrapper_never_slower_than_narrow(self):
        core = make_core(ff=120, patterns=11)
        assert application_time(core, 8) <= application_time(core, 3)


class TestCurves:
    @given(
        st.integers(0, 300),
        st.integers(0, 60),
        st.integers(0, 60),
        st.integers(1, 60),
    )
    def test_curve_monotone_non_increasing(self, ff, inputs, outputs, patterns):
        core = make_core(ff=ff, inputs=inputs, outputs=outputs, patterns=patterns)
        curve = application_time_curve(core, 16)
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_curve_positive_everywhere(self):
        curve = application_time_curve(make_core(), 12)
        assert all(t > 0 for t in curve)

    def test_curve_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            application_time_curve(make_core(), 0)

    def test_pareto_widths_strictly_improving(self):
        core = make_core(ff=200, patterns=30)
        widths = pareto_widths(core, 32)
        assert widths[0] == 1
        times = [application_time(core, w) for w in widths]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_pareto_knee_bounded_by_content(self):
        # beyond the longest internal chain no width helps
        core = make_core(ff=100, inputs=0, outputs=0)
        knee = pareto_widths(core, 32)[-1]
        assert knee <= 32
        assert application_time(core, knee) == application_time(core, 32)

    @given(
        st.one_of(
            st.builds(
                make_core,
                ff=st.just(0),
                inputs=st.integers(0, 120),
                outputs=st.integers(0, 120),
                patterns=st.integers(1, 40),
            ),
            st.builds(
                make_scan_core,
                chains=st.lists(st.integers(1, 150), min_size=2, max_size=10),
                inputs=st.integers(0, 120),
                outputs=st.integers(0, 120),
                patterns=st.integers(1, 40),
            ),
        ),
        st.integers(1, 48),
    )
    def test_curve_matches_per_width_times(self, core, max_width):
        expected = [application_time(core, w) for w in range(1, max_width + 1)]
        assert application_time_curve(core, max_width) == expected

    @given(st.integers(1, 32))
    def test_time_matches_design(self, width):
        core = make_core(ff=77, inputs=9, outputs=4, patterns=6)
        assert application_time(core, width) == design_wrapper(core, width).application_time(6)
