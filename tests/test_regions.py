"""Region construction, membership, and mapping."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscheck import map_to_nu, map_to_s
from dstab.errors import InvalidRegionError
from dstab.regions import (
    CompositeRegion,
    HalfPlaneRegion,
    family,
    horizontal_strip,
    region_from_spec,
    region_to_spec,
    sector,
    shifted_lhp,
)

FIVE_PI_12 = 5 * math.pi / 12


def region_strategy():
    return st.tuples(
        st.floats(0.0, math.pi / 2),
        st.floats(0.0, 50.0),
        st.floats(-20.0, 0.0),
    ).map(lambda t: HalfPlaneRegion(*t))


def complex_strategy(span: float = 50.0):
    finite = st.floats(-span, span, allow_nan=False)
    return st.tuples(finite, finite).map(lambda t: complex(*t))


class TestConstructors:
    def test_shifted_lhp_is_clhp_at_zero(self):
        r = shifted_lhp(0.0)
        assert (r.theta0, r.omega0, r.sigma0) == (0.0, 0.0, 0.0)

    def test_shifted_lhp_case_study(self):
        assert shifted_lhp(-8.0).sigma0 == -8.0

    def test_shifted_lhp_membership(self):
        r = shifted_lhp(-1.0)
        assert r.margin(-2.0) >= -1e-9
        assert r.margin(-0.5) < -1e-9

    def test_shifted_lhp_rejects_positive_alpha(self):
        with pytest.raises(InvalidRegionError):
            shifted_lhp(0.5)

    def test_sector_case_study_parameters(self):
        r = sector(FIVE_PI_12)
        assert r.theta0 == pytest.approx(math.pi / 2 - FIVE_PI_12)
        assert r.omega0 == 0.0 and r.sigma0 == 0.0

    def test_sector_contains_negative_real_axis(self):
        for beta in (0.1, 0.7, 1.3):
            assert sector(beta).margin(-1.0) >= -1e-9

    def test_sector_excludes_imaginary_point(self):
        # Re{e^{-j(pi/2-beta)} * j} = cos(beta) > 0
        assert sector(FIVE_PI_12).margin(1j) < -1e-9

    def test_sector_range_errors(self):
        for beta in (0.0, math.pi / 2, -0.3, 2.0):
            with pytest.raises(InvalidRegionError):
                sector(beta)

    def test_horizontal_strip_case_study(self):
        r = horizontal_strip(24 * math.pi)
        assert r.theta0 == pytest.approx(math.pi / 2)
        assert r.omega0 == pytest.approx(24 * math.pi)

    def test_horizontal_strip_membership(self):
        gamma = 3.0
        r = horizontal_strip(gamma)
        assert r.margin(complex(-1.0, gamma + 1.0)) < -1e-9
        assert r.margin(complex(-1.0, gamma)) >= -1e-9  # closed boundary

    def test_horizontal_strip_rejects_nonpositive_gamma(self):
        with pytest.raises(InvalidRegionError):
            horizontal_strip(0.0)


class TestContains:
    def test_lhp_margin(self):
        region = shifted_lhp(-8.0)
        assert region.margin(-10.0) >= -1e-9
        assert region.margin(-10.0) == pytest.approx(2.0)

    def test_sector_margin_hand_value(self):
        region = sector(FIVE_PI_12)
        assert region.margin(-1.0) >= -1e-9
        assert region.margin(-1.0) == pytest.approx(math.cos(math.pi / 12))

    def test_strip_excludes_high_frequency(self):
        region = horizontal_strip(24 * math.pi)
        assert region.margin(complex(-1.0, 80.0)) < -1e-9
        assert region.margin(complex(-1.0, 80.0)) == pytest.approx(24 * math.pi - 80.0)

    def test_composite_is_conjunction(self):
        comp = CompositeRegion((shifted_lhp(-8.0), sector(FIVE_PI_12), horizontal_strip(24 * math.pi)))
        assert comp.margin(-20.0) >= -1e-9
        assert comp.margin(-4.0) < -1e-9          # violates the shift
        assert comp.margin(complex(-9, 80.0)) < -1e-9  # violates the strip
        assert comp.margin(-20.0) == min(p.margin(-20.0) for p in comp.parts)


class TestMapping:
    def test_identity_region(self):
        r = HalfPlaneRegion(0.0, 0.0, 0.0)
        z = complex(-1.0, 1.0)
        assert map_to_nu(r, z) == z
        assert map_to_s(r, z) == z

    def test_boundary_maps_to_imaginary_axis(self):
        assert map_to_nu(shifted_lhp(-8.0), -8.0) == pytest.approx(0.0)

    def test_strip_origin_maps_to_corner(self):
        gamma = 4.0
        assert map_to_s(horizontal_strip(gamma), 0.0) == pytest.approx(1j * gamma)

    def test_lhp_substitution(self):
        alpha = -3.0
        assert map_to_s(shifted_lhp(alpha), -1.0) == pytest.approx(-1.0 + alpha)

    @settings(max_examples=100, deadline=None)
    @given(region_strategy(), complex_strategy())
    def test_round_trip(self, region, s):
        assert abs(map_to_s(region, map_to_nu(region, s)) - s) < 1e-12 * max(1.0, abs(s))

    @settings(max_examples=100, deadline=None)
    @given(region_strategy(), complex_strategy())
    def test_membership_mapping_consistency(self, region, s):
        # The first half-plane margin is exactly -Re of the mapped point.
        m_plus, _ = region.half_margins(s)
        assert m_plus == pytest.approx(-map_to_nu(region, s).real, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(region_strategy(), complex_strategy())
    def test_conjugate_symmetry(self, region, s):
        assert region.margin(s) == pytest.approx(region.margin(s.conjugate()), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(region_strategy(), complex_strategy(), complex_strategy())
    def test_margin_is_one_lipschitz(self, region, s1, s2):
        assert abs(region.margin(s1) - region.margin(s2)) <= abs(s1 - s2) * (1 + 1e-12) + 1e-12


class TestSpecs:
    def test_named_families_round_trip(self):
        for spec in (
            {"kind": "lhp", "alpha": -8.0},
            {"kind": "sector", "beta": FIVE_PI_12},
            {"kind": "hstrip", "gamma": 24 * math.pi},
            {"kind": "halfplane", "theta0": 0.3, "omega0": 2.0, "sigma0": -1.0},
        ):
            region = region_from_spec(spec)
            back = region_to_spec(region)
            assert back["kind"] == spec["kind"]
            again = region_from_spec(back)
            assert again == region

    def test_composite_spec(self):
        region = region_from_spec([{"kind": "lhp", "alpha": -1.0}, {"kind": "sector", "beta": 1.0}])
        assert isinstance(region, CompositeRegion)
        assert len(region.parts) == 2

    def test_family_classification(self):
        assert family(shifted_lhp(-2.0)) == "lhp"
        assert family(sector(1.0)) == "sector"
        assert family(horizontal_strip(5.0)) == "hstrip"
        assert family(HalfPlaneRegion(0.4, 1.0, -1.0)) == "generic"

    def test_bad_specs(self):
        for spec in ({"kind": "disk", "r": 1.0}, {"alpha": -1.0}, {"kind": "lhp"}, "lhp",
                     {"kind": "lhp", "alpha": float("nan")}, {"kind": "lhp", "alpha": "-8"},
                     {"kind": "hstrip", "gamma": float("inf")}, {"kind": "sector", "beta": True}):
            with pytest.raises(InvalidRegionError):
                region_from_spec(spec)
