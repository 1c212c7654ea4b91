"""The polynomial containers and their root finder, and the rational-function
algebra of the cross-check routes."""

from __future__ import annotations

import cmath
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from conftest import (
    assert_rational_close,
    companion_spectrum,
    degree,
    from_roots,
    match_distance,
    random_cpoly,
    random_crational,
    value,
)
from crosscheck import (NotSimplePoleError, compose_linear, feedback, real_equiv, residue_at, rotate,
                        substitute_affine)
from dstab.cpoly import CPoly, CRational, cluster_roots, roots
from dstab.errors import (
    DegenerateLoopError,
    NotAPoleError,
    RootFindingError,
)


class TestCPoly:
    def test_trailing_zeros_trimmed(self):
        p = CPoly((1.0, 2.0, 0.0, 0.0))
        assert degree(p) == 1

    def test_zero_polynomial(self):
        assert CPoly((0.0,)).is_zero
        assert degree(CPoly((0.0,))) == -1

    def test_relative_trim(self):
        # trailing coefficients within 1e-14 of the largest are noise
        assert degree(CPoly((1e20, 1.0, 1e7))) == 2
        assert degree(CPoly((1e20, 1.0, 1e5))) == 0

    def test_compose_linear(self):
        p = CPoly((0.0, 0.0, 1.0))  # x^2
        comp = compose_linear(p, 2.0, 1.0)  # (2x+1)^2
        assert comp.coeffs == pytest.approx((1.0, 4.0, 4.0))


class TestEval:
    def test_inverse_at_j(self):
        r = CRational.from_coeffs([1.0], [0.0, 1.0])
        assert value(r, 1j) == pytest.approx(-1j)

    def test_second_order_at_origin(self):
        r = CRational.from_coeffs([1.0, 1.0], [1.0, 1.0, 1.0])
        assert value(r, 0.0) == pytest.approx(1.0)


class TestRoots:
    def test_pure_imaginary_pair(self):
        assert roots(CPoly((1.0, 0.0, 1.0))) == pytest.approx([-1j, 1j])

    def test_constructed_factorization(self):
        p = from_roots([1 + 1j, -2.0])
        found = roots(p)
        assert match_distance(found, [1 + 1j, -2.0]) < 1e-10

    def test_zero_roots_factored(self):
        p = CPoly((0.0, 0.0, 2.0, 2.0))  # 2 x^2 (x + 1)
        assert match_distance(roots(p), [0.0, 0.0, -1.0]) < 1e-10

    def test_zero_polynomial_raises(self):
        with pytest.raises(RootFindingError):
            roots(CPoly((0.0,)))

    def test_constant_has_no_roots(self):
        assert roots(CPoly((3.0,))) == []

    def test_random_degree6_against_companion_oracle(self, rng):
        for _ in range(50):
            p = random_cpoly(rng, 6)
            found = roots(p)
            spectrum = companion_spectrum(p.coeffs)
            mine = np.array(found + [r.conjugate() for r in found])
            assert match_distance(mine, spectrum) < 1e-7

    def test_wide_scale_roots(self):
        true = [1e4, -3.0, 1e-3 + 2j]
        p = from_roots(true)
        assert match_distance(roots(p), true) < 1e-6

    def test_multiple_root(self):
        p = from_roots([-1.0, -1.0, 2.0])
        found = sorted(roots(p), key=lambda z: z.real)
        assert abs(found[0] + 1) < 1e-5 and abs(found[1] + 1) < 1e-5
        assert abs(found[2] - 2) < 1e-9

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_planted_roots_meet_residual_bound(self, rng, real):
        def draw(size):
            x = rng.standard_normal(size)
            return x + 0j if real else x + 1j * rng.standard_normal(size)

        for _ in range(300):
            degree = int(rng.integers(1, 9))
            zeros = int(rng.integers(0, min(degree, 2) + 1))
            double = degree - zeros >= 2 and rng.random() < 0.5
            free = draw(degree - zeros - 2 * double + 1)
            while abs(free[-1]) < 0.2:
                free[-1] = draw(1)[0]
            planted = [0.0] * zeros + [draw(1)[0]] * (2 * double)
            p = CPoly(np.convolve(free, from_roots(planted).coeffs))
            assert len(p.coeffs) == degree + 1
            found = roots(p)
            assert len(found) == degree
            assert found == sorted(found, key=lambda z: (z.real, z.imag))
            assert sum(r == 0 for r in found) >= zeros
            for r in found:
                scale = sum(abs(c) * max(1.0, abs(r)) ** k for k, c in enumerate(p.coeffs))
                assert abs(P.polyval(r, p.coeffs)) <= 1e-8 * scale
                if real and r.imag != 0:
                    assert r.conjugate() in found


class TestSubstituteAffine:
    def test_integrator_shift(self):
        r = CRational.from_coeffs([1.0], [0.0, 1.0])
        shifted = substitute_affine(r, 1.0, -8.0)
        assert_rational_close(shifted, CRational.from_coeffs([1.0], [-8.0, 1.0]))

    def test_integrator_sector_rotation(self):
        a = cmath.exp(1j * math.pi / 12)
        r = CRational.from_coeffs([1.0], [0.0, 1.0])
        mapped = substitute_affine(r, a, 0.0)
        assert_rational_close(mapped, CRational.from_coeffs([cmath.exp(-1j * math.pi / 12)], [0.0, 1.0]))

    def test_eval_consistency_random(self, rng):
        for _ in range(100):
            r = random_crational(rng, 4)
            a = complex(*rng.standard_normal(2))
            if abs(a) < 0.1:
                a += 0.5
            b = complex(*rng.standard_normal(2))
            z = complex(*rng.standard_normal(2))
            expected = value(r, a * z + b)
            got = value(substitute_affine(r, a, b), z)
            if expected is None or got is None:
                continue
            assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))

    def test_group_law(self, rng):
        for _ in range(25):
            r = random_crational(rng, 3)
            a1, a2 = 1.5 + 0.5j, -0.7 + 0.2j
            b1, b2 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lhs = substitute_affine(substitute_affine(r, a1, b1), a2, b2)
            rhs = substitute_affine(r, a1 * a2, a1 * b2 + b1)
            assert_rational_close(lhs, rhs, tol=1e-9)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            substitute_affine(CRational.from_coeffs([1.0], [0.0, 1.0]), 0.0, 1.0)


class TestRotate:
    def test_zero_angle_identity(self):
        r = CRational.from_coeffs([1.0, 2.0], [0.0, 1.0, 1.0])
        assert_rational_close(rotate(r, 0.0), r)

    def test_quarter_turn_integrator(self):
        r = rotate(CRational.from_coeffs([1.0], [0.0, 1.0]), math.pi / 2)
        assert r.num.coeffs[0] == pytest.approx(1j)

    def test_inverse_rotation(self, rng):
        r = random_crational(rng, 3)
        assert_rational_close(rotate(rotate(r, 0.91), -0.91), r, tol=1e-14)


class TestFeedback:
    def test_unit_feedback_integrator(self):
        closed = feedback(CRational.from_coeffs([1.0], [0.0, 1.0]), 1.0)
        assert_rational_close(closed, CRational.from_coeffs([1.0], [1.0, 1.0]))

    def test_zero_gain_identity(self, rng):
        r = random_crational(rng, 3)
        assert_rational_close(feedback(r, 0.0), r)

    def test_eval_identity(self, rng):
        for _ in range(50):
            r = random_crational(rng, 4)
            rho = complex(*rng.standard_normal(2))
            z = complex(*rng.standard_normal(2))
            open_loop, closed = value(r, z), value(feedback(r, rho), z)
            if open_loop is None or closed is None:
                continue
            direct = open_loop / (1.0 + rho * open_loop)
            assert abs(closed - direct) < 1e-9 * max(1.0, abs(direct))

    def test_degenerate_loop(self):
        r = CRational.from_coeffs([0.0, 1.0], [0.0, 1.0])  # identically 1
        with pytest.raises(DegenerateLoopError):
            feedback(r, -1.0)


class TestResidue:
    def test_integrator(self):
        assert residue_at(CRational.from_coeffs([1.0], [0.0, 1.0]), 0.0) == pytest.approx(1.0)

    def test_capacitor_scaled_pole(self):
        c, b = 2e-3, 3.0
        r = CRational.from_coeffs([1.0], [-1j * c * b, c])
        assert residue_at(r, 1j * b) == pytest.approx(1.0 / c)

    def test_hand_partial_fraction(self):
        r = CRational(CPoly((2.0, 1.0)), from_roots([1j, -1.0]))
        assert residue_at(r, 1j) == pytest.approx((1j + 2) / (1j + 1))

    def test_not_a_pole(self):
        with pytest.raises(NotAPoleError):
            residue_at(CRational.from_coeffs([1.0], [0.0, 1.0]), 1.0)

    def test_non_simple_pole(self):
        r = CRational(CPoly((1.0,)), from_roots([1j, 1j]))
        with pytest.raises(NotSimplePoleError):
            residue_at(r, 1j)


class TestRealEquiv:
    def test_real_input_has_zero_imaginary_block(self, rng):
        r = CRational.from_coeffs([1.0, 2.0], [2.0, 3.0, 1.0])
        m = real_equiv(r)
        assert m.im.num.is_zero
        assert_rational_close(m.re, r)

    def test_single_complex_pole(self):
        m = real_equiv(CRational.from_coeffs([1.0], [1j, 1.0]))
        assert_rational_close(m.re, CRational.from_coeffs([0.0, 1.0], [1.0, 0.0, 1.0]))
        assert_rational_close(m.im, CRational.from_coeffs([-1.0], [1.0, 0.0, 1.0]))

    def test_self_conjugate_pair_not_doubled(self):
        r = CRational(CPoly((1.0,)), from_roots([1j, -1j]))
        m = real_equiv(r)
        assert degree(m.den) == 2  # lcm, not product

    def test_evaluation_matches_split(self, rng):
        for _ in range(20):
            r = random_crational(rng, 3)
            m = real_equiv(r)
            z = complex(*rng.standard_normal(2))
            val, re_val, im_val = value(r, z), value(m.re, z), value(m.im, z)
            if None in (val, re_val, im_val):
                continue
            assert abs((re_val + 1j * im_val) - val) < 1e-8 * max(1.0, abs(val))

    def test_pole_set_property(self, rng):
        for _ in range(100):
            r = random_crational(rng, 4)
            m = real_equiv(r)
            mine = roots(m.den)
            expected = []
            base = roots(r.den)
            clusters = cluster_roots(base)
            for center, mult in clusters:
                expected.extend([center] * mult)
                if abs(center.imag) > 1e-8 * max(1.0, abs(center)):
                    conj_mult = 0
                    for other, m2 in clusters:
                        if abs(other - center.conjugate()) <= 1e-8 * max(1.0, abs(center)):
                            conj_mult = m2
                    expected.extend([center.conjugate()] * max(0, mult - conj_mult))
            assert len(mine) == len(expected)
            assert match_distance(mine, expected) < 1e-5

    def test_linearity_in_real_scaling(self, rng):
        r = random_crational(rng, 3)
        m1 = real_equiv(r)
        m2 = real_equiv(CRational(r.num.scale(2.5), r.den))
        assert_rational_close(m2.re, CRational(m1.re.num.scale(2.5), m1.re.den))
        assert_rational_close(m2.im, CRational(m1.im.num.scale(2.5), m1.im.den))


class TestReduce:
    """Pole-zero cancellation is never performed implicitly."""

    def test_never_implicit(self):
        num = from_roots([-1.0])
        den = from_roots([-1.0, -3.0])
        r = CRational(num, den)
        assert degree(r.den) == 2  # construction keeps the common factor
