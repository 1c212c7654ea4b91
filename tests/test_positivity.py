"""Positivity checks: exact scalar route, 2x2 real embedding, closed forms."""

from __future__ import annotations

import cmath
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from conftest import from_roots, random_crational, random_positive_rational, random_source_coeffs, value
from crosscheck import (check_positive_second_order, check_pr_real_matrix, complex_routh_hurwitz_quadratic, real_equiv,
                        rotate)
from dstab.cpoly import CPoly, CRational
from dstab.devices import loop_transform
from dstab.errors import NonProperError
from dstab.positivity import FailedCondition, check_positive_siso, real_part_numerator_rows
from dstab.regions import sector, shifted_lhp


def inv(coeffs_den) -> CRational:
    return CRational.from_coeffs([1.0], coeffs_den)


class TestSiso:
    def test_integrator_positive(self):
        rep = check_positive_siso(inv([0.0, 1.0]))
        assert rep.is_positive and rep.failed_condition is FailedCondition.NONE

    def test_strictly_positive_second_order(self):
        # Re{h(jw)} = 1/|den|^2 > 0
        rep = check_positive_siso(CRational.from_coeffs([1.0, 1.0], [1.0, 1.0, 1.0]))
        assert rep.is_positive and rep.margin > 0

    def test_double_real_pole_fails_real_part(self):
        h = inv([1.0, 2.0, 1.0])
        rep = check_positive_siso(h)
        assert not rep.is_positive
        assert rep.failed_condition is FailedCondition.REAL_PART
        assert all(complex(v).real < 0 for _, v in rep.witnesses)
        # hand witness: Re{h(2j)} = Re{1/(1+2j)^2} = -3/25
        assert value(h, 2j).real == pytest.approx(-3.0 / 25.0)

    def test_imaginary_pole_positive(self):
        rep = check_positive_siso(inv([-1j, 1.0]))
        assert rep.is_positive

    def test_unstable_pole_fails(self):
        rep = check_positive_siso(inv([-1.0, 1.0]))  # pole at +1
        assert rep.failed_condition is FailedCondition.POLE_LOCATION
        assert rep.margin < 0

    def test_complex_residue_fails(self):
        # residue e^{j3pi/4} at the origin
        rep = check_positive_siso(rotate(inv([0.0, 1.0]), 3 * math.pi / 4))
        assert not rep.is_positive
        assert rep.failed_condition in (FailedCondition.REAL_PART, FailedCondition.RESIDUE)

    def test_double_imaginary_pole_fails_multiplicity(self):
        # numerator chosen so N(w) = (w-1)^2 >= 0: only the multiplicity fails
        h = CRational(CPoly((-1.0,)), from_roots([1j, 1j]))
        rep = check_positive_siso(h)
        assert rep.failed_condition is FailedCondition.IMAGINARY_POLE_MULTIPLICITY

    def test_double_imaginary_pole_with_negative_real_part(self):
        h = CRational(CPoly((1.0,)), from_roots([1j, 1j]))
        rep = check_positive_siso(h)
        assert not rep.is_positive
        assert rep.failed_condition is FailedCondition.REAL_PART

    def test_non_proper_rejected(self):
        with pytest.raises(NonProperError):
            check_positive_siso(CRational.from_coeffs([0.0, 0.0, 1.0], [1.0, 1.0]))

    def test_zero_function_positive(self):
        rep = check_positive_siso(CRational.from_coeffs([0.0], [1.0, 1.0]))
        assert rep.is_positive

    def test_real_part_numerator_construction(self):
        # h = 1/(nu+1)^2: N(w) = 1 - w^2
        num, den = np.array([[1.0 + 0j]]), np.array([[1.0, 2.0, 1.0 + 0j]])
        n = real_part_numerator_rows(num, den, np.abs(num).max(axis=1), np.abs(den).max(axis=1))
        assert np.allclose(n, [[1.0, 0.0, -1.0]])

    def test_rotation_non_invariance_witness(self):
        base = inv([0.0, 1.0])
        assert check_positive_siso(base).is_positive
        assert not check_positive_siso(rotate(base, 3 * math.pi / 4)).is_positive


class TestLemmaEquivalence:
    def test_agreement_on_random_battery(self, rng):
        checked = 0
        for _ in range(60):
            h = random_positive_rational(rng) if rng.random() < 0.5 else random_crational(rng, 4)
            siso = check_positive_siso(h)
            matrix = check_pr_real_matrix(real_equiv(h))
            if abs(siso.margin) < 1e-7 or abs(matrix.margin) < 1e-7:
                continue
            checked += 1
            assert siso.is_positive == matrix.is_positive, f"disagreement on {h}"
        assert checked >= 30

    def test_constructed_positive_functions_pass(self, rng):
        for _ in range(25):
            h = random_positive_rational(rng)
            assert check_positive_siso(h).is_positive


class TestSecondOrder:
    def test_all_marginal_boundary_case(self):
        rep = check_positive_second_order(1.0, 1.0, 1.0, 1.0)
        assert rep.is_positive

    def test_double_pole_counterexample(self):
        rep = check_positive_second_order(0.0, 1.0, 2.0, 1.0)
        assert not rep.is_positive
        assert rep.failed_condition is FailedCondition.REAL_PART
        # matches the exact route on 1/(nu+1)^2
        assert not check_positive_siso(inv([1.0, 2.0, 1.0])).is_positive

    def test_unstable_complex_constant(self):
        rep = check_positive_second_order(1.0, 1.0, 1.0, 1j)
        assert not rep.is_positive
        assert rep.failed_condition is FailedCondition.POLE_LOCATION

    def test_degenerate_zero_numerator(self):
        assert check_positive_second_order(0.0, 0.0, -1.0, 1.0).is_positive

    def test_nonzero_a1_imag_fails(self):
        rep = check_positive_second_order(1.0 + 0.5j, 0.0, 2.0, 2.0)
        assert not rep.is_positive
        assert rep.failed_condition is FailedCondition.REAL_PART

    def test_tiny_positive_leading_coefficient_with_live_slope(self):
        # N(w) = quad_a w^2 + quad_b w + quad_c with quad_a ~ 1e-10 (within
        # STRICT_TOL of zero), quad_b = 1e-6 and quad_c ~ 1: a genuine
        # parabola with quad_b^2 < 4 quad_a quad_c, so N > 0 for every w.
        a1, a0, b1, b0 = 1.0, complex(1.0 - 1e-10, 1e-6), 1.0, 1.0
        rep = check_positive_second_order(a1, a0, b1, b0)
        assert rep.is_positive
        assert check_positive_siso(CRational.from_coeffs([a0, a1], [b0, b1, 1.0])).is_positive

    def test_tiny_negative_leading_coefficient_reads_as_linear(self):
        # quad_a ~ -1e-10 is read as zero: N(w) = quad_c > 0 with no slope
        # passes at margin quad_c, where the discriminant would read -1.
        a1, a0, b1, b0 = 1.0, 1.0 + 1e-10, 1.0, 1.0
        rep = check_positive_second_order(a1, a0, b1, b0)
        assert rep.is_positive
        assert rep.margin == pytest.approx(1.0)
        assert check_positive_siso(CRational.from_coeffs([a0, a1], [b0, b1, 1.0])).is_positive

    def test_soundness_against_exact(self, rng):
        # wherever the closed form passes with clear margins, the exact route agrees
        confirmed = 0
        for _ in range(200):
            a1 = complex(rng.uniform(0.1, 3.0), 0.0)
            a0 = complex(*rng.standard_normal(2))
            b1 = complex(rng.uniform(0.1, 4.0), rng.standard_normal())
            b0 = complex(*rng.standard_normal(2)) * 2.0
            rep = check_positive_second_order(a1, a0, b1, b0)
            if not rep.is_positive or rep.margin < 1e-9:
                continue
            h = CRational.from_coeffs([a0, a1], [b0, b1, 1.0])
            assert check_positive_siso(h).is_positive
            confirmed += 1
        assert confirmed >= 10


class TestRouthHurwitz:
    def test_repeated_real_root(self):
        assert complex_routh_hurwitz_quadratic(2.0, 1.0)

    def test_complex_constant_term(self):
        assert complex_routh_hurwitz_quadratic(2.0, 1.0 + 1.0j)
        disc = cmath.sqrt(complex(2.0) ** 2 - 4 * (1 + 1j))
        r1, r2 = (-2 + disc) / 2, (-2 - disc) / 2
        assert max(r1.real, r2.real) < 0

    def test_agreement_with_closed_form_roots(self, rng):
        for _ in range(500):
            b1 = complex(*rng.standard_normal(2)) * 2
            b0 = complex(*rng.standard_normal(2)) * 2
            disc = cmath.sqrt(b1 * b1 - 4 * b0)
            stable = max(((-b1 + disc) / 2).real, ((-b1 - disc) / 2).real) < 0
            assert complex_routh_hurwitz_quadratic(b1, b0) == stable


class TestPrRealMatrix:
    def test_integrator_embedding(self):
        rep = check_pr_real_matrix(real_equiv(inv([0.0, 1.0])))
        assert rep.is_positive

    def test_double_pole_embedding_fails(self):
        rep = check_pr_real_matrix(real_equiv(inv([1.0, 2.0, 1.0])))
        assert not rep.is_positive

    def test_imaginary_pole_residue_structure(self):
        # embedding of 1/(nu - j): residue block has eigenvalues {0, K} = {0, 1}
        m = real_equiv(inv([-1j, 1.0]))
        rep = check_pr_real_matrix(m)
        assert rep.is_positive
        dden = complex(P.polyval(1j, P.polyder(m.den.coeffs)))
        k_re = complex(P.polyval(1j, m.re.num.coeffs)) / dden
        k_im = complex(P.polyval(1j, m.im.num.coeffs)) / dden
        K = np.array([[k_re, -k_im], [k_im, k_re]])
        eigs = np.linalg.eigvalsh((K + K.conj().T) / 2)
        assert eigs == pytest.approx([0.0, 1.0], abs=1e-9)


class TestMonotonicity:
    def test_positivity_monotone_in_index(self, rng):
        # light version of the full acceptance sweep
        count = 0
        for _ in range(40):
            g = random_source_coeffs(rng)
            region = shifted_lhp(-float(rng.uniform(0, 3))) if rng.random() < 0.5 else sector(float(rng.uniform(0.5, 1.4)))
            from dstab.devices import bound_lhp, bound_sector

            if region.theta0 == 0.0:
                feasible, cap = bound_lhp(g, region.sigma0)
                if not feasible or not math.isfinite(cap):
                    continue
            else:
                cap = bound_sector(g, math.pi / 2 - region.theta0)
            y1 = cap - 1e-3 * max(1.0, abs(cap))
            if not check_positive_siso(loop_transform(g.tf, region, -y1)).is_positive:
                continue
            count += 1
            for y2 in np.linspace(y1 - 2 * abs(y1) - 1.0, y1, 5):
                assert check_positive_siso(loop_transform(g.tf, region, -float(y2))).is_positive
        assert count >= 10
