"""Device coefficient maps, loop transforms, synthesis bounds, power flow."""

from __future__ import annotations

import cmath
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_rational_close, degree, random_device_mix, random_source_coeffs, value
from crosscheck import (equilibrium_newton_loop, feedback, modified_cpl, power_flow_residual_loop, rotate,
                        substitute_affine)
from dstab import devices as dev
from dstab.cpoly import CRational, roots
from dstab.errors import ConvergenceError, NetworkError, PrecisionError
from dstab.network import AdmittanceMatrix, NodePartition, grid_code, virtual_admittance_from_conductance
from dstab.positivity import FailedCondition, PositivityReport, check_positive_siso
from dstab.regions import HalfPlaneRegion, horizontal_strip, sector, shifted_lhp
from dstab.scenario import data_path, load_scenario, parse_device

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import meshgen  # noqa: E402

BOOST = dev.EssBoostParams(C=2e-3, E=50.0, U_r=105.0, R_d=0.6, kP_u=0.01, kI_u=60.0)
BUCK = dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.01, kI_u=50.0)


class TestCoefficientMaps:
    def test_boost_stock_values(self):
        g = dev.coeffs_ess_boost(BOOST, 105.0)
        assert g.c1 == pytest.approx(105.3 / 0.21)
        assert g.c0 == pytest.approx(50 * 0.6 * 60 / 0.21)
        assert g.d1 == pytest.approx((105 - 105 + 50 * 0.6 * 0.01) / (0.21 * 0.6))
        assert g.d0 == pytest.approx(50 * 60 / 0.21)

    def test_boost_integral_gain_off(self):
        p = dev.EssBoostParams(C=2e-3, E=50.0, U_r=105.0, R_d=0.6, kP_u=0.01, kI_u=0.0)
        g = dev.coeffs_ess_boost(p, 100.0)
        assert g.c0 == 0.0 and g.d0 == 0.0

    def test_boost_retuned_values_recompute(self):
        p = dev.EssBoostParams(C=2e-3, E=50.0, U_r=105.0, R_d=0.6, kP_u=0.35, kI_u=26.5)
        g = dev.coeffs_ess_boost(p, 102.0)
        assert g.c1 == pytest.approx((50 * 0.35 * 0.6 + 102.0) / (2e-3 * 102.0))
        assert g.d0 == pytest.approx(50 * 26.5 / (2e-3 * 102.0))

    def test_boost_needs_positive_voltage(self):
        with pytest.raises(ValueError):
            dev.coeffs_ess_boost(BOOST, 0.0)

    def test_buck_stock_values(self):
        g = dev.coeffs_ess_buck(BUCK)
        assert g.c1 == pytest.approx(1.007 / 0.003)
        assert g.c0 == pytest.approx(0.7 * 50 / 0.003)

    def test_buck_droop_off(self):
        p = dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.0, kP_u=0.01, kI_u=50.0)
        g = dev.coeffs_ess_buck(p)
        assert g.c1 == pytest.approx(1.0 / 3e-3)
        assert g.c0 == 0.0

    def test_pv_c1_identity(self):
        p = dev.PvParams(C=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv=36.12, i_pv_star=38.76, g_pv_star=-0.5)
        g = dev.coeffs_pv(p, 103.0)
        assert g.c1 == pytest.approx(1.0 / 2e-3)

    def test_pv_degenerate_panel(self):
        p = dev.PvParams(C=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv=36.12, i_pv_star=0.0, g_pv_star=0.0)
        g = dev.coeffs_pv(p, 103.0)
        assert g.d0 == 0.0
        assert g.d1 == pytest.approx(2e-3 * 0.5 * 103.0 / (2e-3 * (0.1 * 103.0 + 1.0)))

    def test_pv_full_vector(self):
        p = dev.PvParams(C=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv=36.12, i_pv_star=38.76, g_pv_star=-0.5)
        u = 103.0
        g = dev.coeffs_pv(p, u)
        c_eq = 2e-3 * (0.1 * u + 1.0)
        a = 2e-3 * 0.5 * u + 38.76 * 0.1 * (36.12 / u) - (36.12 / u) ** 2 * (-0.5)
        assert g.c0 == pytest.approx(0.5 * u / c_eq)
        assert g.d1 == pytest.approx(a / c_eq)
        assert g.d0 == pytest.approx(38.76 * 0.5 * 36.12 / (u * c_eq))

    @pytest.mark.parametrize(
        "num, den, expected",
        [
            ([2.0, 3.0], [5.0, 7.0, 1.0], (3.0, 2.0, 7.0, 5.0)),
            ([2.0, 3.0, 0.0], [5.0, 7.0, 1.0, 0.0, 0.0], (3.0, 2.0, 7.0, 5.0)),  # zero-padded rows
            ([0.0, 3.0, 0.0], [5.0, 7.0, 1.0], (3.0, 0.0, 7.0, 5.0)),  # c0 = 0
            ([2.0, 3.0, 1.0], [5.0, 7.0, 1.0, 1.0], None),  # third order
            ([2.0, 0.0], [5.0, 7.0, 1.0], None),  # degree 0 over degree 2
            ([2.0, 3.0], [5.0, 1.0, 0.0], None),  # degree 1 over degree 1
            ([2.0, -3.0], [5.0, 7.0, 1.0], None),  # c1 < 0
            ([-2.0, 3.0], [5.0, 7.0, 1.0], None),  # c0 < 0
            ([2.0, 3.0 + 1e-300j], [5.0, 7.0, 1.0], None),  # not real
            ([2.0, 3.0], [5.0, 7.0 + 1e-300j, 1.0], None),
        ],
        ids=["generic", "padded", "c0-zero", "third-order", "degree-0-num", "degree-1-den", "c1-negative",
             "c0-negative", "complex-num", "complex-den"],
    )
    def test_generic_second_order_from_table_rows(self, num, den, expected):
        g = dev.GenericSecondOrder.from_tf(np.array(num, dtype=complex), np.array(den, dtype=complex))
        if expected is None:
            assert g is None
        else:
            assert (g.c1, g.c0, g.d1, g.d0) == expected
            assert all(type(v) is float for v in (g.c1, g.c0, g.d1, g.d0))

    def test_generic_second_order_validation(self):
        with pytest.raises(ValueError):
            dev.GenericSecondOrder(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dev.GenericSecondOrder(1.0, -1.0, 1.0, 1.0)


class TestCpl:
    def test_hand_values(self):
        tf = dev.cpl_tf(dev.CplParams(C_l=2e-3, P=1500.0), 100.0)
        # 1/(0.002 s - 0.15) normalized monic
        assert_rational_close(tf, CRational.from_coeffs([500.0], [-75.0, 1.0]))

    def test_zero_power_is_pure_capacitor(self):
        tf = dev.cpl_tf(dev.CplParams(C_l=2e-3, P=0.0), 100.0)
        assert_rational_close(tf, CRational.from_coeffs([500.0], [0.0, 1.0]))

    def test_cpl_alone_unstable(self):
        tf = dev.cpl_tf(dev.CplParams(C_l=2e-3, P=1500.0), 100.0)
        assert roots(tf.den)[0].real > 0


class TestVirtualAdmittance:
    def test_clhp_equals_conductance(self):
        p = dev.CplParams(C_l=2e-3, P=1500.0)
        y_l = dev.cpl_conductance(p, 100.0)
        assert virtual_admittance_from_conductance(p.C_l, y_l, shifted_lhp(0.0)) == pytest.approx(0.15)

    def test_shifted_lhp_value(self):
        assert virtual_admittance_from_conductance(2e-3, 0.15, shifted_lhp(-8.0)) == pytest.approx(0.166)

    def test_strip_gives_negative_value(self):
        gamma = 10.0
        y_v = virtual_admittance_from_conductance(2e-3, 0.15, horizontal_strip(gamma))
        assert y_v == pytest.approx(-2e-3 * gamma)


class TestModifiedCpl:
    def test_lhp_is_integrator_like(self):
        p = dev.CplParams(C_l=2e-3, P=1500.0)
        m = modified_cpl(p, 100.0, shifted_lhp(-8.0))
        assert m.den.coeffs == pytest.approx((0.0, 1.0))

    def test_pole_real_part_vanishes(self, rng):
        for _ in range(20):
            p = dev.CplParams(C_l=float(rng.uniform(1e-3, 4e-3)), P=float(rng.uniform(200, 2500)))
            region = HalfPlaneRegion(
                float(rng.uniform(0, math.pi / 2)), float(rng.uniform(0, 50)), -float(rng.uniform(0, 5))
            )
            m = modified_cpl(p, float(rng.uniform(90, 110)), region)
            pole = roots(m.den)[0]
            assert abs(pole.real) < 1e-9 * max(1.0, abs(pole))
            assert check_positive_siso(m).is_positive

    def test_two_construction_paths_agree(self, rng):
        for _ in range(20):
            p = dev.CplParams(C_l=float(rng.uniform(1e-3, 4e-3)), P=float(rng.uniform(200, 2500)))
            u_star = float(rng.uniform(90, 110))
            region = HalfPlaneRegion(
                float(rng.uniform(0, math.pi / 2)), float(rng.uniform(0, 40)), -float(rng.uniform(0, 5))
            )
            y_v = virtual_admittance_from_conductance(p.C_l, dev.cpl_conductance(p, u_star), region)
            a = cmath.exp(1j * region.theta0)
            b = a * region.sigma0 + 1j * region.omega0
            closed_form = modified_cpl(p, u_star, region)
            assert_rational_close(dev.loop_transform(dev.cpl_tf(p, u_star), region, y_v), closed_form, tol=1e-10)
            via_loop = feedback(rotate(substitute_affine(dev.cpl_tf(p, u_star), a, b), region.theta0), y_v)
            assert_rational_close(via_loop, closed_form, tol=1e-10)


class TestRotatedSource:
    def test_clhp_unchanged(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        assert_rational_close(dev.map_subsystem(g.tf, shifted_lhp(0.0)), g.tf)

    def test_shifted_lhp_closed_form(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        alpha = -1.5
        got = dev.map_subsystem(g.tf, shifted_lhp(alpha))
        expected = CRational.from_coeffs(
            [g.c1 * alpha + g.c0, g.c1],
            [alpha**2 + g.d1 * alpha + g.d0, g.d1 + 2 * alpha, 1.0],
        )
        assert_rational_close(got, expected)

    def test_sector_monic_and_eval_consistent(self, rng):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        beta = 1.1
        region = sector(beta)
        got = dev.map_subsystem(g.tf, region)
        assert got.den.coeffs[-1] == pytest.approx(1.0)
        for _ in range(20):
            nu = complex(*rng.standard_normal(2))
            s = cmath.exp(1j * region.theta0) * nu
            expected = cmath.exp(1j * region.theta0) * value(g.tf, s)
            assert abs(value(got, nu) - expected) < 1e-10 * max(1.0, abs(expected))


class TestModifiedSource:
    def test_zero_index_identity(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        g_hat = dev.map_subsystem(g.tf, shifted_lhp(-1.0))
        assert_rational_close(dev.loop_transform(g.tf, shifted_lhp(-1.0), 0.0), g_hat)

    def test_shifted_lhp_denominator_constants(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        alpha, y_s = -1.0, 0.4
        got = dev.loop_transform(g.tf, shifted_lhp(alpha), -y_s)
        expected = CRational.from_coeffs(
            [g.c1 * alpha + g.c0, g.c1],
            [alpha**2 + g.d1 * alpha + g.d0 - (g.c1 * alpha + g.c0) * y_s,
             g.d1 + 2 * alpha - g.c1 * y_s, 1.0],
        )
        assert_rational_close(got, expected)

    def test_construction_path_equivalence(self, rng):
        for _ in range(20):
            g = random_source_coeffs(rng)
            region = HalfPlaneRegion(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 20)), -float(rng.uniform(0, 4)))
            y_s = float(rng.uniform(-0.2, 0.3))
            a = cmath.exp(1j * region.theta0)
            b = a * region.sigma0 + 1j * region.omega0
            path1 = dev.loop_transform(g.tf, region, -y_s)
            path2 = feedback(rotate(substitute_affine(g.tf, a, b), region.theta0), -y_s)
            assert_rational_close(path1, path2, tol=1e-10)

    @pytest.mark.parametrize("region", [shifted_lhp(-2e7), shifted_lhp(-1e15), shifted_lhp(-1e50),
                                        shifted_lhp(-1e160), horizontal_strip(1e160)],
                             ids=["lhp-2e7", "lhp-1e15", "lhp-1e50", "lhp-1e160", "hstrip-1e160"])
    def test_offset_beyond_double_precision_raises(self, region):
        # The mapped denominator [a^2 + d1 a + d0, 2a + d1, 1] keeps its leading 1 only while its
        # coefficients stay below 1 / TRIM_TOL; past that the trim rule would drop it (and, past
        # |a| ~ 2e14, the 2a term too), leaving a function with fewer poles, or none.
        g = dev.coeffs_ess_buck(BUCK)
        with pytest.raises(PrecisionError):
            dev.loop_transform(g.tf, region, 0.0)

    def test_offset_within_double_precision_keeps_the_degree(self):
        g = dev.coeffs_ess_buck(BUCK)
        assert degree(dev.loop_transform(g.tf, shifted_lhp(-1e6), 0.0).den) == 2

    @pytest.mark.parametrize("y_s", [1e12, 1e13, 1e20])
    def test_loop_gain_beyond_double_precision_raises(self, y_s):
        # The closed denominator s^2 + (d1 - y_s c1) s + (d0 - y_s c0) keeps its leading 1 only while
        # its coefficients stay below 1 / TRIM_TOL.
        g = dev.coeffs_ess_buck(BUCK)
        with pytest.raises(PrecisionError, match="loop gain"):
            dev.loop_transform(g.tf, shifted_lhp(-2.0), -y_s)

    def test_loop_gain_within_double_precision_keeps_the_degree(self):
        g = dev.coeffs_ess_buck(BUCK)
        assert degree(dev.loop_transform(g.tf, shifted_lhp(-2.0), -1e8).den) == 2

    def test_biproper_loop_bound_is_relative_to_the_lead(self):
        # (s + 1) / (s + 2) closes to (s + 1) / ((1 + rho) s + 2 + rho): a huge gain scales the
        # lead with the row, and rho = -1 cancels it exactly, dropping a degree.
        g = CRational.from_coeffs([1.0, 1.0], [2.0, 1.0])
        assert degree(dev.loop_transform(g, shifted_lhp(0.0), 1e20).den) == 1
        assert degree(dev.loop_transform(g, shifted_lhp(0.0), -1.0).den) == 0


class TestBounds:
    def test_lhp_example(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        feasible, cap = dev.bound_lhp(g, -1.0)
        assert feasible and cap == pytest.approx(0.0)
        assert check_positive_siso(dev.loop_transform(g.tf, shifted_lhp(-1.0), 0.0)).is_positive
        assert not check_positive_siso(dev.loop_transform(g.tf, shifted_lhp(-1.0), -0.01)).is_positive

    def test_lhp_boundary_feasible(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        feasible, _ = dev.bound_lhp(g, -2.0)
        assert feasible

    def test_lhp_infeasible(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        feasible, cap = dev.bound_lhp(g, -3.0)
        assert not feasible and math.isnan(cap)

    def test_sector_limit_values(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        cap = dev.bound_sector(g, math.pi / 2 - 1e-12)
        assert cap == pytest.approx(1.0)

    def test_sector_no_admissible_index(self):
        g = dev.GenericSecondOrder(1.0, 3.0, 3.0, 5.0)  # c1 d1 = c0
        assert dev.bound_sector(g, 0.8) < 0

    def test_hs_example(self):
        g = dev.GenericSecondOrder(1.0, 2.0, 3.0, 5.0)
        assert dev.bound_hs(g) == pytest.approx(math.sqrt(3.0))

    def test_hs_clamped(self):
        g = dev.GenericSecondOrder(1.0, 1.0, 10.0, 1.0)  # radicand negative
        assert dev.bound_hs(g) == 0.0

    def test_hs_flip(self, rng):
        count = 0
        for _ in range(30):
            g = random_source_coeffs(rng)
            gb = dev.bound_hs(g)
            if gb <= 0.1:
                continue
            count += 1
            eps = 1e-3 * gb
            assert check_positive_siso(dev.map_subsystem(g.tf, horizontal_strip(gb + eps))).is_positive
            assert not check_positive_siso(dev.map_subsystem(g.tf, horizontal_strip(gb - eps))).is_positive
        assert count >= 10

    def test_sector_consistency(self, rng):
        count = 0
        for _ in range(40):
            g = random_source_coeffs(rng)
            beta = float(rng.uniform(0.4, 1.4))
            cap = dev.bound_sector(g, beta)
            if not math.isfinite(cap):
                continue
            y = cap - 1e-3 * max(1.0, abs(cap))
            count += 1
            assert check_positive_siso(dev.loop_transform(g.tf, sector(beta), -y)).is_positive
        assert count >= 20


class TestEquilibrium:
    def _two_node(self, p_load: float):
        part = NodePartition((0,), (1,))
        Y = AdmittanceMatrix([(0, 1, 0.1)], 2, part)
        boost = dev.EssBoostParams(C=2e-3, E=50.0, U_r=105.0, R_d=0.6, kP_u=0.01, kI_u=60.0)
        cpl = dev.CplParams(C_l=2e-3, P=p_load)
        return Y, [boost, cpl]

    def test_single_source_single_load_quadratic(self):
        Y, devices = self._two_node(1500.0)
        eq = dev.equilibrium_solve(Y, devices, 105.0)
        # independent closed form: u1 from the scalar quadratic
        # i = (u0-u1)/R_line, u0 = U_r - R_d i, i = P/u1
        # => u1^2 + u1 (R_line + R_d) P/u1 ... reduce numerically
        g_line = 10.0
        r_tot = 0.1 + 0.6
        # u1 = U_r - r_tot * P/u1 -> u1^2 - U_r u1 + r_tot P = 0
        disc = math.sqrt(105.0**2 - 4 * r_tot * 1500.0)
        u1 = (105.0 + disc) / 2
        assert eq.u_star[1] == pytest.approx(u1, rel=1e-9)
        assert eq.i_star[1] == pytest.approx(-1500.0 / u1, rel=1e-8)

    def test_zero_load_no_droop_sag(self):
        Y, devices = self._two_node(0.0)
        eq = dev.equilibrium_solve(Y, devices, 105.0)
        assert eq.u_star == pytest.approx((105.0, 105.0))

    def test_residual_postcondition(self, rng):
        Y, devices = self._two_node(800.0)
        eq = dev.equilibrium_solve(Y, devices, 105.0)
        res = dev.power_flow_residual(Y, devices, np.array(eq.u_star))
        assert float(np.max(np.abs(res))) < 1e-9

    def test_low_voltage_rejected(self):
        # a deep radial feeder converges to a sub-half-nominal far-end voltage
        part = NodePartition((0,), (1, 2))
        Y = AdmittanceMatrix([(0, 1, 1.0), (1, 2, 2.6)], 3, part)
        devices = [
            dev.EssBoostParams(C=2e-3, E=50.0, U_r=105.0, R_d=0.5, kP_u=0.01, kI_u=60.0),
            dev.CplParams(C_l=2e-3, P=1000.0),
            dev.CplParams(C_l=2e-3, P=420.0),
        ]
        with pytest.raises(ConvergenceError, match="low-voltage"):
            dev.equilibrium_solve(Y, devices, 105.0)

    def test_beyond_the_nose_fails_to_converge(self):
        Y, devices = self._two_node(4200.0)  # no high-voltage solution exists
        with pytest.raises(ConvergenceError):
            dev.equilibrium_solve(Y, devices, 105.0)

    def test_needs_a_droop_source(self):
        part = NodePartition((0,), (1,))
        Y = AdmittanceMatrix([(0, 1, 0.1)], 2, part)
        pv = dev.PvParams(C=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv=36.12, i_pv_star=38.76)
        with pytest.raises(NetworkError, match="at least one droop-controlled source"):
            dev.equilibrium_solve(Y, [pv, dev.CplParams(C_l=2e-3, P=100.0)], 105.0)

    @pytest.mark.parametrize("first, second, message", [
        (dev.CplParams(C_l=2e-3, P=100.0), dev.CplParams(C_l=2e-3, P=100.0), "source node 1 carries a load device"),
        (BOOST, BUCK, "load node 2 must carry a CPL device"),
        (BOOST, dev.PvParams(C=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv=36.12, i_pv_star=38.76),
         "load node 2 must carry a CPL device"),
    ], ids=["cpl-on-source", "buck-on-load", "pv-on-load"])
    def test_device_of_the_other_role_raises(self, first, second, message):
        Y, _ = self._two_node(100.0)
        with pytest.raises(NetworkError) as caught:
            dev.equilibrium_solve(Y, [first, second], 105.0)
        assert str(caught.value) == message


def corner_mix(seed: int) -> tuple:
    """A random device mix (``conftest.random_device_mix``) whose first
    source is a buck unit without droop, a Jacobian row of e_k, and whose
    second source, when there is one, a PV unit without panel current."""
    rng = np.random.default_rng(seed)
    Y, devices = random_device_mix(rng, int(rng.integers(2, 13)))
    sources = Y.partition.source_ids
    if len(sources) > 1:
        devices[sources[1]] = dev.PvParams(C=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv=36.12, i_pv_star=0.0)
    devices[sources[0]] = dataclasses.replace(BUCK, R_d=0.0)
    return Y, devices, rng


def newton_outcome(solve) -> np.ndarray | str:
    try:
        return np.asarray(solve())
    except ConvergenceError as exc:
        return str(exc)


class TestPowerFlowReference:
    """The per-node power flow against the device-by-device loops of
    ``crosscheck``, bit for bit."""

    @pytest.mark.parametrize("name", ["toy3", "ieee39_default", "ieee39_synthesized", 64, 200])
    def test_newton_matches_the_device_loop(self, tmp_path, name):
        path = (data_path(name) if isinstance(name, str)
                else meshgen.write_scenario(meshgen.mesh_scenario(name, 1), tmp_path / "mesh.json"))
        sc = load_scenario(path)
        eq = dev.equilibrium_solve(sc.network, sc.devices, sc.nominal_voltage)
        assert np.array_equal(eq.u_star, equilibrium_newton_loop(sc.network, sc.devices, sc.nominal_voltage))

    @pytest.mark.parametrize("seed", range(24))
    def test_residual_matches_the_device_loop(self, seed):
        Y, devices, rng = corner_mix(seed)
        u = rng.uniform(50.0, 150.0, len(devices))
        assert np.array_equal(dev.power_flow_residual(Y, devices, u), power_flow_residual_loop(Y, devices, u))

    @pytest.mark.parametrize("seed", range(24))
    def test_newton_on_random_mixes_matches_the_device_loop(self, seed):
        Y, devices, _ = corner_mix(seed)
        got = newton_outcome(lambda: dev.equilibrium_solve(Y, devices, 105.0).u_star)
        expected = newton_outcome(lambda: equilibrium_newton_loop(Y, devices, 105.0))
        assert type(got) is type(expected)
        assert np.array_equal(got, expected) if isinstance(got, np.ndarray) else got == expected


class TestParseDevice:
    @pytest.mark.parametrize("kind, cls, fields", [
        ("ess_boost", dev.EssBoostParams, "C_farad:C E_volt:E U_r_volt:U_r R_d_ohm:R_d kP_u:kP_u kI_u:kI_u"),
        ("ess_buck", dev.EssBuckParams, "C_farad:C E_volt:E U_r_volt:U_r R_d_ohm:R_d kP_u:kP_u kI_u:kI_u"),
        ("pv", dev.PvParams,
         "C_farad:C kP_u:kP_u kI_u:kI_u U_r_pv_volt:U_r_pv i_pv_star_amp:i_pv_star g_pv_star_siemens:g_pv_star"),
        ("cpl", dev.CplParams, "C_l_farad:C_l P_watt:P"),
    ])
    def test_each_field_reaches_its_parameter(self, kind, cls, fields):
        pairs = [field.split(":") for field in fields.split()]
        values = {name: 0.5 + k for k, (name, _) in enumerate(pairs)}  # distinct, and E < U_r
        _, params = parse_device({"node": 1, "type": kind, **values}, 1)
        assert type(params) is cls
        assert {attr: getattr(params, attr) for _, attr in pairs} == {attr: values[name] for name, attr in pairs}

    def test_pv_without_g_pv_star_takes_the_class_default(self):
        block = {"node": 2, "type": "pv", "C_farad": 2e-3, "kP_u": 0.1, "kI_u": 0.5,
                 "U_r_pv_volt": 36.12, "i_pv_star_amp": 38.76}
        assert parse_device(block, 2) == (1, dev.PvParams(2e-3, 0.1, 0.5, 36.12, 38.76, dev.PvParams.g_pv_star))


class TestCompliance:
    def _setup(self, region):
        part = NodePartition((0, 1), (2,))
        Y = AdmittanceMatrix([(0, 2, 0.1), (1, 2, 0.1)], 3, part)
        return grid_code(Y, region, [(2e-3, 0.15)])

    def test_feasible_interval_picks_cap(self):
        gc = self._setup(shifted_lhp(-2.0))
        g = dev.coeffs_ess_buck(dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.38, kI_u=21.0))
        rep = dev.check_compliance([g], gc)[0]
        assert rep.compliant
        assert rep.y_s == pytest.approx(rep.y_s_cap, rel=1e-6)
        assert rep.y_s >= rep.y_s_floor
        assert rep.positivity.is_positive

    def test_network_binding(self):
        gc = self._setup(shifted_lhp(-2.0))
        # a weak device whose cap sits below the network floor
        g = dev.GenericSecondOrder(500.0, 1010.0, 4.0, 500.0)
        feasible, cap = dev.bound_lhp(g, -2.0)
        assert feasible and cap < gc.bound
        rep = dev.check_compliance([g], gc)[0]
        assert not rep.compliant and rep.binding == "network"

    def test_strip_compliance(self):
        gc = self._setup(horizontal_strip(100.0))
        g = dev.coeffs_ess_buck(dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.38, kI_u=21.0))
        rep = dev.check_compliance([g], gc)[0]
        assert rep.compliant == (dev.bound_hs(g) < 100.0)
        assert rep.y_s == 0.0

    def test_strip_frequency_binding(self):
        gc = self._setup(horizontal_strip(30.0))
        g = dev.coeffs_ess_buck(BUCK)  # stock gains: gamma_bar ~ 120
        rep = dev.check_compliance([g], gc)[0]
        assert not rep.compliant and rep.binding == "frequency_bound"

    def test_devices_accepted_with_u_star(self):
        # A device with a voltage-dependent model complies at its own u*.
        gc = self._setup(shifted_lhp(-2.0))
        rep = dev.check_compliance([dev.source_coeffs(BOOST, 101.0)], gc)[0]
        assert rep.as_dict() == dev.check_compliance([dev.coeffs_ess_boost(BOOST, 101.0)], gc)[0].as_dict()
        assert isinstance(rep.compliant, bool)

    def test_invalid_grid_code_rejected(self):
        # A broadcast whose damping assumption fails is rejected by a
        # report, not an exception, and the failed assumption binds.
        part = NodePartition((0, 1), (2,))
        Y = AdmittanceMatrix([(0, 2, 0.1), (1, 2, 0.1)], 3, part)
        gc = grid_code(Y, shifted_lhp(0.0), [(2e-3, 25.0)])
        assert not gc.ll_assumption_ok
        rep = dev.check_compliance([dev.coeffs_ess_buck(BUCK)], gc)[0]
        assert not rep.compliant and rep.binding == "ll_assumption"
        assert rep.y_s is None and rep.positivity is None
        assert rep.as_dict() == {"compliant": False, "binding": "ll_assumption"}

    def test_region_without_closed_form_bound_binds_its_family(self):
        gc = self._setup(HalfPlaneRegion(theta0=0.3, omega0=0.0, sigma0=-1.0))
        assert gc.ll_assumption_ok
        rep = dev.check_compliance([dev.coeffs_ess_buck(BUCK)], gc)[0]
        assert rep.region_kind == "generic" and rep.binding == "region_family"
        assert rep.as_dict() == {"compliant": False, "binding": "region_family"}

    def _failing_decisions(self, monkeypatch, failing: int) -> list[list[float]]:
        """Make the first ``failing`` batched decisions report every row as a
        real-part failure; returns the indices y_s = -rho of every batch."""
        decide = dev.loop_positivity
        batches = []

        def faulty(num, den, region, rho):
            batches.append([-r for r in rho.tolist()])
            out = decide(num, den, region, rho)
            if len(batches) > failing:
                return out
            return [PositivityReport(False, FailedCondition.REAL_PART, ((0j, -1 + 0j),), -1.0) for _ in out]

        monkeypatch.setattr(dev, "loop_positivity", faulty)
        return batches

    def test_failed_pick_is_retried_at_the_backed_off_index(self, monkeypatch):
        gc = self._setup(shifted_lhp(-2.0))
        g = dev.coeffs_ess_buck(dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.38, kI_u=21.0))
        pick = dev.check_compliance([g], gc)[0].y_s
        backed = pick - max(1e-9, 1e-6 * abs(pick))
        batches = self._failing_decisions(monkeypatch, 1)
        rep = dev.check_compliance([g], gc)[0]
        assert batches == [[pick], [backed]]
        assert rep.compliant and rep.binding == "none"
        assert rep.y_s == backed
        retried = dev.loop_transform(g.tf, gc.region, -backed)
        assert rep.positivity == check_positive_siso(retried) and rep.positivity.is_positive

    def test_failed_retry_reports_the_pick(self, monkeypatch):
        gc = self._setup(shifted_lhp(-2.0))
        g = dev.coeffs_ess_buck(dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.38, kI_u=21.0))
        pick = dev.check_compliance([g], gc)[0].y_s
        batches = self._failing_decisions(monkeypatch, 2)
        rep = dev.check_compliance([g], gc)[0]
        assert len(batches) == 2
        assert not rep.compliant and rep.binding == "device" and rep.y_s is None
        assert rep.positivity.failed_condition is FailedCondition.REAL_PART
        assert rep.positivity.witnesses == ((0j, -1 + 0j),)

    def test_failed_damping_binds_before_the_region_family(self):
        gc = self._setup(HalfPlaneRegion(theta0=0.3, omega0=0.0, sigma0=-20000.0))
        assert not gc.ll_assumption_ok
        assert dev.check_compliance([dev.coeffs_ess_buck(BUCK)], gc)[0].binding == "ll_assumption"


class TestBoundTightness:
    def test_flip_at_bound(self, rng):
        # light version of the acceptance sweep
        flips = 0
        for _ in range(40):
            g = random_source_coeffs(rng)
            region = shifted_lhp(-float(rng.uniform(0.0, 4.0)))
            feasible, cap = dev.bound_lhp(g, region.sigma0)
            if not feasible or not math.isfinite(cap):
                continue
            eps = 1e-3 * abs(cap) + 1e-6
            assert check_positive_siso(dev.loop_transform(g.tf, region, -(cap - eps))).is_positive
            assert not check_positive_siso(dev.loop_transform(g.tf, region, -(cap + eps))).is_positive
            flips += 1
        assert flips >= 20
