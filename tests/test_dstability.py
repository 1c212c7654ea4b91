"""Closed-loop assembly, pole oracle, and the two certification routes."""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    characteristic_poly,
    match_distance,
    random_laplacian,
    random_mild_subsystem,
    random_source_coeffs,
)
from crosscheck import assemble_closed_loop_dense, map_to_nu, substitute_affine
from dstab import devices as dev
from dstab.cli import dumps
from dstab.cpoly import CRational, roots
from dstab.dstability import (
    SystemModel,
    assemble_closed_loop,
    certify_thm1,
    certify_thm2,
    closed_loop_poles,
    pole_margins,
    verify_region,
)
from dstab.errors import NonProperError
from dstab.network import AdmittanceMatrix, NodePartition, build_admittance, grid_code
from dstab.regions import (
    CompositeRegion,
    HalfPlaneRegion,
    sector,
    shifted_lhp,
)
from dstab.scenario import (
    build_model, chosen_indices, compliance, data_path, grid_codes, load_scenario, resolve_equilibrium,
)


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import meshgen  # noqa: E402


def integrator() -> CRational:
    return CRational.from_coeffs([1.0], [0.0, 1.0])


def pair_model(region=None) -> SystemModel:
    part = NodePartition((0, 1), ())
    Y = AdmittanceMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]), part)
    return SystemModel((integrator(), integrator()), Y, region or shifted_lhp(0.0))


@pytest.fixture
def star_system():
    part = NodePartition((0, 1), (2,))
    Y = build_admittance([(0, 2, 0.1), (1, 2, 0.1)], 3, part)
    buck = dev.coeffs_ess_buck(dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.38, kI_u=21.0))
    cpl = dev.CplParams(C_l=2e-3, P=1500.0)
    u_star = 100.0
    subsystems = (buck.tf, buck.tf, dev.cpl_tf(cpl, u_star))
    load_cy = ((cpl.C_l, dev.cpl_conductance(cpl, u_star)),)
    return Y, buck, cpl, u_star, subsystems, load_cy


def mixed_degree_model() -> SystemModel:
    """2s / (s^2 + 3s + 1) has an exact zero constant coefficient; 1 / (s + 4) has one state."""
    part = NodePartition((0, 1), (2,))
    Y = build_admittance([(0, 2, 0.1), (1, 2, 0.25)], 3, part)
    subs = (CRational.from_coeffs([0.0, 2.0], [1.0, 3.0, 1.0]), CRational.from_coeffs([1.0], [4.0, 1.0]),
            CRational.from_coeffs([0.5, -1.5], [2.0, 0.5, 1.0]))
    return SystemModel(subs, Y, shifted_lhp(0.0))


class TestAssembly:
    def test_integrator_pair(self):
        m = pair_model()
        a_cl = assemble_closed_loop(m)
        assert np.allclose(a_cl, -m.network.Y)
        assert closed_loop_poles(m) == pytest.approx([-2.0, 0.0])

    def test_scalar_loop(self):
        part = NodePartition((0,), ())
        Y = AdmittanceMatrix(np.array([[0.0]]), part)
        m = SystemModel((CRational.from_coeffs([1.0], [1.0, 1.0]),), Y, shifted_lhp(0.0))
        assert closed_loop_poles(m) == pytest.approx([-1.0])

    def test_non_strictly_proper_rejected(self):
        part = NodePartition((0,), ())
        Y = AdmittanceMatrix(np.array([[0.0]]), part)
        m = SystemModel((CRational.from_coeffs([1.0, 1.0], [2.0, 1.0]),), Y, shifted_lhp(0.0))
        with pytest.raises(NonProperError):
            assemble_closed_loop(m)

    @pytest.mark.parametrize(
        "rows, error, match",
        [
            # imaginary parts 2e-9 of the row's max-norm, past the 1e-9 band
            ([([1.0], [1.0 + 2e-9j, 1.0])], ValueError, "subsystem 0 has coefficients that are not real"),
            ([([1.0], [1.0, 1.0]), ([1.0, 2e-9j], [1.0, 1.0, 1.0])], ValueError, "subsystem 1 .* not real"),
            # the lowest offending node decides which error is raised
            ([([1.0, 1.0], [2.0, 1.0]), ([1.0], [1j, 1.0])], NonProperError, "strictly proper"),
            ([([1.0], [1j, 1.0]), ([1.0, 1.0], [2.0, 1.0])], ValueError, "subsystem 0 .* not real"),
            # a zero function over a constant has no state to realize it
            ([([1.0], [1.0, 1.0]), ([0.0], [1.0]), ([3.0], [2.0, 1.0])], ValueError, "^subsystem 1 has no state$"),
        ],
        ids=["complex-den", "complex-num", "biproper-first", "complex-first", "no-state"],
    )
    def test_rejected_rows(self, rows, error, match):
        part = NodePartition(tuple(range(len(rows))), ())
        Y = AdmittanceMatrix(np.zeros((len(rows), len(rows))), part)
        m = SystemModel(tuple(CRational.from_coeffs(n, d) for n, d in rows), Y, shifted_lhp(0.0))
        with pytest.raises(error, match=match):
            assemble_closed_loop(m)

    def test_imaginary_parts_inside_the_band_are_dropped(self):
        part = NodePartition((0,), ())
        Y = AdmittanceMatrix(np.array([[0.0]]), part)
        m = SystemModel((CRational.from_coeffs([2.0 + 5e-10j], [3.0 - 5e-10j, 1.0]),), Y, shifted_lhp(0.0))
        assert np.array_equal(assemble_closed_loop(m), [[-3.0]])

    def test_improper_subsystem_named(self):
        part = NodePartition((0, 1, 2), ())
        Y = AdmittanceMatrix(np.zeros((3, 3)), part)
        improper = CRational.from_coeffs([1.0, 1.0, 1.0], [1.0, 1.0])
        with pytest.raises(NonProperError, match="^subsystem 1 is not proper$"):
            SystemModel((integrator(), improper, improper), Y, shifted_lhp(0.0))
        # biproper passes the properness check; only the oracle needs strict properness
        SystemModel((integrator(), CRational.from_coeffs([1.0, 1.0], [2.0, 1.0]), integrator()), Y, shifted_lhp(0.0))

    @pytest.mark.parametrize("source", ["toy3", "mixed-degree"])
    def test_table_rows_are_the_coefficients_then_zeros(self, source):
        m = build_model(load_scenario(data_path(source))) if source == "toy3" else mixed_degree_model()
        for table, polys in ((m.num, [g.num for g in m.subsystems]), (m.den, [g.den for g in m.subsystems])):
            assert table.dtype == complex and not table.flags.writeable
            assert table.shape == (len(polys), max(len(p.coeffs) for p in polys))
            for row, p in zip(table, polys):
                k = len(p.coeffs)
                assert row[:k].tolist() == list(p.coeffs)
                assert not row[k:].any() and not np.signbit(row[k:].real).any() and not np.signbit(row[k:].imag).any()

    def test_eigenpair_residual_contract(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            part = NodePartition(tuple(range(n)), ())
            Y = AdmittanceMatrix(random_laplacian(rng, n), part)
            subs = tuple(random_source_coeffs(rng).tf for _ in range(n))
            m = SystemModel(subs, Y, shifted_lhp(0.0))
            a_cl = assemble_closed_loop(m)
            vals, vecs = np.linalg.eig(a_cl)
            norm = np.linalg.norm(a_cl)
            for k in range(len(vals)):
                residual = np.linalg.norm(a_cl @ vecs[:, k] - vals[k] * vecs[:, k])
                assert residual < 1e-8 * max(1.0, norm)

    def test_conjugate_pairing(self, rng):
        n = 3
        part = NodePartition(tuple(range(n)), ())
        Y = AdmittanceMatrix(random_laplacian(rng, n), part)
        subs = tuple(random_source_coeffs(rng).tf for _ in range(n))
        poles = closed_loop_poles(SystemModel(subs, Y, shifted_lhp(0.0)))
        conj = [p.conjugate() for p in poles]
        assert match_distance(poles, conj) < 1e-9

    @pytest.mark.parametrize("source", ["toy3", "ieee39_default", "ieee39_synthesized", (64, 1), (200, 1), (640, 1)],
                             ids=["toy3", "ieee39_default", "ieee39_synthesized", "mesh-n64-s1", "mesh-n200-s1",
                                  "mesh-n640-s1"])
    def test_structured_assembly_is_the_dense_product(self, tmp_path, source):
        if isinstance(source, str):
            path = data_path(source)
        else:
            path = meshgen.write_scenario(meshgen.mesh_scenario(*source), tmp_path / "mesh.json")
        m = build_model(load_scenario(path))
        assert np.array_equal(assemble_closed_loop(m), assemble_closed_loop_dense(m))

    def test_structured_assembly_with_degree_one_node_and_zero_coefficient(self):
        m = mixed_degree_model()
        a_cl = assemble_closed_loop(m)
        assert a_cl.shape == (5, 5)
        assert np.array_equal(a_cl, assemble_closed_loop_dense(m))


class TestOracleConsistency:
    def test_poles_match_polynomial_determinant(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            part = NodePartition(tuple(range(n)), ())
            Y = AdmittanceMatrix(random_laplacian(rng, n), part)
            subs = tuple(random_mild_subsystem(rng) for _ in range(n))
            m = SystemModel(subs, Y, shifted_lhp(0.0))
            mine = closed_loop_poles(m)
            char = characteristic_poly(subs, Y.Y)
            expected = roots(char)
            assert len(mine) == len(expected)
            assert match_distance(mine, expected) < 1e-6


class TestCertifyDecentralized:
    def test_integrators_certified_on_clhp(self):
        report = certify_thm1(pair_model())
        assert report.certified and report.network_ok
        assert all(r.is_positive for r in report.parts[0].device_reports)

    def test_unmodified_cpl_blocks_certification(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        m = SystemModel(subsystems, Y, shifted_lhp(0.0))  # no loop transform at all
        report = certify_thm1(m)
        assert not report.certified
        # the load node carries the failing report
        assert not report.parts[0].device_reports[2].is_positive

    def test_certified_implies_region(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        region = shifted_lhp(-2.0)
        gc = grid_code(Y, region, [load_cy[0]])
        comp = dev.check_compliance([buck], gc)[0]
        assert comp.compliant
        m = SystemModel(subsystems, Y, region, load_cy=load_cy, y_s=((comp.y_s, comp.y_s),))
        report = certify_thm1(m)
        assert report.certified
        ok, worst, _ = verify_region(m)
        assert ok and worst >= -1e-6

    def test_composite_region_part_by_part(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        region = CompositeRegion((shifted_lhp(-2.0), sector(1.2)))
        codes = [grid_code(Y, part, [load_cy[0]]) for part in region.parts]
        y_rows = []
        for code in codes:
            comp = dev.check_compliance([buck], code)[0]
            assert comp.compliant
            y_rows.append((comp.y_s, comp.y_s))
        m = SystemModel(subsystems, Y, region, load_cy=load_cy, y_s=tuple(y_rows))
        report = certify_thm1(m)
        assert len(report.parts) == 2
        assert report.certified
        ok, _, _ = verify_region(m)
        assert ok


class TestCertifyGridCode:
    def test_star_end_to_end(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        region = shifted_lhp(-2.0)
        gc = grid_code(Y, region, [load_cy[0]])
        comp = dev.check_compliance([buck], gc)[0]
        m = SystemModel(subsystems, Y, region, load_cy=load_cy)
        report = certify_thm2(dataclasses.replace(m, y_s=((comp.y_s, comp.y_s),)), [gc])
        assert report.certified

    def test_index_below_floor_fails_network(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        region = shifted_lhp(-2.0)
        gc = grid_code(Y, region, [load_cy[0]])
        m = SystemModel(subsystems, Y, region, load_cy=load_cy)
        report = certify_thm2(dataclasses.replace(m, y_s=((gc.bound - 0.01, gc.bound + 0.01),)), [gc])
        assert not report.certified
        assert not report.parts[0].network_ok

    def test_below_floor_note_names_binding_source(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        region = shifted_lhp(-2.0)
        gc = grid_code(Y, region, [load_cy[0]])
        y_s = ((gc.bound + 0.01, gc.bound - 0.01),)
        m = SystemModel(subsystems, Y, region, load_cy=load_cy, y_s=y_s)
        cap = dev.index_cap(buck, region)
        expected = (f"source index {gc.bound - 0.01:.6g} at node 2 (cap {cap:.6g}) "
                    f"below the network floor {gc.bound:.6g}")
        assert certify_thm2(m, [gc]).parts[0].notes == (expected,)
        # A subsystem without the generic source form has no closed-form cap.
        third_order = CRational.from_coeffs([1.0, 1.0], [1.0, 3.0, 3.0, 1.0])
        m = dataclasses.replace(m, subsystems=(subsystems[0], third_order, subsystems[2]))
        expected = f"source index {gc.bound - 0.01:.6g} at node 2 below the network floor {gc.bound:.6g}"
        assert certify_thm2(m, [gc]).parts[0].notes == (expected,)
        # A generic binding source reads its rows zero-padded to a third-order node's width.
        m = dataclasses.replace(m, subsystems=(third_order, subsystems[1], subsystems[2]))
        expected = (f"source index {gc.bound - 0.01:.6g} at node 2 (cap {cap:.6g}) "
                    f"below the network floor {gc.bound:.6g}")
        assert certify_thm2(m, [gc]).parts[0].notes == (expected,)
        # CRational scales a non-monic denominator to monic, so the cap is the same.
        scaled = CRational.from_coeffs([2.0 * buck.c0, 2.0 * buck.c1], [2.0 * buck.d0, 2.0 * buck.d1, 2.0])
        m = dataclasses.replace(m, subsystems=(subsystems[0], scaled, subsystems[2]))
        expected = (f"source index {gc.bound - 0.01:.6g} at node 2 (cap {cap:.6g}) "
                    f"below the network floor {gc.bound:.6g}")
        assert certify_thm2(m, [gc]).parts[0].notes == (expected,)

    def test_strip_auto_passes_network(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        region = HalfPlaneRegion(math.pi / 2, 200.0, 0.0)
        gc = grid_code(Y, region, [load_cy[0]])
        m = SystemModel(subsystems, Y, region, load_cy=load_cy)
        report = certify_thm2(dataclasses.replace(m, y_s=((0.0, 0.0),)), [gc])
        assert report.parts[0].network_ok

    def test_thm2_implies_thm1(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        for region in (shifted_lhp(-2.0), sector(1.2)):
            gc = grid_code(Y, region, [load_cy[0]])
            comp = dev.check_compliance([buck], gc)[0]
            if not comp.compliant:
                continue
            m = SystemModel(subsystems, Y, region, load_cy=load_cy, y_s=((comp.y_s, comp.y_s),))
            rep2 = certify_thm2(m, [gc])
            rep1 = certify_thm1(m)
            assert not rep2.certified or rep1.certified


class TestComplianceReuse:
    @pytest.mark.parametrize("name, n_compliant", [("toy3", 2), ("ieee39_default", 20), ("ieee39_synthesized", 72)])
    def test_reused_reports_equal_fresh_checks(self, name, n_compliant):
        # The certifiers reuse a compliant source's positivity report only
        # because check_compliance and the certifier build the same function
        # by the same route: the reports must agree to the bit.
        sc = load_scenario(data_path(name))
        eq = resolve_equilibrium(sc)
        codes = grid_codes(sc, eq)
        reports = compliance(sc, eq, codes)
        m = dataclasses.replace(build_model(sc, eq), y_s=chosen_indices(reports))
        fresh = certify_thm1(m)
        compared = 0
        for part, row in zip(fresh.parts, reports):
            for k, rep in zip(sc.partition.source_ids, row):
                if rep is not None and rep.compliant:
                    assert dumps(rep.positivity.as_dict()) == dumps(part.device_reports[k].as_dict())
                    assert rep.positivity.margin.hex() == part.device_reports[k].margin.hex()
                    compared += 1
        assert compared == n_compliant
        assert dumps(certify_thm1(m, reports).as_dict()) == dumps(fresh.as_dict())
        assert dumps(certify_thm2(m, codes, reports).as_dict()) == dumps(certify_thm2(m, codes).as_dict())


class TestVerifyRegion:
    def test_integrator_pair_boundary(self):
        ok, worst, poles = verify_region(pair_model())
        assert ok and worst == pytest.approx(0.0, abs=1e-9)
        assert len(poles) == 2

    def test_shifted_region_excludes_origin_pole(self):
        ok, worst, _ = verify_region(pair_model(shifted_lhp(-1.0)))
        assert not ok and worst == pytest.approx(-1.0, abs=1e-9)

    def test_pole_margins_sorted_and_consistent(self, star_system):
        Y, buck, cpl, u_star, subsystems, load_cy = star_system
        m = SystemModel(subsystems, Y, shifted_lhp(0.0), load_cy=load_cy, y_s=((0.1, 0.1),))
        margins = pole_margins(m)
        assert len(margins) == 5  # 2 + 2 + 1 states
        for pole, margin in margins:
            assert margin == pytest.approx(m.region.margin(pole))


class TestMappingFidelity:
    def test_nu_domain_roots_match_mapped_poles(self, rng):
        # light version of the acceptance sweep
        for _ in range(10):
            n = int(rng.integers(2, 4))
            part = NodePartition(tuple(range(n)), ())
            Y = AdmittanceMatrix(random_laplacian(rng, n), part)
            subs = tuple(random_mild_subsystem(rng) for _ in range(n))
            region = HalfPlaneRegion(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 5)), -float(rng.uniform(0, 3)))
            m = SystemModel(subs, Y, region)
            import cmath

            a = cmath.exp(1j * region.theta0)
            b = a * region.sigma0 + 1j * region.omega0
            mapped = tuple(substitute_affine(g, a, b) for g in subs)
            nu_roots = roots(characteristic_poly(mapped, Y.Y))
            expected = [map_to_nu(region, p) for p in closed_loop_poles(m)]
            assert match_distance(nu_roots, expected) < 1e-6
