"""Admittance construction, the real network matrix and its PSD check, and
the Schur-complement grid code."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_lines, random_partition
from crosscheck import admittance_by_line
from dstab.errors import LLAssumptionError, NetworkError
from dstab.network import (
    AdmittanceMatrix,
    NodePartition,
    GridCode,
    check_rotated_psd,
    grid_code,
    network_matrix,
    schur_xi,
)
from dstab.regions import horizontal_strip, sector, shifted_lhp
from dstab.scenario import data_path, load_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import meshgen  # noqa: E402


@pytest.fixture
def star3() -> AdmittanceMatrix:
    return AdmittanceMatrix([(0, 2, 0.1), (1, 2, 0.1)], 3, NodePartition((0, 1), (2,)))


def block(Y: AdmittanceMatrix, rows: str, cols: str) -> np.ndarray:
    """Source ("s") or load ("l") block of the admittance matrix."""
    ids = {"s": Y.partition.source_ids, "l": Y.partition.load_ids}
    return Y.Y[np.ix_(ids[rows], ids[cols])]


def complex_psd_reference(Y: AdmittanceMatrix, theta0: float, rho: np.ndarray) -> tuple[bool, float, float]:
    """Theorem-1 condition on the complex route: Y_hat = e^{-j theta0} Y -
    diag(rho) and the Hermitian eigenvalues of Y_hat + Y_hat^H.  Returns the
    verdict, lambda_min and the band scale max(1, max |lambda|)."""
    y_hat = np.exp(-1j * theta0) * Y.Y.astype(complex) - np.diag(rho.astype(complex))
    eigs = np.linalg.eigvalsh(y_hat + y_hat.conj().T)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    return float(eigs[0]) >= -1e-9 * scale, float(eigs[0]), scale


class TestBuild:
    def test_two_node_line(self):
        Y = AdmittanceMatrix([(0, 1, 0.1)], 2, NodePartition((0,), (1,)))
        assert np.allclose(Y.Y, [[10.0, -10.0], [-10.0, 10.0]])

    def test_three_node_star(self, star3):
        assert np.allclose(np.diag(star3.Y), [10.0, 10.0, 20.0])
        assert star3.Y[0, 2] == pytest.approx(-10.0)
        assert star3.Y[0, 1] == pytest.approx(0.0)

    def test_parallel_edges_add_conductance(self):
        Y = AdmittanceMatrix([(0, 1, 0.2), (0, 1, 0.2)], 2, NodePartition((0,), (1,)))
        assert Y.Y[0, 0] == pytest.approx(10.0)

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(NetworkError):
            AdmittanceMatrix([(0, 1, 0.0)], 2, NodePartition((0,), (1,)))

    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf])
    def test_resistance_must_be_positive_and_finite(self, r):
        with pytest.raises(NetworkError, match=r"^edge \(1, 2\) needs a positive finite resistance, got .*$"):
            AdmittanceMatrix([(0, 1, r)], 2, NodePartition((0,), (1,)))

    @pytest.mark.parametrize("i, j", [(1, 1), (0, 2), (-1, 0)])
    def test_bad_edge_rejected(self, i, j):
        fault = "joins node 2 to itself" if i == j else r"names a node outside 1\.\.2"
        with pytest.raises(NetworkError, match=rf"^edge \({i + 1}, {j + 1}\) {fault}$"):
            AdmittanceMatrix([(0, 1, 0.1), (i, j, 0.1)], 2, NodePartition((0,), (1,)))

    def test_overflowing_conductance_names_the_line(self):
        # 1/R overflows below R = 1/DBL_MAX, about 5.6e-309.
        AdmittanceMatrix([(0, 1, 5.6e-309)], 2, NodePartition((0,), (1,)))
        with pytest.raises(NetworkError, match=r"^edge \(2, 1\) has resistance 1e-310, whose conductance 1/R overflows$"):
            AdmittanceMatrix([(0, 1, 0.1), (1, 0, 1e-310)], 2, NodePartition((0,), (1,)))

    def test_overflowing_conductance_sum_names_the_node(self):
        # Each line's conductance is finite; the two at the middle node (node 2) sum past DBL_MAX.
        with pytest.raises(NetworkError, match="^the conductances of the lines at node 2 sum past the largest double$"):
            AdmittanceMatrix([(0, 1, 1e-308), (1, 2, 1e-308)], 3, NodePartition((0, 1), (2,)))

    def test_lines_are_normalized_and_y_is_read_only(self):
        Y = AdmittanceMatrix([[np.int64(0), 1, 1]], 2, NodePartition((0,), (1,)))
        assert Y.lines == ((0, 1, 1.0),) and all(type(v) is t for v, t in zip(Y.lines[0], (int, int, float)))
        assert not Y.Y.flags.writeable
        with pytest.raises(ValueError):
            Y.Y[0, 0] = 2.0

    @pytest.mark.parametrize("source", ["toy3", "ieee39_default", "ieee39_synthesized", 64, 200, 640],
                             ids=["toy3", "ieee39_default", "ieee39_synthesized", "mesh-n64-s1", "mesh-n200-s1",
                                  "mesh-n640-s1"])
    def test_shipped_networks_match_the_line_loop(self, tmp_path, source):
        if isinstance(source, str):
            path = data_path(source)
        else:
            path = meshgen.write_scenario(meshgen.mesh_scenario(source, 1), tmp_path / "mesh.json")
        Y = load_scenario(path).network
        ref = admittance_by_line(Y.lines, Y.n_nodes)
        assert np.array_equal(Y.Y, ref) and np.array_equal(np.signbit(Y.Y), np.signbit(ref))

    def test_random_lines_match_the_line_loop(self, rng):
        parallel = reversed_ = 0
        for _ in range(250):
            n = int(rng.integers(2, 16))
            lines = random_lines(rng, n)
            # A line parallel to another, from its other end, and a few more parallel lines.
            i, j, _ = lines[int(rng.integers(len(lines)))]
            lines.append((j, i, rng.uniform(0.05, 0.5)))
            for k in rng.choice(len(lines), size=int(rng.integers(0, 3))):
                lines.append((*lines[k][:2], rng.uniform(1e-3, 10.0)))
            lines = [lines[k] for k in rng.permutation(len(lines))]
            pairs = [(min(i, j), max(i, j)) for i, j, _ in lines]
            parallel += len(set(pairs)) < len(pairs)
            reversed_ += any(i > j for i, j, _ in lines)
            Y = AdmittanceMatrix(lines, n, NodePartition(tuple(range(n)), ())).Y
            ref = admittance_by_line(lines, n)
            assert np.array_equal(Y, ref) and np.array_equal(np.signbit(Y), np.signbit(ref))
        assert parallel == 250 and reversed_ == 250

    def test_disconnected_rejected(self):
        with pytest.raises(NetworkError, match=r"^network graph is disconnected: nodes \[3\] cannot be reached from node 1$"):
            AdmittanceMatrix([(0, 1, 0.1)], 3, NodePartition((0, 1), (2,)))

    def test_partition_must_cover(self):
        with pytest.raises(NetworkError, match=r"^nodes \[2\] are neither sources nor loads$"):
            AdmittanceMatrix([(0, 1, 0.1), (1, 2, 0.1)], 3, NodePartition((0,), (2,)))
        with pytest.raises(NetworkError, match=r"^the partition names nodes \[6\] outside 1\.\.2$"):
            AdmittanceMatrix([(0, 1, 0.1)], 2, NodePartition((0,), (1, 5)))

    @pytest.mark.parametrize("lines, sources, loads, message", [
        ([(0, 2, 0.1), (1, 2, 0.1)], (0, 1), (2, 1), "nodes [2] appear in both the sources and the loads"),
        ([(0, 2, 0.1), (1, 2, 0.1)], (0, 1, 0), (2,), "the sources list nodes [1] more than once"),
        ([(0, 2, 0.1), (1, 2, 0.1)], (0, 1), (2, 2), "the loads list nodes [3] more than once"),
        ([(0, 2, 0.1), (1, 2, 0.1)], (0,), (2,), "nodes [2] are neither sources nor loads"),
        ([(2, 2, 0.1), (1, 2, 0.1)], (0, 1), (2,), "edge (3, 3) joins node 3 to itself"),
        ([(0, 2, -0.1), (1, 2, 0.1)], (0, 1), (2,), "edge (1, 3) needs a positive finite resistance, got -0.1"),
        ([(0, 2, 1e-310), (1, 2, 0.1)], (0, 1), (2,),
         "edge (1, 3) has resistance 1e-310, whose conductance 1/R overflows"),
        ([(0, 2, 0.1)], (0, 1), (2,), "network graph is disconnected: nodes [2] cannot be reached from node 1"),
        ([(0, 2, 1e-308), (1, 2, 1e-308)], (0, 1), (2,),
         "the conductances of the lines at node 3 sum past the largest double"),
    ], ids=["source-also-load", "repeated-source", "repeated-load", "uncovered-node", "self-loop",
            "negative-resistance", "conductance-overflow", "disconnected", "conductance-sum-overflow"])
    def test_topology_errors_name_file_nodes(self, lines, sources, loads, message):
        # toy3's network (0-based) with one defect each: the constructors word every
        # error with the scenario file's 1-based ids, as the CLI prints them.
        with pytest.raises(NetworkError) as caught:
            AdmittanceMatrix(lines, 3, NodePartition(sources, loads))
        assert str(caught.value) == message

    def test_laplacian_zero_mode(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            Y = AdmittanceMatrix(random_lines(rng, n), n, NodePartition(tuple(range(n)), ())).Y
            assert np.allclose(Y @ np.ones(n), 0.0, atol=1e-9)
            eigs = np.linalg.eigvalsh(Y)
            assert eigs[0] == pytest.approx(0.0, abs=1e-9)

    def test_load_block_positive_definite(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            part = random_partition(rng, n)
            Y = AdmittanceMatrix(random_lines(rng, n), n, part)
            if not part.load_ids:
                continue
            assert np.linalg.eigvalsh(block(Y, "l", "l"))[0] > 0


class TestRotation:
    def test_zero_angle_identity(self, star3):
        assert np.array_equal(network_matrix(star3, 0.0, np.zeros(3)), star3.Y)

    def test_uniform_angle_hermitian_part(self, star3):
        theta, rho = 0.4, np.array([-0.3, 0.2, 1.5])
        y_hat = np.exp(-1j * theta) * star3.Y - np.diag(rho)
        assert np.allclose(2.0 * network_matrix(star3, theta, rho), y_hat + y_hat.conj().T, atol=1e-12)

    def test_right_angle_kills_hermitian_part(self, star3):
        assert np.allclose(network_matrix(star3, math.pi / 2, np.zeros(3)), 0.0, atol=1e-12)

    def test_laplacian_psd_at_zero(self, star3):
        ok, lam = check_rotated_psd(network_matrix(star3, 0.0, np.zeros(3)))
        assert ok and lam == pytest.approx(0.0, abs=1e-9)

    def test_negative_rotation_fails(self):
        ok, lam = check_rotated_psd(np.array([[math.cos(2 * math.pi / 3)]]))
        assert not ok and lam == pytest.approx(2 * math.cos(2 * math.pi / 3))

    def test_star_sector_angle_psd(self, star3):
        ok, _ = check_rotated_psd(network_matrix(star3, math.pi / 12, np.zeros(3)))
        assert ok

    @pytest.mark.parametrize("angle", ["zero", "right", "uniform"])
    def test_real_route_matches_complex_reference(self, rng, angle):
        verdicts = set()
        for _ in range(60):
            n = int(rng.integers(2, 13))
            Y = AdmittanceMatrix(random_lines(rng, n), n, random_partition(rng, n))
            theta = {"zero": 0.0, "right": math.pi / 2, "uniform": float(rng.uniform(0.0, math.pi / 2))}[angle]
            rho = rng.uniform(-1.0, 1.0, size=n) * float(rng.choice([1e-3, 1.0, 10.0]))
            rho[rng.random(n) < 0.3] = 0.0
            ok, lam = check_rotated_psd(network_matrix(Y, theta, rho))
            ref_ok, ref_lam, scale = complex_psd_reference(Y, theta, rho)
            assert ok == ref_ok
            assert abs(lam - ref_lam) <= 1e-12 * scale
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestSchur:
    def test_star_no_virtual_admittance(self, star3):
        xi = schur_xi(star3, 0.0, [0.0])
        assert np.allclose(xi, [[5.0, -5.0], [-5.0, 5.0]])

    def test_star_with_virtual_admittance(self, star3):
        xi = schur_xi(star3, 0.0, [5.0])
        expected = np.array([[10.0, 0.0], [0.0, 10.0]]) - np.full((2, 2), 100.0 / 15.0)
        assert np.allclose(xi, expected)

    def test_damping_capacity_exhausted(self, star3):
        with pytest.raises(LLAssumptionError):
            schur_xi(star3, 0.0, [25.0])

    @pytest.mark.parametrize("y_v, exhausted", [(20.0, True), (20.0 - 5e-13, True), (20.0 - 2e-12, False)])
    def test_damping_band_boundary(self, star3, y_v, exhausted):
        # At theta0 = 0 the load block is 20 - y_v; the assumption needs it above 1e-12 * max(1, |20 - y_v|).
        if exhausted:
            with pytest.raises(LLAssumptionError, match="lambda_min"):
                schur_xi(star3, 0.0, [y_v])
        else:
            assert np.all(np.isfinite(schur_xi(star3, 0.0, [y_v])))

    @pytest.mark.parametrize("angle", ["zero", "right", "uniform"])
    def test_matches_block_formula(self, rng, angle):
        # Xi = c Yss - c^2 Ysl (c Yll - diag y_v)^{-1} Yls, from the separate blocks of Y
        # On a strip (right angle) the virtual admittances are negative.
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 13))
            part = random_partition(rng, n)
            if not part.source_ids:
                continue
            Y = AdmittanceMatrix(random_lines(rng, n), n, part)
            theta = {"zero": 0.0, "right": math.pi / 2, "uniform": float(rng.uniform(0.0, math.pi / 2 - 0.05))}[angle]
            c = math.cos(theta)
            low, high = (-0.3, -0.01) if angle == "right" else (-0.1, 0.3)
            y_v = rng.uniform(low, high, size=len(part.load_ids))
            try:
                xi = schur_xi(Y, theta, y_v)
            except LLAssumptionError:
                continue
            m_ll = c * block(Y, "l", "l") - np.diag(y_v)
            ref = c * block(Y, "s", "s") - c * c * (block(Y, "s", "l") @ np.linalg.solve(m_ll, block(Y, "l", "s")))
            ref = (ref + ref.T) / 2.0
            # Relative to the terms the formula subtracts, since Xi may cancel to far below them.
            scale = max(float(np.max(np.abs(ref))), c * float(np.max(np.abs(block(Y, "s", "s")))))
            assert float(np.max(np.abs(xi - ref))) <= 1e-12 * scale
            checked += 1
        assert checked >= 40

    def test_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            part = random_partition(rng, n)
            if not part.source_ids or not part.load_ids:
                continue
            Y = AdmittanceMatrix(random_lines(rng, n), n, part)
            y_v = rng.uniform(-0.1, 0.2, size=len(part.load_ids))
            try:
                xi = schur_xi(Y, float(rng.uniform(0, math.pi / 2 - 0.05)), y_v)
            except LLAssumptionError:
                continue
            assert float(np.max(np.abs(xi - xi.T))) < 1e-10 * max(1.0, float(np.max(np.abs(xi))))

    def test_block_psd_equivalence_sample(self, rng):
        # light version of the full acceptance sweep
        for _ in range(25):
            n = int(rng.integers(3, 8))
            part = random_partition(rng, n)
            if not part.source_ids or not part.load_ids:
                continue
            Y = AdmittanceMatrix(random_lines(rng, n), n, part)
            theta = float(rng.uniform(0, 1.4))
            y_v = rng.uniform(0.0, 0.3, size=len(part.load_ids))
            try:
                xi = schur_xi(Y, theta, y_v)
            except LLAssumptionError:
                continue
            floor = -float(np.linalg.eigvalsh(xi)[0])
            for y_s in (floor + 0.05, floor - 0.05):
                diag = np.zeros(n)
                for k in part.source_ids:
                    diag[k] = y_s
                for pos, k in enumerate(part.load_ids):
                    diag[k] = -y_v[pos]
                lam = float(np.linalg.eigvalsh(math.cos(theta) * Y.Y + np.diag(diag))[0])
                assert (lam >= -1e-9) == (y_s >= floor - 1e-9)


class TestGridCode:
    def test_star_bound(self, star3):
        gc = grid_code(star3, shifted_lhp(0.0), [(2e-3, 5.0)])
        assert gc.ll_assumption_ok
        assert gc.bound == pytest.approx(10.0 / 3.0)

    def test_strip_is_trivial(self, star3):
        gc = grid_code(star3, horizontal_strip(10.0), [(2e-3, 5.0)])
        assert gc.ll_assumption_ok
        assert gc.bound == pytest.approx(0.0, abs=1e-12)

    def test_zero_virtual_admittance_bound_nonpositive(self, rng):
        # Schur complement of a PSD Laplacian stays PSD
        for _ in range(10):
            n = int(rng.integers(3, 8))
            part = random_partition(rng, n)
            if not part.source_ids or not part.load_ids:
                continue
            Y = AdmittanceMatrix(random_lines(rng, n), n, part)
            gc = grid_code(Y, shifted_lhp(0.0), [(1e-3, 0.0)] * len(part.load_ids))
            assert gc.bound <= 1e-9

    def test_admits_at_the_floor_band(self, star3):
        gc = grid_code(star3, shifted_lhp(0.0), [(2e-3, 5.0)])
        floor = gc.bound
        assert gc.admits(floor + 2e-9) and gc.admits(floor) and gc.admits(floor - 0.5e-9)
        assert not gc.admits(floor - 2e-9)
        # Strip compliance asks admits(0.0): a floor within 1e-9 of 0 admits index 0.
        assert GridCode(horizontal_strip(10.0), -0.5e-9, (), True).admits(0.0)
        assert not GridCode(horizontal_strip(10.0), -2e-9, (), True).admits(0.0)

    def test_overload_reports_violation(self, star3):
        gc = grid_code(star3, shifted_lhp(0.0), [(2e-3, 25.0)])
        assert not gc.ll_assumption_ok

    def test_needs_both_sides(self):
        Y = AdmittanceMatrix([(0, 1, 0.1)], 2, NodePartition((0, 1), ()))
        with pytest.raises(NetworkError):
            grid_code(Y, shifted_lhp(0.0), [])

    def test_sector_uses_cos_theta(self, star3):
        beta = 5 * math.pi / 12
        gc = grid_code(star3, sector(beta), [(2e-3, 5.0)])
        xi = schur_xi(star3, math.pi / 2 - beta, list(gc.y_virtual))
        assert gc.lambda_min_xi == pytest.approx(float(np.linalg.eigvalsh(xi)[0]))
