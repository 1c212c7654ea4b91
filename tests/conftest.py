"""Shared oracles and random generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check: polynomial roots come from companion-matrix eigenvalues through the
real 2n x 2n embedding, characteristic polynomials from a Leibniz
determinant over ``numpy.polynomial`` arithmetic, and set comparisons from
optimal assignment.  ``numpy.polynomial.polynomial`` takes ascending
coefficients, as ``CPoly.coeffs`` stores them; a result goes back through
``CPoly`` where the trim rule matters.
"""

from __future__ import annotations

import itertools

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from scipy.optimize import linear_sum_assignment

from dstab import devices as dev
from dstab.cpoly import CPoly, CRational
from dstab.network import AdmittanceMatrix, NodePartition
from dstab.regions import (
    HalfPlaneRegion,
    horizontal_strip,
    sector,
    shifted_lhp,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# oracles


def companion_spectrum(coeffs: tuple[complex, ...]) -> np.ndarray:
    """Eigenvalues of the real 2n x 2n embedding of the companion matrix of a
    monic polynomial: the multiset roots(p) U conj(roots(p))."""
    c = np.array(coeffs, dtype=complex)
    c = c / c[-1]
    n = len(c) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1]
    top = np.hstack([comp.real, -comp.imag])
    bottom = np.hstack([comp.imag, comp.real])
    return np.linalg.eigvals(np.vstack([top, bottom]))


def match_distance(a, b) -> float:
    """Maximum pairing distance under the optimal assignment of two equal-size
    multisets of complex numbers."""
    a = np.asarray(list(a), dtype=complex)
    b = np.asarray(list(b), dtype=complex)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if a.size else 0.0


def from_roots(roots) -> CPoly:
    """The monic polynomial with the given roots, one linear factor at a time."""
    c = np.array([1 + 0j])
    for r in roots:
        c = np.convolve(c, np.array([-complex(r), 1.0]))
    return CPoly(tuple(c))


def degree(p: CPoly) -> int:
    """Degree under the trim rule; -1 for the zero polynomial."""
    return -1 if p.is_zero else len(p.coeffs) - 1


def norm_inf(p: CPoly) -> float:
    return max(abs(c) for c in p.coeffs)


def value(r: CRational, z: complex) -> complex | None:
    """r(z), or None where |den(z)| is below 1e-12 of the denominator's scale
    at z, that is at or next to a pole."""
    d = P.polyval(z, r.den.coeffs)
    if abs(d) < 1e-12 * norm_inf(r.den) * max(1.0, abs(z)) ** degree(r.den):
        return None
    return complex(P.polyval(z, r.num.coeffs) / d)


def poly_determinant(matrix: list[list[CPoly]]) -> CPoly:
    """Leibniz determinant of a small matrix of polynomials."""
    n = len(matrix)
    total = CPoly((0j,))
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = CPoly((complex(sign),))
        for i in range(n):
            term = CPoly(P.polymul(term.coeffs, matrix[i][perm[i]].coeffs))
        total = CPoly(P.polyadd(total.coeffs, term.coeffs))
    return total


def characteristic_poly(subsystems, Y: np.ndarray) -> CPoly:
    """Numerator polynomial of det(I + diag(G_k) Y): the closed-loop
    characteristic polynomial of strictly proper subsystems."""
    n = len(subsystems)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            term = subsystems[i].num.scale(complex(Y[i, j]))
            if i == j:
                term = CPoly(P.polyadd(term.coeffs, subsystems[i].den.coeffs))
            row.append(term)
        entries.append(row)
    return poly_determinant(entries)


def assert_rational_close(r1: CRational, r2: CRational, tol: float = 1e-10) -> None:
    scale = max(norm_inf(r1.num), norm_inf(r2.num), norm_inf(r1.den), norm_inf(r2.den), 1e-300)
    for p, q in ((r1.num, r2.num), (r1.den, r2.den)):
        n = max(len(p.coeffs), len(q.coeffs))
        a = list(p.coeffs) + [0j] * (n - len(p.coeffs))
        b = list(q.coeffs) + [0j] * (n - len(q.coeffs))
        worst = max(abs(x - y) for x, y in zip(a, b))
        assert worst <= tol * scale, f"coefficient mismatch {worst:.3e} (scale {scale:.3e})"


# ---------------------------------------------------------------------------
# random generators


def random_cpoly(rng: np.random.Generator, degree: int) -> CPoly:
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    while abs(c[-1]) < 0.2:
        c[-1] = rng.standard_normal() + 1j * rng.standard_normal()
    return CPoly(tuple(c))


def random_crational(rng: np.random.Generator, max_degree: int = 4, proper: bool = True) -> CRational:
    den_deg = int(rng.integers(1, max_degree + 1))
    num_deg = int(rng.integers(0, den_deg + 1)) if proper else int(rng.integers(0, max_degree + 1))
    return CRational(random_cpoly(rng, num_deg), random_cpoly(rng, den_deg))


def random_positive_rational(rng: np.random.Generator) -> CRational:
    """Random positive function: sum of k_i/(nu + p_i) terms with Re p_i >= 0
    and k_i > 0, plus an optional nonnegative constant."""
    n_terms = int(rng.integers(1, 4))
    total_num = CPoly((0j,))
    total_den = CPoly((1 + 0j,))
    for _ in range(n_terms):
        if rng.random() < 0.25:
            p = -1j * rng.uniform(-3.0, 3.0)  # imaginary-axis pole
        else:
            p = complex(rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
        k = rng.uniform(0.1, 2.0)
        term_den = CPoly((p, 1.0 + 0j))
        total_num = CPoly(P.polyadd(P.polymul(total_num.coeffs, term_den.coeffs), total_den.scale(k).coeffs))
        total_den = CPoly(P.polymul(total_den.coeffs, term_den.coeffs))
    if rng.random() < 0.3:
        d = rng.uniform(0.0, 1.0)
        total_num = CPoly(P.polyadd(total_num.coeffs, total_den.scale(d).coeffs))
    return CRational(total_num, total_den)


def random_lines(rng: np.random.Generator, n: int) -> list[tuple[int, int, float]]:
    """Lines (i, j, resistance) of a connected network: a random tree plus a
    few extra lines, which may run parallel to another or from the higher
    node to the lower."""
    lines = []
    for j in range(1, n):
        i = int(rng.integers(0, j))
        lines.append((i, j, rng.uniform(0.05, 0.5)))
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.choice(n, size=2, replace=False)
        lines.append((int(i), int(j), rng.uniform(0.05, 0.5)))
    return lines


def random_partition(rng: np.random.Generator, n: int, allow_empty_loads: bool = False) -> NodePartition:
    ids = rng.permutation(n)
    lo = 0 if allow_empty_loads else 1
    n_loads = int(rng.integers(lo, n))
    return NodePartition(tuple(int(i) for i in ids[n_loads:]), tuple(int(i) for i in ids[:n_loads]))


def random_source_params(rng: np.random.Generator, kind: str) -> dev.SourceParams:
    """A ``boost``, ``buck`` or ``pv`` unit with parameters drawn around the
    shipped device templates."""
    if kind == "boost":
        return dev.EssBoostParams(
            C=rng.uniform(1e-3, 4e-3), E=rng.uniform(40.0, 60.0),
            U_r=rng.uniform(100.0, 110.0), R_d=rng.uniform(0.3, 1.0),
            kP_u=rng.uniform(0.005, 0.5), kI_u=rng.uniform(5.0, 80.0),
        )
    if kind == "buck":
        return dev.EssBuckParams(
            C=rng.uniform(1e-3, 4e-3), E=rng.uniform(150.0, 250.0),
            U_r=rng.uniform(100.0, 110.0), R_d=rng.uniform(0.3, 1.0),
            kP_u=rng.uniform(0.005, 0.5), kI_u=rng.uniform(5.0, 80.0),
        )
    return dev.PvParams(
        C=rng.uniform(1e-3, 4e-3), kP_u=rng.uniform(0.05, 0.3),
        kI_u=rng.uniform(0.3, 3.0), U_r_pv=36.12,
        i_pv_star=rng.uniform(10.0, 50.0), g_pv_star=rng.uniform(-2.0, -0.1),
    )


def random_source_coeffs(rng: np.random.Generator) -> dev.GenericSecondOrder:
    """Generic source coefficients drawn through the physical parameter maps."""
    kind = rng.choice(["boost", "buck", "pv"])
    u_star = rng.uniform(95.0, 108.0)
    return dev.source_coeffs(random_source_params(rng, kind), u_star)


def random_device_mix(rng: np.random.Generator, n: int) -> tuple[AdmittanceMatrix, list[dev.DeviceParams]]:
    """A connected random network of ``n`` nodes with a random partition, a
    random boost, buck or PV unit on each source node and a random CPL on
    each load node."""
    partition = random_partition(rng, n)
    devices: list = [None] * n
    for k in partition.source_ids:
        devices[k] = random_source_params(rng, rng.choice(["boost", "buck", "pv"]))
    for k in partition.load_ids:
        devices[k] = random_cpl(rng)[0]
    return AdmittanceMatrix(random_lines(rng, n), n, partition), devices


def random_mild_subsystem(rng: np.random.Generator) -> CRational:
    """Strictly proper real-rational second-order subsystem with O(1)
    coefficients; keeps polynomial-determinant oracles well conditioned."""
    p1 = complex(-rng.uniform(0.2, 4.0), rng.uniform(0.0, 3.0))
    den = from_roots([p1, p1.conjugate()]) if rng.random() < 0.6 else from_roots([p1.real, -rng.uniform(0.2, 4.0)])
    den = CPoly(tuple(complex(c.real) for c in den.coeffs))
    num = CPoly((rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)))
    return CRational(num, den)


def random_region(rng: np.random.Generator) -> HalfPlaneRegion:
    fam = rng.choice(["lhp", "sector", "hstrip"])
    if fam == "lhp":
        return shifted_lhp(-float(rng.uniform(0.0, 6.0)))
    if fam == "sector":
        return sector(float(rng.uniform(0.35, 1.45)))
    return horizontal_strip(float(rng.uniform(20.0, 200.0)))


def random_cpl(rng: np.random.Generator) -> tuple[dev.CplParams, float]:
    """A load and its bus voltage."""
    return dev.CplParams(C_l=rng.uniform(1e-3, 4e-3), P=rng.uniform(300.0, 2500.0)), rng.uniform(95.0, 105.0)

