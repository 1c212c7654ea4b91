"""Positivity verification for complex-coefficient transfer functions.

``check_positive_siso`` decides the scalar positivity conditions exactly:
(a) poles confined to the closed left half-plane, (b) nonnegative real part
along the imaginary axis, decided through the real polynomial
N(w) = Re{num(jw) * conj(den(jw))} (its real roots and the sign pattern
between them -- no sampling), and (c) simple imaginary-axis poles with
nonnegative real residues.

``check_pr_real_matrix`` verifies positive realness of the 2x2 real-rational
embedding with an independent frequency route: the same exact pole-location
test, residue matrices at imaginary-axis poles, and a sampled and
golden-section-refined sweep of the minimum eigenvalue of the Hermitian part.
The pair gives a dual-route check of the same property.

``check_positive_second_order`` is the closed-form coefficient test for
h = (a1*nu + a0) / (nu^2 + b1*nu + b0), and
``complex_routh_hurwitz_quadratic`` the underlying stability determinant test
for complex quadratics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cpoly import (
    CPoly,
    CRational,
    RealRationalMatrix2x2,
    cluster_roots,
    residue_at,
    roots,
)
from .errors import NonProperError, NotSimplePoleError

POLE_TOL = 1e-9        # absolute tolerance on Re{pole}
STRICT_TOL = 1e-9      # normalized margin for ">" / ">=" decisions
RESIDUE_IM_TOL = 1e-9  # |Im residue| relative to |residue|
A1I_TOL = 1e-12        # relative tolerance for the vanishing cubic coefficient
# A k-fold root is resolved to within ~eps^(1/k) only (companion eigenvalues
# split double roots by up to about 4e-7 relative), so multiplicity detection
# on the axis clusters far more loosely than conjugate dedup.  Roots of
# multiplicity above two may still leak into the location check; the verdict
# is unchanged.
AXIS_MULT_TOL = 1e-5

# Sampled frequency condition of check_pr_real_matrix: w = 0 plus a
# logarithmic base grid over [1e-3, 1e6] rad/s, each local minimum refined by
# GOLDEN_ITERS golden-section steps.
FREQUENCY_GRID = np.concatenate(([0.0], np.logspace(-3.0, 6.0, 2000)))
GOLDEN_ITERS = 60


class FailedCondition(str, Enum):
    NONE = "none"
    POLE_LOCATION = "pole_location"
    REAL_PART = "real_part"
    IMAGINARY_POLE_MULTIPLICITY = "imaginary_pole_multiplicity"
    RESIDUE = "residue"


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a positivity / positive-realness check.

    ``margin`` is the minimum over the individual condition margins,
    sign-aligned with the verdict (>= 0 passes); |margin| below ~1e-7 should
    be read as "boundary".  Every failure carries at least one witness as a
    (pole or frequency, value) pair.
    """

    is_positive: bool
    failed_condition: FailedCondition
    witnesses: tuple[tuple[complex, complex], ...]
    margin: float

    def __post_init__(self) -> None:
        if self.is_positive != (self.failed_condition is FailedCondition.NONE):
            raise ValueError("is_positive must match failed_condition")
        if not self.is_positive and not self.witnesses:
            raise ValueError("a failure must carry at least one witness")

    def as_dict(self) -> dict:
        return {
            "is_positive": self.is_positive,
            "failed_condition": self.failed_condition.value,
            "witnesses": [
                {"at": [complex(w[0]).real, complex(w[0]).imag],
                 "value": [complex(w[1]).real, complex(w[1]).imag]}
                for w in self.witnesses
            ],
            "margin": self.margin,
        }


def real_part_numerator(h: CRational) -> CPoly:
    """The real polynomial N with N(w) = Re{num(jw) * conj(den(jw))}.

    Coefficients below 1e-12 of the construction scale |num|*|den| are
    cancellation noise (e.g. the cubic term of a real-coefficient product)
    and are zeroed so they cannot masquerade as genuine high-degree terms.
    """
    a = np.array([c * (1j) ** k for k, c in enumerate(h.num.coeffs)])
    b = np.array([c.conjugate() * (-1j) ** k for k, c in enumerate(h.den.coeffs)])
    prod = np.convolve(a, b).real
    noise = 1e-12 * h.num.norm_inf * h.den.norm_inf * len(prod)
    prod[np.abs(prod) <= noise] = 0.0
    return CPoly(tuple(complex(c) for c in prod))


def _pole_conditions(
    den: CPoly,
) -> tuple[float, list[tuple[complex, complex]], list[tuple[complex, int]], list[complex]]:
    """Condition (a) and the imaginary-axis split of the roots of ``den``.

    Returns (location margin min -Re{p}, location witnesses, multiple clusters
    on the imaginary axis, simple imaginary-axis poles).  A near-axis cluster
    of size >= 2 is a multiplicity violation; its members are not additionally
    checked for location, since a k-fold boundary root is only resolved to
    ~eps^(1/k) and its members straddle the axis numerically.
    """
    den_roots = roots(den) if den.degree >= 1 else []
    multi_axis: list[tuple[complex, int]] = []
    absorbed: set[int] = set()
    for center, mult in cluster_roots(den_roots, rel_tol=AXIS_MULT_TOL):
        if mult > 1 and abs(center.real) <= AXIS_MULT_TOL * max(1.0, abs(center)):
            multi_axis.append((center, mult))
            for i, p in enumerate(den_roots):
                if abs(p - center) <= AXIS_MULT_TOL * max(1.0, abs(center)):
                    absorbed.add(i)
    location = [p for i, p in enumerate(den_roots) if i not in absorbed]
    margin = min((-p.real for p in location), default=math.inf)
    witnesses = [(p, complex(p.real)) for p in location if p.real > POLE_TOL]
    simple_axis = [
        c for c, m in cluster_roots(location) if m == 1 and abs(c.real) <= POLE_TOL
    ]
    return margin, witnesses, multi_axis, simple_axis


def _nonneg_on_reals(n_poly: CPoly, h: CRational) -> tuple[float, list[tuple[float, float]]]:
    """Minimum of Re{h(jw)} over the sign-deciding test points of N.

    Returns (normalized margin, violations) where each violation is a
    (frequency, Re{h(jw)}) pair.  N identically zero gives margin 0.
    """
    scale_h = max(h.num.norm_inf / h.den.norm_inf, 1e-300)
    base_scale = max(h.num.norm_inf * h.den.norm_inf, 1e-300)
    if n_poly.is_zero or n_poly.norm_inf <= 1e-12 * base_scale:
        return 0.0, []

    coeffs = np.array([c.real for c in n_poly.coeffs])
    deg = n_poly.degree
    if deg == 0:
        value = coeffs[0] / base_scale
        test_points = [0.0]
    else:
        n_roots = roots(n_poly)
        reach = 1.0 + 2.0 * max(abs(r) for r in n_roots)
        real_centers = sorted(
            c.real
            for c, _ in cluster_roots(n_roots, rel_tol=1e-7)
            if abs(c.imag) <= 1e-7 * max(1.0, abs(c))
        )
        test_points = [-reach, reach]
        for lo, hi in zip(real_centers, real_centers[1:]):
            if hi - lo > 1e-12 * max(1.0, abs(hi)):
                test_points.append(0.5 * (lo + hi))
        value = None

    margin = math.inf
    violations: list[tuple[float, float]] = []
    for w in test_points:
        den_val = h.den(1j * w)
        if abs(den_val) < 1e-12 * h.den.norm_inf * max(1.0, abs(w)) ** h.den.degree:
            continue
        re_h = (h.num(1j * w) / den_val).real
        margin = min(margin, re_h / max(1.0, scale_h))
        if re_h / max(1.0, scale_h) < -STRICT_TOL:
            violations.append((w, re_h))
    if math.isinf(margin):
        # Every test point sat on a pole; fall back to the constant sign.
        margin = value if value is not None else 0.0
    return margin, violations


def check_positive_siso(h: CRational) -> PositivityReport:
    """Exact scalar positivity check (conditions (a), (b), (c)).

    Raises :class:`NonProperError` for non-proper input.
    """
    if not h.is_proper:
        raise NonProperError(
            f"positivity is defined for proper functions (deg num {h.num.degree} > deg den {h.den.degree})"
        )
    if h.num.is_zero:
        # The zero function has no poles and zero real part everywhere.
        return PositivityReport(True, FailedCondition.NONE, (), 0.0)

    # (a) pole locations
    margin_a, pole_witnesses, multi_axis, simple_axis = _pole_conditions(h.den)

    # (b) real part along the axis, decided through N(w)
    n_poly = real_part_numerator(h)
    margin_b, real_part_violations = _nonneg_on_reals(n_poly, h)

    # (c) imaginary-axis poles: simple, real nonnegative residues
    margin_c = math.inf
    mult_witnesses: list[tuple[complex, complex]] = []
    residue_witnesses: list[tuple[complex, complex]] = []
    for center, mult in multi_axis:
        mult_witnesses.append((center, complex(mult)))
        margin_c = min(margin_c, -1.0)
    for center in simple_axis:
        try:
            res = residue_at(h, center)
        except NotSimplePoleError:
            mult_witnesses.append((center, complex(2)))
            margin_c = min(margin_c, -1.0)
            continue
        mag = max(abs(res), 1e-300)
        if abs(res.imag) >= RESIDUE_IM_TOL * mag:
            residue_witnesses.append((center, res))
            margin_c = min(margin_c, -abs(res.imag))
        elif res.real < -RESIDUE_IM_TOL * mag:
            residue_witnesses.append((center, res))
            margin_c = min(margin_c, res.real)
        else:
            margin_c = min(margin_c, res.real)

    margin = min(margin_a, margin_b, margin_c)
    if math.isinf(margin):
        margin = margin_b

    if pole_witnesses:
        return PositivityReport(False, FailedCondition.POLE_LOCATION, tuple(pole_witnesses), margin)
    if real_part_violations:
        witnesses = tuple((complex(w), complex(v)) for w, v in real_part_violations)
        return PositivityReport(False, FailedCondition.REAL_PART, witnesses, margin)
    if mult_witnesses:
        return PositivityReport(False, FailedCondition.IMAGINARY_POLE_MULTIPLICITY, tuple(mult_witnesses), margin)
    if residue_witnesses:
        return PositivityReport(False, FailedCondition.RESIDUE, tuple(residue_witnesses), margin)
    return PositivityReport(True, FailedCondition.NONE, (), margin)


def complex_routh_hurwitz_quadratic(b1: complex, b0: complex) -> bool:
    """Both roots of nu^2 + b1*nu + b0 have Re < 0 (Hurwitz determinants)."""
    b1 = complex(b1)
    b0 = complex(b0)
    delta1 = b1.real
    delta2 = b1.real**2 * b0.real + b1.real * b1.imag * b0.imag - b0.imag**2
    return delta1 > 0.0 and delta2 > 0.0


def check_positive_second_order(a1: complex, a0: complex, b1: complex, b0: complex) -> PositivityReport:
    """Closed-form positivity test for (a1*nu + a0) / (nu^2 + b1*nu + b0).

    Strict stability conditions pass at normalized margin > 1e-9; the
    nonnegativity conditions at margin > -1e-9, so near-zero |margin| means
    "boundary".  The degenerate zero numerator is trivially positive.
    """
    a1, a0, b1, b0 = complex(a1), complex(a0), complex(b1), complex(b0)
    if a1 == 0 and a0 == 0:
        return PositivityReport(True, FailedCondition.NONE, (), 0.0)

    margins: list[float] = []
    tiny = 1e-300

    # strict stability (pole locations)
    delta1 = b1.real
    m_d1 = delta1 / max(1.0, abs(b1))
    delta2 = b1.real**2 * b0.real + b1.real * b1.imag * b0.imag - b0.imag**2
    s_d2 = abs(b1.real**2 * b0.real) + abs(b1.real * b1.imag * b0.imag) + b0.imag**2 + tiny
    m_d2 = delta2 / s_d2
    margins += [m_d1, m_d2]
    if m_d1 <= STRICT_TOL or m_d2 <= STRICT_TOL:
        disc = b1 * b1 - 4.0 * b0
        sq = cmath.sqrt(disc)
        bad = [r for r in ((-b1 + sq) / 2.0, (-b1 - sq) / 2.0) if r.real >= -POLE_TOL]
        witnesses = tuple((r, complex(r.real)) for r in bad) or ((complex(delta2), complex(delta2)),)
        return PositivityReport(False, FailedCondition.POLE_LOCATION, witnesses, min(margins))

    den = CPoly((b0, b1, 1.0 + 0j))
    coeff_scale = max(abs(a1), abs(a0), 1.0)

    def _re_h(w: float) -> complex:
        num_v = a1 * 1j * w + a0
        den_v = den(1j * w)
        return complex((num_v / den_v).real)

    # vanishing cubic coefficient of N(w)
    if abs(a1.imag) >= A1I_TOL * coeff_scale:
        big = (abs(a1.real * b1.real) + abs(a0) * (abs(b1) + abs(b0) + 1.0) + abs(a1) * abs(b0)) / abs(a1.imag) + 1.0
        w_star = -math.copysign(big, a1.imag)
        margins.append(-abs(a1.imag) / coeff_scale)
        return PositivityReport(
            False, FailedCondition.REAL_PART, ((complex(w_star), _re_h(w_star)),), min(margins)
        )

    a1r, a0r, a0i = a1.real, a0.real, a0.imag
    b1r, b1i, b0r, b0i = b1.real, b1.imag, b0.real, b0.imag
    quad_a = a1r * b1r - a0r
    quad_b = a0i * b1r + a1r * b0i - a0r * b1i
    quad_c = a0r * b0r + a0i * b0i
    m_a = quad_a / (abs(a1r * b1r) + abs(a0r) + tiny)
    m_c = quad_c / (abs(a0r * b0r) + abs(a0i * b0i) + tiny)
    disc = 4.0 * quad_a * quad_c - quad_b**2
    m_disc = disc / (quad_b**2 + 4.0 * abs(quad_a) * abs(quad_c) + tiny)
    margins += [m_a, m_c, m_disc]

    witnesses: list[tuple[complex, complex]] = []
    if m_a < -STRICT_TOL:
        w_star = (abs(quad_b) + abs(quad_c)) / abs(quad_a) + 1.0
        witnesses.append((complex(w_star), _re_h(w_star)))
    if m_c < -STRICT_TOL:
        witnesses.append((complex(0.0), _re_h(0.0)))
    if m_disc < -STRICT_TOL and m_a >= -STRICT_TOL and m_c >= -STRICT_TOL:
        w_star = -quad_b / (2.0 * quad_a) if abs(quad_a) > tiny else 0.0
        witnesses.append((complex(w_star), _re_h(w_star)))
    if witnesses:
        return PositivityReport(False, FailedCondition.REAL_PART, tuple(witnesses), min(margins))
    return PositivityReport(True, FailedCondition.NONE, (), min(margins))


def _golden_min(f, a: float, b: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return ((a + b) / 2.0, fc) if fc < fd else ((a + b) / 2.0, fd)


def _refined_minimum(f, grid: np.ndarray) -> tuple[float, float]:
    """Coarse scan of ``f`` over ``grid`` plus golden-section refinement
    around every local minimum."""
    values = np.array([f(w) for w in grid])
    best_w = float(grid[int(np.nanargmin(values))])
    best_v = float(np.nanmin(values))
    for i in range(1, len(grid) - 1):
        if values[i] <= values[i - 1] and values[i] <= values[i + 1] and math.isfinite(values[i]):
            w, v = _golden_min(f, float(grid[i - 1]), float(grid[i + 1]))
            if v < best_v:
                best_w, best_v = w, v
    return best_w, best_v


def check_pr_real_matrix(M: RealRationalMatrix2x2) -> PositivityReport:
    """Positive-realness check of the 2x2 real-rational embedding.

    Pole locations come exactly from the common denominator; the frequency
    condition uses the closed-form minimum eigenvalue
    2*(Re{re(jw)} - |Im{im(jw)}|) on FREQUENCY_GRID, refined around each
    local minimum, over w >= 0 (response of a real-rational matrix is
    conjugate-symmetric); residue matrices at imaginary-axis poles must be
    Hermitian PSD.
    """
    if not (M.re.is_proper and M.im.is_proper):
        raise NonProperError("real-equivalent entries must be proper")
    if M.re.num.is_zero and M.im.num.is_zero:
        return PositivityReport(True, FailedCondition.NONE, (), 0.0)

    scale = max((M.re.num.norm_inf + M.im.num.norm_inf) / M.den.norm_inf, 1e-300)
    margin_a, pole_witnesses, multi_axis, simple_axis = _pole_conditions(M.den)
    if pole_witnesses:
        return PositivityReport(False, FailedCondition.POLE_LOCATION, tuple(pole_witnesses), min(margin_a, 0.0))
    if multi_axis:
        return PositivityReport(
            False, FailedCondition.IMAGINARY_POLE_MULTIPLICITY,
            tuple((c, complex(m)) for c, m in multi_axis), -1.0,
        )

    # residues at simple imaginary-axis poles
    margin_c = math.inf
    for center in simple_axis:
        try:
            k_re = residue_at(M.re, center)
            k_im = residue_at(M.im, center)
        except NotSimplePoleError:
            return PositivityReport(
                False, FailedCondition.IMAGINARY_POLE_MULTIPLICITY, ((center, complex(2)),), -1.0
            )
        K = np.array([[k_re, -k_im], [k_im, k_re]], dtype=complex)
        herm_dev = float(np.max(np.abs(K - K.conj().T)))
        kscale = max(float(np.max(np.abs(K))), 1e-300)
        lam = float(np.linalg.eigvalsh((K + K.conj().T) / 2.0).min())
        if herm_dev > 1e-7 * kscale:
            return PositivityReport(False, FailedCondition.RESIDUE, ((center, complex(herm_dev)),), -herm_dev)
        if lam < -STRICT_TOL * kscale:
            return PositivityReport(False, FailedCondition.RESIDUE, ((center, complex(lam)),), lam)
        margin_c = min(margin_c, lam)

    # frequency condition over w >= 0
    def lam_min(w: float) -> float:
        den_val = M.den(1j * w)
        if abs(den_val) < 1e-10 * M.den.norm_inf * max(1.0, abs(w)) ** M.den.degree:
            return math.inf
        a = M.re.num(1j * w) / den_val
        b = M.im.num(1j * w) / den_val
        return 2.0 * (a.real - abs(b.imag))

    w_min, v_min = _refined_minimum(lam_min, FREQUENCY_GRID)

    # High-frequency limit matters only for biproper entries (strictly proper
    # responses roll off to zero, which never violates the closed condition).
    if M.re.num.degree == M.den.degree:
        v_inf = 2.0 * M.re.num.coeffs[-1].real
        if v_inf < v_min:
            w_min, v_min = math.inf, v_inf

    margin_b = v_min / (2.0 * max(1.0, scale))
    margin = min(margin_a, margin_b, margin_c)
    if math.isinf(margin):
        margin = margin_b
    if margin_b < -STRICT_TOL:
        return PositivityReport(
            False, FailedCondition.REAL_PART, ((complex(w_min), complex(v_min)),), margin
        )
    return PositivityReport(True, FailedCondition.NONE, (), margin)

