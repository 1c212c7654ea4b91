"""Positivity verification for complex-coefficient transfer functions.

``check_positive_rows`` decides the scalar positivity conditions exactly,
for a whole stack of functions at once: (a) poles confined to the closed
left half-plane, (b) nonnegative real part along the imaginary axis, decided
through the real polynomial N(w) = Re{num(jw) * conj(den(jw))} (its real
roots and the sign pattern between them -- no sampling), and (c) simple
imaginary-axis poles with nonnegative real residues.  Rows are grouped by
their (numerator, denominator) degrees and each group is decided in one
vectorized numpy pass; every row's report depends on that row's
coefficients alone.  ``check_positive_siso`` is its one-row call.

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
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cpoly import (
    CPoly,
    CRational,
    RealRationalMatrix2x2,
    cluster_roots,
    companion_roots,
    norms_and_degrees,
    polyval_rows,
    residue_at,
    roots,
)
from .errors import NonProperError, NotAPoleError, NotSimplePoleError, RootFindingError

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


# j^k for k mod 4: multiplying by it is exact.
_J_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])
# Tolerance for clustering the real roots of N(w) that bound the
# sign-deciding intervals.
N_ROOT_TOL = 1e-7
# Failed conditions in the order a report names the first that holds.
_FAILURES = (FailedCondition.POLE_LOCATION, FailedCondition.REAL_PART,
             FailedCondition.IMAGINARY_POLE_MULTIPLICITY, FailedCondition.RESIDUE)


@functools.lru_cache(maxsize=None)
def _j_powers(width: int) -> np.ndarray:
    """j^k for k = 0 .. width - 1."""
    return _J_POWERS[np.arange(width) % 4]


def real_part_numerator_rows(
    num: np.ndarray, den: np.ndarray, num_inf: np.ndarray | None = None, den_inf: np.ndarray | None = None,
) -> np.ndarray:
    """The real coefficients of N(w) = Re{num(jw) * conj(den(jw))} for every
    row, ascending (``num_inf`` and ``den_inf`` are the rows' max-norms, if
    known).

    Coefficients below 1e-12 of the construction scale |num|*|den| are
    cancellation noise (e.g. the cubic term of a real-coefficient product)
    and are zeroed so they cannot masquerade as genuine high-degree terms.
    """
    if num_inf is None or den_inf is None:
        num_inf, den_inf = np.abs(num).max(axis=1), np.abs(den).max(axis=1)
    a = num * _j_powers(num.shape[1])
    b = den.conj() * _j_powers(den.shape[1]).conj()
    prod = np.zeros((num.shape[0], num.shape[1] + den.shape[1] - 1))
    for j in range(den.shape[1]):
        prod[:, j : j + num.shape[1]] += (a * b[:, j, None]).real
    prod[np.abs(prod) <= (1e-12 * prod.shape[1] * num_inf * den_inf)[:, None]] = 0.0
    return prod


def real_part_numerator(h: CRational) -> CPoly:
    """N(w) of one function: the one-row call of :func:`real_part_numerator_rows`."""
    rows = real_part_numerator_rows(np.array([h.num.coeffs]), np.array([h.den.coeffs]))
    return CPoly(tuple(complex(c) for c in rows[0]))


def _cluster_poles(
    den_roots: list[complex],
) -> tuple[float, list[tuple[complex, complex]], list[tuple[complex, int]], list[complex]]:
    """Condition (a) and the imaginary-axis split of the roots of a denominator.

    Returns (location margin min -Re{p}, location witnesses, multiple clusters
    on the imaginary axis, simple imaginary-axis poles).  A near-axis cluster
    of size >= 2 is a multiplicity violation; its members are not additionally
    checked for location, since a k-fold boundary root is only resolved to
    ~eps^(1/k) and its members straddle the axis numerically.
    """
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


def _pole_conditions(
    den: CPoly,
) -> tuple[float, list[tuple[complex, complex]], list[tuple[complex, int]], list[complex]]:
    """:func:`_cluster_poles` of the roots of ``den``."""
    return _cluster_poles(roots(den) if den.degree >= 1 else [])


def _close_pair(values: np.ndarray, rel_tol: float) -> list[int]:
    """The rows of ``values`` holding two entries within ``rel_tol`` of each
    other (relative to max(1, |larger|)); every other row is all singletons
    under :func:`cluster_roots` at that tolerance."""
    if values.shape[1] < 2:
        return []
    mag = np.abs(values)
    near = np.zeros(len(values), dtype=bool)
    for i in range(values.shape[1]):
        for j in range(i + 1, values.shape[1]):
            near |= np.abs(values[:, i] - values[:, j]) <= rel_tol * np.maximum(np.maximum(mag[:, i], mag[:, j]), 1.0)
    return near.nonzero()[0].tolist() if near.any() else []


def _pole_rows(
    poles: np.ndarray, failures: dict, margin_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condition (a) for every row of ``poles``; returns the location margins
    and the (row, pole) pairs of the simple imaginary-axis poles.  A row with
    two poles within ``AXIS_MULT_TOL`` goes through :func:`_cluster_poles`."""
    re = poles.real
    margin_a = (-re).min(axis=1, initial=math.inf)
    outside = re > POLE_TOL
    on_axis = np.abs(re) <= POLE_TOL
    clustered = _close_pair(poles, AXIS_MULT_TOL)
    if clustered:
        outside[clustered] = on_axis[clustered] = False
    if outside.any():
        for i in outside.any(axis=1).nonzero()[0].tolist():
            failures[FailedCondition.POLE_LOCATION][i] = [(p, complex(p.real)) for p in poles[i, outside[i]].tolist()]
    axis_rows, axis_cols = on_axis.nonzero()
    axis_poles = poles[axis_rows, axis_cols]
    if not clustered:
        return margin_a, axis_rows, axis_poles
    for i in clustered:
        margin_a[i], witnesses, multi_axis, simple_axis = _cluster_poles(poles[i].tolist())
        if witnesses:
            failures[FailedCondition.POLE_LOCATION][i] = witnesses
        if multi_axis:
            failures[FailedCondition.IMAGINARY_POLE_MULTIPLICITY][i] = [(c, complex(m)) for c, m in multi_axis]
            margin_c[i] = -1.0
        axis_rows = np.concatenate([axis_rows, np.full(len(simple_axis), i)])
        axis_poles = np.concatenate([axis_poles, np.array(simple_axis, dtype=complex)])
    order = np.argsort(axis_rows, kind="stable")
    return margin_a, axis_rows[order], axis_poles[order]


def _test_points(n_coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sign-deciding test points of N for rows of one degree d >= 1:
    -reach and reach beyond every root, plus the midpoint between each pair
    of consecutive distinct real roots.  Returns the points and their
    validity mask, one row per polynomial."""
    d = n_coef.shape[1] - 1
    n_roots = companion_roots(n_coef + 0j)
    mag = np.abs(n_roots)
    points = np.empty((len(n_coef), d + 1))
    points[:, 1] = 1.0 + 2.0 * mag.max(axis=1)
    points[:, 0] = -points[:, 1]
    valid = np.ones(points.shape, dtype=bool)
    if d == 1:
        return points, valid
    real = np.abs(n_roots.imag) <= N_ROOT_TOL * np.maximum(mag, 1.0)
    centers = np.sort(np.where(real, n_roots.real, math.inf), axis=1)
    for j in _close_pair(n_roots, N_ROOT_TOL):
        found = sorted(c.real for c, _ in cluster_roots(n_roots[j].tolist(), rel_tol=N_ROOT_TOL)
                       if abs(c.imag) <= N_ROOT_TOL * max(1.0, abs(c)))
        centers[j] = found + [math.inf] * (d - len(found))
    lo, hi = centers[:, :-1], centers[:, 1:]
    valid[:, 2:] = np.isfinite(hi) & (hi - lo > 1e-12 * np.maximum(np.abs(hi), 1.0))
    points[:, 2:] = np.where(valid[:, 2:], 0.5 * (lo + hi), 0.0)
    return points, valid


def _real_part_rows(
    num: np.ndarray, den: np.ndarray, num_inf: np.ndarray, den_inf: np.ndarray, failures: dict,
) -> np.ndarray:
    """Condition (b) for every row: the minimum of Re{h(jw)} over the
    sign-deciding test points of N, normalized by max(1, |num|/|den|); a
    constant N is tested at w = 0.  N identically zero (or below 1e-12 of
    |num|*|den|) gives margin 0."""
    margin_b = np.zeros(len(num))
    n_coef = real_part_numerator_rows(num, den, num_inf, den_inf)
    n_inf, deg = norms_and_degrees(n_coef)
    base_scale = np.maximum(num_inf * den_inf, 1e-300)
    live = n_inf > 1e-12 * base_scale
    if not live.any():
        return margin_b
    scale_h = np.maximum(num_inf / den_inf, 1.0)
    for d in set(deg[live].tolist()):
        rows = (live & (deg == d)).nonzero()[0]
        if d:
            points, valid = _test_points(n_coef[rows, : d + 1])
        else:
            points, valid = np.zeros((len(rows), 1)), np.ones((len(rows), 1), dtype=bool)
        z = 1j * points
        den_val = polyval_rows(den[rows], z)
        valid &= np.abs(den_val) >= 1e-12 * den_inf[rows, None] * np.maximum(np.abs(points), 1.0) ** (den.shape[1] - 1)
        re_h = (polyval_rows(num[rows], z) / den_val).real
        normalized = re_h / scale_h[rows, None]
        margin = np.minimum.reduce(np.where(valid, normalized, math.inf), axis=1)
        # Every test point sat on a pole: fall back to the constant sign.
        margin_b[rows] = np.where(np.isinf(margin), n_coef[rows, 0] / base_scale[rows] if d == 0 else 0.0, margin)
        violated = valid & (normalized < -STRICT_TOL)
        if violated.any():
            for j in violated.any(axis=1).nonzero()[0].tolist():
                failures[FailedCondition.REAL_PART][int(rows[j])] = [
                    (complex(w), complex(v))
                    for w, v in zip(points[j, violated[j]].tolist(), re_h[j, violated[j]].tolist())
                ]
    return margin_b


def _residue_rows(
    num: np.ndarray, den: np.ndarray, den_inf: np.ndarray,
    rows: np.ndarray, poles: np.ndarray, failures: dict, margin_c: np.ndarray,
) -> None:
    """Condition (c) at the simple imaginary-axis poles: ``poles[e]`` of row
    ``rows[e]``.  Each must be a simple pole with a real nonnegative residue
    num(p) / den'(p)."""
    q = den.shape[1] - 1
    d, reach = den[rows], np.maximum(np.abs(poles), 1.0)
    den_val = np.abs(polyval_rows(d, poles))
    off = den_val > 1e-8 * den_inf[rows] * reach**q
    if off.any():
        e = int(off.argmax())
        raise NotAPoleError(f"{complex(poles[e])} is not a pole (|den| = {den_val[e]:.3e})")
    dd = d[:, 1:] * np.arange(1, q + 1)
    dd_inf, dd_deg = norms_and_degrees(dd)
    dd[dd_deg[:, None] < np.arange(q)] = 0.0
    dscale = np.maximum(dd_inf, 1e-300) * reach ** np.maximum(dd_deg, 0)
    dval = polyval_rows(dd, poles)
    simple = np.abs(dval) > 1e-8 * dscale
    res = polyval_rows(num[rows], poles) / dval
    tol = RESIDUE_IM_TOL * np.maximum(np.abs(res), 1e-300)
    complex_res = np.abs(res.imag) >= tol
    np.minimum.at(margin_c, rows, np.where(simple, np.where(complex_res, -np.abs(res.imag), res.real), -1.0))
    bad = ~simple | complex_res | (res.real < -tol)
    if bad.any():
        for e in bad.nonzero()[0].tolist():
            i, p = int(rows[e]), complex(poles[e])
            if simple[e]:
                failures[FailedCondition.RESIDUE].setdefault(i, []).append((p, complex(res[e])))
            else:
                failures[FailedCondition.IMAGINARY_POLE_MULTIPLICITY].setdefault(i, []).append((p, complex(2)))


def _decide(num: np.ndarray, den: np.ndarray, num_inf: np.ndarray, den_inf: np.ndarray) -> list[PositivityReport]:
    """Conditions (a), (b) and (c) for rows of one numerator degree >= 0 and
    one denominator degree (trimmed, monic denominators, max-norms
    ``num_inf`` and ``den_inf``)."""
    failures: dict[FailedCondition, dict[int, list]] = {cond: {} for cond in _FAILURES}
    margin_c = np.zeros(len(num)) + math.inf
    margin_a, axis_rows, axis_poles = _pole_rows(companion_roots(den), failures, margin_c)
    margin_b = _real_part_rows(num, den, num_inf, den_inf, failures)
    if axis_rows.size:
        _residue_rows(num, den, den_inf, axis_rows, axis_poles, failures, margin_c)
    margin = np.minimum(np.minimum(margin_a, margin_b), margin_c)
    margin = np.where(np.isinf(margin), margin_b, margin).tolist()
    failed = set().union(*failures.values())
    reports = []
    for i, m in enumerate(margin):
        if i not in failed:
            reports.append(PositivityReport(True, FailedCondition.NONE, (), m))
            continue
        cond = next(c for c in _FAILURES if i in failures[c])
        reports.append(PositivityReport(False, cond, tuple(failures[cond][i]), m))
    return reports


def check_positive_rows(num: np.ndarray, den: np.ndarray) -> list[PositivityReport]:
    """Exact positivity check (conditions (a), (b), (c)) of every function
    num[i] / den[i]: rows of ascending coefficients, zero-padded to a common
    width, each denominator monic as :class:`CRational` keeps it.

    Rows are trimmed as :class:`CPoly` trims and grouped by their degrees; a
    group is decided in one vectorized pass.  Raises
    :class:`NonProperError` for a non-proper row and
    :class:`RootFindingError` for a non-finite one.
    """
    num, den = np.asarray(num, dtype=complex), np.asarray(den, dtype=complex)
    num_inf, deg_num = norms_and_degrees(num)
    den_inf, deg_den = norms_and_degrees(den)
    if not np.isfinite(np.maximum(num_inf, den_inf)).all():
        raise RootFindingError("polynomial has non-finite coefficients")
    improper = deg_num > deg_den
    if improper.any():
        i = improper.argmax()
        raise NonProperError(
            f"positivity is defined for proper functions (deg num {deg_num[i]} > deg den {deg_den[i]})"
        )
    reports: list[PositivityReport] = [None] * len(num)  # type: ignore[list-item]
    with np.errstate(all="ignore"):
        for p, q in set(zip(deg_num.tolist(), deg_den.tolist())):
            rows = ((deg_num == p) & (deg_den == q)).nonzero()[0]
            # The zero function has no poles and zero real part everywhere.
            group = (_decide(num[rows, : p + 1], den[rows, : q + 1], num_inf[rows], den_inf[rows]) if p >= 0
                     else [PositivityReport(True, FailedCondition.NONE, (), 0.0)] * len(rows))
            for i, report in zip(rows.tolist(), group):
                reports[i] = report
    return reports


def check_positive_siso(h: CRational) -> PositivityReport:
    """Exact scalar positivity check (conditions (a), (b), (c)): the one-row
    call of :func:`check_positive_rows`.

    Raises :class:`NonProperError` for non-proper input.
    """
    return check_positive_rows(np.array([h.num.coeffs]), np.array([h.den.coeffs]))[0]


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
    "boundary".  A normalized w^2 coefficient of N(w) within 1e-9 of zero
    vanishes, leaving N linear.  The degenerate zero numerator is trivially
    positive.
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

    witnesses: list[tuple[complex, complex]] = []
    m_b = abs(quad_b) / (abs(a0i * b1r) + abs(a1r * b0i) + abs(a0r * b1i) + tiny)
    if abs(m_a) <= STRICT_TOL and (quad_a <= 0.0 or m_b <= STRICT_TOL):
        # A vanishing leading coefficient, read as zero the way
        # real_part_numerator zeroes cancellation noise: N(w) = quad_b w +
        # quad_c is nonnegative iff its slope vanishes too and quad_c >= 0.
        # A small positive one with a live slope is a genuine parabola, left
        # to the discriminant test.
        margins.append(m_c)
        if m_b > STRICT_TOL:
            margins.append(-m_b)
            w_star = -math.copysign(abs(quad_c) / abs(quad_b) + 1.0, quad_b)
            witnesses.append((complex(w_star), _re_h(w_star)))
        if m_c < -STRICT_TOL:
            witnesses.append((complex(0.0), _re_h(0.0)))
    else:
        disc = 4.0 * quad_a * quad_c - quad_b**2
        m_disc = disc / (quad_b**2 + 4.0 * abs(quad_a) * abs(quad_c) + tiny)
        margins += [m_a, m_c, m_disc]
        if m_a < -STRICT_TOL:
            w_star = (abs(quad_b) + abs(quad_c)) / abs(quad_a) + 1.0
            witnesses.append((complex(w_star), _re_h(w_star)))
        if m_c < -STRICT_TOL:
            witnesses.append((complex(0.0), _re_h(0.0)))
        if m_disc < -STRICT_TOL and m_a >= -STRICT_TOL and m_c >= -STRICT_TOL:
            w_star = -quad_b / (2.0 * quad_a)
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

