"""Positivity verification for complex-coefficient transfer functions.

``check_positive_rows`` decides the scalar positivity conditions exactly,
for a whole stack of functions at once: (a) poles confined to the closed
left half-plane, (b) nonnegative real part along the imaginary axis, decided
through the real polynomial N(w) = Re{num(jw) * conj(den(jw))} (its real
roots and the sign pattern between them -- no sampling), and (c) simple
imaginary-axis poles with nonnegative real residues.  Rows are grouped by
their (numerator, denominator) degrees and each group is decided in one
vectorized numpy pass; every row's report depends on that row's
coefficients alone.  ``check_positive_siso`` is its one-row call.  The
tests compare it with the independent routes in ``tests/crosscheck.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cpoly import CRational, cluster_roots, companion_roots, norms_and_degrees, polyval_rows
from .errors import NonProperError, NotAPoleError, RootFindingError

POLE_TOL = 1e-9        # absolute tolerance on Re{pole}
STRICT_TOL = 1e-9      # normalized margin for ">" / ">=" decisions
RESIDUE_IM_TOL = 1e-9  # |Im residue| relative to |residue|
# A k-fold root is resolved to within ~eps^(1/k) only (companion eigenvalues
# split double roots by up to about 4e-7 relative), so multiplicity detection
# on the axis clusters far more loosely than conjugate dedup.  Roots of
# multiplicity above two may still leak into the location check; the verdict
# is unchanged.
AXIS_MULT_TOL = 1e-5


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


def real_part_numerator_rows(num: np.ndarray, den: np.ndarray, num_inf: np.ndarray, den_inf: np.ndarray) -> np.ndarray:
    """The real coefficients of N(w) = Re{num(jw) * conj(den(jw))} for every
    row, ascending (``num_inf`` and ``den_inf`` are the rows' max-norms).

    Coefficients below 1e-12 of the construction scale |num|*|den| are
    cancellation noise (e.g. the cubic term of a real-coefficient product)
    and are zeroed so they cannot masquerade as genuine high-degree terms.
    """
    a = num * _j_powers(num.shape[1])
    b = den.conj() * _j_powers(den.shape[1]).conj()
    prod = np.zeros((num.shape[0], num.shape[1] + den.shape[1] - 1))
    for j in range(den.shape[1]):
        prod[:, j : j + num.shape[1]] += (a * b[:, j, None]).real
    prod[np.abs(prod) <= (1e-12 * prod.shape[1] * num_inf * den_inf)[:, None]] = 0.0
    return prod


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
