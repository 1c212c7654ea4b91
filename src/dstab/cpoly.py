"""Complex-coefficient polynomial and rational-function containers, and the
companion-matrix root finder.

``CPoly`` stores coefficients in ascending degree order under one trim rule;
``CRational`` keeps its denominator monic.  No pole-zero cancellation is ever
performed implicitly -- cancellation can silently hide unstable hidden modes.
The containers carry coefficients into ``SystemModel``; every decision works
on coefficient rows.  Tests take the polynomial arithmetic from
``numpy.polynomial`` and keep the s-domain chain and the 2x2 real embedding in
``tests/crosscheck.py``.

``companion_roots`` takes the eigenvalues of the companion matrices that
``numpy.roots`` builds, a backward-stable root finder (Edelman & Murakami,
Math. Comp. 64(210), 1995), for a whole stack of polynomials of one degree
in one ``eigvals`` call; ``roots`` is its one-row call.  Tests cross-check
it against a real 2n x 2n embedding.  Rows of coefficients are ascending,
like ``CPoly.coeffs``, and a row's result depends on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RootFindingError

# Trailing coefficients below TRIM_TOL * max|c| are treated as zero.
TRIM_TOL = 1e-14
# Relative tolerance for clustering numerically coincident roots.
CLUSTER_TOL = 1e-8


def _trim(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    scale = max((abs(c) for c in coeffs), default=0.0)
    if scale == 0.0:
        return (0j,)
    k = len(coeffs)
    while k > 1 and abs(coeffs[k - 1]) <= TRIM_TOL * scale:
        k -= 1
    return tuple(complex(c) for c in coeffs[:k])


@dataclass(frozen=True)
class CPoly:
    """Polynomial with complex coefficients, ascending degree order."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(tuple(self.coeffs)))

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def scale(self, a: complex) -> CPoly:
        return CPoly(tuple(a * c for c in self.coeffs))


def norms_and_degrees(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max-norm and the degree of every row of ascending coefficients,
    the degree under the trim rule of :class:`CPoly` (-1 for a zero row)."""
    mag = np.abs(c)
    norm = np.maximum.reduce(mag, axis=1)
    keep = mag > TRIM_TOL * norm[:, None]
    return norm, np.maximum.reduce(keep * np.arange(1, c.shape[1] + 1), axis=1) - 1


def polyval_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of row i of ``c`` at the points ``z[i, ...]``."""
    c = c.reshape(c.shape + (1,) * (z.ndim - 1))
    acc = 0j * z + c[:, -1]
    for j in range(c.shape[1] - 2, -1, -1):
        acc = acc * z + c[:, j]
    return acc


def _companion_eigvals(p: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of every row of ``p`` (descending,
    nonzero leading and trailing coefficients), built as ``numpy.roots``
    builds it; a 1 x 1 companion matrix is its own eigenvalue."""
    k, m = p.shape[0], p.shape[1] - 1
    if m == 1:
        return -p[:, 1:] / p[:, :1]
    a = np.zeros((k, m, m), dtype=p.dtype)
    sub = np.arange(m - 1)
    a[:, sub + 1, sub] = 1.0
    a[:, 0, :] = -p[:, 1:] / p[:, :1]
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"companion eigensolver failed: {exc}") from exc


def companion_roots(c: np.ndarray) -> np.ndarray:
    """All roots of every row of ``c`` (k, n + 1), complex ascending
    coefficients of one degree n, finite, with nonzero leading coefficients:
    companion-matrix eigenvalues, shape (k, n).

    Each row goes through the companion matrix that ``numpy.roots`` builds
    for it, with one ``eigvals`` call for the rows with real coefficients
    (every imaginary part exactly zero) and one for the others; the real
    eigensolver returns exact conjugate pairs, whose tied real parts leave
    their order to the imaginary part.  Exactly-zero low-order coefficients
    are roots at zero, as ``numpy.roots`` returns them.
    Postcondition: every root satisfies the backward-stable residual bound
    |p(root)| < 1e-8 * sum_k |c_k| max(1, |root|)^k (raises
    :class:`RootFindingError` otherwise, as for a failed eigensolver).  Each
    row's roots are sorted by real part, then imaginary part.  Call it under
    ``np.errstate`` where huge coefficients may overflow the residual.
    """
    k, n = c.shape[0], c.shape[1] - 1
    if n == 0:
        return np.zeros((k, 0), dtype=complex)
    real = ~c.imag.any(axis=1)
    # numpy.roots returns exactly-zero low-order coefficients as roots at
    # zero, after the eigenvalues of the rest.
    found = np.zeros((k, n), dtype=complex)
    low_zeros = (c == 0).argmin(axis=1)
    for z in set(low_zeros.tolist()) - {n}:
        for rows, real_rows in (((low_zeros == z) & real, True), ((low_zeros == z) & ~real, False)):
            if rows.any():
                p = c[rows, z:][:, ::-1]
                found[rows, : n - z] = _companion_eigvals(p.real if real_rows else p)
    mag, reach = np.abs(c), np.maximum(np.abs(found), 1.0)
    scale = mag[:, n, None]
    for j in range(n - 1, -1, -1):
        scale = scale * reach + mag[:, j, None]
    residual = np.abs(polyval_rows(c, found)) / np.maximum(scale, 1e-300)
    if (residual > 1e-8).any():
        raise RootFindingError(f"root residual {residual[residual > 1e-8].max():.3e} exceeds 1.0e-08")
    if n == 1:
        return found
    return found[np.arange(k)[:, None], np.lexsort((found.imag, found.real))]


def roots(p: CPoly) -> list[complex]:
    """All roots of ``p`` with multiplicity, sorted by real part, then
    imaginary part: the one-row call of :func:`companion_roots`.

    Raises :class:`RootFindingError` for the zero polynomial, then for a
    non-finite coefficient, as well as where :func:`companion_roots` does.
    """
    if p.is_zero:
        raise RootFindingError("zero polynomial has no well-defined root set")
    c = np.array([p.coeffs], dtype=complex)
    if not np.isfinite(c).all():
        raise RootFindingError("polynomial has non-finite coefficients")
    with np.errstate(all="ignore"):
        return companion_roots(c)[0].tolist()


def cluster_roots(values: list[complex], rel_tol: float = CLUSTER_TOL) -> list[tuple[complex, int]]:
    """Group numerically coincident values into (center, multiplicity) pairs."""
    clusters: list[tuple[complex, int]] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for i, (center, mult) in enumerate(clusters):
            if abs(v - center) <= rel_tol * max(1.0, abs(center)):
                new_center = (center * mult + v) / (mult + 1)
                clusters[i] = (new_center, mult + 1)
                break
        else:
            clusters.append((v, 1))
    return clusters


@dataclass(frozen=True)
class CRational:
    """Ratio of complex-coefficient polynomials with a monic denominator."""

    num: CPoly
    den: CPoly

    def __post_init__(self) -> None:
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        lead = self.den.coeffs[-1]
        if lead != 1:
            object.__setattr__(self, "num", self.num.scale(1.0 / lead))
            object.__setattr__(self, "den", self.den.scale(1.0 / lead))

    @classmethod
    def from_coeffs(cls, num: list[complex] | tuple[complex, ...], den: list[complex] | tuple[complex, ...]) -> CRational:
        return cls(CPoly(tuple(num)), CPoly(tuple(den)))
