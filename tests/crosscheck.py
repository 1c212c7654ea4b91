"""Second routes to the decisions ``dstab`` makes on one route, each
compared by the tests against the production function it checks: the
sampled 2x2 real embedding (criterion 2), the closed-form quadratic
(criterion 3), the s-domain substitute/rotate/feedback chain and the point
maps (criterion 4), the closed-form loop-transformed load, the dense
closed-loop assembly, the eigenvalue-only RK4 step warning, the DC power
flow decided device by device and the admittance matrix summed line by
line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as P

from conftest import degree, from_roots, norm_inf
from dstab.cpoly import CLUSTER_TOL, CPoly, CRational, cluster_roots, roots
from dstab.devices import (NEWTON_MAX_ITER, NEWTON_TOL, CplParams, EssBoostParams, EssBuckParams, PvParams,
                           cpl_conductance)
from dstab.dstability import SystemModel
from dstab.errors import ConvergenceError, DegenerateLoopError, DstabError, NonProperError, NotAPoleError
from dstab.network import AdmittanceMatrix
from dstab.positivity import (POLE_TOL, STRICT_TOL, FailedCondition, PositivityReport, _cluster_poles,
                              check_positive_siso)
from dstab.regions import HalfPlaneRegion

A1I_TOL = 1e-12        # relative tolerance for the vanishing cubic coefficient


class NotSimplePoleError(DstabError, ValueError):
    """Residue requested at a pole of multiplicity greater than one."""


# Sampled frequency condition of check_pr_real_matrix: w = 0 plus a
# logarithmic base grid over [1e-3, 1e6] rad/s, each local minimum refined by
# GOLDEN_ITERS golden-section steps.
FREQUENCY_GRID = np.concatenate(([0.0], np.logspace(-3.0, 6.0, 2000)))
GOLDEN_ITERS = 60


# ---------------------------------------------------------------------------
# region maps

def map_to_nu(region: HalfPlaneRegion, s: complex) -> complex:
    """Map a point of the s-plane into the auxiliary nu-plane.

    The region interior maps onto Re{nu} <= 0; the boundary onto the
    imaginary axis.
    """
    return cmath.exp(-1j * region.theta0) * (s - 1j * region.omega0) - region.sigma0


def map_to_s(region: HalfPlaneRegion, nu: complex) -> complex:
    """Inverse of :func:`map_to_nu`."""
    return cmath.exp(1j * region.theta0) * (nu + region.sigma0) + 1j * region.omega0


# ---------------------------------------------------------------------------
# s-domain algebra and the 2x2 real embedding

def real_coeffs(p: CPoly, tol: float) -> CPoly:
    """Drop imaginary parts, checking they are rounding noise."""
    scale = max(norm_inf(p), 1e-300)
    worst = max(abs(c.imag) for c in p.coeffs)
    if worst > tol * scale:
        raise ValueError(f"coefficients are not real: worst Im = {worst:.3e} (scale {scale:.3e})")
    return CPoly(tuple(complex(c.real) for c in p.coeffs))


def compose_linear(p: CPoly, a: complex, b: complex) -> CPoly:
    """Return p(a*x + b) via Horner on polynomial coefficients."""
    acc = CPoly((0j,))
    lin = CPoly((complex(b), complex(a))).coeffs
    for c in reversed(p.coeffs):
        prod = CPoly(P.polymul(acc.coeffs, lin))
        acc = CPoly(P.polyadd(prod.coeffs, (c,)))
    return acc


def substitute_affine(r: CRational, a: complex, b: complex) -> CRational:
    """The rational function nu -> r(a*nu + b) (degree-preserving, a != 0)."""
    if a == 0:
        raise ValueError("affine substitution requires a != 0")
    return CRational(compose_linear(r.num, a, b), compose_linear(r.den, a, b))


def rotate(r: CRational, phi: float) -> CRational:
    """Multiply by the unit phasor e^{j*phi}."""
    return CRational(r.num.scale(cmath.exp(1j * phi)), r.den)


def feedback(r: CRational, rho: complex) -> CRational:
    """Close the loop [1 + rho*r]^{-1} r without pole-zero cancellation."""
    den = CPoly(P.polyadd(r.den.coeffs, r.num.scale(complex(rho)).coeffs))
    if den.is_zero:
        raise DegenerateLoopError("closed loop denominator is identically zero")
    return CRational(r.num, den)


def residue_at(r: CRational, p: complex) -> complex:
    """Residue of ``r`` at a simple pole ``p`` (num(p) / den'(p))."""
    scale = norm_inf(r.den) * max(1.0, abs(p)) ** degree(r.den)
    den_p = complex(P.polyval(p, r.den.coeffs))
    if abs(den_p) > 1e-8 * scale:
        raise NotAPoleError(f"{p} is not a pole (|den| = {abs(den_p):.3e})")
    dden = CPoly(P.polyder(r.den.coeffs))
    dscale = max(norm_inf(dden), 1e-300) * max(1.0, abs(p)) ** max(degree(dden), 0)
    dval = complex(P.polyval(p, dden.coeffs))
    if abs(dval) <= 1e-8 * dscale:
        raise NotSimplePoleError(f"pole at {p} is not simple (|den'| = {abs(dval):.3e})")
    return complex(P.polyval(p, r.num.coeffs)) / dval


@dataclass(frozen=True)
class RealRationalMatrix2x2:
    """Real-rational 2x2 block [[re, -im], [im, re]] over a common denominator."""

    re: CRational
    im: CRational

    def __post_init__(self) -> None:
        if self.re.den.coeffs != self.im.den.coeffs:
            raise ValueError("blocks must share a common denominator")

    @property
    def den(self) -> CPoly:
        return self.re.den


def real_equiv(r: CRational) -> RealRationalMatrix2x2:
    """Embed a complex-coefficient rational function as a 2x2 real-rational block.

    Splitting r = r_re + j*r_im requires a real-coefficient denominator: the
    least common multiple of den(r) and its conjugate-coefficient polynomial.
    Self-conjugate denominator factors are detected by root clustering
    (relative tolerance ``CLUSTER_TOL``) and are **not** doubled.
    """
    den_roots = roots(r.den) if degree(r.den) >= 1 else []
    clusters = cluster_roots(den_roots)

    # Extra factors complete the conjugate pairs: each cluster center p of
    # multiplicity m contributes max(0, m - mult(conj p)) copies of conj(p).
    extra: list[complex] = []
    for center, mult in clusters:
        if abs(center.imag) <= CLUSTER_TOL * max(1.0, abs(center)):
            continue  # real pole, self-conjugate
        conj_mult = 0
        for other, m2 in clusters:
            if abs(other - center.conjugate()) <= CLUSTER_TOL * max(1.0, abs(center)):
                conj_mult = m2
                break
        extra.extend([center.conjugate()] * max(0, mult - conj_mult))

    ext = from_roots(extra).coeffs
    den_real = real_coeffs(CPoly(P.polymul(r.den.coeffs, ext)), tol=1e-6)
    num_ext = CPoly(P.polymul(r.num.coeffs, ext))
    num_re = CPoly(tuple(complex(c.real) for c in num_ext.coeffs))
    num_im = CPoly(tuple(complex(c.imag) for c in num_ext.coeffs))
    return RealRationalMatrix2x2(CRational(num_re, den_real), CRational(num_im, den_real))


# ---------------------------------------------------------------------------
# closed-loop load

def modified_cpl(p: CplParams, u_star: float, region: HalfPlaneRegion) -> CRational:
    """Loop-transformed load 1 / (C_l (nu - j Im{nu_p})): a positive function
    with a simple imaginary-axis pole of residue 1/C_l."""
    y_l = cpl_conductance(p, u_star)
    nu_p = (
        -region.sigma0
        + (y_l / p.C_l) * cmath.exp(-1j * region.theta0)
        - region.omega0 * cmath.exp(1j * (math.pi / 2 - region.theta0))
    )
    result = CRational.from_coeffs([1.0], [-1j * p.C_l * nu_p.imag, p.C_l])
    report = check_positive_siso(result)
    if not report.is_positive:
        raise DstabError(
            f"modified load lost positivity ({report.failed_condition.value}); "
            "this indicates a formula or tolerance bug"
        )
    return result


# ---------------------------------------------------------------------------
# closed-form quadratic and sampled embedding checks

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

    den = CPoly((b0, b1, 1.0 + 0j)).coeffs
    coeff_scale = max(abs(a1), abs(a0), 1.0)

    def _re_h(w: float) -> complex:
        num_v = a1 * 1j * w + a0
        den_v = complex(P.polyval(1j * w, den))
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
        # real_part_numerator_rows zeroes cancellation noise: N(w) = quad_b w +
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


def _golden_min(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimum of ``f`` on every bracket [a[i], b[i]] at once:
    GOLDEN_ITERS steps, each one batched evaluation at the new probes."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        # fc < fd keeps [a, d] and probes a new c; otherwise [c, b] and a new d.
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)
    return (a + b) / 2.0, np.where(fc < fd, fc, fd)


def _refined_minimum(f, grid: np.ndarray) -> tuple[float, float]:
    """Coarse scan of ``f`` over ``grid`` plus golden-section refinement
    around every local minimum; ``f`` takes and returns arrays."""
    values = f(grid)
    best_w = float(grid[int(np.nanargmin(values))])
    best_v = float(np.nanmin(values))
    mid = values[1:-1]
    i = ((mid <= values[:-2]) & (mid <= values[2:]) & np.isfinite(mid)).nonzero()[0] + 1
    if i.size:
        w, v = _golden_min(f, grid[i - 1], grid[i + 1])
        # The first refined minimum below the grid's wins, as in a scan.
        k = int(np.argmin(np.where(np.isnan(v), math.inf, v)))
        if v[k] < best_v:
            best_w, best_v = float(w[k]), float(v[k])
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
    if max(degree(M.re.num), degree(M.im.num)) > degree(M.den):
        raise NonProperError("real-equivalent entries must be proper")
    if M.re.num.is_zero and M.im.num.is_zero:
        return PositivityReport(True, FailedCondition.NONE, (), 0.0)

    scale = max((norm_inf(M.re.num) + norm_inf(M.im.num)) / norm_inf(M.den), 1e-300)
    margin_a, pole_witnesses, multi_axis, simple_axis = _cluster_poles(roots(M.den) if degree(M.den) >= 1 else [])
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
    def lam_min(w: np.ndarray) -> np.ndarray:
        den_val = P.polyval(1j * w, M.den.coeffs)
        a = P.polyval(1j * w, M.re.num.coeffs) / den_val
        b = P.polyval(1j * w, M.im.num.coeffs) / den_val
        near_pole = np.abs(den_val) < 1e-10 * norm_inf(M.den) * np.maximum(1.0, np.abs(w)) ** degree(M.den)
        return np.where(near_pole, math.inf, 2.0 * (a.real - np.abs(b.imag)))

    with np.errstate(all="ignore"):
        w_min, v_min = _refined_minimum(lam_min, FREQUENCY_GRID)

    # High-frequency limit matters only for biproper entries (strictly proper
    # responses roll off to zero, which never violates the closed condition).
    if degree(M.re.num) == degree(M.den):
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



# ---------------------------------------------------------------------------
# closed-loop state matrix and the RK4 step warning of `simulate`

def _realization(g: CRational) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Controllable canonical form of a strictly proper real-rational function."""
    if degree(g.num) >= degree(g.den):
        raise NonProperError("closed-loop assembly requires strictly proper subsystems")
    den = real_coeffs(g.den, tol=1e-9)
    num = real_coeffs(g.num, tol=1e-9)
    m = degree(den)
    a = np.zeros((m, m))
    for i in range(m - 1):
        a[i, i + 1] = 1.0
    for i in range(m):
        a[m - 1, i] = -den.coeffs[i].real
    b = np.zeros((m, 1))
    b[m - 1, 0] = 1.0
    c = np.zeros((1, m))
    for i, coeff in enumerate(num.coeffs):
        c[0, i] = coeff.real
    return a, b, c


def assemble_closed_loop_dense(m: SystemModel) -> np.ndarray:
    """A - B Y C from the dense block-diagonal realization matrices."""
    blocks = [_realization(g) for g in m.subsystems]
    dims = [a.shape[0] for a, _, _ in blocks]
    n_states = sum(dims)
    n = len(blocks)
    A = np.zeros((n_states, n_states))
    B = np.zeros((n_states, n))
    C = np.zeros((n, n_states))
    offset = 0
    for k, (a, b, c) in enumerate(blocks):
        d = dims[k]
        A[offset : offset + d, offset : offset + d] = a
        B[offset : offset + d, k] = b[:, 0]
        C[k, offset : offset + d] = c[0, :]
        offset += d
    return A - B @ m.network.Y @ C


def rk4_step_warning(a_cl: np.ndarray, dt: float) -> str | None:
    """The message `simulate` warns with at step ``dt``, from every
    eigenvalue of ``a_cl``: one RK4 step multiplies a mode by R(dt*lambda),
    and a decaying mode with |R| more than 4 ulps above 1 grows.  None when
    no mode does."""
    z = dt * np.linalg.eigvals(a_cl)
    gain = np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))))
    amplified = (z.real < 0) & (gain > 1 + 4 * np.finfo(float).eps)  # beyond rounding
    if not np.any(amplified):
        return None
    return (f"step dt = {dt:.3g} s is unstable for RK4: a decaying mode has "
            f"|R(dt*eig)| = {float(np.max(gain[amplified])):.4g} > 1")


# ---------------------------------------------------------------------------
# DC power flow, one device at a time

def power_flow_residual_loop(Y: AdmittanceMatrix, devices, u: np.ndarray) -> np.ndarray:
    """The power-flow residual at ``u`` by class dispatch per node: droop
    sources u_k + R_d i_k - U_r, PV units i_k - U_r_pv i_pv_star / u_k and
    loads i_k + P / u_k."""
    i = Y.Y @ u
    r = np.empty_like(u)
    for k, dev in enumerate(devices):
        if isinstance(dev, (EssBoostParams, EssBuckParams)):
            r[k] = u[k] + dev.R_d * i[k] - dev.U_r
        elif isinstance(dev, PvParams):
            r[k] = i[k] - dev.U_r_pv * dev.i_pv_star / u[k]
        else:
            r[k] = i[k] + dev.P / u[k]
    return r


def power_flow_jacobian_loop(Y: AdmittanceMatrix, devices, u: np.ndarray) -> np.ndarray:
    """The residual's Jacobian at ``u``, row by row: a droop row is R_d Y_k
    plus e_k, any other row Y_k plus its constant power's derivative."""
    J = np.array(Y.Y)
    for k, dev in enumerate(devices):
        if isinstance(dev, (EssBoostParams, EssBuckParams)):
            J[k, :] = dev.R_d * Y.Y[k, :]
            J[k, k] += 1.0
        elif isinstance(dev, PvParams):
            J[k, k] += dev.U_r_pv * dev.i_pv_star / (u[k] * u[k])
        else:
            J[k, k] -= dev.P / (u[k] * u[k])
    return J


def equilibrium_newton_loop(Y: AdmittanceMatrix, devices, nominal_voltage: float) -> np.ndarray:
    """The flat-start Newton power flow on the two loops above, with the
    stopping rule, the failures and the low-voltage rejection of
    ``devices.equilibrium_solve``."""
    u = np.full(len(devices), float(nominal_voltage))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            r = power_flow_residual_loop(Y, devices, u)
            if float(np.max(np.abs(r))) < NEWTON_TOL:
                break
            try:
                du = np.linalg.solve(power_flow_jacobian_loop(Y, devices, u), -r)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular power-flow Jacobian: {exc}") from exc
            u = u + du
            if not np.all(np.isfinite(u)):
                raise ConvergenceError("power-flow iteration diverged")
        else:
            raise ConvergenceError(f"power flow did not converge in {NEWTON_MAX_ITER} iterations")
    if np.any(u < 0.5 * nominal_voltage):
        raise ConvergenceError("power flow converged to a low-voltage solution; rejected")
    return u


# ---------------------------------------------------------------------------
# admittance matrix

def admittance_by_line(lines, n_nodes: int) -> np.ndarray:
    """The weighted Laplacian summed one line at a time, each line's
    conductance subtracted from its two off-diagonal entries and added to its
    two diagonal entries."""
    Y = np.zeros((n_nodes, n_nodes))
    for i, j, r in lines:
        g = 1.0 / float(r)
        Y[i, j] -= g
        Y[j, i] -= g
        Y[i, i] += g
        Y[j, j] += g
    return Y
