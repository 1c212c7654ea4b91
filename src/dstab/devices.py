"""DC-microgrid device catalog.

Source converters (boost/buck storage interfaces and PV units under voltage
PI control) reduce to a generic strictly proper second-order transfer
function (c1*s + c0) / (s^2 + d1*s + d0); constant-power loads reduce to
1 / (C_l*s - y_l) with the incremental negative conductance y_l = P/u*^2.

This module maps physical parameters onto those coefficient forms, builds
the region-rotated and loop-transformed devices, computes the closed-form
synthesis bounds for the three region families, solves the DC power flow for
the operating point, and checks per-device compliance against a grid code.
Loop transforms and compliance work on whole fleets: coefficient rows go
through one batched numpy pass (``loop_transform_rows``,
``loop_positivity``), and a row's result depends on that row alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .cpoly import TRIM_TOL, CRational, norms_and_degrees
from .errors import ConvergenceError, DegenerateLoopError, NetworkError, PrecisionError
from .positivity import PositivityReport, check_positive_rows
from .regions import HalfPlaneRegion, family

if TYPE_CHECKING:
    from .network import AdmittanceMatrix, GridCode, NodePartition

# Power-flow Newton iteration: residual infinity norm to reach (volts and
# amps) and the iteration limit.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class GenericSecondOrder:
    """Coefficients of the generic source form (c1*s + c0)/(s^2 + d1*s + d0)."""

    c1: float
    c0: float
    d1: float
    d0: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.c1, self.c0, self.d1, self.d0))):
            raise ValueError(f"coefficients must be finite, got {self}")
        if self.c1 <= 0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if self.c0 < 0:
            raise ValueError(f"c0 must be nonnegative, got {self.c0}")
        # A leading coefficient the trim rule would drop: double precision
        # cannot hold this form.
        if self.c1 <= TRIM_TOL * self.c0 or max(abs(self.d0), abs(self.d1)) >= 1.0 / TRIM_TOL:
            raise ValueError(f"a leading coefficient is lost in double precision: {self}")

    @property
    def tf(self) -> CRational:
        return CRational.from_coeffs([self.c0, self.c1], [self.d0, self.d1, 1.0])

    @classmethod
    def from_tf(cls, num: np.ndarray, den: np.ndarray) -> GenericSecondOrder | None:
        """The coefficients of a subsystem's rows in a ``SystemModel`` table
        (ascending, zero-padded, the denominator monic) if it has the generic
        form: degree 1 over degree 2, real, c1 > 0 and c0 >= 0; else None."""
        num, den = np.trim_zeros(num, "b"), np.trim_zeros(den, "b")
        if len(num) != 2 or len(den) != 3 or num.imag.any() or den.imag.any() or num[1].real <= 0 or num[0].real < 0:
            return None
        return cls(*(float(c.real) for c in (num[1], num[0], den[1], den[0])))


@dataclass(frozen=True)
class EssBoostParams:
    """Boost-interfaced storage unit (battery voltage below the bus).

    Gains may be zero (a switched-off integral loop is a legitimate corner);
    the droop coefficient must be positive because it divides the d1 mapping.
    """

    C: float
    E: float
    U_r: float
    R_d: float
    kP_u: float
    kI_u: float

    def __post_init__(self) -> None:
        _require_positive(C=self.C, E=self.E, U_r=self.U_r, R_d=self.R_d)
        _require_nonnegative(kP_u=self.kP_u, kI_u=self.kI_u)
        if self.E >= self.U_r:
            raise ValueError(f"boost interface requires E < U_r, got E={self.E}, U_r={self.U_r}")


@dataclass(frozen=True)
class EssBuckParams:
    """Buck-interfaced storage unit (battery voltage above the bus)."""

    C: float
    E: float
    U_r: float
    R_d: float
    kP_u: float
    kI_u: float

    def __post_init__(self) -> None:
        _require_positive(C=self.C, E=self.E, U_r=self.U_r)
        _require_nonnegative(R_d=self.R_d, kP_u=self.kP_u, kI_u=self.kI_u)


@dataclass(frozen=True)
class PvParams:
    """PV unit; equilibrium quantities (panel current and incremental
    conductance at the operating point) are supplied by the scenario."""

    C: float
    kP_u: float
    kI_u: float
    U_r_pv: float
    i_pv_star: float
    g_pv_star: float = -0.5

    def __post_init__(self) -> None:
        _require_positive(C=self.C, U_r_pv=self.U_r_pv)
        _require_nonnegative(kP_u=self.kP_u, kI_u=self.kI_u, i_pv_star=self.i_pv_star)


@dataclass(frozen=True)
class CplParams:
    """Constant-power load behind a node capacitance (P = 0 degenerates to a
    pure capacitor)."""

    C_l: float
    P: float

    def __post_init__(self) -> None:
        _require_positive(C_l=self.C_l)
        _require_nonnegative(P=self.P)


DeviceParams = Union[EssBoostParams, EssBuckParams, PvParams, CplParams]
SourceParams = Union[EssBoostParams, EssBuckParams, PvParams]


def _require_positive(**fields: float) -> None:
    for name, value in fields.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _require_nonnegative(**fields: float) -> None:
    for name, value in fields.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class Equilibrium:
    """Per-node operating point (voltages and injected currents)."""

    u_star: tuple[float, ...]
    i_star: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.u_star) != len(self.i_star):
            raise ValueError("u_star and i_star must have the same length")
        object.__setattr__(self, "u_star", tuple(float(u) for u in self.u_star))
        object.__setattr__(self, "i_star", tuple(float(i) for i in self.i_star))


def coeffs_ess_boost(p: EssBoostParams, u_star: float) -> GenericSecondOrder:
    if u_star <= 0:
        raise ValueError(f"equilibrium voltage must be positive, got {u_star}")
    cu = p.C * u_star
    return GenericSecondOrder(
        c1=(p.E * p.kP_u * p.R_d + u_star) / cu,
        c0=p.E * p.R_d * p.kI_u / cu,
        d1=(p.U_r - u_star + p.E * p.R_d * p.kP_u) / (cu * p.R_d),
        d0=p.E * p.kI_u / cu,
    )


def coeffs_ess_buck(p: EssBuckParams) -> GenericSecondOrder:
    return GenericSecondOrder(
        c1=(p.R_d * p.kP_u + 1.0) / p.C,
        c0=p.R_d * p.kI_u / p.C,
        d1=p.kP_u / p.C,
        d0=p.kI_u / p.C,
    )


def coeffs_pv(p: PvParams, u_star: float) -> GenericSecondOrder:
    if u_star <= 0:
        raise ValueError(f"equilibrium voltage must be positive, got {u_star}")
    c_eq = p.C * (p.kP_u * u_star + 1.0)
    ratio = p.U_r_pv / u_star
    a = p.C * p.kI_u * u_star + p.i_pv_star * p.kP_u * ratio - ratio * ratio * p.g_pv_star
    return GenericSecondOrder(
        c1=(p.kP_u * u_star + 1.0) / c_eq,
        c0=p.kI_u * u_star / c_eq,
        d1=a / c_eq,
        d0=p.i_pv_star * p.kI_u * p.U_r_pv / (u_star * c_eq),
    )


def source_coeffs(device: SourceParams, u_star: float) -> GenericSecondOrder:
    if isinstance(device, EssBoostParams):
        return coeffs_ess_boost(device, u_star)
    if isinstance(device, EssBuckParams):
        return coeffs_ess_buck(device)
    if isinstance(device, PvParams):
        return coeffs_pv(device, u_star)
    raise TypeError(f"not a source device: {device!r}")


def cpl_conductance(p: CplParams, u_star: float) -> float:
    """Incremental (negative-sign-dropped) conductance y_l = P / u*^2."""
    if u_star <= 0:
        raise ValueError(f"equilibrium voltage must be positive, got {u_star}")
    return p.P / (u_star * u_star)


def cpl_tf(p: CplParams, u_star: float) -> CRational:
    """Small-signal load model 1 / (C_l s - y_l); unstable on its own."""
    y_l = cpl_conductance(p, u_star)
    return CRational.from_coeffs([1.0], [-y_l, p.C_l])


def _monic(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled by the reciprocal of each denominator's leading
    coefficient, which becomes exactly 1, with the coefficients that
    :class:`CPoly` trims zeroed, as :class:`CRational` keeps them."""
    deg = norms_and_degrees(den)[1]
    if (deg < 0).any():
        raise DegenerateLoopError("closed loop denominator is identically zero")
    rows = np.arange(len(den))
    inv = (1.0 / den[rows, deg])[:, None]
    den = den * inv
    den[rows, deg] = 1.0
    den[deg[:, None] < np.arange(den.shape[1])] = 0.0
    num = num * inv
    num[norms_and_degrees(num)[1][:, None] < np.arange(num.shape[1])] = 0.0
    return num, den


def _compose_rows(c: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Every row's polynomial p(a*x + b): row i of ``c`` times the binomial
    matrix T[j, k] = C(j, k) a^k b^(j - k)."""
    width = c.shape[1]
    a_pow, b_pow = [1 + 0j], [1 + 0j]
    for _ in range(width - 1):
        # Products, not powers: a huge b overflows to inf instead of raising.
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * b)
    t = np.zeros((width, width), dtype=complex)
    for j in range(width):
        for k in range(j + 1):
            t[j, k] = math.comb(j, k) * a_pow[k] * b_pow[j - k]
    acc = c[:, :1] * t[0]
    for j in range(1, width):
        acc = acc + c[:, j : j + 1] * t[j]
    return acc


def loop_transform_rows(
    num: np.ndarray, den: np.ndarray, region: HalfPlaneRegion, rho: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every subsystem num[i] / den[i] mapped into the nu-plane of
    ``region`` by s = e^{j theta0} (nu + sigma0) + j omega0, rotated by
    e^{j theta0} and closed through its loop-transform gain:
    [1 + rho[i] g_hat]^{-1} g_hat.  A source with index y_s has rho = -y_s,
    a load its virtual admittance; rho = 0 leaves g_hat open.

    Rows hold ascending coefficients with monic denominators, zero-padded
    to one width per array.  Returns rows of that form, trimmed as
    :class:`CRational` keeps them; row i depends on row i alone.

    A mapped denominator keeps its leading coefficient of modulus 1; one
    whose coefficients reach 1 / TRIM_TOL would lose it to the trim rule
    and one that overflows is not finite: both raise :class:`PrecisionError`.
    So does a closed denominator den + rho num whose coefficients reach
    1 / TRIM_TOL times the moduli of the two terms that sum to its leading
    coefficient: for a strictly proper row that is the open lead of modulus
    1, while a biproper row may cancel its lead and drop a degree."""
    if num.shape[1] > den.shape[1]:
        den = np.pad(den, ((0, 0), (0, num.shape[1] - den.shape[1])))
    a = cmath.exp(1j * region.theta0)
    b = a * region.sigma0 + 1j * region.omega0
    rho = np.asarray(rho, dtype=float)
    with np.errstate(all="ignore"):
        num = _compose_rows(np.asarray(num, dtype=complex), a, b) * a
        den = _compose_rows(np.asarray(den, dtype=complex), a, b)
        if not (np.abs(den).max(initial=0.0) < 1.0 / TRIM_TOL):  # NaN trips it too
            raise PrecisionError("region offset too large: the loop transform overflows or trims its leading term")
        rows, deg = np.arange(len(den)), norms_and_degrees(den)[1]
        lead = np.abs(den[rows, deg])
        biproper = deg < num.shape[1]
        lead[biproper] += np.abs(rho[biproper] * num[rows[biproper], deg[biproper]])
        den[:, : num.shape[1]] += rho[:, None] * num
        if not (np.abs(den).max(axis=1, initial=0.0) < lead / TRIM_TOL).all():
            raise PrecisionError("loop gain too large: the loop closure overflows or trims its leading term")
        return _monic(num, den)


def loop_transform(tf: CRational, region: HalfPlaneRegion, rho: float) -> CRational:
    """One subsystem through :func:`loop_transform_rows`."""
    num, den = loop_transform_rows(np.array([tf.num.coeffs]), np.array([tf.den.coeffs]), region, np.array([rho]))
    return CRational.from_coeffs(num[0], den[0])


def map_subsystem(tf: CRational, region: HalfPlaneRegion) -> CRational:
    """Map an s-domain subsystem into the nu-domain and rotate by e^{j theta0}."""
    return loop_transform(tf, region, 0.0)


def loop_positivity(
    num: np.ndarray, den: np.ndarray, region: HalfPlaneRegion, rho: np.ndarray,
) -> list[PositivityReport]:
    """The positivity report of each row's loop-transformed function
    (:func:`loop_transform_rows`), decided in one batched pass."""
    return check_positive_rows(*loop_transform_rows(num, den, region, rho))


def bound_lhp(g: GenericSecondOrder, alpha: float) -> tuple[bool, float]:
    """Admissibility and the upper limit on y_s for the shifted LHP family.

    Infeasible regions (alpha < -c0/c1) return (False, nan).  The second
    bound is strict; callers picking the maximum index should back off it.
    """
    if alpha > 0:
        raise ValueError(f"shifted LHP requires alpha <= 0, got {alpha}")
    ratio = g.c0 / g.c1
    if alpha < -ratio:
        return False, math.nan
    bound1 = (g.d1 + alpha - ratio) / g.c1
    a0 = g.c1 * alpha + g.c0
    num2 = alpha * alpha + g.d1 * alpha + g.d0
    if a0 > 1e-300:
        bound2 = num2 / a0
    else:
        bound2 = math.inf if num2 > 0 else -math.inf
    return True, min(bound1, bound2)


def bound_sector(g: GenericSecondOrder, beta: float) -> float:
    """Upper limit (strict) on y_s for the sector family."""
    if not (0.0 < beta < math.pi / 2):
        raise ValueError(f"sector requires 0 < beta < pi/2, got {beta}")
    sb = math.sin(beta)
    cb = math.cos(beta)
    b1 = g.d0 * sb / g.c0 if g.c0 > 0 else math.inf
    b2 = (g.c1 * g.d1 - g.c0) / (g.c1 * g.c1 * sb)
    if g.c0 > 0:
        b2 -= g.d0 * cb * cb / (g.c0 * sb)
    return min(b1, b2)


def bound_hs(g: GenericSecondOrder) -> float:
    """Minimum admissible strip half-width (compliance needs gamma > this,
    with y_s = 0)."""
    ratio = g.c0 / g.c1
    radicand = ratio * ratio - ratio * g.d1 + g.d0
    return math.sqrt(radicand) if radicand > 0 else 0.0


def index_cap(g: GenericSecondOrder, region: HalfPlaneRegion) -> float | None:
    """The closed-form upper limit on a source's index for a shifted-LHP or
    sector ``region``; None for an infeasible shifted LHP and for the other
    families (on a strip the index is 0)."""
    kind = family(region)
    if kind == "lhp":
        feasible, cap = bound_lhp(g, region.sigma0)
        return cap if feasible else None
    return bound_sector(g, math.pi / 2 - region.theta0) if kind == "sector" else None


def _classify(devices: Sequence[DeviceParams], partition: NodePartition) -> None:
    for k in partition.source_ids:
        if isinstance(devices[k], CplParams):
            raise NetworkError(f"node {k} is a source node but carries a load device")
    for k in partition.load_ids:
        if not isinstance(devices[k], CplParams):
            raise NetworkError(f"node {k} is a load node but carries a source device")


def power_flow_residual(
    Y: AdmittanceMatrix, devices: Sequence[DeviceParams], u: np.ndarray
) -> np.ndarray:
    """Residual of the DC power-flow equations at voltage vector ``u``.

    Droop sources contribute u_k + R_d i_k - U_r (volts); PV units inject
    their panel power U_r_pv * i_pv_star and loads draw P, both contributing
    current-balance residuals i_k -+ P/u_k (amps).
    """
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


def equilibrium_solve(
    Y: AdmittanceMatrix,
    devices: Sequence[DeviceParams],
    nominal_voltage: float,
) -> Equilibrium:
    """Newton iteration on the DC power-flow residual from a flat start.

    Rejects low-voltage solutions (any node below half nominal) and raises
    :class:`ConvergenceError` if the infinity norm of the residual does not
    drop below ``NEWTON_TOL`` within ``NEWTON_MAX_ITER`` iterations.
    """
    n = Y.n_nodes
    if len(devices) != n:
        raise NetworkError(f"expected {n} devices, got {len(devices)}")
    _classify(devices, Y.partition)
    if not any(isinstance(d, (EssBoostParams, EssBuckParams)) for d in devices):
        raise NetworkError("power flow needs at least one droop-controlled source")

    u = np.full(n, float(nominal_voltage))
    with np.errstate(all="ignore"):  # a non-finite iterate raises below
        for _ in range(NEWTON_MAX_ITER):
            r = power_flow_residual(Y, devices, u)
            if float(np.max(np.abs(r))) < NEWTON_TOL:
                break
            J = np.array(Y.Y)
            for k, dev in enumerate(devices):
                if isinstance(dev, (EssBoostParams, EssBuckParams)):
                    J[k, :] = dev.R_d * Y.Y[k, :]
                    J[k, k] += 1.0
                elif isinstance(dev, PvParams):
                    J[k, k] += dev.U_r_pv * dev.i_pv_star / (u[k] * u[k])
                else:
                    J[k, k] -= dev.P / (u[k] * u[k])
            try:
                du = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular power-flow Jacobian: {exc}") from exc
            u = u + du
            if not np.all(np.isfinite(u)):
                raise ConvergenceError("power-flow iteration diverged")
        else:
            raise ConvergenceError(f"power flow did not converge in {NEWTON_MAX_ITER} iterations")

    if np.any(u < 0.5 * nominal_voltage):
        raise ConvergenceError("power flow converged to a low-voltage solution; rejected")
    return Equilibrium(tuple(u), tuple(Y.Y @ u))


@dataclass(frozen=True)
class ComplianceReport:
    """Outcome of checking one source device against a grid code;
    ``positivity`` reports on its loop-transformed function at the index
    it picked.  A broadcast the device cannot act on (a failed
    damping assumption, binding ``ll_assumption``, or a part without a
    closed-form synthesis bound, binding ``region_family``) is reported by
    its binding condition alone."""

    compliant: bool
    region_kind: str
    y_s: float | None
    y_s_floor: float
    y_s_cap: float | None
    gamma_bar: float | None
    binding: str
    positivity: PositivityReport | None

    def as_dict(self) -> dict:
        if self.binding in ("ll_assumption", "region_family"):
            return {"compliant": False, "binding": self.binding}
        return {
            "compliant": self.compliant,
            "region_kind": self.region_kind,
            "y_s": self.y_s,
            "y_s_floor": self.y_s_floor,
            "y_s_cap": self.y_s_cap,
            "gamma_bar": self.gamma_bar,
            "binding": self.binding,
        }


def _fleet_positivity(
    fleet: Sequence[GenericSecondOrder], region: HalfPlaneRegion, picks: dict[int, float],
) -> dict[int, PositivityReport]:
    """The positivity report of source i of ``fleet`` loop-transformed at
    index ``picks[i]``, for every picked source in one batched pass."""
    if not picks:
        return {}
    chosen = [fleet[i] for i in picks]
    num = np.array([(g.c0, g.c1) for g in chosen], dtype=complex)
    den = np.array([(g.d0, g.d1, 1.0) for g in chosen], dtype=complex)
    return dict(zip(picks, loop_positivity(num, den, region, -np.array(list(picks.values())))))


def check_compliance(fleet: Sequence[GenericSecondOrder], grid_code: GridCode) -> list[ComplianceReport]:
    """The device side of Theorem 2: from each source's own coefficients and
    the broadcast grid code alone, decide whether the source admits an index
    y_s between the network floor -lambda_min(Xi) and its region-specific
    upper bound, and pick the maximum admissible one (positivity is
    monotone: anything below a working index also works).

    Every index is picked from the closed-form caps and all picks are
    decided in one batched pass; a pick that fails positivity is retried,
    in a second pass, at an index backed off by max(1e-9, 1e-6 |y|).  Each
    source's report depends on its own coefficients and the broadcast only.
    """
    region = grid_code.region
    kind = family(region)
    floor = grid_code.bound
    if not grid_code.ll_assumption_ok:
        return [ComplianceReport(False, kind, None, floor, None, None, "ll_assumption", None) for _ in fleet]

    if kind == "hstrip":
        bars = [bound_hs(g) for g in fleet]
        decided = _fleet_positivity(fleet, region, {
            i: 0.0 for i, gb in enumerate(bars) if region.omega0 > gb and grid_code.admits(0.0)
        })
        return [
            ComplianceReport(True, kind, 0.0, floor, None, gb, "none", decided[i]) if i in decided
            else ComplianceReport(False, kind, None, floor, None, gb, "frequency_bound", None)
            for i, gb in enumerate(bars)
        ]

    if kind not in ("lhp", "sector"):
        return [ComplianceReport(False, kind, None, floor, None, None, "region_family", None) for _ in fleet]
    reports: list[ComplianceReport | None] = [None] * len(fleet)
    caps: dict[int, float] = {}
    picks: dict[int, float] = {}
    for i, g in enumerate(fleet):
        cap = index_cap(g, region)
        if cap is None:
            reports[i] = ComplianceReport(False, kind, None, floor, None, None, "region_feasibility", None)
            continue
        caps[i] = cap
        # The first LHP bound is attainable; the LHP stability bound and the
        # sector bound are strict.
        strict_cap = kind == "sector" or cap < (g.d1 + region.sigma0 - g.c0 / g.c1) / g.c1
        if not math.isfinite(cap) and cap < 0:
            reports[i] = ComplianceReport(False, kind, None, floor, cap, None, "device", None)
            continue
        pick = cap - 1e-9 * max(1.0, abs(cap)) if strict_cap else cap
        if not grid_code.admits(pick):
            reports[i] = ComplianceReport(False, kind, None, floor, cap, None, "network", None)
            continue
        picks[i] = pick

    first = _fleet_positivity(fleet, region, picks)
    backed = {i: y - max(1e-9, 1e-6 * abs(y)) for i, y in picks.items() if not first[i].is_positive}
    retry = _fleet_positivity(fleet, region, {i: y for i, y in backed.items() if grid_code.admits(y)})
    for i, report in first.items():
        if report.is_positive:
            reports[i] = ComplianceReport(True, kind, picks[i], floor, caps[i], None, "none", report)
        elif i in retry and retry[i].is_positive:
            reports[i] = ComplianceReport(True, kind, backed[i], floor, caps[i], None, "none", retry[i])
        else:
            reports[i] = ComplianceReport(False, kind, None, floor, caps[i], None, "device", report)
    return reports  # type: ignore[return-value]
