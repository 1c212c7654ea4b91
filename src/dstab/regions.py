"""Pole-placement regions.

A region is the conjugate-symmetric intersection of a generalized half-plane
with its mirror image, parameterized by a rotation angle ``theta0`` in
[0, pi/2], a frequency offset ``omega0 >= 0`` and a decay offset
``sigma0 <= 0``.  Three named families cover the usual performance specs:

* ``shifted_lhp(alpha)``   -- minimum decay rate |alpha| (settling time),
* ``sector(beta)``         -- minimum damping ratio cos(beta),
* ``horizontal_strip(gamma)`` -- maximum natural frequency gamma.

Regions are closed sets.  Membership, and how strictly a pole meets it, is
read from the signed ``margin`` alone (>= 0 inside, 0 on the boundary).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidRegionError

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class HalfPlaneRegion:
    """Symmetric pole-placement region with parameters (theta0, omega0, sigma0).

    Membership requires both Re{e^{-j*theta0} (s - j*omega0)} <= sigma0 and
    the conjugate-mirrored inequality, so the region is symmetric about the
    real axis and closed under conjugation.
    """

    theta0: float
    omega0: float
    sigma0: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.theta0, self.omega0, self.sigma0)):
            raise InvalidRegionError(f"region parameters must be finite, got {self}")
        if not (-1e-12 <= self.theta0 <= _HALF_PI + 1e-12):
            raise InvalidRegionError(f"theta0 must lie in [0, pi/2], got {self.theta0}")
        if self.omega0 < 0:
            raise InvalidRegionError(f"omega0 must be >= 0, got {self.omega0}")
        if self.sigma0 > 0:
            raise InvalidRegionError(f"sigma0 must be <= 0, got {self.sigma0}")

    def half_margins(self, s: complex) -> tuple[float, float]:
        """Signed distances to the two half-plane boundaries (>= 0 inside)."""
        m_plus = self.sigma0 - (cmath.exp(-1j * self.theta0) * (s - 1j * self.omega0)).real
        m_minus = self.sigma0 - (cmath.exp(1j * self.theta0) * (s + 1j * self.omega0)).real
        return m_plus, m_minus

    def margin(self, s: complex) -> float:
        return min(self.half_margins(s))


@dataclass(frozen=True)
class CompositeRegion:
    """Intersection of several half-plane regions, kept in user order.

    Margin ties between parts are broken by the first part so that reports
    are deterministic.
    """

    parts: tuple[HalfPlaneRegion, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 1:
            raise InvalidRegionError("composite region needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def margin(self, s: complex) -> float:
        return min(p.margin(s) for p in self.parts)


Region = HalfPlaneRegion | CompositeRegion


def shifted_lhp(alpha: float) -> HalfPlaneRegion:
    """Half-plane Re{s} <= alpha (alpha <= 0); alpha = 0 is the closed LHP."""
    if alpha > 0:
        raise InvalidRegionError(f"shifted LHP requires alpha <= 0, got {alpha}")
    return HalfPlaneRegion(0.0, 0.0, float(alpha))


def sector(beta: float) -> HalfPlaneRegion:
    """Sector about the negative real axis with half-angle beta in (0, pi/2).

    Poles inside have damping ratio at least cos(beta).
    """
    if not (0.0 < beta < _HALF_PI):
        raise InvalidRegionError(f"sector requires 0 < beta < pi/2, got {beta}")
    return HalfPlaneRegion(_HALF_PI - beta, 0.0, 0.0)


def horizontal_strip(gamma: float) -> HalfPlaneRegion:
    """Strip |Im{s}| <= gamma about the real axis (gamma > 0)."""
    if gamma <= 0:
        raise InvalidRegionError(f"horizontal strip requires gamma > 0, got {gamma}")
    return HalfPlaneRegion(_HALF_PI, float(gamma), 0.0)


def parts(region: Region) -> tuple[HalfPlaneRegion, ...]:
    if isinstance(region, CompositeRegion):
        return region.parts
    return (region,)


def family(region: HalfPlaneRegion) -> str:
    """Classify a half-plane region as 'lhp', 'sector', 'hstrip' or 'generic'."""
    tol = 1e-12
    if abs(region.theta0) <= tol and abs(region.omega0) <= tol:
        return "lhp"
    if abs(region.sigma0) <= tol and abs(region.omega0) <= tol and tol < region.theta0 < _HALF_PI - tol:
        return "sector"
    if abs(region.theta0 - _HALF_PI) <= tol and abs(region.sigma0) <= tol and region.omega0 > tol:
        return "hstrip"
    return "generic"


def region_from_spec(spec: dict | list) -> Region:
    """Parse the JSON region spec used in scenario files.

    A dict gives one half-plane: ``{"kind": "lhp", "alpha": -8}``,
    ``{"kind": "sector", "beta": ...}``, ``{"kind": "hstrip", "gamma": ...}``
    or ``{"kind": "halfplane", "theta0": ..., "omega0": ..., "sigma0": ...}``.
    A list of such dicts gives their intersection.
    """
    if isinstance(spec, list):
        return CompositeRegion(tuple(_half_plane_from_spec(item) for item in spec))
    return _half_plane_from_spec(spec)


def _half_plane_from_spec(spec: dict) -> HalfPlaneRegion:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidRegionError(f"region spec must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]

    def num(key: str) -> float:
        if key not in spec:
            raise InvalidRegionError(f"region spec {spec!r} is missing field {key!r}")
        value = spec[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidRegionError(f"field {key!r} of region spec {spec!r} must be a number")
        return float(value)

    if kind == "lhp":
        return shifted_lhp(num("alpha"))
    if kind == "sector":
        return sector(num("beta"))
    if kind == "hstrip":
        return horizontal_strip(num("gamma"))
    if kind == "halfplane":
        return HalfPlaneRegion(num("theta0"), num("omega0"), num("sigma0"))
    raise InvalidRegionError(f"unknown region kind {kind!r}")


def region_to_spec(region: Region) -> dict | list:
    """Inverse of :func:`region_from_spec` (named families are recognized)."""
    if isinstance(region, CompositeRegion):
        return [region_to_spec(p) for p in region.parts]
    fam = family(region)
    if fam == "lhp":
        return {"kind": "lhp", "alpha": region.sigma0}
    if fam == "sector":
        return {"kind": "sector", "beta": _HALF_PI - region.theta0}
    if fam == "hstrip":
        return {"kind": "hstrip", "gamma": region.omega0}
    return {
        "kind": "halfplane",
        "theta0": region.theta0,
        "omega0": region.omega0,
        "sigma0": region.sigma0,
    }
