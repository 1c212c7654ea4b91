"""System-level certification and the centralized pole oracle.

Two independent routes to the same question.  The decentralized certifiers
(`certify_thm1`, `certify_thm2`) verify only local positivity of the mapped,
rotated, loop-transformed subsystems (`part_positivity`) plus a
semidefiniteness condition on the modified network, and never touch the
coupled dynamics.
The brute-force oracle (`closed_loop_poles` / `verify_region`) assembles the
full closed-loop state matrix and computes its spectrum, which makes the
certifiers falsifiable in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cpoly import CRational, norms_and_degrees
from .devices import ComplianceReport, GenericSecondOrder, index_cap, loop_transform_rows
from .errors import NonProperError
from .network import (
    AdmittanceMatrix, GridCode, check_rotated_psd, network_matrix, virtual_admittance_from_conductance,
)
from .positivity import PositivityReport, check_positive_rows
from .regions import HalfPlaneRegion, Region, parts, region_to_spec


@dataclass(frozen=True)
class SystemModel:
    """Interconnected small-signal model: one SISO subsystem per node coupled
    through the admittance matrix.

    Each subsystem is rotated by the region angle theta0 of the part being
    certified.  Its loop-transform gain rho is the load virtual admittance
    derived from ``load_cy`` (per-load (capacitance, conductance) pairs) or
    minus the source positivity index from ``y_s``; without them it is 0.
    ``y_s`` has one row of source indices per region part, or one row that
    every part shares.  ``num`` and ``den`` are the subsystems' ascending
    coefficients as read-only complex rows, zero-padded to the widest of each,
    built once for every reader.
    """

    subsystems: tuple[CRational, ...]
    network: AdmittanceMatrix
    region: Region
    load_cy: tuple[tuple[float, float], ...] | None = None
    y_s: tuple[tuple[float, ...], ...] | None = None
    equilibrium_u: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        n = self.network.n_nodes
        if len(self.subsystems) != n:
            raise ValueError(f"expected {n} subsystems, got {len(self.subsystems)}")
        for name in ("num", "den"):
            rows = [getattr(g, name).coeffs for g in self.subsystems]
            width = max(map(len, rows))
            table = np.array([c + (0j,) * (width - len(c)) for c in rows])
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        for k in np.flatnonzero(norms_and_degrees(self.num)[1] > norms_and_degrees(self.den)[1])[:1]:
            raise NonProperError(f"subsystem {k} is not proper")
        if self.load_cy is not None and len(self.load_cy) != len(self.network.partition.load_ids):
            raise ValueError("load_cy must align with the load partition")
        if self.y_s is not None:
            if len(self.y_s) not in (1, self.n_parts):
                raise ValueError(f"y_s needs 1 row or one per region part ({self.n_parts}), got {len(self.y_s)}")
            n_s = len(self.network.partition.source_ids)
            if any(len(row) != n_s for row in self.y_s):
                raise ValueError(f"each y_s row must list {n_s} source indices")

    @property
    def n_parts(self) -> int:
        return len(parts(self.region))

    def y_s_for_part(self, part_index: int) -> tuple[float, ...]:
        if self.y_s is None:
            return (0.0,) * len(self.network.partition.source_ids)
        return tuple(float(v) for v in self.y_s[part_index if len(self.y_s) > 1 else 0])

    def part_rho(self, part: HalfPlaneRegion, part_index: int) -> np.ndarray:
        rho = np.zeros(self.network.n_nodes)
        rho[list(self.network.partition.source_ids)] = np.negative(self.y_s_for_part(part_index))
        if self.load_cy is not None:
            rho[list(self.network.partition.load_ids)] = [
                virtual_admittance_from_conductance(c_l, y_l, part) for c_l, y_l in self.load_cy
            ]
        return rho


@dataclass(frozen=True)
class PartCertificate:
    """Certification outcome for one half-plane part of the target region."""

    region: HalfPlaneRegion
    network_ok: bool
    network_lambda_min: float
    device_reports: tuple[PositivityReport, ...]
    certified: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CertificationReport:
    """Aggregate report; certified iff every part certifies."""

    theorem: str
    parts: tuple[PartCertificate, ...]
    certified: bool

    @property
    def network_ok(self) -> bool:
        return all(p.network_ok for p in self.parts)

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "certified": self.certified,
            "network_ok": self.network_ok,
            "parts": [
                {
                    "region": region_to_spec(p.region),
                    "network_ok": p.network_ok,
                    "network_lambda_min": p.network_lambda_min,
                    "certified": p.certified,
                    "devices": [r.as_dict() for r in p.device_reports],
                    "notes": list(p.notes),
                }
                for p in self.parts
            ],
            "notes": [],  # no report-level notes are made; the key keeps reports byte-stable
        }


def _companion(m: SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's state count, input (last) state and output gather in the
    controllable canonical realization: numerator coefficient i reads state
    i of its node, or the node's first state where the row is zero padding.
    The lowest node that is not strictly proper raises NonProperError; one
    with no state or imaginary parts past 1e-9 of its max-norm, ValueError."""
    (num_norm, num_deg), (den_norm, dims) = norms_and_degrees(m.num), norms_and_degrees(m.den)
    improper = num_deg >= dims
    not_real = ((np.abs(m.num.imag).max(axis=1) > 1e-9 * np.maximum(num_norm, 1e-300))
                | (np.abs(m.den.imag).max(axis=1) > 1e-9 * np.maximum(den_norm, 1e-300)))
    for k in np.flatnonzero(improper | not_real | (dims == 0))[:1]:
        if improper[k]:
            raise NonProperError("closed-loop assembly requires strictly proper subsystems")
        raise ValueError(f"subsystem {k} has {'coefficients that are not real' if not_real[k] else 'no state'}")
    first, i = np.cumsum(dims) - dims, np.arange(m.num.shape[1])
    return dims, first + dims - 1, first[:, None] + i * (i <= num_deg[:, None])


def assemble_closed_loop(m: SystemModel) -> np.ndarray:
    """Closed-loop state matrix A - B Y C of the interconnection u = -Y y,
    indexed out of the model's rows.  In the controllable canonical form B is
    e_last per node and C is each node's numerator row, so B Y C is zero but
    in each node's last state row, whose entry j is Y[node, node of state j]
    * c[j]: one product per entry, the bits the dense product gives."""
    dims, last, gather = _companion(m)
    node = np.repeat(np.arange(len(dims)), dims)
    n_states, pos = len(node), np.arange(len(node)) - gather[node, 0]  # pos: each state's place in its node
    A = np.zeros((n_states, n_states))
    A[np.arange(n_states - 1), np.arange(1, n_states)] = pos[1:] > 0  # ones above each block's diagonal
    A[last[node], np.arange(n_states)] = -m.den.real[node, pos]
    c_full = np.pad(m.num.real, ((0, 0), (0, m.den.shape[1])))[node, pos]
    # + 0.0: a zero product enters as +0.0, as the dense product's sum has it
    A[last] -= m.network.Y[:, node] * c_full + 0.0
    return A


def closed_loop_poles(m: SystemModel) -> list[complex]:
    """Eigenvalues of the closed-loop state matrix, conjugate-symmetrized."""
    a_cl = assemble_closed_loop(m)
    eigs = np.linalg.eigvals(a_cl)
    # A real matrix yields exactly paired eigenvalues; collapse rounding noise
    # in the imaginary parts of essentially-real ones.
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    cleaned = [complex(e.real, 0.0) if abs(e.imag) < 1e-9 * scale else complex(e) for e in eigs]
    return sorted(cleaned, key=lambda z: (z.real, z.imag))


def part_positivity(
    m: SystemModel, part: HalfPlaneRegion, part_index: int,
    compliance: Sequence[ComplianceReport] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[PositivityReport]]:
    """Every subsystem mapped into the nu-plane of ``part``, rotated by its
    angle theta0 and closed through its loop-transform gain rho, in one
    :func:`loop_transform_rows` call: the numerator and denominator rows,
    zero-padded to one width, and each node's positivity report.  A source
    whose report in ``compliance`` (one part's, per source) chose the index
    it carries here lends its report, decided on the same row; the other
    nodes are decided in one batched pass."""
    decided = {
        k: rep.positivity
        for k, rep, y in zip(m.network.partition.source_ids, compliance or (), m.y_s_for_part(part_index))
        if rep.compliant and rep.y_s == y
    }
    num, den = loop_transform_rows(m.num, m.den, part, m.part_rho(part, part_index))
    nodes = [k for k in range(len(num)) if k not in decided]
    decided.update(zip(nodes, check_positive_rows(num[nodes], den[nodes])))
    return num, den, [decided[k] for k in range(len(num))]


def _certify_part(
    m: SystemModel, part: HalfPlaneRegion, part_index: int, *, theorem: str,
    grid_code: GridCode | None, compliance: Sequence[ComplianceReport] | None,
) -> PartCertificate:
    notes: list[str] = []
    y_s = m.y_s_for_part(part_index)
    device_reports = part_positivity(m, part, part_index, compliance)[2]

    if theorem == "thm2":
        assert grid_code is not None
        network_ok = grid_code.ll_assumption_ok and all(grid_code.admits(y) for y in y_s)
        lam = grid_code.lambda_min_xi
        if not grid_code.ll_assumption_ok:
            notes.append("network damping assumption violated: relax the target region or shed loads")
        elif not network_ok:
            # The binding source: the lowest index, on a tie the lowest node.
            y, node = min(zip(y_s, m.network.partition.source_ids))
            g = GenericSecondOrder.from_tf(m.num[node], m.den[node])
            cap = index_cap(g, part) if g is not None else None
            at = f"node {node + 1}" + (f" (cap {cap:.6g})" if cap is not None else "")
            notes.append(f"source index {y:.6g} at {at} below the network floor {grid_code.bound:.6g}")
    else:
        network_ok, lam = check_rotated_psd(network_matrix(m.network, part.theta0, m.part_rho(part, part_index)))
        if not network_ok:
            notes.append(f"modified network has lambda_min = {lam:.6g} < 0")

    devices_ok = all(r.is_positive for r in device_reports)
    return PartCertificate(
        region=part,
        network_ok=bool(network_ok),
        network_lambda_min=float(lam) if lam == lam else math.nan,
        device_reports=tuple(device_reports),
        certified=bool(network_ok and devices_ok),
        notes=tuple(notes),
    )


def _certify(
    m: SystemModel, theorem: str, codes: list[GridCode] | None,
    compliance: Sequence[Sequence[ComplianceReport]] | None,
) -> CertificationReport:
    certs = [
        _certify_part(m, part, idx, theorem=theorem, grid_code=codes[idx] if codes else None,
                      compliance=compliance[idx] if compliance else None)
        for idx, part in enumerate(parts(m.region))
    ]
    return CertificationReport(theorem, tuple(certs), all(c.certified for c in certs))


def certify_thm1(
    m: SystemModel, compliance: Sequence[Sequence[ComplianceReport]] | None = None,
) -> CertificationReport:
    """Decentralized certificate: rotated-network semidefiniteness plus local
    positivity of every mapped, rotated, loop-transformed subsystem, verified
    part by part for composite regions.  ``compliance`` (per part and source,
    from :func:`dstab.scenario.compliance`) lends each compliant source's
    positivity report to the part it was checked for."""
    return _certify(m, "thm1", None, compliance)


def certify_thm2(
    m: SystemModel, grid_codes: list[GridCode],
    compliance: Sequence[Sequence[ComplianceReport]] | None = None,
) -> CertificationReport:
    """Grid-code certificate: every source index above the broadcast floor
    plus positivity of the modified sources and loads; ``compliance`` as in
    :func:`certify_thm1`."""
    if len(grid_codes) != m.n_parts:
        raise ValueError(f"expected {m.n_parts} grid codes, got {len(grid_codes)}")
    return _certify(m, "thm2", grid_codes, compliance)


def verify_region(m: SystemModel) -> tuple[bool, float, list[complex]]:
    """Brute-force oracle: all closed-loop poles inside the region within
    margin -1e-6.  Returns (ok, worst margin, poles)."""
    poles = closed_loop_poles(m)
    if not poles:
        return True, math.inf, poles
    worst = min(m.region.margin(p) for p in poles)
    return worst >= -1e-6, worst, poles


def pole_margins(m: SystemModel) -> list[tuple[complex, float]]:
    """Poles with their region margins, for reports and CSV output."""
    return [(p, m.region.margin(p)) for p in closed_loop_poles(m)]
