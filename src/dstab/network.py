"""Resistive-network admittance matrices and the broadcastable grid code.

The network is a weighted Laplacian built from line resistances.  Every
region part rotates the whole network by one angle theta0 and every
loop-transform gain is real, so each network condition is a question about
one real symmetric matrix, cos(theta0) Y - diag(rho) (`network_matrix`).
Theorem 1 asks whether it is positive semidefinite.  The grid code is the
operator side of Theorem 2 and needs nothing from the device models: it puts
the load virtual admittances into rho and reduces the condition to the
minimum eigenvalue of a Schur complement on the source block; the broadcast
value lower-bounds every source's positivity index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LLAssumptionError, NetworkError
from .regions import HalfPlaneRegion, region_to_spec


@dataclass(frozen=True)
class NodePartition:
    """Ordered split of node indices into source and load nodes."""

    source_ids: tuple[int, ...]
    load_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_ids", tuple(int(i) for i in self.source_ids))
        object.__setattr__(self, "load_ids", tuple(int(i) for i in self.load_ids))
        overlap = set(self.source_ids) & set(self.load_ids)
        if overlap:
            raise NetworkError(f"nodes {sorted(overlap)} appear as both source and load")
        if len(set(self.source_ids)) != len(self.source_ids) or len(set(self.load_ids)) != len(self.load_ids):
            raise NetworkError("duplicate node index in partition")

    def covers(self, n: int) -> bool:
        return set(self.source_ids) | set(self.load_ids) == set(range(n))


@dataclass(frozen=True)
class AdmittanceMatrix:
    """A resistive network: its line list, its node count and a source/load
    partition, with the weighted Laplacian ``Y`` built from them.

    ``lines`` holds (i, j, resistance in ohms) on 0-based nodes; parallel
    lines add their conductances.  The graph must be connected.  ``Y`` is
    summed line by line in list order, so it is symmetric with zero row sums
    (no shunts) and nonpositive off-diagonal entries by construction; it is
    read-only.
    """

    lines: tuple[tuple[int, int, float], ...]
    n_nodes: int
    partition: NodePartition

    def __post_init__(self) -> None:
        n = self.n_nodes
        if n < 1:
            raise NetworkError("network needs at least one node")
        lines = tuple((int(i), int(j), float(r)) for i, j, r in self.lines)
        object.__setattr__(self, "lines", lines)
        adj: list[set[int]] = [set() for _ in range(n)]
        rows, cols, vals = [], [], []
        for i, j, r in lines:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise NetworkError(f"bad edge ({i}, {j}) for {n} nodes")
            if not 0 < r < math.inf:
                raise NetworkError(f"line resistance must be positive and finite, got {r} on ({i}, {j})")
            g = 1.0 / r
            if g == math.inf:
                raise NetworkError(f"line ({i}, {j}) has resistance {r!r}, whose conductance 1/R overflows")
            adj[i].add(j)
            adj[j].add(i)
            rows += (i, j, i, j)
            cols += (j, i, i, j)
            vals += (-g, -g, g, g)
        # connectivity via breadth-first search
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) != n:
            raise NetworkError(f"network graph is disconnected ({len(seen)} of {n} nodes reachable)")
        if not self.partition.covers(n):
            raise NetworkError("partition must cover every node exactly once")
        Y = np.zeros((n, n))
        with np.errstate(over="ignore"):  # an overflow is rejected below
            np.add.at(Y, (np.array(rows, dtype=int), np.array(cols, dtype=int)), vals)
        # Each |off-diagonal entry| sums some of the terms of its row's diagonal, so it is no larger.
        for k in np.flatnonzero(np.diagonal(Y) == math.inf)[:1]:
            raise NetworkError(f"the conductances of the lines at node {k} sum past the largest double")
        Y.flags.writeable = False
        object.__setattr__(self, "Y", Y)


@dataclass(frozen=True)
class GridCode:
    """Broadcastable compliance data for one target region.

    ``-lambda_min_xi`` is the uniform lower bound on every source's
    positivity index; the object is only meaningful when
    ``ll_assumption_ok`` is true.
    """

    region: HalfPlaneRegion
    lambda_min_xi: float
    y_virtual: tuple[float, ...]
    ll_assumption_ok: bool

    @property
    def bound(self) -> float:
        """Lower bound on the source positivity indices."""
        return -self.lambda_min_xi

    def admits(self, y: float) -> bool:
        """Whether a source index ``y`` reaches the floor, within 1e-9."""
        return y >= self.bound - 1e-9

    def as_dict(self) -> dict:
        return {
            "region": region_to_spec(self.region),
            "ll_assumption_ok": self.ll_assumption_ok,
            "lambda_min_xi": self.lambda_min_xi if self.ll_assumption_ok else None,
            "y_s_lower_bound": self.bound if self.ll_assumption_ok else None,
            "y_virtual": list(self.y_virtual),
        }


def network_matrix(Y: AdmittanceMatrix, theta0: float, d: np.ndarray) -> np.ndarray:
    """Real symmetric cos(theta0) Y - diag(d): half the Hermitian part of the
    network rotated by theta0 and loop-transformed through the real gains d."""
    return math.cos(theta0) * Y.Y - np.diag(d)


def check_rotated_psd(m: np.ndarray) -> tuple[bool, float]:
    """Whether a :func:`network_matrix` is positive semidefinite; returns
    lambda_min of 2m, the rotated matrix plus its conjugate transpose."""
    eigs = 2.0 * np.linalg.eigvalsh(m)
    lam_min = float(eigs[0])
    scale = max(1.0, float(np.max(np.abs(eigs))))
    return lam_min >= -1e-9 * scale, lam_min


def virtual_admittance_from_conductance(c_l: float, y_l: float, region: HalfPlaneRegion) -> float:
    """Load-side parallel admittance that projects the rotated load pole onto
    the imaginary axis: y_v = -C_l sigma0 + y_l cos(theta0) - C_l omega0 sin(theta0)."""
    return (
        -c_l * region.sigma0
        + y_l * math.cos(region.theta0)
        - c_l * region.omega0 * math.sin(region.theta0)
    )


def schur_xi(Y: AdmittanceMatrix, theta0: float, y_virtual: list[float] | np.ndarray) -> np.ndarray:
    """Schur complement Xi = M_ss - M_sl M_ll^{-1} M_ls on the source block of
    the :func:`network_matrix` M whose gains are the virtual admittances on
    the loads and 0 on the sources, formed from its three blocks
    M_ll = cos(theta0) Y^ll - diag(y_virtual), M_ls = cos(theta0) Y^ls and
    M_ss = cos(theta0) Y^ss.

    One symmetric eigendecomposition M_ll = V diag(lam) V^T serves twice.  Its
    eigenvalues decide the damping assumption: the block must be positive
    definite, and lambda_min <= 1e-12 max(1, max |lam|) raises
    :class:`LLAssumptionError` (the network's damping capacity is exhausted
    and no source-side index can restore it); a Cholesky factor would instead
    leave the verdict on a near-singular block to rounding.  Its factors give
    Xi = M_ss - W^T W with W = diag(lam)^{-1/2} V^T M_ls, symmetric by
    construction.
    """
    y_v = np.asarray(y_virtual, dtype=float)
    src, ld = Y.partition.source_ids, Y.partition.load_ids
    if y_v.shape != (len(ld),):
        raise NetworkError(f"expected {len(ld)} virtual admittances, got shape {y_v.shape}")
    c = math.cos(theta0)
    lam, v = np.linalg.eigh(c * Y.Y[np.ix_(ld, ld)] - np.diag(y_v))
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    if lam.size and float(lam[0]) <= 1e-12 * scale:
        raise LLAssumptionError(
            f"Y^ll cos(theta0) - diag(y_v) is not positive definite (lambda_min = {float(lam[0]):.6e})"
        )
    w = (v.T @ (c * Y.Y[np.ix_(ld, src)])) / np.sqrt(lam)[:, None]
    return c * Y.Y[np.ix_(src, src)] - w.T @ w


def grid_code(
    Y: AdmittanceMatrix,
    region: HalfPlaneRegion,
    loads: list[tuple[float, float]],
) -> GridCode:
    """Grid code for one region: per-load virtual admittances and the uniform
    source bound -lambda_min(Xi).

    ``loads`` holds one (capacitance, load conductance) pair per load node in
    partition order.  A violated damping assumption is reported through
    ``ll_assumption_ok = False`` rather than raised: the operator must relax
    the target region or shed constant-power loads.
    """
    if not Y.partition.source_ids or not Y.partition.load_ids:
        raise NetworkError("grid code needs nonempty source and load sets")
    if len(loads) != len(Y.partition.load_ids):
        raise NetworkError(f"expected {len(Y.partition.load_ids)} load parameter pairs, got {len(loads)}")
    y_v = tuple(virtual_admittance_from_conductance(c_l, y_l, region) for c_l, y_l in loads)
    try:
        xi = schur_xi(Y, region.theta0, list(y_v))
    except LLAssumptionError:
        return GridCode(region, math.nan, y_v, False)
    lam_min = float(np.linalg.eigvalsh(xi)[0])
    return GridCode(region, lam_min, y_v, True)
