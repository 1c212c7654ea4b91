"""Linear time-domain simulation of the closed-loop small-signal model.

The load disturbance is modeled as an additive current injection of
``magnitude * P / u*`` amps at the disturbed load node (the small-signal
equivalent of a fractional load-power step), integrated with fixed-step RK4
through its exact one-step propagator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dstability import SystemModel, assemble_closed_loop
from .errors import DstabError

# Column width of the in-place Horner evaluation of the RK4 propagator.
_HORNER_COLS = 64
# Longest run of steps advanced by one product with the stacked output maps.
_MAX_BLOCK = 64


@dataclass(frozen=True)
class DisturbanceSpec:
    """Pulse load step at one load node."""

    node: int
    magnitude: float
    start: float
    duration: float
    shape: str = "pulse"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"disturbance duration must be positive, got {self.duration}")
        if self.shape != "pulse":
            raise ValueError(f"unsupported disturbance shape {self.shape!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time grid and per-node voltage deviations (rows = samples)."""

    t: np.ndarray
    du: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        du = np.asarray(self.du, dtype=float)
        if du.shape[0] != t.shape[0]:
            raise ValueError("time grid and series lengths differ")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "du", du)


def simulate(m: SystemModel, d: DisturbanceSpec, t_end: float = 0.5, dt: float = 1e-4) -> Trajectory:
    """Integrate the disturbed closed-loop model over [0, t_end].

    Warns (without aborting) when the step size is large relative to the
    fastest closed-loop mode.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= d.start + d.duration:
        raise ValueError("t_end must exceed the end of the disturbance pulse")
    part = m.network.partition
    if d.node not in part.load_ids:
        raise ValueError(f"disturbance node {d.node} is not a load node")
    if m.load_cy is None or m.equilibrium_u is None:
        raise DstabError("simulation needs load parameters and an equilibrium on the model")

    a_cl = assemble_closed_loop(m)
    eigs = np.linalg.eigvals(a_cl)
    fastest = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if fastest > 0 and dt > 0.1 / fastest:
        warnings.warn(
            f"step dt = {dt:.3g} s is coarse for the fastest mode |eig| = {fastest:.3g} 1/s",
            RuntimeWarning,
            stacklevel=2,
        )

    load_pos = part.load_ids.index(d.node)
    c_l, y_l = m.load_cy[load_pos]
    u_star = m.equilibrium_u[d.node]
    amps = d.magnitude * y_l * u_star  # magnitude * P / u*

    # Input column of the disturbed subsystem; an extra load draw enters the
    # device input with the same sign as the network current.
    n_states, n_nodes = a_cl.shape[0], len(m.subsystems)
    dims = [g.den.degree for g in m.subsystems]
    b_d = np.zeros(n_states)
    b_d[sum(dims[: d.node + 1]) - 1] = -amps

    # Node k's output reads its own states through the numerator coefficients
    # of its canonical realization, so the output map is kept as that gather.
    width = max(len(g.num.coeffs) for g in m.subsystems)
    out_idx = np.zeros((n_nodes, width), dtype=int)
    out_coef = np.zeros((n_nodes, width))
    pos = 0
    for k, g in enumerate(m.subsystems):
        n_coef = len(g.num.coeffs)
        out_idx[k] = pos
        out_idx[k, :n_coef] += np.arange(n_coef)
        out_coef[k, :n_coef] = [c.real for c in g.num.coeffs]
        pos += dims[k]

    def output(states: np.ndarray) -> np.ndarray:
        """C @ states for a state vector or a matrix of state columns."""
        return np.einsum("kw,kw...->k...", out_coef, states[out_idx])

    # With the input held over a step, one RK4 step of x' = A x + b w is
    # exactly x <- P x + q w, where P = sum_{k<=4} (hA)^k / k! and
    # q = h sum_{k<=3} (hA)^k / (k+1)! b.  Both are evaluated by Horner's
    # rule, P one column block at a time (block j of hA P needs only block j
    # of P) so that no third N x N array is live.
    h_a = a_cl
    h_a *= dt  # a_cl is not needed after eigvals
    p = np.empty_like(h_a)
    for j in range(0, n_states, _HORNER_COLS):
        eye = np.eye(n_states, min(_HORNER_COLS, n_states - j), -j)
        blk = eye + h_a[:, j : j + _HORNER_COLS] / 4
        for k in (3, 2, 1):
            blk = eye + h_a @ blk / k
        p[:, j : j + _HORNER_COLS] = blk
    q = b_d
    for k in (4, 3, 2):
        q = b_d + h_a @ q / k
    q = dt * q
    del a_cl, h_a  # only P and q are needed from here on

    n_steps = int(round(t_end / dt))
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    # The pulse is held constant over each step (sampled at the midpoint);
    # exact whenever the edges align with the time grid.
    mid = t[:-1] + 0.5 * dt
    w = ((d.start <= mid) & (mid < d.start + d.duration)).astype(float)

    # Over a run of constant input, the outputs of the next m steps are
    # y_{i+j} = C P^j x_i + C s_j w (s_j = sum_{l<j} P^l q): one product with
    # the stacked maps C P^j per block.  Their set-up (the maps and P^m) costs
    # up to m N^3 against n_steps N^2 for stepping, so a block is at most
    # n_steps / N steps long; below two steps no maps are built.
    block = min(_MAX_BLOCK, n_steps // n_states)
    if block > 1:
        maps = np.empty((block, n_nodes, n_states))
        maps[0] = output(p)
        s = np.empty((block, n_states))
        s[0] = q
        for j in range(1, block):
            maps[j] = maps[j - 1] @ p
            s[j] = p @ s[j - 1] + q
        maps = maps.reshape(block * n_nodes, n_states)
        forced = output(s.T).T
        p_block = np.linalg.matrix_power(p, block)

    x = np.zeros(n_states)
    du = np.zeros((n_steps + 1, n_nodes))
    starts = np.flatnonzero(np.diff(w, prepend=-1.0)).tolist()  # first step of each run
    for start, stop in zip(starts, starts[1:] + [n_steps]):
        w_run = w[start]
        step = start
        while block > 1 and stop - step >= block:
            du[step + 1 : step + block + 1] = (maps @ x).reshape(block, n_nodes) + w_run * forced
            x = p_block @ x + w_run * s[-1]
            step += block
        for step in range(step, stop):
            x = p @ x + w_run * q
            du[step + 1] = output(x)
    return Trajectory(t, du)


def metrics(tr: Trajectory, band: float = 0.02) -> dict[str, float]:
    """Settling time (last exit from the +-band*peak tube), peak deviation,
    and the dominant oscillation frequency of the most-deviated node."""
    du = tr.du
    peak = float(np.max(np.abs(du))) if du.size else 0.0
    if peak == 0.0:
        return {"settling_time": 0.0, "peak_dev": 0.0, "dominant_freq": 0.0}

    threshold = band * peak
    outside = np.max(np.abs(du), axis=1) > threshold
    settling = float(tr.t[int(np.max(np.nonzero(outside)[0]))]) if np.any(outside) else 0.0

    worst_node = int(np.argmax(np.max(np.abs(du), axis=0)))
    sig = du[:, worst_node]
    active = np.abs(sig) > 1e-3 * peak
    if np.any(active):
        first, last = int(np.argmax(active)), int(len(sig) - 1 - np.argmax(active[::-1]))
    else:
        first, last = 0, len(sig) - 1
    segment = sig[first : last + 1]
    span = float(tr.t[last] - tr.t[first])
    crossings = int(np.sum(np.signbit(segment[:-1]) != np.signbit(segment[1:])))
    dominant = math.pi * crossings / span if span > 0 and crossings > 0 else 0.0
    return {"settling_time": settling, "peak_dev": peak, "dominant_freq": dominant}
