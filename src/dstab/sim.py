"""Linear time-domain simulation of the closed-loop small-signal model.

The load disturbance is modeled as an additive current injection of
``magnitude * P / u*`` amps at the disturbed load node (the small-signal
equivalent of a fractional load-power step), integrated with fixed-step RK4
through its exact one-step propagator, or stage by stage below 2N steps (N states),
on the state layout of the oracle's realization in :mod:`dstab.dstability`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dstability import SystemModel, _companion, assemble_closed_loop
from .errors import DivergenceError, DstabError

# Column width of the in-place Horner evaluation of the RK4 propagator.
_HORNER_COLS = 64
# Longest run of steps advanced by one product with the stacked output maps.
_MAX_BLOCK = 64
# |R(z)| <= 1 on the closed left half-disc |z| <= 2.6: on the imaginary axis
# |R(iy)|^2 = 1 - y^6/72 + y^8/576 <= 1 while y^2 <= 8, on the arc up to a
# radius of about 2.6156, and inside by the maximum-modulus principle.
_RK4_DISC = 2.6
# Power steps on |A| that tighten the Collatz-Wielandt bound on its spectral radius.
_CW_STEPS = 8


def _spectral_radius_bound(a: np.ndarray) -> float:
    """An upper bound on the spectral radius of ``a``, or inf.

    For M = |a| and any v > 0, every eigenvalue of ``a`` has modulus at most
    rho(M) <= max_i (M v)_i / v_i (Collatz-Wielandt).  Power steps on M from
    v = 1 tighten the bound; it is inflated by the rounding of M v, and a
    step that leaves v not finite or not strictly positive ends the search."""
    m = np.abs(a)
    v = np.ones(a.shape[0])
    best = math.inf
    slack = 1.0 + 4.0 * a.shape[0] * np.finfo(float).eps
    with np.errstate(all="ignore"):
        for _ in range(_CW_STEPS):
            w = m @ v
            bound = float(np.max(w / v, initial=0.0)) * slack
            if not math.isfinite(bound):
                break
            best = min(best, bound)
            v = w / float(np.max(w, initial=0.0))
            if not (v > 0).all():
                break
    return best


@dataclass(frozen=True)
class DisturbanceSpec:
    """Pulse load step at one load node."""

    node: int
    magnitude: float
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"disturbance duration must be positive, got {self.duration}")


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


def simulate(m: SystemModel, d: DisturbanceSpec, t_end: float, dt: float) -> Trajectory:
    """Integrate the disturbed closed-loop model over [0, t_end].

    Warns (without aborting) when RK4 at step ``dt`` amplifies a decaying
    closed-loop mode, and raises DivergenceError when the trajectory
    overflows to a non-finite value.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt ({t_end!r} / {dt!r}) gives a step count of {t_end / dt!r}, not a finite one")
    if t_end <= d.start + d.duration:
        raise ValueError("t_end must exceed the end of the disturbance pulse")
    part = m.network.partition
    if d.node not in part.load_ids:
        raise ValueError(f"disturbance node {d.node} is not a load node")
    if m.load_cy is None or m.equilibrium_u is None:
        raise DstabError("simulation needs load parameters and an equilibrium on the model")

    a_cl = assemble_closed_loop(m)
    # One RK4 step multiplies a mode e^{lambda t} by R(dt*lambda), with
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24; a decaying mode with |R| > 1
    # grows in the simulation.  No mode can while every dt*lambda lies in the
    # disc |z| <= _RK4_DISC, so the eigenvalues are needed only when the
    # spectral-radius bound leaves it.
    if dt * _spectral_radius_bound(a_cl) > _RK4_DISC:
        z = dt * np.linalg.eigvals(a_cl)
        gain = np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))))
        # Evaluated in doubles, |R| of a mode on the imaginary axis, where
        # |R| <= 1 exactly, can come out 1 ulp above 1; a few ulps are rounding.
        amplified = (z.real < 0) & (gain > 1 + 4 * np.finfo(float).eps)
        if np.any(amplified):
            warnings.warn(
                f"step dt = {dt:.3g} s is unstable for RK4: a decaying mode has "
                f"|R(dt*eig)| = {float(np.max(gain[amplified])):.4g} > 1",
                RuntimeWarning,
                stacklevel=2,
            )

    load_pos = part.load_ids.index(d.node)
    c_l, y_l = m.load_cy[load_pos]
    u_star = m.equilibrium_u[d.node]
    amps = d.magnitude * y_l * u_star  # magnitude * P / u*

    # Input column of the disturbed subsystem; an extra load draw enters the
    # device input with the same sign as the network current.  Node k's output
    # reads its own states through its numerator row: the realization's gather.
    _, last, out_idx = _companion(m)
    n_states, n_nodes = a_cl.shape[0], len(last)
    b_d = np.zeros(n_states)
    b_d[last[d.node]] = -amps
    out_coef = np.ascontiguousarray(m.num.real)

    def output(states: np.ndarray) -> np.ndarray:
        """C @ states for a state vector or a matrix of state columns."""
        return np.einsum("kw,kw...->k...", out_coef, states[out_idx])

    n_steps = int(round(t_end / dt))
    try:
        t = np.linspace(0.0, n_steps * dt, n_steps + 1)
        # The pulse is held constant over each step (sampled at the midpoint);
        # exact whenever the edges align with the time grid.
        mid = t[:-1] + 0.5 * dt
        w = ((d.start <= mid) & (mid < d.start + d.duration)).astype(float)
        du = np.zeros((n_steps + 1, n_nodes))
    except (MemoryError, ValueError, IndexError) as exc:  # numpy's refusals of arrays past its size limit
        raise DstabError(f"cannot allocate the time grid and trajectory of {n_steps} RK4 steps: {exc}") from exc
    x = np.zeros(n_states)
    starts = np.flatnonzero(np.diff(w, prepend=-1.0)).tolist()  # first step of each run

    # Fewer than 2N steps cannot pay for P below (N^3): they take RK4's stages on hA's nonzeros.
    block = min(_MAX_BLOCK, n_steps // n_states)
    if block <= 1:
        nz = a_cl != 0
        nz[~nz.any(axis=1)] = True  # reduceat cannot sum an empty row
        rows, cols = np.nonzero(nz)
        h_vals, heads = dt * a_cl[rows, cols], np.flatnonzero(np.diff(rows, prepend=-1))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            for start, stop in zip(starts, starts[1:] + [n_steps]):
                h_bw = dt * w[start] * b_d
                for step in range(start, stop):
                    k1 = np.add.reduceat(h_vals * x[cols], heads) + h_bw
                    k2 = np.add.reduceat(h_vals * (x + k1 / 2)[cols], heads) + h_bw
                    k3 = np.add.reduceat(h_vals * (x + k2 / 2)[cols], heads) + h_bw
                    k4 = np.add.reduceat(h_vals * (x + k3)[cols], heads) + h_bw
                    x = x + (k1 + 2 * k2 + 2 * k3 + k4) / 6
                    du[step + 1] = output(x)
    else:
        # With the input held over a step, one RK4 step of x' = A x + b w is
        # exactly x <- P x + q w, where P = sum_{k<=4} (hA)^k / k! and
        # q = h sum_{k<=3} (hA)^k / (k+1)! b.  Both are evaluated by Horner's
        # rule, P one column block at a time (block j of hA P needs only block j
        # of P) so that no third N x N array is live.
        h_a = a_cl
        h_a *= dt  # a_cl is not needed after the step check
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

        # Over a run of constant input, the outputs of the next m steps are
        # y_{i+j} = C P^j x_i + C s_j w (s_j = sum_{l<j} P^l q): one product with
        # the stacked maps C P^j per block.  Their set-up (the maps and P^m) costs
        # up to m N^3 against n_steps N^2 for stepping, so a block is at most
        # n_steps / N steps long.
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

        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            for start, stop in zip(starts, starts[1:] + [n_steps]):
                w_run = w[start]
                step = start
                while stop - step >= block:
                    du[step + 1 : step + block + 1] = (maps @ x).reshape(block, n_nodes) + w_run * forced
                    x = p_block @ x + w_run * s[-1]
                    step += block
                for step in range(step, stop):
                    x = p @ x + w_run * q
                    du[step + 1] = output(x)
    finite = np.isfinite(du).all(axis=1)
    if not finite.all():
        raise DivergenceError(
            f"simulation diverged: the trajectory is not finite from t = {t[np.argmin(finite)]:.6g} s "
            f"(RK4 step dt = {dt:.3g} s)"
        )
    return Trajectory(t, du)


def metrics(tr: Trajectory, band: float) -> dict[str, float]:
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
