"""Time-domain simulation and trajectory metrics."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dstab import devices as dev
from dstab.dstability import SystemModel, assemble_closed_loop, closed_loop_poles
from dstab.errors import DstabError
from dstab.network import NodePartition, build_admittance
from dstab.regions import shifted_lhp
from dstab.sim import DisturbanceSpec, Trajectory, metrics, simulate


@pytest.fixture
def toy_model() -> SystemModel:
    part = NodePartition((0, 1), (2,))
    Y = build_admittance([(0, 2, 0.1), (1, 2, 0.1)], 3, part)
    buck = dev.coeffs_ess_buck(dev.EssBuckParams(C=3e-3, E=200.0, U_r=105.0, R_d=0.7, kP_u=0.38, kI_u=21.0))
    cpl = dev.CplParams(C_l=2e-3, P=1500.0)
    u_star = 100.0
    return SystemModel(
        (buck.tf, buck.tf, dev.cpl_tf(cpl, u_star)),
        Y,
        shifted_lhp(-2.0),
        load_cy=((cpl.C_l, dev.cpl_conductance(cpl, u_star)),),
        equilibrium_u=(100.7, 100.7, u_star),
    )


def quiet_simulate(*args, **kwargs) -> Trajectory:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return simulate(*args, **kwargs)


def output_rows(m: SystemModel) -> np.ndarray:
    """Dense output matrix: node k reads its own states through the
    numerator coefficients of its canonical realization."""
    c_rows = np.zeros((len(m.subsystems), sum(g.den.degree for g in m.subsystems)))
    pos = 0
    for k, g in enumerate(m.subsystems):
        for i, coeff in enumerate(g.num.coeffs):
            c_rows[k, pos + i] = coeff.real
        pos += g.den.degree
    return c_rows


def rk4_reference(m: SystemModel, d: DisturbanceSpec, t_end: float, dt: float) -> Trajectory:
    """The per-step RK4 loop that `simulate` replaces with its propagator."""
    a_cl = assemble_closed_loop(m)
    c_l, y_l = m.load_cy[m.network.partition.load_ids.index(d.node)]
    amps = d.magnitude * y_l * m.equilibrium_u[d.node]
    dims = [g.den.degree for g in m.subsystems]
    b_d = np.zeros(a_cl.shape[0])
    b_d[sum(dims[: d.node + 1]) - 1] = -amps
    c_rows = output_rows(m)
    n_steps = int(round(t_end / dt))
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    x = np.zeros(a_cl.shape[0])
    du = np.zeros((n_steps + 1, len(dims)))
    for step in range(n_steps):
        tau = t[step] + 0.5 * dt
        w = 1.0 if d.start <= tau < d.start + d.duration else 0.0
        k1 = a_cl @ x + b_d * w
        k2 = a_cl @ (x + 0.5 * dt * k1) + b_d * w
        k3 = a_cl @ (x + 0.5 * dt * k2) + b_d * w
        k4 = a_cl @ (x + dt * k3) + b_d * w
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        du[step + 1] = c_rows @ x
    return Trajectory(t, du)


class TestPropagator:
    """`simulate` advances by the RK4 one-step propagator, in blocks of up to
    64 steps when n_steps // N allows it; the per-step loop is the reference."""

    @pytest.mark.parametrize(
        "start, duration, t_end, dt",
        [
            (0.0128, 0.0128, 0.0384, 1e-4),  # edges on the grid, runs of whole 64-step blocks
            (0.01234, 0.00567, 0.0256, 1e-4),  # edges between grid points
            (0.005, 0.0081, 0.02, 1e-4),  # runs of 50, 81 and 69 steps: partial blocks
            (0.001, 0.002, 0.004, 1e-3),  # 4 steps on 5 states: no block, plain steps
        ],
        ids=["edges-on-grid", "edges-off-grid", "partial-blocks", "block-of-one"],
    )
    def test_matches_per_step_rk4(self, toy_model, start, duration, t_end, dt):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=start, duration=duration)
        tr = quiet_simulate(toy_model, d, t_end=t_end, dt=dt)
        ref = rk4_reference(toy_model, d, t_end, dt)
        peak = float(np.max(np.abs(ref.du)))
        assert peak > 0.0
        assert np.array_equal(tr.t, ref.t)
        assert float(np.max(np.abs(tr.du - ref.du))) <= 1e-12 * peak

    def test_matches_per_step_rk4_on_ieee39(self):
        from dstab.scenario import build_model, data_path, load_scenario

        sc = load_scenario(data_path("ieee39_synthesized"))
        model = build_model(sc)
        # pulse from 0.1 s to 0.12 s: runs of 5000, 1000 and 1500 steps on 63 states
        tr = quiet_simulate(model, sc.disturbance, t_end=0.15, dt=sc.dt)
        ref = rk4_reference(model, sc.disturbance, 0.15, sc.dt)
        peak = float(np.max(np.abs(ref.du)))
        assert float(np.max(np.abs(tr.du - ref.du))) <= 1e-12 * peak


class TestSimulate:
    def test_zero_magnitude_gives_zero_trajectory(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.0, start=0.05, duration=0.02)
        tr = quiet_simulate(toy_model, d, t_end=0.2, dt=1e-4)
        assert np.allclose(tr.du, 0.0)

    def test_initial_condition_zero(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        tr = quiet_simulate(toy_model, d, t_end=0.2, dt=1e-4)
        assert np.allclose(tr.du[0], 0.0)
        assert tr.du.shape == (len(tr.t), 3)

    def test_matches_exact_exponential_solution(self, toy_model):
        # piecewise-constant input: exact discrete propagation via expm
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        dt = 1e-5
        tr = quiet_simulate(toy_model, d, t_end=0.1, dt=dt)

        a_cl = assemble_closed_loop(toy_model)
        c_l, y_l = toy_model.load_cy[0]
        amps = 0.01 * y_l * toy_model.equilibrium_u[2]
        b = np.zeros(a_cl.shape[0])
        b[-1] = -amps
        ad = expm(a_cl * dt)
        bd = np.linalg.solve(a_cl, (ad - np.eye(a_cl.shape[0])) @ b)
        x = np.zeros(a_cl.shape[0])
        c_rows = output_rows(toy_model)
        worst = 0.0
        for step in range(len(tr.t) - 1):
            tau = tr.t[step] + 0.5 * dt  # input held constant over the step
            w = 1.0 if d.start <= tau < d.start + d.duration else 0.0
            x = ad @ x + bd * w
            worst = max(worst, float(np.max(np.abs(c_rows @ x - tr.du[step + 1]))))
        assert worst < 1e-6 * max(1.0, float(np.max(np.abs(tr.du))))

    def test_step_halving_convergence_order(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.04, duration=0.02)
        errs = []
        ref = quiet_simulate(toy_model, d, t_end=0.1, dt=2.5e-6)
        for dt in (2e-5, 1e-5):
            tr = quiet_simulate(toy_model, d, t_end=0.1, dt=dt)
            stride = int(round(dt / 2.5e-6))
            errs.append(float(np.max(np.abs(tr.du - ref.du[::stride]))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_post_pulse_decay_consistent_with_dominant_pole(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.02, duration=0.02)
        tr = quiet_simulate(toy_model, d, t_end=0.8, dt=2e-5)
        poles = closed_loop_poles(toy_model)
        alpha = max(p.real for p in poles)
        peak_idx = int(np.argmax(np.abs(tr.du).max(axis=1)))
        env = np.abs(tr.du).max(axis=1)
        t1, t2 = peak_idx + 1000, len(tr.t) - 1
        observed = (math.log(env[t2]) - math.log(env[t1])) / (tr.t[t2] - tr.t[t1])
        assert observed <= alpha / 3.0  # decays at least a third of the dominant rate

    def test_rejects_non_load_node(self, toy_model):
        d = DisturbanceSpec(node=0, magnitude=0.01, start=0.05, duration=0.02)
        with pytest.raises(ValueError):
            quiet_simulate(toy_model, d, t_end=0.2, dt=1e-4)

    def test_requires_equilibrium_data(self, toy_model):
        bare = SystemModel(toy_model.subsystems, toy_model.network, toy_model.region)
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        with pytest.raises(DstabError):
            quiet_simulate(bare, d, t_end=0.2, dt=1e-4)

    def test_pulse_must_fit_window(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.15, duration=0.1)
        with pytest.raises(ValueError):
            quiet_simulate(toy_model, d, t_end=0.2, dt=1e-4)

    def test_coarse_step_warns(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        with pytest.warns(RuntimeWarning):
            simulate(toy_model, d, t_end=0.2, dt=1e-3)


class TestMetrics:
    def test_pure_exponential_settling(self):
        alpha = -4.0
        t = np.linspace(0.0, 3.0, 30001)
        du = np.exp(alpha * t)[:, None]
        stats = metrics(Trajectory(t, du), band=0.02)
        assert stats["settling_time"] == pytest.approx(4.0 / abs(alpha), rel=0.10)
        assert stats["peak_dev"] == pytest.approx(1.0)

    def test_damped_sinusoid_frequency(self):
        w0 = 35.0
        t = np.linspace(0.0, 2.0, 40001)
        du = (np.exp(-2.0 * t) * np.sin(w0 * t))[:, None]
        stats = metrics(Trajectory(t, du), band=0.02)
        assert stats["dominant_freq"] == pytest.approx(w0, rel=0.05)

    def test_zero_trajectory(self):
        t = np.linspace(0.0, 1.0, 11)
        stats = metrics(Trajectory(t, np.zeros((11, 2))), band=0.02)
        assert stats == {"settling_time": 0.0, "peak_dev": 0.0, "dominant_freq": 0.0}
