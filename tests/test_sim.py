"""Time-domain simulation and trajectory metrics."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import degree
from crosscheck import rk4_step_warning
from dstab import devices as dev
from dstab import sim
from dstab.cpoly import CRational
from dstab.dstability import SystemModel, assemble_closed_loop, closed_loop_poles
from dstab.errors import DivergenceError, DstabError
from dstab.network import AdmittanceMatrix, NodePartition
from dstab.regions import shifted_lhp
from dstab.sim import DisturbanceSpec, Trajectory, metrics, simulate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import meshgen  # noqa: E402


@pytest.fixture
def toy_model() -> SystemModel:
    part = NodePartition((0, 1), (2,))
    Y = AdmittanceMatrix([(0, 2, 0.1), (1, 2, 0.1)], 3, part)
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
    c_rows = np.zeros((len(m.subsystems), sum(degree(g.den) for g in m.subsystems)))
    pos = 0
    for k, g in enumerate(m.subsystems):
        for i, coeff in enumerate(g.num.coeffs):
            c_rows[k, pos + i] = coeff.real
        pos += degree(g.den)
    return c_rows


def rk4_reference(m: SystemModel, d: DisturbanceSpec, t_end: float, dt: float) -> Trajectory:
    """The per-step RK4 loop, dense: `simulate` replaces it with its propagator
    or, on a run shorter than 2N steps, with the same stages on A's nonzeros."""
    a_cl = assemble_closed_loop(m)
    c_l, y_l = m.load_cy[m.network.partition.load_ids.index(d.node)]
    amps = d.magnitude * y_l * m.equilibrium_u[d.node]
    dims = [degree(g.den) for g in m.subsystems]
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
    64 steps when n_steps // N allows it, and stage by stage below 2N steps;
    the per-step loop is the reference."""

    @pytest.mark.parametrize(
        "start, duration, t_end, dt",
        [
            (0.0128, 0.0128, 0.0384, 1e-4),  # edges on the grid, runs of whole 64-step blocks
            (0.01234, 0.00567, 0.0256, 1e-4),  # edges between grid points
            (0.005, 0.0081, 0.02, 1e-4),  # runs of 50, 81 and 69 steps: partial blocks
            (0.001, 0.002, 0.004, 1e-3),  # 4 steps on 5 states: the staged route
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

    @pytest.mark.parametrize("t_end, dt", [(0.02, 1e-4), (0.01, 1e-3)], ids=["blocked", "staged"])
    def test_third_order_node_before_a_one_state_load(self, toy_model, t_end, dt):
        # Node 1 has three states and a degree-2 numerator, so every numerator
        # row is padded to width 3, and the last node, a one-state load, reads
        # its output through a gather that must stay inside the N = 6 states.
        third = CRational.from_coeffs([4000.0, 300.0, 10.0], [20000.0, 1400.0, 70.0, 1.0])
        m = dataclasses.replace(toy_model, subsystems=(toy_model.subsystems[0], third, toy_model.subsystems[2]))
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.002, duration=0.003)
        tr = quiet_simulate(m, d, t_end=t_end, dt=dt)
        ref = rk4_reference(m, d, t_end, dt)
        peak = float(np.max(np.abs(ref.du)))
        assert ref.du.shape[1] == 3 and assemble_closed_loop(m).shape == (6, 6) and peak > 0.0
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


class TestStagedRoute:
    """Below 2N steps (N states) `simulate` builds no propagator: it steps
    through the four RK4 stages on the nonzeros of hA, row by row."""

    @staticmethod
    def assert_matches_reference(model, d, t_end, dt):
        tr = quiet_simulate(model, d, t_end=t_end, dt=dt)
        ref = rk4_reference(model, d, t_end, dt)
        peak = float(np.max(np.abs(ref.du)))
        assert peak > 0.0
        assert np.array_equal(tr.t, ref.t)
        assert float(np.max(np.abs(tr.du - ref.du))) <= 1e-13 * peak

    @pytest.mark.parametrize("n_steps, staged", [(9, True), (10, False)])
    def test_switch_at_twice_the_state_count(self, toy_model, monkeypatch, n_steps, staged):
        # 5 states: 9 steps give n_steps // N = 1 (staged), 10 give a block of 2
        powers = []
        matrix_power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda a, k: powers.append(k) or matrix_power(a, k))
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.002, duration=0.003)
        self.assert_matches_reference(toy_model, d, n_steps * 1e-3, 1e-3)
        assert powers == ([] if staged else [2])

    def test_ieee39_short_run(self):
        from dstab.scenario import build_model, data_path, load_scenario

        sc = load_scenario(data_path("ieee39_synthesized"))
        model = build_model(sc)
        # 120 steps on 63 states, the pulse moved to steps 30..69
        d = DisturbanceSpec(sc.disturbance.node, sc.disturbance.magnitude, start=30 * sc.dt, duration=40 * sc.dt)
        self.assert_matches_reference(model, d, 120 * sc.dt, sc.dt)

    def test_mesh_cut_to_600_steps(self, monkeypatch, tmp_path):
        from dstab.scenario import build_model, load_scenario

        sc = load_scenario(meshgen.write_scenario(meshgen.mesh_scenario(200, 1), tmp_path / "mesh.json"))
        model = build_model(sc)
        assert 600 // assemble_closed_loop(model).shape[0] == 1
        monkeypatch.setattr(np.linalg, "matrix_power", None)  # the propagator route is not taken
        self.assert_matches_reference(model, sc.disturbance, 600 * sc.dt, sc.dt)

    @pytest.mark.parametrize("rows", [[0], [2, 3], [4]], ids=["first", "adjacent", "last"])
    def test_empty_rows(self, toy_model, monkeypatch, rows):
        # np.add.reduceat returns an element, not zero, for an empty segment
        a_cl = assemble_closed_loop(toy_model)
        a_cl[rows] = 0.0
        monkeypatch.setattr(sim, "assemble_closed_loop", lambda m: a_cl.copy())
        monkeypatch.setitem(globals(), "assemble_closed_loop", lambda m: a_cl.copy())  # rk4_reference's
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.001, duration=0.004)
        self.assert_matches_reference(toy_model, d, 0.009, 1e-3)

    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_overflow_raises_after_the_warning(self, dt):
        from dstab.scenario import build_model, data_path, load_scenario

        sc = load_scenario(data_path("ieee39_synthesized"))
        model = build_model(sc)
        d = DisturbanceSpec(sc.disturbance.node, 0.01, start=dt, duration=2 * dt)
        t_end = 100 * dt  # 100 steps on 63 states
        with np.errstate(over="ignore", invalid="ignore"):
            ref = rk4_reference(model, d, t_end, dt)
        first = ref.t[np.argmin(np.isfinite(ref.du).all(axis=1))]
        assert first < t_end
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DivergenceError) as err:
            warnings.simplefilter("always")
            simulate(model, d, t_end=t_end, dt=dt)
        assert [str(w.message).startswith(f"step dt = {dt:.3g} s is unstable for RK4") for w in caught] == [True]
        named = float(str(err.value).split("not finite from t = ")[1].split(" s")[0])
        # The dense reference turns every state NaN (0 * inf) in the step where
        # one overflows; the rows of A's nonzeros pass it on along A's graph,
        # so an output can leave the finite floats a step later.
        assert named in (pytest.approx(first), pytest.approx(first + dt))


class TestPulseOnTheGrid:
    """`load_scenario` rejects a step grid on which no step midpoint, where
    `simulate` samples the pulse, falls in [start, start + duration)."""

    def test_agrees_with_the_simulated_grid(self, tmp_path, rng):
        from dstab.errors import ScenarioError
        from dstab.scenario import data_path, load_scenario

        raw = json.loads(data_path("toy3").read_text())
        path = tmp_path / "toy3.json"
        verdicts = []
        for _ in range(400):
            dt = float(10.0 ** rng.uniform(-6, 0))
            n_steps = int(10.0 ** rng.uniform(0, 5))
            t = np.linspace(0.0, n_steps * dt, n_steps + 1)  # simulate's grid
            mid = t[:-1] + 0.5 * dt
            # a pulse starting on a midpoint or an ulp off it, as short as an
            # ulp or up to two steps long, or starting before the grid
            start = float(np.nextafter(mid[rng.integers(n_steps)], math.inf) if rng.random() < 0.5 else mid[0])
            start = [start, float(np.nextafter(start, -math.inf)), -dt * rng.random()][rng.integers(3)]
            duration = [float(np.spacing(abs(start)) or dt), 2 * dt * rng.random()][rng.integers(2)]
            end = start + duration
            if not end < n_steps * dt:
                continue
            raw["disturbance"].update(start_s=start, duration_s=duration)
            raw["simulation"].update(t_end_s=n_steps * dt, dt_s=dt)
            path.write_text(json.dumps(raw))
            hit = bool(np.any((start <= mid) & (mid < end)))
            try:
                load_scenario(path)
                verdicts.append((hit, True))
            except ScenarioError as exc:
                assert "midpoint in the disturbance pulse" in str(exc)
                verdicts.append((hit, False))
        assert all(hit == accepted for hit, accepted in verdicts)
        assert min(sum(hit for hit, _ in verdicts), sum(not hit for hit, _ in verdicts)) >= 50


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

    @pytest.mark.parametrize("t_end, dt", [(1e308, 1e-308), (math.inf, 1e-4), (math.nan, 1e-4)])
    def test_non_finite_step_count_raises_before_any_array(self, toy_model, monkeypatch, t_end, dt):
        monkeypatch.setattr(sim, "assemble_closed_loop", None)  # nothing past the argument checks runs
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        with pytest.raises(ValueError, match=r"^t_end / dt \(.+ / .+\) gives a step count of (inf|nan), not a finite one$"):
            simulate(toy_model, d, t_end=t_end, dt=dt)

    def test_pulse_must_fit_window(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.15, duration=0.1)
        with pytest.raises(ValueError):
            quiet_simulate(toy_model, d, t_end=0.2, dt=1e-4)

    def test_coarse_step_warns(self, toy_model):
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        with pytest.warns(RuntimeWarning):
            tr = simulate(toy_model, d, t_end=0.1, dt=1e-3)
        assert np.isfinite(tr.du).all()

    def test_overflow_raises_after_the_warning(self, toy_model):
        # the mode the coarse step amplifies overflows before 0.2 s
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DivergenceError, match="not finite from t = "):
            warnings.simplefilter("always")
            simulate(toy_model, d, t_end=0.2, dt=1e-3)
        assert [str(w.message).startswith("step dt = 0.001 s is unstable for RK4") for w in caught] == [True]

    @pytest.mark.parametrize("name", ["toy3", "ieee39_default", "ieee39_synthesized"])
    def test_shipped_step_sizes_do_not_warn(self, name):
        from dstab.scenario import build_model, data_path, load_scenario

        sc = load_scenario(data_path(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(build_model(sc), sc.disturbance, t_end=sc.t_end, dt=sc.dt)


def rk4_gain(z: np.ndarray) -> np.ndarray:
    """|R(z)| of the RK4 stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return np.abs(1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))))


def caught_warnings(model: SystemModel, node: int, dt: float) -> list[str]:
    """The messages `simulate` warns with over two steps of size ``dt``."""
    d = DisturbanceSpec(node=node, magnitude=0.01, start=0.0, duration=dt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate(model, d, t_end=2 * dt, dt=dt)
    return [str(w.message) for w in caught]


class TestStepWarning:
    """`simulate` takes the eigenvalues only when the Collatz-Wielandt bound
    on the spectral radius of dt*A leaves the half-disc where |R| <= 1."""

    def test_half_disc_arc(self):
        # Max modulus of R on the left arc |z| = 2.6, sampled with a spacing h;
        # |R'| <= 1 + r + r^2/2 + r^3/6 on the arc bounds R between samples.
        r = sim._RK4_DISC
        phi = np.linspace(math.pi / 2, 3 * math.pi / 2, 100_001)
        h = r * (phi[1] - phi[0])
        lipschitz = 1 + r + r**2 / 2 + r**3 / 6
        assert float(np.max(rk4_gain(r * np.exp(1j * phi)))) + lipschitz * h / 2 <= 1.0
        # ... and the disc ends near the true radius, about 2.6156, where |R| reaches 1
        assert float(np.max(rk4_gain(2.616 * np.exp(1j * phi)))) > 1.0

    def test_half_disc_imaginary_axis(self):
        # |R(iy)|^2 = (1 - y^2/2 + y^4/24)^2 + (y - y^3/6)^2 = 1 - y^6/72 + y^8/576, exactly.
        def times(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        re = [Fraction(1), 0, Fraction(-1, 2), 0, Fraction(1, 24)]
        im = [0, Fraction(1), 0, Fraction(-1, 6)]
        square = [a + b for a, b in zip(times(re, re), times(im, im) + [0, 0])]
        assert square == [1, 0, 0, 0, 0, 0, Fraction(-1, 72), 0, Fraction(1, 576)]
        # so |R(iy)| <= 1 exactly while y^8/576 <= y^6/72, that is y^2 <= 8
        assert Fraction(sim._RK4_DISC) ** 2 <= 8

    def test_bound_holds_on_random_matrices(self, rng):
        for n in (1, 2, 5, 40):
            for _ in range(20):
                a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
                a[rng.random((n, n)) < 0.3] = 0.0
                assert sim._spectral_radius_bound(a) >= float(np.max(np.abs(np.linalg.eigvals(a))))
        assert sim._spectral_radius_bound(np.zeros((3, 3))) == 0.0
        # a zero entry in M v ends the search with the bound found so far
        assert sim._spectral_radius_bound(np.array([[0.0, -1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["toy3", "ieee39_synthesized"])
    def test_warning_is_the_eigenvalue_decision(self, name, monkeypatch):
        from dstab.scenario import build_model, data_path, load_scenario

        sc = load_scenario(data_path(name))
        model = build_model(sc)
        a_cl = assemble_closed_loop(model)
        rho = float(np.max(np.abs(np.linalg.eigvals(a_cl))))
        eig_calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: eig_calls.append(a.shape) or eigvals(a))
        paths = set()
        for z_max in np.geomspace(0.3, 4.0, 40):
            dt = float(z_max / rho)
            expected = rk4_step_warning(a_cl, dt)
            before = len(eig_calls)
            assert caught_warnings(model, sc.disturbance.node, dt) == ([expected] if expected else [])
            paths.add((len(eig_calls) > before, expected is not None))
        # the sweep decides by the bound alone, by eigenvalues without a warning (ieee39) and with one
        assert {(False, False), (True, True)} <= paths

    def test_rounding_on_the_imaginary_axis_does_not_warn(self, toy_model, monkeypatch):
        # |R(z)| < 1 exactly for z = -1e-17 + iy, yet the double evaluation
        # reads 1 + 2**-52 at 1056 of these points; a true amplification still warns.
        dt = 2.0**-14  # scaling by a power of two keeps every z exact
        z = -1e-17 + 1j * np.linspace(1e-4, 0.05, 200_001)
        assert np.count_nonzero(rk4_gain(z) > 1) == 1056
        monkeypatch.setattr(sim, "_spectral_radius_bound", lambda a: math.inf)
        a_cl = assemble_closed_loop(toy_model)
        for modes, warns in ((z, False), (np.append(z, -1e-3 + 2.9j), True)):
            monkeypatch.setattr(np.linalg, "eigvals", lambda a, modes=modes: modes / dt)
            expected = rk4_step_warning(a_cl, dt)
            assert (expected is not None) == warns
            assert caught_warnings(toy_model, 2, dt) == ([expected] if warns else [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_takes_the_eigenvalue_path(self, toy_model, monkeypatch, bad):
        a_cl = assemble_closed_loop(toy_model)
        a_cl[1, 2] = bad
        monkeypatch.setattr(sim, "assemble_closed_loop", lambda m: a_cl.copy())
        d = DisturbanceSpec(node=2, magnitude=0.01, start=0.05, duration=0.02)
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            simulate(toy_model, d, t_end=0.1, dt=1e-4)

    def test_shipped_step_needs_no_eigenvalues(self, monkeypatch):
        from dstab.scenario import build_model, data_path, load_scenario

        sc = load_scenario(data_path("ieee39_synthesized"))
        model = build_model(sc)

        def refused(a):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refused)
        assert caught_warnings(model, sc.disturbance.node, sc.dt) == []


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
