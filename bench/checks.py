"""Output checks of the dstab benchmark.

Every check rests on a computation made apart from the program or on a
property the method must have.  The scenario file is read with ``json`` and
the network matrix is rebuilt here from its line list; regions, margins,
grid-code eigenvalues, transfer-function values and the exact sampled
solution of the simulation are all computed in this file with numpy and
scipy.  A failed check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

MARGIN_TOL = 1e-6          # oracle margin below which a pole is outside the region
FLOOR_REL_TOL = 1e-8       # |lambda_min| at the floor, relative to the matrix norm
TF_REL_TOL = 1e-7          # Re g(jw) and Re(pole) tolerance, relative to the function scale
TRAJ_REL_TOL = 1e-6        # RK4 against the exact sampled solution, relative to the peak
MIN_DECAY_RATE = 8.0       # the lhp(-8) guarantee, 1/s
FREQ_GRID = np.concatenate([-np.logspace(-3, 7, 4000)[::-1], [0.0], np.logspace(-3, 7, 4000)])


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Scenario data, read apart from the program


class Grid:
    """The parts of a scenario file the checks need, parsed with ``json``."""

    def __init__(self, raw: dict):
        topo = raw["topology"]
        self.raw = raw
        self.n = int(topo["nodes"])
        self.sources = [k - 1 for k in topo["sources"]]
        self.loads = [k - 1 for k in topo["loads"]]
        Y = np.zeros((self.n, self.n))
        for i, j, r in topo["edges"]:
            g = 1.0 / r
            Y[i - 1, j - 1] -= g
            Y[j - 1, i - 1] -= g
            Y[i - 1, i - 1] += g
            Y[j - 1, j - 1] += g
        self.Y = Y
        self.devices = {b["node"] - 1: b for b in raw["devices"]}
        specs = raw["region"] if isinstance(raw["region"], list) else [raw["region"]]
        self.parts = [half_plane(spec) for spec in specs]

    @classmethod
    def from_file(cls, path) -> "Grid":
        with open(path) as fh:
            return cls(json.load(fh))

    @property
    def n_states(self) -> int:
        """Sum of subsystem orders: 2 per source, 1 per load."""
        return 2 * len(self.sources) + len(self.loads)

    def margin(self, s: complex) -> float:
        return min(part_margin(p, s) for p in self.parts)

    def power_flow_residual(self, u: np.ndarray) -> float:
        """Largest current-balance residual (A) of the node voltages ``u``
        under the device laws: droop sources u + R_d i = U_r, PV units inject
        U_r_pv i_pv* / u, loads draw P / u."""
        u = np.asarray(u, dtype=float)
        i = self.Y @ u
        worst = 0.0
        for k in range(self.n):
            b = self.devices[k]
            if b["type"] in ("ess_boost", "ess_buck"):
                injected = (b["U_r_volt"] - u[k]) / b["R_d_ohm"]
            elif b["type"] == "pv":
                injected = b["U_r_pv_volt"] * b["i_pv_star_amp"] / u[k]
            else:
                injected = -b["P_watt"] / u[k]
            worst = max(worst, abs(i[k] - injected))
        return worst

    def virtual_admittance(self, part: tuple, load: int, u_star: float) -> float:
        """y_v = -C_l sigma0 + (P/u*^2) cos(theta0) - C_l omega0 sin(theta0)."""
        theta0, omega0, sigma0 = part
        b = self.devices[load]
        y_l = b["P_watt"] / (u_star * u_star)
        c_l = b["C_l_farad"]
        return -c_l * sigma0 + y_l * math.cos(theta0) - c_l * omega0 * math.sin(theta0)


def half_plane(spec: dict) -> tuple[float, float, float]:
    """(theta0, omega0, sigma0) of a region spec."""
    kind = spec["kind"]
    if kind == "lhp":
        return 0.0, 0.0, float(spec["alpha"])
    if kind == "sector":
        return math.pi / 2 - float(spec["beta"]), 0.0, 0.0
    if kind == "hstrip":
        return math.pi / 2, float(spec["gamma"]), 0.0
    return float(spec["theta0"]), float(spec["omega0"]), float(spec["sigma0"])


def part_margin(part: tuple, s: complex) -> float:
    """Signed distance of ``s`` to the half-plane region (>= 0 inside)."""
    theta0, omega0, sigma0 = part
    plus = sigma0 - (complex(math.cos(theta0), -math.sin(theta0)) * (s - 1j * omega0)).real
    minus = sigma0 - (complex(math.cos(theta0), math.sin(theta0)) * (s + 1j * omega0)).real
    return min(plus, minus)


# ---------------------------------------------------------------------------
# poles


def check_poles(text: str, rc: int, grid: Grid) -> np.ndarray:
    """The pole CSV: one pole per state, closed under conjugation, margins
    recomputed from (re, im) and the region spec.  Returns the poles."""
    require(rc == 0, f"poles exited {rc}")
    lines = text.splitlines()
    require(lines and lines[0] == "re,im,margin", "poles CSV header is not re,im,margin")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 3)
    require(len(rows) == grid.n_states,
            f"{len(rows)} poles for {grid.n_states} states (2 per source, 1 per load)")
    poles = rows[:, 0] + 1j * rows[:, 1]
    scale = max(1.0, float(np.max(np.abs(poles))))
    mirrored = np.sort_complex(np.conj(poles))
    require(np.allclose(np.sort_complex(poles), mirrored, rtol=0, atol=1e-8 * scale),
            "pole set is not closed under conjugation")
    for pole, margin in zip(poles, rows[:, 2]):
        expected = grid.margin(pole)
        require(abs(margin - expected) <= 1e-9 * max(1.0, abs(pole)),
                f"pole {pole:.6g}: reported margin {margin:.9g}, recomputed {expected:.9g}")
    return poles


def worst_margin(poles: np.ndarray, grid: Grid) -> float:
    return min(grid.margin(p) for p in poles)


# ---------------------------------------------------------------------------
# gridcode


def network_matrix(grid: Grid, theta0: float, y_source: float, y_virtual) -> np.ndarray:
    """cos(theta0) Y + diag(y on sources, -y_virtual on loads)."""
    d = np.zeros(grid.n)
    d[grid.sources] = y_source
    d[grid.loads] = -np.asarray(y_virtual, dtype=float)
    return math.cos(theta0) * grid.Y + np.diag(d)


def check_gridcode(report: dict, rc: int, grid: Grid, u_star) -> None:
    """Each part's floor is where the full network matrix turns singular:
    lambda_min is ~0 at the reported floor and positive just above it.  The
    virtual admittances follow from the load laws at the operating point."""
    codes = report["grid_codes"]
    require(len(codes) == len(grid.parts), f"{len(codes)} grid codes for {len(grid.parts)} region parts")
    all_ok = True
    for code, part in zip(codes, grid.parts):
        reported = half_plane(code["region"])
        require(all(abs(a - b) <= 1e-11 * max(1.0, abs(b)) for a, b in zip(reported, part)),
                "grid code region differs from the scenario region")
        y_v = code["y_virtual"]
        require(len(y_v) == len(grid.loads), "one virtual admittance per load expected")
        for pos, k in enumerate(grid.loads):
            expected = grid.virtual_admittance(part, k, u_star[k])
            require(abs(y_v[pos] - expected) <= 1e-9 * max(1.0, abs(expected)),
                    f"load node {k + 1}: y_virtual {y_v[pos]:.12g}, load law gives {expected:.12g}")
        theta0 = part[0]
        m_ll = math.cos(theta0) * grid.Y[np.ix_(grid.loads, grid.loads)] - np.diag(y_v)
        ll_min = float(np.linalg.eigvalsh(m_ll)[0])
        if not code["ll_assumption_ok"]:
            all_ok = False
            require(code["lambda_min_xi"] is None, "invalid grid code reports a floor")
            require(ll_min <= 1e-9 * max(1.0, float(np.abs(m_ll).max())),
                    f"load block is positive definite (lambda_min {ll_min:.3e}) but the code is marked invalid")
            continue
        require(ll_min > 0, f"load block lambda_min {ll_min:.3e} <= 0 but the code is marked valid")
        floor = code["y_s_lower_bound"]
        require(isinstance(floor, float) and abs(floor + code["lambda_min_xi"]) <= 1e-15 * max(1.0, abs(floor)),
                "y_s_lower_bound is not -lambda_min_xi")
        at = network_matrix(grid, theta0, floor, y_v)
        norm = max(1.0, float(np.abs(at).max()))
        lam_at = float(np.linalg.eigvalsh(at)[0])
        require(abs(lam_at) <= FLOOR_REL_TOL * norm,
                f"lambda_min of the network matrix at the floor {floor:.9g} is {lam_at:.3e}, not ~0")
        step = 1e-5 * max(1.0, abs(floor))
        lam_above = float(np.linalg.eigvalsh(network_matrix(grid, theta0, floor + step, y_v))[0])
        require(lam_above > FLOOR_REL_TOL * norm,
                f"network matrix is not positive definite just above the floor ({lam_above:.3e})")
    require(rc == (0 if all_ok else 1), f"gridcode exited {rc} with ll_assumption_ok {all_ok}")


# ---------------------------------------------------------------------------
# check --theorem 1|2


def check_certificate(report: dict, rc: int, theorem: int, grid: Grid) -> bool:
    """The verdict agrees with the parts, each part with its network test
    and devices, each failing device carries a witness.  Returns the verdict."""
    require(report["theorem"] == f"thm{theorem}", f"report is for {report['theorem']}, asked thm{theorem}")
    require(len(report["parts"]) == len(grid.parts), "one certificate part per region part expected")
    for part in report["parts"]:
        require(len(part["devices"]) == grid.n, "one device report per node expected")
        for dev in part["devices"]:
            check_device_verdict(dev)
        devices_ok = all(d["is_positive"] for d in part["devices"])
        require(part["certified"] == (part["network_ok"] and devices_ok),
                "part verdict disagrees with its network test and devices")
        if theorem == 1:
            require(part["network_ok"] == (part["network_lambda_min"] >= -1e-9 * max(1.0, abs(part["network_lambda_min"]))),
                    "network_ok disagrees with network_lambda_min")
    require(report["network_ok"] == all(p["network_ok"] for p in report["parts"]),
            "network_ok disagrees with the parts")
    certified = all(p["certified"] for p in report["parts"])
    require(report["certified"] == certified, "certified disagrees with the parts")
    require(rc == (0 if certified else 1), f"check exited {rc} with certified {certified}")
    return certified


def check_device_verdict(dev: dict) -> None:
    require(dev["is_positive"] == (dev["failed_condition"] == "none"),
            "is_positive disagrees with failed_condition")
    if not dev["is_positive"]:
        require(len(dev["witnesses"]) > 0, f"{dev['failed_condition']} failure without a witness")


def check_soundness(certified: bool, poles: np.ndarray, grid: Grid) -> None:
    """A certificate never claims a region the pole oracle refutes."""
    if certified:
        worst = worst_margin(poles, grid)
        require(worst >= -MARGIN_TOL, f"certified, but a pole has region margin {worst:.6g}")


# ---------------------------------------------------------------------------
# synthesize


def check_synthesize(report: dict, rc: int, grid: Grid) -> bool:
    """Chosen indices sit between the broadcast floor and the device cap;
    compliance, the index table and the verdict agree.  Returns all_compliant."""
    require(len(report["parts"]) == len(grid.parts) == len(report["y_s"]), "one entry per region part expected")
    source_nodes = [k + 1 for k in grid.sources]
    for code, entries, row in zip(report["grid_codes"], report["parts"], report["y_s"]):
        require([e["node"] for e in entries] == source_nodes, "entries do not follow the source order")
        for entry, y in zip(entries, row):
            if not entry["compliant"]:
                require(y == 0.0 or (isinstance(y, str) and y == "nan"),
                        f"node {entry['node']}: non-compliant source with index {y}")
                continue
            require(entry["y_s"] == y, f"node {entry['node']}: index table disagrees with the entry")
            floor = code["y_s_lower_bound"]
            require(entry["y_s_floor"] == floor, f"node {entry['node']}: floor differs from the grid code")
            require(y >= floor - 1e-9, f"node {entry['node']}: index {y:.9g} below the floor {floor:.9g}")
            if entry["y_s_cap"] is not None:
                require(y <= entry["y_s_cap"], f"node {entry['node']}: index {y:.9g} above its cap")
    compliant = all(e["compliant"] for entries in report["parts"] for e in entries)
    require(report["all_compliant"] == compliant, "all_compliant disagrees with the entries")
    require(rc == (0 if compliant else 1), f"synthesize exited {rc} with all_compliant {compliant}")
    return compliant


# ---------------------------------------------------------------------------
# positivity


def _poly(pairs) -> np.ndarray:
    """Ascending [re, im] pairs -> descending complex coefficients."""
    return np.array([complex(re, im) for re, im in pairs])[::-1]


def check_positivity(report: dict, rc: int, grid: Grid) -> None:
    """Each positive device's reported transfer function has Re g(jw) >= 0
    on a dense grid and poles in the closed left half-plane; each failure's
    witness shows the failure."""
    require(len(report["parts"]) == len(grid.parts), "one entry per region part expected")
    all_ok = True
    for part in report["parts"]:
        require(len(part["devices"]) == grid.n, "one device report per node expected")
        for dev in part["devices"]:
            check_device_verdict(dev)
            all_ok = all_ok and dev["is_positive"]
            num = _poly(dev["transfer_function"]["num"])
            den = _poly(dev["transfer_function"]["den"])
            scale = max(1.0, float(np.max(np.abs(num))) / float(np.max(np.abs(den))))
            where = f"node {dev['node']}"
            if dev["is_positive"]:
                # Poles within 1e-9 of the imaginary axis count as on it (the
                # method's pole tolerance): they are put exactly on the axis,
                # and grid points next to them, where the real part is only
                # rounding, are left out.
                poles = np.roots(den)
                on_axis = np.abs(poles.real) <= 1e-9 * np.maximum(1.0, np.abs(poles))
                den = den[0] * np.poly(np.where(on_axis, 1j * poles.imag, poles))
                den_at = np.polyval(den, 1j * FREQ_GRID)
                size = np.polyval(np.abs(den), np.maximum(1.0, np.abs(FREQ_GRID)))
                away = np.abs(den_at) > 1e-8 * size
                values = np.polyval(num, 1j * FREQ_GRID[away]) / den_at[away]
                low = float(np.min(values.real))
                require(low >= -TF_REL_TOL * scale, f"{where}: reported positive, Re g(jw) reaches {low:.3e}")
                if poles.size:
                    worst = float(np.max(poles.real / np.maximum(1.0, np.abs(poles))))
                    require(worst <= TF_REL_TOL, f"{where}: reported positive, pole with Re {worst:.3e}")
            elif dev["failed_condition"] == "real_part":
                for w in dev["witnesses"]:
                    omega = w["at"][0]
                    value = (np.polyval(num, 1j * omega) / np.polyval(den, 1j * omega)).real
                    require(value < 0, f"{where}: real_part witness w={omega:.6g} has Re g = {value:.3e} >= 0")
            elif dev["failed_condition"] == "pole_location":
                for w in dev["witnesses"]:
                    p = complex(*w["at"])
                    size = float(np.sum(np.abs(den) * max(1.0, abs(p)) ** np.arange(len(den))[::-1]))
                    require(p.real > 0 and abs(np.polyval(den, p)) <= 1e-6 * size,
                            f"{where}: pole_location witness {p:.6g} is not a right-half-plane pole")
    require(rc == (0 if all_ok else 1), f"positivity exited {rc} with all positive {all_ok}")


# ---------------------------------------------------------------------------
# simulate


def parse_csv(text: str, n_nodes: int, n_steps: int) -> np.ndarray:
    """The trajectory CSV as an array: steps + 1 rows, nodes + 1 columns."""
    head, _, body = text.partition("\n")
    require(head.split(",") == ["t"] + [f"du_{k + 1}" for k in range(n_nodes)],
            f"trajectory header does not name t and {n_nodes} nodes")
    require(body.count("\n") == n_steps + 1 and body.endswith("\n"),
            f"trajectory has {body.count(chr(10))} rows, expected steps + 1 = {n_steps + 1}")
    values = np.fromstring(body.replace("\n", ","), sep=",")
    require(values.size == (n_steps + 1) * (n_nodes + 1),
            f"trajectory has {values.size} values, expected {(n_steps + 1) * (n_nodes + 1)}")
    return values.reshape(n_steps + 1, n_nodes + 1)


def closed_loop(grid: Grid, subsystems, disturbed: int, amps: float):
    """Controllable-form realization of u = -Y y - d, built here: (A, b, C)
    with the load pulse entering the disturbed device's input."""
    dims = [len(den) - 1 for _, den in subsystems]
    n_x = sum(dims)
    A = np.zeros((n_x, n_x))
    B = np.zeros((n_x, grid.n))
    C = np.zeros((grid.n, n_x))
    off = 0
    for k, (num, den) in enumerate(subsystems):
        d = dims[k]
        monic = np.asarray(den, dtype=float) / den[-1]
        A[off:off + d - 1, off + 1:off + d] = np.eye(d - 1)
        A[off + d - 1, off:off + d] = -monic[:d]
        B[off + d - 1, k] = 1.0 / den[-1]
        C[k, off:off + len(num)] = num
        off += d
    return A - B @ grid.Y @ C, -amps * B[:, disturbed], C


def exact_samples(A, b, C, pulse_on: list[bool], h: float) -> np.ndarray:
    """Outputs at t = 0, h, 2h, ... under a piecewise-constant unit input,
    from the zero-order-hold exponential of the augmented matrix [[A, b], [0, 0]]."""
    import scipy.linalg  # here, so that a benchmark run's peak memory does not count scipy

    n_x = A.shape[0]
    aug = np.zeros((n_x + 1, n_x + 1))
    aug[:n_x, :n_x] = A
    aug[:n_x, n_x] = b
    E = scipy.linalg.expm(aug * h)
    phi, gamma = E[:n_x, :n_x], E[:n_x, n_x]
    x = np.zeros(n_x)
    out = [C @ x]
    for on in pulse_on:
        x = phi @ x + (gamma if on else 0.0)
        out.append(C @ x)
    return np.array(out)


def check_trajectory(traj: np.ndarray, grid: Grid, model_tfs, load_law: tuple[int, float]) -> float:
    """RK4 samples against the exact zero-order-hold solution at every pulse
    edge grid point.  ``model_tfs`` is a list of (num, den) ascending real
    coefficients; ``load_law`` is (disturbed node, injected amps).  Returns
    the worst error relative to the peak deviation."""
    sim = grid.raw["simulation"]
    dist = grid.raw["disturbance"]
    dt = sim["dt_s"]
    steps = traj.shape[0] - 1
    require(np.allclose(traj[:, 0], dt * np.arange(steps + 1), rtol=1e-12, atol=1e-15),
            "time column is not the step grid")
    start, width = round(dist["start_s"] / dt), round(dist["duration_s"] / dt)
    stride = math.gcd(math.gcd(start, width), steps)
    node, amps = load_law
    A, b, C = closed_loop(grid, model_tfs, node, amps)
    on = [start <= i * stride < start + width for i in range(steps // stride)]
    exact = exact_samples(A, b, C, on, stride * dt)
    sampled = traj[::stride, 1:]
    peak = float(np.max(np.abs(traj[:, 1:])))
    require(peak > 0, "trajectory shows no deviation")
    err = float(np.max(np.abs(sampled - exact))) / peak
    require(err <= TRAJ_REL_TOL, f"RK4 trajectory differs from the exact solution by {err:.3e} of the peak")
    return err


def settling(traj: np.ndarray, band: float) -> tuple[float, float]:
    """(settling time, peak): last exit from the +-band*peak tube."""
    dev = np.max(np.abs(traj[:, 1:]), axis=1)
    peak = float(np.max(dev))
    outside = np.nonzero(dev > band * peak)[0]
    return (float(traj[outside[-1], 0]) if outside.size else 0.0), peak


def check_sim_metrics(report: dict, traj: np.ndarray, grid: Grid) -> None:
    t_settle, peak = settling(traj, grid.raw["simulation"]["band"])
    require(abs(report["settling_time"] - t_settle) <= 1e-9, "settling_time differs from the trajectory")
    require(abs(report["peak_dev"] - peak) <= 1e-9 * peak, "peak_dev differs from the trajectory")


def decay_rate(traj: np.ndarray, t_from: float, t_to: float) -> float:
    """Exponential decay rate (1/s) of the deviation envelope, the largest
    deviation at or after t, between two times."""
    dev = np.max(np.abs(traj[:, 1:]), axis=1)
    envelope = np.maximum.accumulate(dev[::-1])[::-1]
    t = traj[:, 0]
    i, j = int(np.searchsorted(t, t_from)), int(np.searchsorted(t, t_to))
    return math.log(envelope[i] / envelope[j]) / (t[j] - t[i])
