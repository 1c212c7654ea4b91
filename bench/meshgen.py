"""Seeded generator of random DC-microgrid meshes in the dstab scenario format.

A mesh of ``n`` nodes is a random connected graph with round(46/39 * n)
lines, the line density of the 39-bus branch list, every line 0.1 ohm.  It
carries the 39-bus device mix (7 boost, 7 buck and 10 PV sources and 15
constant-power loads per 39 nodes) with the stock device templates and the
composite target region of ``tools/build_ieee39.py``.  No equilibrium is
pinned, so every command resolves the operating point by Newton power flow.
A short load pulse sits at one load node.

Some random draws have no operating point (a load pocket far from every
source collapses its voltage).  A draw is kept only if this file's own flat
start Newton power flow converges with every node above 0.6 of nominal;
otherwise the next draw of the same seed is taken.  Draws are a function of
(n, seed) alone.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import build_ieee39 as ieee39  # noqa: E402
import numpy as np  # noqa: E402

from checks import Grid  # noqa: E402

LINES_PER_NODE = len(ieee39.BRANCHES) / 39.0
MIX = (
    ("ess_boost", len(ieee39.BOOST_NODES), ieee39.BOOST_DEFAULT),
    ("ess_buck", len(ieee39.BUCK_NODES), ieee39.BUCK_DEFAULT),
    ("pv", len(ieee39.PV_NODES), ieee39.PV_DEFAULT),
    ("cpl", len(ieee39.CPL_NODES), ieee39.CPL_DEFAULT),
)
# Short simulation: 1000 RK4 steps at the 39-bus step size, pulse on grid points.
DT = ieee39.SIMULATION["dt_s"]
SIM_STEPS = 1000
PULSE = {"magnitude": ieee39.DISTURBANCE["magnitude"], "start_s": 100 * DT,
         "duration_s": 200 * DT, "shape": "pulse"}


def random_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected graph on nodes 1..n: a random recursive tree plus random
    chords up to round(LINES_PER_NODE * n) distinct lines."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for pos in range(1, n):
        a, b = order[pos], order[rng.randrange(pos)]
        edges.add((min(a, b), max(a, b)))
    target = round(LINES_PER_NODE * n)
    while len(edges) < target:
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def device_kinds(n: int, rng: random.Random) -> list[str]:
    """Per-node device type with the 39-bus proportions (loads take the rest)."""
    kinds: list[str] = []
    for kind, count, _ in MIX[:-1]:
        kinds += [kind] * max(1, round(n * count / 39))
    kinds += ["cpl"] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def power_flow(grid: Grid, nominal: float, max_iter: int = 50) -> np.ndarray | None:
    """Node voltages from a flat-start Newton solve of the device laws, or
    None if it does not converge."""
    kinds = [grid.devices[k]["type"] for k in range(grid.n)]
    droop = np.array([k in ("ess_boost", "ess_buck") for k in kinds])
    r_d = np.array([grid.devices[k].get("R_d_ohm", 1.0) for k in range(grid.n)])
    u_r = np.array([grid.devices[k].get("U_r_volt", 0.0) for k in range(grid.n)])
    # power injected by PV units (+) and drawn by loads (-)
    p = np.array([grid.devices[k]["U_r_pv_volt"] * grid.devices[k]["i_pv_star_amp"] if kinds[k] == "pv"
                  else -grid.devices[k].get("P_watt", 0.0) for k in range(grid.n)])
    u = np.full(grid.n, nominal)
    for _ in range(max_iter):
        i = grid.Y @ u
        r = np.where(droop, u + r_d * i - u_r, i - p / u)
        if np.max(np.abs(r)) < 1e-9:
            return u
        J = np.where(droop[:, None], r_d[:, None] * grid.Y, grid.Y)
        J[np.diag_indices(grid.n)] += np.where(droop, 1.0, p / (u * u))
        u = u - np.linalg.solve(J, r)
        if not np.all(np.isfinite(u)):
            return None
    return None


def mesh_scenario(n: int, seed: int) -> dict:
    """Scenario dict of the ``n``-node mesh drawn from ``seed``: the first
    draw with an operating point above 0.6 of nominal."""
    for attempt in range(1000):
        raw = draw(n, random.Random(f"mesh-{n}-{seed}-{attempt}"))
        raw["name"] = f"mesh-n{n}-s{seed}"
        u = power_flow(Grid(raw), ieee39.NOMINAL)
        if u is not None and np.min(u) >= 0.6 * ieee39.NOMINAL:
            return raw
    raise RuntimeError(f"no feasible {n}-node mesh for seed {seed}")


def draw(n: int, rng: random.Random) -> dict:
    """One random mesh of ``n`` nodes."""
    kinds = device_kinds(n, rng)
    templates = {kind: template for kind, _, template in MIX}
    devices = [{"node": k + 1, "type": kind, **templates[kind]} for k, kind in enumerate(kinds)]
    loads = [k + 1 for k, kind in enumerate(kinds) if kind == "cpl"]
    return {
        "nominal_voltage_volt": ieee39.NOMINAL,
        "topology": {
            "nodes": n,
            "edges": [[i, j, ieee39.LINE_R] for i, j in random_edges(n, rng)],
            "sources": [k + 1 for k, kind in enumerate(kinds) if kind != "cpl"],
            "loads": loads,
        },
        "devices": devices,
        "region": ieee39.REGION,
        "disturbance": {"node": rng.choice(loads), **PULSE},
        "simulation": {"t_end_s": SIM_STEPS * DT, "dt_s": DT, "band": ieee39.SIMULATION["band"]},
    }


def write_scenario(raw: dict, path: Path) -> Path:
    Path(path).write_text(json.dumps(raw))
    return Path(path)
