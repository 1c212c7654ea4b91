#!/usr/bin/env python3
"""Regenerate the shipped 39-node scenario files.

The topology is the standard 39-bus New England benchmark branch list (46
branches, here all 0.1-ohm resistive lines).  The default scenario carries
the stock device parameters.  The tuned scenario carries re-synthesized
controller gains: every boost unit starts from one tuned template (kI_u,
droop, and a voltage reference moved so the operating point is unchanged)
and takes the smallest proportional gain on a fixed ladder that complies
with the broadcast grid code of every region part.  That choice uses only
the unit's own model and the broadcast floors.  Both files pin the solved
equilibrium so downstream runs are reproducible.

Run from the repository root:  python3 tools/build_ieee39.py [out_dir]
(out_dir defaults to src/dstab/data).  The tool exits nonzero, naming the
node and the region part, if a boost unit has no compliant rung.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dstab import devices as dev
from dstab.cli import dumps
from dstab.network import AdmittanceMatrix, GridCode, NodePartition, grid_code
from dstab.regions import family, parts, region_from_spec
from dstab.scenario import parse_device

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "dstab" / "data"

# 39-bus New England branch list (34 lines + 12 transformer branches).
BRANCHES = [
    (1, 2), (1, 39), (2, 3), (2, 25), (3, 4), (3, 18), (4, 5), (4, 14),
    (5, 6), (5, 8), (6, 7), (6, 11), (7, 8), (8, 9), (9, 39), (10, 11),
    (10, 13), (13, 14), (14, 15), (15, 16), (16, 17), (16, 19), (16, 21),
    (16, 24), (17, 18), (17, 27), (21, 22), (22, 23), (23, 24), (25, 26),
    (26, 27), (26, 28), (26, 29), (28, 29),
    (2, 30), (6, 31), (10, 32), (12, 11), (12, 13), (19, 20), (19, 33),
    (20, 34), (22, 35), (23, 36), (25, 37), (29, 38),
]
LINE_R = 0.1

BOOST_NODES = [1, 2, 5, 6, 9, 10, 11]
BUCK_NODES = [13, 14, 16, 17, 19, 22, 28]
PV_NODES = list(range(30, 40))
CPL_NODES = [3, 4, 7, 8, 12, 15, 18, 20, 21, 23, 24, 25, 26, 27, 29]

NOMINAL = 105.0

BOOST_DEFAULT = dict(C_farad=2e-3, E_volt=50.0, U_r_volt=105.0, R_d_ohm=0.6, kP_u=0.01, kI_u=60.0)
BUCK_DEFAULT = dict(C_farad=3e-3, E_volt=200.0, U_r_volt=105.0, R_d_ohm=0.7, kP_u=0.01, kI_u=50.0)
# Panel-side data: 7 parallel strings of a 200 W module at its rated point
# (36.12 V, about 5.54 A each -> 38.76 A, 1400 W).  At a reference equal to
# the maximum-power voltage, dP/dV = 0 gives dI/dV = -I/V exactly, so the
# incremental conductance is -38.76/36.12 S.
PV_DEFAULT = dict(C_farad=2e-3, kP_u=0.1, kI_u=0.5, U_r_pv_volt=36.12,
                  i_pv_star_amp=38.76, g_pv_star_siemens=-38.76 / 36.12)
CPL_DEFAULT = dict(C_l_farad=2e-3, P_watt=1500.0)

# Tuned boost template (droop rescaled from the stock 0.6 ohm; the voltage
# reference follows so the operating point is unchanged) and the ladder the
# proportional gain is synthesized on.
BOOST_TUNED = dict(kI_u=26.5, R_d_ohm=0.6 * 1.18)
KP_LADDER = (0.35, 0.36, 0.37, 0.38, 0.39, 0.40)

REGION = [
    {"kind": "lhp", "alpha": -8.0},
    {"kind": "sector", "beta": 5.0 * math.pi / 12.0},
    {"kind": "hstrip", "gamma": 24.0 * math.pi},
]

DISTURBANCE = {"node": 20, "magnitude": 0.01, "start_s": 0.1, "duration_s": 0.02, "shape": "pulse"}
SIMULATION = {"t_end_s": 1.5, "dt_s": 2e-5, "band": 0.02}


def build_network() -> AdmittanceMatrix:
    sources = tuple(n - 1 for n in BOOST_NODES + BUCK_NODES + PV_NODES)
    loads = tuple(n - 1 for n in CPL_NODES)
    return AdmittanceMatrix([(i - 1, j - 1, LINE_R) for i, j in BRANCHES], 39,
                            NodePartition(sources, loads))


def solve_equilibrium(Y: AdmittanceMatrix, blocks: list[dict]) -> dev.Equilibrium:
    return dev.equilibrium_solve(Y, [parse_device(b, 39)[1] for b in blocks], NOMINAL)


def broadcast_codes(Y: AdmittanceMatrix, blocks: list[dict], eq: dev.Equilibrium) -> list[GridCode]:
    """The grid code of every region part, from the loads at the operating point."""
    pairs = []
    for k in Y.partition.load_ids:
        cpl = parse_device(blocks[k], 39)[1]
        pairs.append((cpl.C_l, dev.cpl_conductance(cpl, eq.u_star[k])))
    codes = [grid_code(Y, part, pairs) for part in parts(region_from_spec(REGION))]
    for code in codes:
        if not code.ll_assumption_ok:
            sys.exit(f"{family(code.region)} part: the loads exhaust the network damping; no grid code")
    return codes


def failing_parts(block: dict, codes: list[GridCode], u_star: float) -> list[str]:
    """Region parts whose grid code the device in ``block`` does not comply with."""
    g = dev.source_coeffs(parse_device(block, 39)[1], u_star)
    return [family(c.region) for c in codes if not dev.check_compliance([g], c)[0].compliant]


def synthesize_boost(node: int, eq: dev.Equilibrium, codes: list[GridCode]) -> dict:
    """Tuned template with the smallest compliant proportional gain on the ladder."""
    u_star, i_star = eq.u_star[node - 1], eq.i_star[node - 1]
    block = {"node": node, "type": "ess_boost", **BOOST_DEFAULT, **BOOST_TUNED,
             "U_r_volt": u_star + BOOST_TUNED["R_d_ohm"] * i_star}
    for kp in KP_LADDER:
        block["kP_u"] = kp
        failing = failing_parts(block, codes, u_star)
        if not failing:
            return block
    sys.exit(f"node {node}: no kP_u in {KP_LADDER} complies; "
             f"at {KP_LADDER[-1]} the {', '.join(failing)} grid code still fails")


def device_blocks(eq: dev.Equilibrium | None = None, codes: list[GridCode] | None = None) -> list[dict]:
    """Stock device blocks, or the tuned ones when the operating point and
    the grid codes to synthesize against are given."""
    tuned = eq is not None
    blocks: list[dict] = []
    for node in BOOST_NODES:
        if tuned:
            assert codes is not None
            blocks.append(synthesize_boost(node, eq, codes))
        else:
            blocks.append({"node": node, "type": "ess_boost", **BOOST_DEFAULT})
    for node in BUCK_NODES:
        p = dict(BUCK_DEFAULT)
        if tuned:
            p.update(kP_u=0.38, kI_u=21.0)
        blocks.append({"node": node, "type": "ess_buck", **p})
    for node in PV_NODES:
        p = dict(PV_DEFAULT)
        if tuned:
            p.update(kI_u=1.0)
        blocks.append({"node": node, "type": "pv", **p})
    for node in CPL_NODES:
        blocks.append({"node": node, "type": "cpl", **CPL_DEFAULT})
    blocks.sort(key=lambda b: b["node"])
    return blocks


def scenario_dict(name: str, blocks: list[dict], eq: dev.Equilibrium) -> dict:
    return {
        "name": name,
        "nominal_voltage_volt": NOMINAL,
        "topology": {
            "nodes": 39,
            "edges": [[i, j, LINE_R] for i, j in BRANCHES],
            "sources": BOOST_NODES + BUCK_NODES + PV_NODES,
            "loads": CPL_NODES,
        },
        "devices": blocks,
        "region": REGION,
        "equilibrium": {
            "u_star_volt": list(eq.u_star),
            "i_star_amp": list(eq.i_star),
        },
        "disturbance": DISTURBANCE,
        "simulation": SIMULATION,
    }


def main(out_dir: Path = DATA_DIR) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    Y = build_network()

    default_blocks = device_blocks()
    eq = solve_equilibrium(Y, default_blocks)
    print(f"default equilibrium: u in [{min(eq.u_star):.3f}, {max(eq.u_star):.3f}] V")

    codes = broadcast_codes(Y, default_blocks, eq)
    tuned_blocks = device_blocks(eq, codes)
    print("synthesized boost kP_u: " + ", ".join(
        f"node {b['node']} {b['kP_u']:.2f}" for b in tuned_blocks if b["type"] == "ess_boost"))

    eq_tuned = solve_equilibrium(Y, tuned_blocks)
    drift = max(abs(a - b) for a, b in zip(eq.u_star, eq_tuned.u_star))
    print(f"operating-point drift after re-tuning: {drift:.3e} V")

    (out_dir / "ieee39_default.json").write_text(
        dumps(scenario_dict("ieee39-default", default_blocks, eq)) + "\n")
    (out_dir / "ieee39_synthesized.json").write_text(
        dumps(scenario_dict("ieee39-synthesized", tuned_blocks, eq_tuned)) + "\n")
    print(f"wrote scenarios to {out_dir}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the shipped 39-node scenario files.")
    parser.add_argument("out_dir", nargs="?", type=Path, default=DATA_DIR,
                        help="directory to write the scenario files to (default: src/dstab/data)")
    main(parser.parse_args().out_dir)
